"""Proteus baseline: demand-driven model scaling with query-agnostic routing.

Proteus (Ahmad et al., 2024) selects which model variants to host based on the
current query demand, trading accuracy for throughput, but routes queries to
variants *randomly* — it does not look at query content or difficulty.  It
also estimates queueing delays with the "twice the execution latency"
heuristic (Section 4.5 of the DiffServe paper), which rules out hosting very
slow variants under tight SLOs.

Our implementation follows that description: every control period it chooses
the highest-quality *feasible* variant, allocates as many workers to it as
possible while the remaining workers (hosting the lightweight variant) can
still absorb the residual demand, and then splits queries randomly across the
two pools in proportion to their provisioned capacity.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocator import AllocationPlan, ControlContext
from repro.core.config import DEFAULT_FLEET, FleetSpec, ResourceConfig, RoutingMode, SystemConfig
from repro.core.policies import AllocationPolicy
from repro.core.system import ServingSimulation
from repro.models.dataset import QueryDataset, load_dataset
from repro.models.variants import ModelVariant
from repro.models.zoo import MODEL_ZOO, CascadeSpec, get_cascade


def default_variant_family(cascade: CascadeSpec) -> List[ModelVariant]:
    """Model variants Proteus may host for a cascade's task (same family/resolution)."""
    family = cascade.heavy.family
    candidates = [v for v in MODEL_ZOO.values() if v.family == family]
    # Proteus can also run the heavy model with a faster sampler; derive a
    # 25-step variant if no intermediate exists for the family.
    if not any(
        cascade.light.quality.base_quality
        < v.quality.base_quality
        < cascade.heavy.quality.base_quality
        for v in candidates
    ):
        candidates.append(cascade.heavy.with_steps(max(cascade.heavy.steps // 2, 1)))
    return candidates


class ProteusPolicy(AllocationPolicy):
    """Query-agnostic accuracy scaling over a family of model variants."""

    dynamic = True

    def __init__(
        self,
        cascade: CascadeSpec,
        *,
        candidates: Optional[Sequence[ModelVariant]] = None,
        batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
        over_provision: float = 1.1,
        queueing_multiplier: float = 2.0,
    ) -> None:
        if over_provision < 1.0:
            raise ValueError("over_provision must be >= 1.0")
        self.cascade = cascade
        self.candidates = (
            list(candidates) if candidates is not None else default_variant_family(cascade)
        )
        self.batch_candidates = tuple(batch_candidates)
        self.over_provision = over_provision
        self.queueing_multiplier = queueing_multiplier

    # ------------------------------------------------------------- internals
    def _best_batch(self, variant: ModelVariant, slo: float) -> Optional[int]:
        """Largest batch whose execution + heuristic queueing delay fits the SLO."""
        feasible = [
            b
            for b in self.batch_candidates
            if (1.0 + self.queueing_multiplier) * variant.latency.latency(b) <= slo
        ]
        return max(feasible) if feasible else None

    def _feasible_candidates(self, slo: float) -> List[ModelVariant]:
        feasible = [v for v in self.candidates if self._best_batch(v, slo) is not None]
        return sorted(feasible, key=lambda v: v.quality.base_quality, reverse=True)

    # ------------------------------------------------------------------ plan
    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # Proteus re-derives its split from scratch each period; the closed
        # form below is already O(|candidates|), so no warm start is needed.
        slo = ctx.slo
        S = ctx.fleet.total_workers
        demand = max(ctx.demand, 1e-3) * self.over_provision
        light = self.cascade.light
        light_batch = self._best_batch(light, slo) or 1
        light_tput = light.latency.throughput(light_batch)

        feasible = self._feasible_candidates(slo)
        # Drop the light model itself from the "accurate" pool choices.
        accurate = [v for v in feasible if v.name != light.name] or [light]
        best = accurate[0]
        best_batch = self._best_batch(best, slo) or 1
        best_tput = best.latency.throughput(best_batch)

        # Give as many workers as possible to the accurate variant while the
        # remaining light workers can still absorb the residual demand.
        chosen_heavy = 0
        for n_heavy in range(S - 1, -1, -1):
            heavy_capacity = n_heavy * best_tput
            light_capacity = (S - n_heavy) * light_tput
            residual = max(demand - heavy_capacity, 0.0)
            if light_capacity >= residual and heavy_capacity + light_capacity >= demand:
                chosen_heavy = n_heavy
                break

        heavy_capacity = chosen_heavy * best_tput
        heavy_fraction = float(np.clip(heavy_capacity / max(ctx.demand, 1e-3), 0.0, 1.0))
        if chosen_heavy == 0:
            heavy_fraction = 0.0

        return AllocationPlan(
            num_light=S - chosen_heavy,
            num_heavy=chosen_heavy,
            light_batch=light_batch,
            heavy_batch=best_batch,
            threshold=0.0,
            heavy_fraction=heavy_fraction,
            feasible=True,
            light_variant=light,
            heavy_variant=best,
        )


def build_proteus_system(
    cascade_name: str = "sdturbo",
    *,
    fleet: FleetSpec = DEFAULT_FLEET,
    slo: Optional[float] = None,
    dataset: Optional[QueryDataset] = None,
    resources: Optional[ResourceConfig] = None,
    faults=None,
    prices=None,
    over_provision: float = 1.1,
    seed: int = 0,
    dataset_size: int = 1000,
) -> ServingSimulation:
    """Build the Proteus baseline for a named cascade.

    ``fleet`` selects a typed device fleet.  Proteus itself stays
    device-class-agnostic — it scales model variants against the aggregate
    worker count, which is exactly the heterogeneity-blindness the fleet
    study measures against.
    """
    cascade = get_cascade(cascade_name)
    if dataset is None:
        dataset = load_dataset(cascade.dataset, n=dataset_size, seed=seed)
    config = SystemConfig(
        cascade=cascade,
        fleet=fleet,
        slo=slo,
        routing=RoutingMode.RANDOM_SPLIT,
        resources=resources,
        seed=seed,
    )
    policy = ProteusPolicy(cascade, over_provision=over_provision)
    return ServingSimulation(
        config=config,
        dataset=dataset,
        policy=policy,
        discriminator=None,
        name="proteus",
        faults=faults,
        prices=prices,
    )
