"""DiffServe-Static baseline.

DiffServe-Static uses the same cascade and discriminator as DiffServe but is
*statically provisioned for peak demand*: the MILP is solved once against the
anticipated peak, and neither the worker split, batch sizes nor the confidence
threshold adapt afterwards.  The paper frames this as the common production
practice of provisioning for maximum anticipated demand.
"""

from __future__ import annotations

from typing import Optional

from repro.core.allocator import AllocationPlan, ControlContext, DiffServeAllocator
from repro.core.config import DEFAULT_FLEET, FleetSpec, ResourceConfig, RoutingMode, SystemConfig
from repro.core.policies import AllocationPolicy
from repro.core.system import ServingSimulation
from repro.discriminators.base import Discriminator
from repro.discriminators.deferral import DeferralProfile
from repro.discriminators.training import train_default_discriminator
from repro.models.dataset import QueryDataset, load_dataset
from repro.models.zoo import get_cascade


class PeakProvisionedPolicy(AllocationPolicy):
    """Solves the DiffServe MILP once against the anticipated peak demand."""

    dynamic = False

    def __init__(self, allocator: DiffServeAllocator, anticipated_peak_qps: float) -> None:
        if anticipated_peak_qps <= 0:
            raise ValueError("anticipated_peak_qps must be positive")
        self.allocator = allocator
        self.anticipated_peak_qps = anticipated_peak_qps
        self._plan: Optional[AllocationPlan] = None

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        # Peak provisioning happens exactly once; warm starts are moot.
        if self._plan is None:
            peak_ctx = ControlContext(
                demand=self.anticipated_peak_qps,
                slo=ctx.slo,
                fleet=ctx.fleet,
                light_queue_length=0.0,
                heavy_queue_length=0.0,
                observed_deferral=None,
            )
            self._plan = self.allocator.plan(peak_ctx)
        return self._plan


def build_diffserve_static_system(
    cascade_name: str = "sdturbo",
    *,
    anticipated_peak_qps: float,
    fleet: FleetSpec = DEFAULT_FLEET,
    slo: Optional[float] = None,
    dataset: Optional[QueryDataset] = None,
    discriminator: Optional[Discriminator] = None,
    deferral_profile: Optional[DeferralProfile] = None,
    resources: Optional[ResourceConfig] = None,
    faults=None,
    prices=None,
    over_provision: float = 1.05,
    seed: int = 0,
    dataset_size: int = 1000,
) -> ServingSimulation:
    """Build DiffServe-Static, provisioned for ``anticipated_peak_qps``."""
    cascade = get_cascade(cascade_name)
    if dataset is None:
        dataset = load_dataset(cascade.dataset, n=dataset_size, seed=seed)
    if discriminator is None:
        discriminator = train_default_discriminator(
            dataset, cascade.light, cascade.heavy, seed=seed
        )
    if deferral_profile is None:
        deferral_profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=seed)

    config = SystemConfig(
        cascade=cascade,
        fleet=fleet,
        slo=slo,
        routing=RoutingMode.CASCADE,
        over_provision=over_provision,
        resources=resources,
        seed=seed,
    )
    allocator = DiffServeAllocator(
        cascade.light,
        cascade.heavy,
        deferral_profile,
        discriminator_latency=discriminator.latency_s,
        over_provision=over_provision,
    )
    policy = PeakProvisionedPolicy(allocator, anticipated_peak_qps)
    return ServingSimulation(
        config=config,
        dataset=dataset,
        policy=policy,
        discriminator=discriminator,
        initial_demand=anticipated_peak_qps,
        name="diffserve-static",
        faults=faults,
        prices=prices,
    )
