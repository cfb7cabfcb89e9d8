"""The DiffServe resource allocator (Section 3.3), fleet-aware.

The allocator jointly picks the confidence threshold ``t``, the worker split
``(x1, x2)`` between the lightweight and heavyweight models, and their batch
sizes ``(b1, b2)``, maximising ``t`` subject to:

* the latency constraint ``e(b1) + q(b1) + e(b2) + q(b2) <= SLO`` (Eq. 1);
* the light-pool throughput constraint ``x1 * T1(b1) >= D`` (Eq. 2);
* the heavy-pool throughput constraint ``x2 * T2(b2) >= D * f(t)`` (Eq. 3);
* the device budget ``x1 + x2 <= S`` (Eq. 4).

On a heterogeneous :class:`~repro.core.config.FleetSpec` the worker split is
typed: each decision variable is indexed by device class (``x1[l4]``,
``x2[a100]``, ...), throughputs come from the per-(variant, device-class)
latency profiles, Eq. 4 becomes one capacity constraint per class, and memory
tiers gate which classes may host which variant.  A homogeneous fleet
degenerates to the exact legacy two-variable problem, so single-class
configurations reproduce pre-fleet allocation decisions bit-for-bit.

``f(t)`` — the fraction of queries deferred at threshold ``t`` — is an
empirical, piecewise-constant function, so the threshold is discretised onto
a grid and selected with binary variables inside a MILP solved per candidate
``(b1, b2)`` pair.  The paper uses Gurobi; here each per-pair MILP goes to a
solver from :mod:`repro.milp` picked by its size alone: closed-form
enumeration when the integral search space is at most
:data:`EXHAUSTIVE_SEARCH_LIMIT` assignments, branch-and-bound otherwise.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import DEFAULT_DEVICE_CLASS, DeviceClass, FleetSpec, ResourceConfig
from repro.core.pricing import PriceTrace
from repro.core.queueing import LittlesLawModel, QueueingModel
from repro.discriminators.deferral import DeferralProfile
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.exhaustive import ExhaustiveSolver
from repro.milp.problem import MILPProblem
from repro.milp.solution import MILPSolution
from repro.models.variants import ModelVariant
from repro.models.zoo import variant_profile

#: Quantile levels of the deferral profile sampled into the candidate
#: threshold grid (plus the 0 and 1 endpoints).
THRESHOLD_LEVELS = 21

#: Largest integral search space a per-pair MILP may have to be solved by
#: closed-form enumeration (:class:`~repro.milp.exhaustive.ExhaustiveSolver`);
#: larger ones go to branch-and-bound.  64 covers homogeneous clusters of up
#: to 7 workers (``S * (S + 1)`` assignments).  Enumeration costs about 5 us
#: per assignment against 1.5-8 ms per branch-and-bound solve, so the
#: measured crossover is several hundred assignments.  The limit stays at 64
#: because with 272-assignment (16-worker) problems enumerated, the warm
#: re-planning benchmark's 3x warm-vs-cold wall-clock gate no longer holds
#: with margin (its worst pair measured exactly 3.0x).
EXHAUSTIVE_SEARCH_LIMIT = 64


@dataclass
class AllocationPlan:
    """The Controller-facing output of one allocation solve.

    ``num_light`` workers host the light model (plus discriminator),
    ``num_heavy`` host the heavy model, with the given batch sizes and
    confidence threshold.  On a heterogeneous fleet the optional
    ``light_assignment`` / ``heavy_assignment`` maps name each pool's
    per-device-class worker counts (they must sum to the totals); ``None``
    means the split is class-agnostic and the Controller assigns workers in
    fleet order (the legacy behaviour every baseline policy relies on).
    ``heavy_fraction`` is only used by random-split (Proteus-style) routing.
    ``light_variant_name`` / ``heavy_variant_name`` allow baseline policies
    to place other model variants on the two pools.
    """

    num_light: int
    num_heavy: int
    light_batch: int
    heavy_batch: int
    threshold: float
    heavy_fraction: float = 0.0
    feasible: bool = True
    objective: Optional[float] = None
    solver_time_s: float = 0.0
    light_variant_name: Optional[str] = None
    heavy_variant_name: Optional[str] = None
    #: Optional concrete variant objects, used by policies that place models
    #: outside the registered zoo (e.g. Proteus deriving a reduced-step
    #: sampler); they take precedence over the ``*_variant_name`` fields.
    light_variant: Optional[object] = None
    heavy_variant: Optional[object] = None
    #: Per-device-class worker counts (``{class name: count}``, positive
    #: entries only) for typed fleets; ``None`` for class-agnostic plans.
    light_assignment: Optional[Dict[str, int]] = None
    heavy_assignment: Optional[Dict[str, int]] = None
    #: Multi-resource model only: variants each device class should keep
    #: resident (``{class name: (variant names...)}``).  The Controller pins
    #: these on every worker of the class, so later pool reassignments find
    #: the weights already loaded (zero-transfer reloads).  ``None`` means
    #: the plan carries no residency decision (legacy / reload-oblivious).
    residency: Optional[Dict[str, Tuple[str, ...]]] = None

    def __post_init__(self) -> None:
        if self.num_light < 0 or self.num_heavy < 0:
            raise ValueError("worker counts must be non-negative")
        if self.light_batch < 1 or self.heavy_batch < 1:
            raise ValueError("batch sizes must be >= 1")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError("threshold must lie in [0, 1]")
        if not 0.0 <= self.heavy_fraction <= 1.0:
            raise ValueError("heavy_fraction must lie in [0, 1]")
        for label, assignment, total in (
            ("light", self.light_assignment, self.num_light),
            ("heavy", self.heavy_assignment, self.num_heavy),
        ):
            if assignment is None:
                continue
            if any(count < 0 for count in assignment.values()):
                raise ValueError(f"{label}_assignment counts must be non-negative")
            if sum(assignment.values()) != total:
                raise ValueError(f"{label}_assignment must sum to num_{label} ({total})")

    @property
    def total_workers(self) -> int:
        """Total workers used by the plan."""
        return self.num_light + self.num_heavy


@dataclass
class ControlContext:
    """Runtime statistics the Controller feeds into the allocator.

    ``fleet`` is the typed device fleet the plan must fit.  Fleet validation
    happens in :class:`~repro.core.config.FleetSpec` (the single validation
    site).
    """

    demand: float
    slo: float
    fleet: FleetSpec
    light_queue_length: float = 0.0
    heavy_queue_length: float = 0.0
    observed_deferral: Optional[float] = None
    slo_violations_in_window: int = 0
    completions_in_window: int = 0
    current_plan: Optional[AllocationPlan] = None
    #: Multi-resource worker model (``None`` = legacy).  When set and
    #: ``reload_aware``, the allocator gates classes on footprints, penalises
    #: reloads in the objective, and pins co-placement residency on plans.
    resources: Optional[ResourceConfig] = None
    #: Spot-market price trace (``None`` = legacy, no price awareness).  When
    #: set on a heterogeneous fleet the allocator adds a tiny tie-break that
    #: prefers placing workers on classes that are cheap *right now*.
    prices: Optional[PriceTrace] = None
    #: Simulation time at which ``prices`` is sampled.
    price_time: float = 0.0
    #: Per-class revocation probability from the active fault plan; effective
    #: price is ``price * (1 + risk)`` so risky spot capacity is discounted.
    revocation_risk: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.demand < 0:
            raise ValueError("demand must be non-negative")
        if self.slo <= 0:
            raise ValueError("slo must be positive")


class DiffServeAllocator:
    """Builds and solves the DiffServe MILP for a control context."""

    def __init__(
        self,
        light: ModelVariant,
        heavy: ModelVariant,
        deferral_profile: DeferralProfile,
        *,
        discriminator_latency: float = 0.01,
        queueing_model: Optional[QueueingModel] = None,
        batch_candidates: Sequence[int] = (1, 2, 4, 8, 16),
        over_provision: float = 1.05,
        min_light_workers: int = 1,
        reload_penalty: float = 0.02,
        price_penalty: float = 0.02,
    ) -> None:
        if over_provision < 1.0:
            raise ValueError("over_provision must be >= 1.0")
        self.light = light
        self.heavy = heavy
        self.deferral_profile = deferral_profile
        self.discriminator_latency = discriminator_latency
        self.queueing_model = queueing_model or LittlesLawModel()
        self.batch_candidates = tuple(sorted(set(int(b) for b in batch_candidates)))
        self.over_provision = over_provision
        self.min_light_workers = min_light_workers
        #: Per-pair solvers, picked by search-space size (see ``_solve_pair``).
        self.solver = BranchAndBoundSolver()
        self.exhaustive_solver = ExhaustiveSolver()
        #: Objective cost per second of weight-transfer a plan would trigger
        #: (multi-resource model with ``reload_aware`` only).  Small enough
        #: that throughput-feasibility always wins, large enough to break
        #: ties toward splits that avoid reloads.
        if reload_penalty < 0:
            raise ValueError("reload_penalty must be non-negative")
        self.reload_penalty = reload_penalty
        #: Objective cost per worker placed on the most expensive class when
        #: a :class:`~repro.core.pricing.PriceTrace` is attached (spot-market
        #: runs only).  Like ``reload_penalty`` it is a tie-break: throughput
        #: feasibility always wins, but equal-capacity splits prefer classes
        #: that are cheap (and revocation-safe) at the current price.
        if price_penalty < 0:
            raise ValueError("price_penalty must be non-negative")
        self.price_penalty = price_penalty
        self.threshold_grid = self._build_threshold_grid()
        self.last_solve_time_s: float = 0.0
        self.solve_times: List[float] = []
        # Warm-start telemetry (read by the re-planner and the benchmarks).
        self.warm_solves = 0
        self.cold_solves = 0
        self.warm_start_hits = 0
        self.pairs_pruned_by_bound = 0
        #: Whether the most recent :meth:`plan` call had its warm incumbent
        #: accepted by at least one per-pair solve (False for cold solves or
        #: when every repaired incumbent was rejected as infeasible).
        self.last_warm_start_used = False
        #: Wall-clock budget per :meth:`plan` call; ``None`` = unlimited.
        #: The fault injector's solver-timeout fault sets this to ``0.0`` —
        #: the only value that trips *deterministically* (any elapsed time
        #: exceeds it), which is what keeps fault runs machine-independent.
        self.solve_deadline_s: Optional[float] = None
        #: Whether the most recent :meth:`plan` call hit the deadline (its
        #: result was a best-effort/infeasible plan, not a real solve).
        self.last_solve_timed_out = False

    # ----------------------------------------------------------------- grids
    def _build_threshold_grid(self) -> List[Tuple[float, float]]:
        """Candidate (threshold, deferral fraction) pairs from the profile."""
        quantiles = np.linspace(0.0, 1.0, THRESHOLD_LEVELS)
        thresholds = {0.0, 1.0}
        for q in quantiles:
            thresholds.add(round(self.deferral_profile.threshold_for_fraction(float(q)), 6))
        grid = sorted(thresholds)
        return [(t, self.deferral_profile.fraction(t)) for t in grid]

    def refresh_threshold_grid(self) -> None:
        """Rebuild the grid after the deferral profile was updated online."""
        self.threshold_grid = self._build_threshold_grid()

    # --------------------------------------------------------------- latency
    def _light_execution(self, batch: int, device: DeviceClass = DEFAULT_DEVICE_CLASS) -> float:
        profile = variant_profile(self.light, device)
        return profile.latency(batch) + self.discriminator_latency * batch

    def _heavy_execution(self, batch: int, device: DeviceClass = DEFAULT_DEVICE_CLASS) -> float:
        return variant_profile(self.heavy, device).latency(batch)

    def _light_throughput(self, batch: int, device: DeviceClass = DEFAULT_DEVICE_CLASS) -> float:
        return variant_profile(self.light, device).throughput(batch)

    def _heavy_throughput(self, batch: int, device: DeviceClass = DEFAULT_DEVICE_CLASS) -> float:
        return variant_profile(self.heavy, device).throughput(batch)

    # ---------------------------------------------------------- device classes
    def _fits(
        self, device: DeviceClass, variant: ModelVariant, resources: Optional[ResourceConfig]
    ) -> bool:
        """Whether ``device`` can host ``variant``.

        Legacy gating compares the variant's coarse ``memory_gb`` against the
        device tier; with a resource model attached the check uses the
        declared footprint weights instead — the same quantity the residency
        sets and transfer channels account at runtime, so the MILP's memory
        rows (sum of resident footprints <= ``memory_gb``) and the simulator
        agree.
        """
        if resources is None:
            return device.can_host(variant)
        footprint = resources.footprint_or_derived(variant)
        return footprint.weights_gb <= device.memory_gb + 1e-9

    def _co_placed(self, device: DeviceClass, resources: Optional[ResourceConfig]) -> bool:
        """Whether light and heavy weights fit ``device`` memory together.

        This is the memory row for pinned co-placement: both variants
        resident at once means pool reassignments on this class cost zero
        transfer, so reload-aware plans pin them and skip the reload penalty.
        """
        if resources is None:
            return False
        light_gb = resources.footprint_or_derived(self.light).weights_gb
        heavy_gb = resources.footprint_or_derived(self.heavy).weights_gb
        return light_gb + heavy_gb <= device.memory_gb + 1e-9

    def _hostable_classes(
        self, fleet: FleetSpec, resources: Optional[ResourceConfig] = None
    ) -> Tuple[List[DeviceClass], List[DeviceClass]]:
        """(light, heavy) classes whose memory fits each variant."""
        light = [device for device in fleet.classes if self._fits(device, self.light, resources)]
        heavy = [device for device in fleet.classes if self._fits(device, self.heavy, resources)]
        if not light:
            raise ValueError(
                f"no device class in fleet {fleet.token()!r} can host light variant "
                f"{self.light.name!r} ({self.light.memory_gb} GB)"
            )
        return light, heavy

    def _eligible_classes(
        self, ctx: ControlContext, b1: int, b2: int, demand: float
    ) -> Tuple[List[DeviceClass], List[DeviceClass]]:
        """Classes allowed to host each stage for a fixed batch pair.

        Starts from memory-fitting classes whose per-stage execution latency
        fits the SLO, then enforces the end-to-end latency budget (Eq. 1) on
        the *worst-case* cascade path: while the slowest light-eligible plus
        slowest heavy-eligible class blow the budget, the slowest class of
        the stage contributing more is evicted (ties evict from the heavy
        stage) and the check repeats.  On a homogeneous fleet there is
        nothing to evict, so the pair is simply feasible or not — exactly
        the pre-fleet behaviour.  Either returned list may be empty (the
        pair is infeasible).
        """
        light, heavy = self._hostable_classes(ctx.fleet, ctx.resources)
        light = [d for d in light if self._light_execution(b1, d) <= ctx.slo]
        heavy = [d for d in heavy if self._heavy_execution(b2, d) <= ctx.slo]
        deferral_guess = ctx.observed_deferral if ctx.observed_deferral is not None else 0.3
        heavy_rate = max(demand * deferral_guess, 1e-3)
        while light and heavy:
            e1 = max(self._light_execution(b1, d) for d in light)
            e2 = max(self._heavy_execution(b2, d) for d in heavy)
            q1 = self.queueing_model.waiting_time(
                ctx.light_queue_length, max(demand, 1e-3), e1
            )
            q2 = self.queueing_model.waiting_time(ctx.heavy_queue_length, heavy_rate, e2)
            if e1 + q1 + e2 + q2 <= ctx.slo:
                return light, heavy
            if len(heavy) > 1 and (e2 >= e1 or len(light) == 1):
                heavy = [d for d in heavy if self._heavy_execution(b2, d) < e2]
            elif len(light) > 1:
                light = [d for d in light if self._light_execution(b1, d) < e1]
            else:
                return [], []
        return [], []

    # ----------------------------------------------------- reload-aware model
    @staticmethod
    def _spread_assignment(
        plan: AllocationPlan, fleet: FleetSpec
    ) -> Tuple[Dict[str, int], Dict[str, int]]:
        """Per-class (light, heavy) worker counts of ``plan`` on ``fleet``.

        Class-agnostic plans spread their totals in fleet order (the same
        order the Controller maps them onto device groups).
        """
        counts = fleet.as_counts()
        light = dict(plan.light_assignment or {})
        heavy = dict(plan.heavy_assignment or {})
        if plan.light_assignment is None and plan.num_light:
            remaining = plan.num_light
            for name, count in counts.items():
                take = min(remaining, count)
                light[name] = take
                remaining -= take
        if plan.heavy_assignment is None and plan.num_heavy:
            remaining = plan.num_heavy
            for name, count in counts.items():
                take = min(remaining, count)
                heavy[name] = take
                remaining -= take
        return light, heavy

    def _reload_model(self, ctx: ControlContext) -> Optional[Dict[str, object]]:
        """Per-class reload costs and the previous split, or ``None``.

        Active only when a reload-aware resource model is attached and a
        previous plan exists.  A class where both variants co-reside
        (:meth:`_co_placed`) reloads for free — its residency is pinned — so
        only non-co-placed classes carry a cost: the time to move the stage's
        weights over the class's ``transfer_gbps`` channel.
        """
        resources = ctx.resources
        if resources is None or not resources.reload_aware or ctx.current_plan is None:
            return None
        light_gb = resources.footprint_or_derived(self.light).weights_gb
        heavy_gb = resources.footprint_or_derived(self.heavy).weights_gb
        costs: Dict[str, Tuple[float, float]] = {}
        any_cost = False
        for device in ctx.fleet.classes:
            if self._co_placed(device, resources):
                costs[device.name] = (0.0, 0.0)
            else:
                costs[device.name] = (
                    light_gb / device.transfer_gbps,
                    heavy_gb / device.transfer_gbps,
                )
                any_cost = True
        if not any_cost:
            return None
        prev_light, prev_heavy = self._spread_assignment(ctx.current_plan, ctx.fleet)
        return {"costs": costs, "prev_light": prev_light, "prev_heavy": prev_heavy}

    def _plan_residency(self, ctx: ControlContext) -> Optional[Dict[str, Tuple[str, ...]]]:
        """Residency each device class should pin under the new plan.

        Co-placed classes pin both variants (future pool flips are free);
        other classes carry forward whatever previous pins still fit their
        memory — the repair that preserves residency across fleet drift
        (classes that vanished simply drop out, new classes start unpinned).
        """
        resources = ctx.resources
        if resources is None or not resources.reload_aware:
            return None
        previous = (
            ctx.current_plan.residency
            if ctx.current_plan is not None and ctx.current_plan.residency is not None
            else {}
        )
        residency: Dict[str, Tuple[str, ...]] = {}
        for device in ctx.fleet.classes:
            if self._co_placed(device, resources):
                residency[device.name] = (self.light.name, self.heavy.name)
                continue
            kept: List[str] = []
            occupied = 0.0
            for name in previous.get(device.name, ()):
                try:
                    weights = resources.footprint_for(name).weights_gb
                except KeyError:
                    continue
                if occupied + weights <= device.memory_gb + 1e-9:
                    kept.append(name)
                    occupied += weights
            residency[device.name] = tuple(kept)
        return residency

    # ----------------------------------------------------------------- MILP
    def build_problem(
        self,
        ctx: ControlContext,
        b1: int,
        b2: int,
        demand: float,
        *,
        formulation: str = "fraction",
        light_classes: Optional[Sequence[DeviceClass]] = None,
        heavy_classes: Optional[Sequence[DeviceClass]] = None,
    ) -> MILPProblem:
        """The MILP over (worker split, threshold) for fixed batch sizes.

        Two equivalent formulations are supported:

        * ``"fraction"`` (default): since ``f(t)`` is monotonically
          non-decreasing, maximising ``t`` is equivalent to maximising the
          deferred fraction ``f`` itself and mapping the optimum back through
          ``f^{-1}``.  This keeps the MILP tiny (a handful of integers plus
          one continuous variable) and is what the system solves online.
        * ``"binary"``: the literal discretised-threshold formulation with one
          binary selector per grid level, used to cross-check the fraction
          formulation in tests.

        On a homogeneous fleet the problem keeps the legacy two-variable
        shape (``x1``/``x2``); a mixed fleet indexes the split by device
        class (``x1[l4]``, ``x2[a100]``, ...) with one capacity constraint
        per class and a ``min-light`` row replacing the legacy lower bound.
        ``light_classes`` / ``heavy_classes`` restrict which classes each
        stage may use (the plan loop passes the SLO-eligible sets); they
        default to the memory-fitting classes.
        """
        if formulation not in ("fraction", "binary"):
            raise ValueError("formulation must be 'fraction' or 'binary'")
        fleet = ctx.fleet
        if light_classes is None or heavy_classes is None:
            light_classes, heavy_classes = self._hostable_classes(fleet, ctx.resources)
        problem = MILPProblem(name=f"diffserve-b{b1}-b{b2}")

        if fleet.is_homogeneous:
            # Degenerate single-class case: the exact legacy problem shape
            # (variable names and bounds), so homogeneous fleets reproduce
            # pre-fleet solver decisions bit-for-bit.
            device = fleet.classes[0]
            S = fleet.total_workers
            problem.add_integer("x1", lower=self.min_light_workers, upper=S)
            problem.add_integer("x2", lower=0, upper=S)
            light_vars = {"x1": self._light_throughput(b1, device)}
            heavy_vars = {"x2": -self._heavy_throughput(b2, device)}
            capacity_rows = [({"x1": 1.0, "x2": 1.0}, float(S), "device-budget")]
            min_light_row = None
        else:
            light_vars = {}
            for device in light_classes:
                problem.add_integer(
                    f"x1[{device.name}]", lower=0, upper=fleet.count_for(device.name)
                )
                light_vars[f"x1[{device.name}]"] = self._light_throughput(b1, device)
            heavy_vars = {}
            for device in heavy_classes:
                problem.add_integer(
                    f"x2[{device.name}]", lower=0, upper=fleet.count_for(device.name)
                )
                heavy_vars[f"x2[{device.name}]"] = -self._heavy_throughput(b2, device)
            if not light_vars:
                raise ValueError(
                    f"no device class may host the light pool at batch {b1} "
                    f"(fleet {fleet.token()!r})"
                )
            capacity_rows = []
            for device, count in fleet.devices:
                row = {}
                if f"x1[{device.name}]" in light_vars:
                    row[f"x1[{device.name}]"] = 1.0
                if f"x2[{device.name}]" in heavy_vars:
                    row[f"x2[{device.name}]"] = 1.0
                if row:
                    capacity_rows.append((row, float(count), f"capacity[{device.name}]"))
            min_light_row = {name: 1.0 for name in light_vars}

        if formulation == "fraction":
            problem.add_continuous("f", lower=0.0, upper=1.0)
            objective: Dict[str, float] = {"f": 1.0}
            # Reload-aware plans (multi-resource model) pay for every worker
            # newly added to a pool on classes where the stage's weights are
            # not already co-resident: r{1,2}[c] >= x{1,2}[c] - prev[c],
            # entering the objective at -penalty * transfer_time.  The binary
            # cross-check formulation stays reload-oblivious on purpose.
            reload = self._reload_model(ctx)
            if reload is not None:
                if fleet.is_homogeneous:
                    cname = fleet.classes[0].name
                    entries = [
                        ("x1", "r1", cname, 0, reload["prev_light"]),
                        ("x2", "r2", cname, 1, reload["prev_heavy"]),
                    ]
                else:
                    entries = [
                        (f"x1[{d.name}]", f"r1[{d.name}]", d.name, 0, reload["prev_light"])
                        for d in light_classes
                    ] + [
                        (f"x2[{d.name}]", f"r2[{d.name}]", d.name, 1, reload["prev_heavy"])
                        for d in heavy_classes
                    ]
                for x_name, r_name, cname, stage, prev in entries:
                    cost = reload["costs"][cname][stage]
                    if cost <= 0 or x_name not in problem.variables:
                        continue
                    problem.add_continuous(
                        r_name, lower=0.0, upper=float(fleet.count_for(cname))
                    )
                    problem.add_ge(
                        {r_name: 1.0, x_name: -1.0},
                        -float(prev.get(cname, 0)),
                        name=f"reload[{x_name}]",
                    )
                    objective[r_name] = -self.reload_penalty * cost
            # Spot-market tie-break: every worker placed on a class pays its
            # *effective* price (spot price risk-inflated by revocation
            # probability), normalised so the most expensive class costs
            # exactly ``price_penalty``.  Only heterogeneous fleets have a
            # placement choice; ``prices=None`` leaves the problem untouched.
            if ctx.prices is not None and not fleet.is_homogeneous:
                effective = {
                    device.name: ctx.prices.price(device.name, ctx.price_time)
                    * (1.0 + ctx.revocation_risk.get(device.name, 0.0))
                    for device in fleet.classes
                }
                top = max(effective.values())
                if self.price_penalty > 0 and top > 0:
                    for x_name in list(light_vars) + list(heavy_vars):
                        cname = x_name[x_name.index("[") + 1 : -1]
                        objective[x_name] = objective.get(x_name, 0.0) - (
                            self.price_penalty * effective[cname] / top
                        )
            problem.set_objective(objective)
            problem.add_ge(light_vars, demand, name="light-throughput")
            heavy_row = {"f": demand, **heavy_vars}
            problem.add_le(heavy_row, 0.0, name="heavy-throughput")
        else:
            objective: Dict[str, float] = {}
            sum_z: Dict[str, float] = {}
            heavy_row = dict(heavy_vars)
            for k, (threshold, fraction) in enumerate(self.threshold_grid):
                name = f"z{k}"
                problem.add_binary(name)
                objective[name] = threshold
                sum_z[name] = 1.0
                heavy_row[name] = demand * fraction
            problem.set_objective(objective)
            problem.add_eq(sum_z, 1.0, name="one-threshold")
            problem.add_ge(light_vars, demand, name="light-throughput")
            problem.add_le(heavy_row, 0.0, name="heavy-throughput")

        for row, rhs, name in capacity_rows:
            problem.add_le(row, rhs, name=name)
        if min_light_row is not None:
            problem.add_ge(min_light_row, float(self.min_light_workers), name="min-light")
        return problem

    def _solve_pair(
        self,
        ctx: ControlContext,
        b1: int,
        b2: int,
        demand: float,
        warm_assignment: Optional[Dict[str, float]] = None,
        light_classes: Optional[Sequence[DeviceClass]] = None,
        heavy_classes: Optional[Sequence[DeviceClass]] = None,
    ) -> MILPSolution:
        """Solve the fixed-batch MILP, seeding the incumbent when a warm start
        exists: instances of at most :data:`EXHAUSTIVE_SEARCH_LIMIT` integral
        assignments go to the LP-free exhaustive solver, larger ones to
        branch-and-bound."""
        problem = self.build_problem(
            ctx, b1, b2, demand, light_classes=light_classes, heavy_classes=heavy_classes
        )
        size = self.exhaustive_solver.search_space(problem)
        if size is not None and size <= EXHAUSTIVE_SEARCH_LIMIT:
            return self.exhaustive_solver.solve(problem, warm_start=warm_assignment)
        return self.solver.solve(problem, warm_start=warm_assignment)

    def _plan_from_solution(
        self,
        solution: MILPSolution,
        b1: int,
        b2: int,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> AllocationPlan:
        threshold, fraction = self._threshold_from_solution(solution)
        if "x1" in solution.values:
            # Homogeneous legacy naming: one class hosts both pools.
            name = light_classes[0].name
            num_light = solution.get_int("x1")
            num_heavy = solution.get_int("x2")
            light_assignment = {name: num_light} if num_light else {}
            heavy_assignment = {name: num_heavy} if num_heavy else {}
        else:
            light_assignment = {}
            for device in light_classes:
                count = solution.get_int(f"x1[{device.name}]")
                if count:
                    light_assignment[device.name] = count
            heavy_assignment = {}
            for device in heavy_classes:
                count = solution.get_int(f"x2[{device.name}]")
                if count:
                    heavy_assignment[device.name] = count
            num_light = sum(light_assignment.values())
            num_heavy = sum(heavy_assignment.values())
        return AllocationPlan(
            num_light=num_light,
            num_heavy=num_heavy,
            light_batch=b1,
            heavy_batch=b2,
            threshold=threshold,
            heavy_fraction=fraction,
            feasible=True,
            objective=solution.objective,
            solver_time_s=solution.solve_time_s,
            light_assignment=light_assignment,
            heavy_assignment=heavy_assignment,
        )

    def _candidate_allocations(
        self, ctx: ControlContext, demand: float
    ) -> List[Tuple[int, int, List[DeviceClass], List[DeviceClass]]]:
        """(b1, b2, light classes, heavy classes) tuples the sweep considers,
        largest light batch first.

        Larger batches give strictly higher worker throughput, so for each
        light batch size only the largest heavy batch that still fits the
        latency budget can be optimal.
        """
        allocations: List[Tuple[int, int, List[DeviceClass], List[DeviceClass]]] = []
        for b1 in sorted(self.batch_candidates, reverse=True):
            best_b2: Optional[Tuple[int, List[DeviceClass], List[DeviceClass]]] = None
            for b2 in self.batch_candidates:
                light, heavy = self._eligible_classes(ctx, b1, b2, demand)
                if light and heavy and (best_b2 is None or b2 > best_b2[0]):
                    best_b2 = (b2, light, heavy)
            if best_b2 is not None:
                allocations.append((b1, best_b2[0], best_b2[1], best_b2[2]))
        return allocations

    def _warm_assignment(
        self,
        previous: AllocationPlan,
        b1: int,
        b2: int,
        demand: float,
        ctx: ControlContext,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> Dict[str, float]:
        """Repair the previous epoch's split into a candidate incumbent.

        The light pool is grown to the minimum satisfying the current demand
        (the repair that keeps the assignment feasible when load rose), the
        heavy pool keeps as many of its workers as the budget allows, and the
        deferred fraction takes its maximal value for that split — making the
        incumbent as strong as the previous worker split permits.

        The repair is robust to fleet-shape drift: per-class counts from the
        previous plan are clamped to the current fleet's counts, classes that
        disappeared (or are no longer eligible for a stage) are dropped, and
        the light pool is re-grown on the remaining classes — an incumbent
        the solver then re-validates, so a stale shape can never crash a
        re-solve.
        """
        fleet = ctx.fleet
        if fleet.is_homogeneous:
            device = fleet.classes[0]
            t1 = self._light_throughput(b1, device)
            t2 = self._heavy_throughput(b2, device)
            S = fleet.total_workers
            min_x1 = int(np.ceil(demand / t1)) if t1 > 0 else S
            x1 = min(max(previous.num_light, self.min_light_workers, min_x1), S)
            x2 = max(min(previous.num_heavy, S - x1), 0)
            f = min(1.0, x2 * t2 / demand) if demand > 0 else 1.0
            return self._fill_reload_vars(
                {"x1": float(x1), "x2": float(x2), "f": float(f)}, ctx
            )

        counts = fleet.as_counts()
        light_names = [d.name for d in light_classes]
        heavy_names = [d.name for d in heavy_classes]
        prev_light = dict(previous.light_assignment or {})
        prev_heavy = dict(previous.heavy_assignment or {})
        if previous.light_assignment is None and previous.num_light:
            # Class-agnostic previous plan: spread its totals in fleet order.
            remaining = previous.num_light
            for name in light_names:
                take = min(remaining, counts[name])
                prev_light[name] = take
                remaining -= take
        if previous.heavy_assignment is None and previous.num_heavy:
            remaining = previous.num_heavy
            for name in heavy_names:
                take = min(remaining, counts[name])
                prev_heavy[name] = take
                remaining -= take

        # Clamp to the current fleet shape: drop unknown/ineligible classes,
        # cap counts that shrank, and resolve per-class over-subscription by
        # shrinking the heavy side (the light side is re-grown next).
        x1 = {name: min(prev_light.get(name, 0), counts[name]) for name in light_names}
        x2 = {name: min(prev_heavy.get(name, 0), counts[name]) for name in heavy_names}
        for name in heavy_names:
            over = x1.get(name, 0) + x2[name] - counts[name]
            if over > 0:
                x2[name] = max(x2[name] - over, 0)

        def light_capacity() -> float:
            return sum(x1[name] * self._light_throughput(b1, d)
                       for name, d in zip(light_names, light_classes))

        # Grow the light pool until it covers demand (and min_light): free
        # slots first on the highest-throughput classes, then slots stolen
        # from the heavy pool, cheapest heavy capacity first.
        by_light_tput = sorted(
            zip(light_names, light_classes),
            key=lambda nd: (-self._light_throughput(b1, nd[1]), nd[0]),
        )
        for name, device in by_light_tput:
            while light_capacity() < demand or sum(x1.values()) < self.min_light_workers:
                free = counts[name] - x1[name] - x2.get(name, 0)
                if free <= 0:
                    break
                x1[name] += 1
            else:
                break
        if light_capacity() < demand or sum(x1.values()) < self.min_light_workers:
            by_heavy_cost = sorted(
                ((name, d) for name, d in zip(heavy_names, heavy_classes) if name in x1),
                key=lambda nd: (self._heavy_throughput(b2, nd[1]), nd[0]),
            )
            for name, device in by_heavy_cost:
                while x2[name] > 0 and (
                    light_capacity() < demand or sum(x1.values()) < self.min_light_workers
                ):
                    x2[name] -= 1
                    x1[name] += 1

        heavy_capacity = sum(
            x2[name] * self._heavy_throughput(b2, d)
            for name, d in zip(heavy_names, heavy_classes)
        )
        f = min(1.0, heavy_capacity / demand) if demand > 0 else 1.0
        assignment: Dict[str, float] = {"f": float(f)}
        for name in light_names:
            assignment[f"x1[{name}]"] = float(x1[name])
        for name in heavy_names:
            assignment[f"x2[{name}]"] = float(x2[name])
        return self._fill_reload_vars(assignment, ctx)

    def _fill_reload_vars(
        self, assignment: Dict[str, float], ctx: ControlContext
    ) -> Dict[str, float]:
        """Complete a warm incumbent with the reload variables it implies.

        The solver validates incumbents against the full variable set, so a
        reload-aware problem needs its ``r`` variables seeded too; they take
        their tight values ``max(0, x - prev)``.
        """
        reload = self._reload_model(ctx)
        if reload is None:
            return assignment
        for x_name, value in list(assignment.items()):
            if not x_name.startswith("x"):
                continue
            stage = 0 if x_name.startswith("x1") else 1
            cname = x_name[3:-1] if "[" in x_name else ctx.fleet.classes[0].name
            cost = reload["costs"].get(cname, (0.0, 0.0))[stage]
            if cost <= 0:
                continue
            prev = reload["prev_light"] if stage == 0 else reload["prev_heavy"]
            r_name = ("r1" if stage == 0 else "r2") + (f"[{cname}]" if "[" in x_name else "")
            assignment[r_name] = max(0.0, value - float(prev.get(cname, 0)))
        return assignment

    def _fraction_upper_bound(
        self,
        b1: int,
        b2: int,
        demand: float,
        fleet: FleetSpec,
        light_classes: Sequence[DeviceClass],
        heavy_classes: Sequence[DeviceClass],
    ) -> float:
        """Closed-form LP-relaxation bound of the fraction formulation.

        Homogeneous case: with ``x1`` relaxed to ``max(min_light, D/t1)`` and
        the rest of the budget given to the heavy pool, the deferred fraction
        can never exceed ``min(1, (S - x1) * t2 / D)``.

        Heterogeneous case: a fractional greedy covers the light demand at
        minimal heavy-capacity cost — light-only classes first (they cost no
        heavy capacity), then ascending ``t2/t1`` — and whatever heavy
        capacity survives bounds ``f``.  Integrality and the min-light row
        are relaxed, so this is a true upper bound on any integer-feasible
        plan, which is what lets a warm re-solve skip batch pairs that cannot
        beat the incumbent carried over from the previous epoch.
        """
        if demand <= 0:
            return -np.inf
        if fleet.is_homogeneous:
            device = fleet.classes[0]
            t1 = self._light_throughput(b1, device)
            t2 = self._heavy_throughput(b2, device)
            S = fleet.total_workers
            if t1 <= 0:
                return -np.inf
            x1_relaxed = max(float(self.min_light_workers), demand / t1)
            if x1_relaxed > S:
                return -np.inf
            return min(1.0, max(0.0, S - x1_relaxed) * t2 / demand)

        heavy_names = {d.name for d in heavy_classes}
        heavy_cap = sum(
            fleet.count_for(d.name) * self._heavy_throughput(b2, d) for d in heavy_classes
        )
        remaining = demand

        def greedy_key(device: DeviceClass) -> Tuple[int, float, str]:
            t1 = self._light_throughput(b1, device)
            if device.name not in heavy_names:
                return (0, 0.0, device.name)
            return (1, self._heavy_throughput(b2, device) / max(t1, 1e-12), device.name)

        for device in sorted(light_classes, key=greedy_key):
            if remaining <= 1e-12:
                break
            t1 = self._light_throughput(b1, device)
            if t1 <= 0:
                continue
            take = min(float(fleet.count_for(device.name)), remaining / t1)
            remaining -= take * t1
            if device.name in heavy_names:
                heavy_cap -= take * self._heavy_throughput(b2, device)
        if remaining > 1e-9:
            return -np.inf
        return min(1.0, max(0.0, heavy_cap) / demand)

    def plan(
        self, ctx: ControlContext, *, warm_start: Optional[AllocationPlan] = None
    ) -> AllocationPlan:
        """Solve the allocation problem for the given control context.

        ``warm_start`` carries the previous epoch's plan into the solve: the
        incumbent of every per-pair MILP is seeded from its (repaired) worker
        split, and once one pair is solved its objective prunes — via the
        closed-form relaxation bound — every remaining batch pair that cannot
        strictly improve on it.  Warm re-solves therefore cost one MILP in the
        common case instead of one per candidate pair, and ties resolve
        towards the previous plan (fewer worker reconfigurations).
        """
        start = time.perf_counter()
        demand = max(ctx.demand, 1e-3) * self.over_provision
        max_threshold = max(t for t, _ in self.threshold_grid)
        allocations = self._candidate_allocations(ctx, demand)
        self.last_warm_start_used = False
        self.last_solve_timed_out = False
        if warm_start is None:
            self.cold_solves += 1
        else:
            self.warm_solves += 1
            # Re-solve the previous plan's batch pair first: its solution is
            # the bound every other pair must beat.
            prev_pair = (warm_start.light_batch, warm_start.heavy_batch)
            head = [a for a in allocations if (a[0], a[1]) == prev_pair]
            allocations = head + [a for a in allocations if (a[0], a[1]) != prev_pair]

        best: Optional[AllocationPlan] = None
        best_classes: Tuple[List[DeviceClass], List[DeviceClass]] = ([], [])
        for b1, b2, light_classes, heavy_classes in allocations:
            if (
                self.solve_deadline_s is not None
                and time.perf_counter() - start >= self.solve_deadline_s
            ):
                self.last_solve_timed_out = True
                break
            if best is not None and best.threshold >= max_threshold:
                break
            warm_assignment = None
            if warm_start is not None:
                if best is not None and best.objective is not None:
                    bound = self._fraction_upper_bound(
                        b1, b2, demand, ctx.fleet, light_classes, heavy_classes
                    )
                    if bound <= best.objective + 1e-9:
                        self.pairs_pruned_by_bound += 1
                        continue
                warm_assignment = self._warm_assignment(
                    warm_start, b1, b2, demand, ctx, light_classes, heavy_classes
                )
            solution = self._solve_pair(
                ctx, b1, b2, demand, warm_assignment, light_classes, heavy_classes
            )
            if not solution.is_optimal:
                continue
            if solution.warm_start_used:
                self.warm_start_hits += 1
                self.last_warm_start_used = True
            plan = self._plan_from_solution(solution, b1, b2, light_classes, heavy_classes)
            if best is None or self._plan_key(plan) > self._plan_key(best):
                best = plan
                best_classes = (light_classes, heavy_classes)
        elapsed = time.perf_counter() - start
        self.last_solve_time_s = elapsed
        self.solve_times.append(elapsed)
        if best is None:
            return self._best_effort_plan(ctx, elapsed)
        best = self._assign_spare_workers(best, ctx.fleet, *best_classes)
        best.solver_time_s = elapsed
        best.residency = self._plan_residency(ctx)
        return best

    def _assign_spare_workers(
        self,
        plan: AllocationPlan,
        fleet: FleetSpec,
        light_classes: Sequence[DeviceClass] = (),
        heavy_classes: Sequence[DeviceClass] = (),
    ) -> AllocationPlan:
        """Idle devices are wasted; give spares to whichever pool is in use.

        Spare workers go to the heavy pool when the plan defers any queries
        (extra heavy capacity shrinks queueing delays), otherwise to the
        light pool.  On a typed fleet the rule is per class and the order is
        pinned: classes are visited fastest first (ascending ``speed_factor``,
        ties broken by name), each class's spares join the preferred pool
        only if the class is eligible for it (memory and SLO), falling back
        to the other pool's eligibility, and stay idle when neither fits.
        """
        spare_total = fleet.total_workers - plan.total_workers
        if spare_total <= 0:
            return plan
        prefer_heavy = plan.heavy_fraction > 0 and plan.num_heavy > 0
        if plan.light_assignment is None and plan.heavy_assignment is None:
            # Class-agnostic plan (baseline policies): legacy totals-only rule.
            if prefer_heavy:
                plan.num_heavy += spare_total
            else:
                plan.num_light += spare_total
            return plan

        light_ok = {d.name for d in light_classes} or {d.name for d in fleet.classes
                                                       if d.can_host(self.light)}
        heavy_ok = {d.name for d in heavy_classes} or {d.name for d in fleet.classes
                                                       if d.can_host(self.heavy)}
        light = dict(plan.light_assignment or {})
        heavy = dict(plan.heavy_assignment or {})
        for device, count in sorted(
            fleet.devices, key=lambda dc: (dc[0].speed_factor, dc[0].name)
        ):
            name = device.name
            spare = count - light.get(name, 0) - heavy.get(name, 0)
            if spare <= 0:
                continue
            pools = ("heavy", "light") if prefer_heavy else ("light", "heavy")
            for pool in pools:
                if pool == "heavy" and name in heavy_ok:
                    heavy[name] = heavy.get(name, 0) + spare
                    break
                if pool == "light" and name in light_ok:
                    light[name] = light.get(name, 0) + spare
                    break
        plan.light_assignment = {k: v for k, v in light.items() if v}
        plan.heavy_assignment = {k: v for k, v in heavy.items() if v}
        plan.num_light = sum(plan.light_assignment.values())
        plan.num_heavy = sum(plan.heavy_assignment.values())
        return plan

    @staticmethod
    def _plan_key(plan: AllocationPlan) -> Tuple[float, int, int]:
        # Prefer higher threshold (the MILP objective); break ties towards
        # larger batches, which give more throughput headroom under bursts.
        return (plan.threshold, plan.light_batch, plan.heavy_batch)

    def _threshold_from_solution(self, solution) -> Tuple[float, float]:
        """Recover (threshold, deferred fraction) from either formulation."""
        if "f" in solution.values:
            fraction = float(np.clip(solution.values["f"], 0.0, 1.0))
            # Largest grid threshold whose deferral fraction fits the solved f
            # (the grid is the empirical f^{-1}).
            candidates = [t for t, frac in self.threshold_grid if frac <= fraction + 1e-9]
            threshold = max(candidates) if candidates else 0.0
            return threshold, self.deferral_profile.fraction(threshold)
        for k, (threshold, fraction) in enumerate(self.threshold_grid):
            if solution.values.get(f"z{k}", 0.0) > 0.5:
                return threshold, fraction
        return 0.0, 0.0

    def _best_effort_plan(self, ctx: ControlContext, elapsed: float) -> AllocationPlan:
        """Overload fallback: serve everything with the light model, largest
        batch that fits the SLO on every hosting class, and accept every image
        (threshold 0).  Classes whose memory cannot hold the light model stay
        idle (plan() guarantees at least one class can host it); with a
        resource model attached, hosting is gated on the declared footprint,
        exactly as in the MILP."""
        fleet = ctx.fleet
        hostable, _ = self._hostable_classes(fleet, ctx.resources)
        feasible_batches = [
            b
            for b in self.batch_candidates
            if max(self._light_execution(b, d) for d in hostable) <= ctx.slo
        ]
        batch = max(feasible_batches) if feasible_batches else max(self.batch_candidates)
        assignment = {d.name: fleet.count_for(d.name) for d in hostable}
        return AllocationPlan(
            num_light=sum(assignment.values()),
            num_heavy=0,
            light_batch=batch,
            heavy_batch=1,
            threshold=0.0,
            heavy_fraction=0.0,
            feasible=False,
            objective=None,
            solver_time_s=elapsed,
            light_assignment=assignment,
            heavy_assignment={},
        )

    # ------------------------------------------------------------ statistics
    @property
    def mean_solve_time_s(self) -> float:
        """Average wall-clock time of allocation solves so far."""
        return float(np.mean(self.solve_times)) if self.solve_times else 0.0
