"""Heterogeneity study: homogeneous vs. mixed fleets at equal aggregate cost.

Production clusters are rarely uniform — they mix fast/expensive accelerators
(H100) with slow/cheap ones (L4) under one budget.  This study holds the
*aggregate fleet cost* fixed (in A100-hours, the catalog's unit) and asks
whether a heterogeneity-aware DiffServe — the per-device-class MILP of
:mod:`repro.core.allocator` — can turn a mixed fleet into a better
FID/SLO-violation trade-off than the all-A100 reference: cheap slow devices
absorb the lightweight model's bulk traffic while the fast tier keeps the
heavyweight model's latency inside the SLO.

Every (workload, fleet) arm is one grid cell of the parallel runner,
declared as a :class:`~repro.experiments.study.Study`: the DiffServe system
runs the identical sampled trace on each fleet, summaries are
content-addressed in the artifact cache, and cells compute byte-identical
results serial or process-pooled (``repro fleet`` inherits the runner's
determinism guarantee).  Reported per workload: each fleet's FID, SLO
violation ratio and p99 latency, plus the Pareto front over
(violation ratio, FID) — both minimised.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.config import FleetSpec, fleet_from_counts
from repro.experiments.harness import ExperimentScale
from repro.experiments.study import Claim, Study, Summaries, dominates, metric
from repro.metrics.pareto import ParetoPoint, pareto_frontier
from repro.runner.spec import ExperimentSpec, TraceSpec
from repro.workloads import cascade_qps_range

#: Candidate fleets at (approximately) equal aggregate cost.  The first entry
#: is the homogeneous reference every mixed fleet is compared against; costs
#: must stay within :data:`COST_TOLERANCE` of it.
DEFAULT_FLEETS: Tuple[Tuple[str, Dict[str, int]], ...] = (
    ("a100x16", {"a100": 16}),              # 16.0 A100-h: the paper's testbed
    ("h100+l4", {"h100": 7, "l4": 11}),     # 15.9 A100-h: fast tier + cheap bulk
    ("a100+l4", {"a100": 10, "l4": 20}),    # 16.0 A100-h: mid tier + cheap bulk
)

#: The homogeneous reference fleet.
REFERENCE = DEFAULT_FLEETS[0][0]

#: Relative cost slack allowed between the reference and any candidate fleet.
COST_TOLERANCE = 0.07

#: Workload scenarios whose load shape stresses provisioning differently.
DEFAULT_WORKLOADS: Tuple[str, ...] = ("mmpp", "diurnal")


def resolve_fleets(
    fleets: Sequence[Tuple[str, Mapping[str, int]]]
) -> List[Tuple[str, FleetSpec]]:
    """Resolve and equal-cost-check the candidate fleets.

    The first fleet is the reference; any candidate whose aggregate cost
    drifts beyond :data:`COST_TOLERANCE` of it fails with a one-line error
    naming the fleet (an unequal-cost comparison would be meaningless).
    """
    resolved = [(name, fleet_from_counts(dict(counts))) for name, counts in fleets]
    if not resolved:
        raise ValueError("the fleet study needs at least one fleet")
    ref_name, ref_fleet = resolved[0]
    for name, fleet in resolved[1:]:
        drift = abs(fleet.total_cost - ref_fleet.total_cost) / ref_fleet.total_cost
        if drift > COST_TOLERANCE:
            raise ValueError(
                f"fleet {name!r}: cost {fleet.total_cost:.1f} is {drift:.0%} from the "
                f"reference {ref_name!r} ({ref_fleet.total_cost:.1f}); "
                f"equal-cost comparison requires <= {COST_TOLERANCE:.0%}"
            )
    return resolved


def arms(
    cascade_name: str,
    scale: ExperimentScale,
    qps: Optional[float],
    *,
    fleets: Sequence[Tuple[str, Mapping[str, int]]] = DEFAULT_FLEETS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
) -> Dict[str, ExperimentSpec]:
    """One ``workload/fleet`` cell per workload and equal-cost fleet.

    Every fleet serves the *identical* sampled arrival trace per workload
    (the trace is a function of the workload spec and seed, not the fleet),
    at a nominal rate chosen to stress the reference fleet — heterogeneity
    only pays off when capacity actually binds.
    """
    resolved = resolve_fleets(fleets)
    if qps is None:
        # Nominal rate near the top of the cascade's default range for a
        # cluster the size of the reference fleet: high enough that the
        # allocator must trade threshold for throughput.
        lo, hi = cascade_qps_range(cascade_name, resolved[0][1].total_workers)
        qps = 0.75 * hi
    return {
        f"{kind}/{name}": ExperimentSpec(
            cascade=cascade_name,
            scale=scale,
            systems=("diffserve",),
            trace=TraceSpec(kind=kind, qps=qps),
            fleet=tuple(sorted(fleet.as_counts().items())),
        )
        for kind in workloads
        for name, fleet in resolved
    }


def _workload_arms(s: Summaries, workload: str) -> Dict[str, Mapping[str, float]]:
    """One workload's summaries keyed by fleet name, in arm order."""
    return {
        name.partition("/")[2]: summary
        for name, summary in s.items()
        if name.partition("/")[0] == workload
    }


def pareto_front(s: Summaries, workload: str) -> List[str]:
    """Fleet names on the (violation ratio, FID) front — both minimised."""
    points = [
        ParetoPoint(arm["slo_violation_ratio"], arm["fid"], payload=name)
        for name, arm in _workload_arms(s, workload).items()
    ]
    return [p.payload for p in pareto_frontier(points)]


def dominating_mixed_fleets(s: Summaries, workload: str, tol: float = 1e-9) -> List[str]:
    """Mixed fleets matching or Pareto-dominating the reference.

    A mixed fleet qualifies when it is at least as good as the homogeneous
    reference on *both* objectives (within ``tol``) — i.e. it matches or
    dominates at equal aggregate cost.
    """
    fleets = _workload_arms(s, workload)
    return [
        name
        for name, arm in fleets.items()
        if name != REFERENCE
        and dominates(arm, fleets[REFERENCE], on=("slo_violation_ratio", "fid"), tol=tol)
    ]


def _mixed_dominates(workload: str) -> Claim:
    """Some mixed fleet matches or dominates the reference on ``workload``."""
    return Claim(
        lambda s: bool(dominating_mixed_fleets(s, workload)),
        lambda s: f"{workload}: mixed fleet(s) {', '.join(dominating_mixed_fleets(s, workload))} "
        f"match or Pareto-dominate {REFERENCE} at equal aggregate cost",
        lambda s: f"{workload}: no mixed fleet dominates {REFERENCE}; "
        f"front = {', '.join(pareto_front(s, workload))}",
    )


def _devices(result, name: str) -> str:
    counts = result.specs[name].resolve_fleet().as_counts()
    return "+".join(f"{cls}x{count}" for cls, count in counts.items())


def _on_front(result, name: str) -> str:
    workload, _, fleet = name.partition("/")
    return "yes" if fleet in pareto_front(result.summaries, workload) else ""


STUDY = Study(
    name="fleet",
    description="Heterogeneous fleets: homogeneous vs. mixed at equal aggregate cost",
    title=lambda result: (
        f"Heterogeneous fleets at equal cost — DiffServe @ {result.qps:g} qps nominal"
    ),
    arms=arms,
    key_headers=("workload", "fleet"),
    columns=(
        ("devices", _devices),
        # Bills what the run actually held: the controller's time-integrated
        # cost ledger (A100-hours), which tracks mid-run fleet transitions.
        ("cost", metric("fleet_cost")),
        ("workers", lambda result, name: result.specs[name].resolve_fleet().total_workers),
        ("FID", metric("fid")),
        ("SLO viol", metric("slo_violation_ratio")),
        ("p99 (s)", metric("p99_latency")),
        ("front", _on_front),
    ),
    claims={f"{kind}/mixed-dominates": _mixed_dominates(kind) for kind in DEFAULT_WORKLOADS},
)
