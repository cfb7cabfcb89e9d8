"""Contention study: reload-aware vs. reload-oblivious planning.

The multi-resource worker model (ROADMAP item 5) makes ``set_variant`` cost
state-dependent: moving a worker between pools transfers the target variant's
checkpoint over the device's bandwidth channel — unless the weights are
already resident.  Under a flash-crowd workload with adaptive re-planning the
control plane flips workers between pools repeatedly, so what a pool flip
*costs* depends on where checkpoints live.  The study serves one flash-crowd
trace through two footprint scenarios crossed with planner arms:

``cofit`` — the catalog footprints (sd-turbo 5 GB + sd-v1.5 8 GB).  Both
    checkpoints co-fit in an 80 GB device, the reload-aware plan pins them
    co-resident, and every pool flip is a zero-cost resident hit.  The
    reload-oblivious arm lands in the same place through plain LRU residency
    (nothing is ever evicted), so awareness is *neutral* here: co-placement
    makes the reload resource a non-issue when memory allows.
``contended`` — a hypothetical 30 GB + 60 GB checkpoint pair that cannot
    co-reside in 80 GB.  Every flip now pays a 1.9-3.8 s weight transfer that
    stalls inference.  The reload-oblivious planner flips eagerly and eats
    the stalls mid-burst; the reload-aware planner sees the transfer cost in
    its objective and keeps flips to the demand-forced minimum.

Both arms run the paper's MILP for placement and batching with the deferral
threshold pinned (``policy_variant="static-threshold"``), so the two plans
target identical quality and differ only in reload handling; FID is reported
but floats with completion mix.  The headline claim — gated in
``benchmarks/test_bench_contention.py`` — is on the SLO plane: in the
contended scenario the reload-aware plan Pareto-dominates the
reload-oblivious plan on (SLO violation ratio, p99 latency), and in the
co-fit scenario the two arms are indistinguishable.

Every arm is one grid cell of the cached parallel runner (``resources`` is a
cached grid dimension) declared as a :class:`~repro.experiments.study.Study`,
so ``repro contention`` inherits the runner's determinism and caching
guarantees.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.experiments.harness import ExperimentScale
from repro.experiments.study import Claim, Study, Summaries, dominates, metric
from repro.runner.spec import ExperimentSpec, TraceSpec
from repro.workloads import cascade_qps_range

#: Checkpoint pair for the contended scenario: together they exceed an 80 GB
#: device, so light and heavy can never be co-resident and every pool flip
#: pays a transfer (30/16 = 1.9 s, 60/16 = 3.75 s on the baseline class).
CONTENDED_WEIGHTS: Dict[str, float] = {"sd-turbo": 30.0, "sd-v1.5": 60.0}

#: ``scenario/arm`` name -> ``--resources`` spelling, in execution order.
#: ``legacy`` keeps the pre-resource execution model as the reference point.
ARM_RESOURCES: Dict[str, Optional[str]] = {
    "legacy/legacy": None,
    "cofit/oblivious": "oblivious",
    "cofit/aware": "default",
    "contended/oblivious": json.dumps({**CONTENDED_WEIGHTS, "reload_aware": False}, sort_keys=True),
    "contended/aware": json.dumps(CONTENDED_WEIGHTS, sort_keys=True),
}

#: Adaptive re-planning epoch (seconds): short enough that a flash crowd
#: triggers several pool flips over the trace.
DEFAULT_EPOCH = 3.0

#: Nominal rate as a fraction of the cascade's all-light capacity.  High
#: enough that the burst forces heavy workers back to the light pool (and
#: back again afterwards) — the flips the study is about.
DEFAULT_QPS_FRACTION = 0.6

#: Tolerance for the "co-placement neutralizes reloads" check: the co-fit
#: arms may differ only by float noise.
NEUTRAL_TOL = 1e-6

#: Metrics the planner arms are compared on (both minimised).
SLO_PLANE = ("slo_violation_ratio", "p99_latency")


def arms(
    cascade_name: str, scale: ExperimentScale, qps: Optional[float]
) -> Dict[str, ExperimentSpec]:
    """One flash-crowd cell per (footprint scenario, planner arm).

    Every cell serves the *identical* sampled flash-crowd trace (the trace is
    a function of the workload spec and seed, not the resource model), with
    adaptive re-planning attached so bursts actually flip pools and the
    deferral threshold pinned so the arms target identical quality.
    """
    if qps is None:
        lo, hi = cascade_qps_range(cascade_name, scale.num_workers)
        qps = DEFAULT_QPS_FRACTION * hi
    return {
        name: ExperimentSpec(
            cascade=cascade_name,
            scale=scale,
            systems=("diffserve",),
            trace=TraceSpec(kind="flash-crowd", qps=qps),
            params=(
                ("policy_variant", "static-threshold"),
                ("replan_epoch", DEFAULT_EPOCH),
                ("replan_policy", "adaptive"),
            ),
            resources=resources,
        )
        for name, resources in ARM_RESOURCES.items()
    }


def _coplacement_neutralizes(s: Summaries) -> bool:
    """Whether the co-fit arms are indistinguishable on the SLO plane.

    With both checkpoints pinned co-resident (or simply never evicted),
    reload awareness has nothing left to optimise — the aware and oblivious
    plans must land on the same outcome.
    """
    aware, oblivious = s["cofit/aware"], s["cofit/oblivious"]
    return all(abs(aware[key] - oblivious[key]) <= NEUTRAL_TOL for key in SLO_PLANE)


STUDY = Study(
    name="contention",
    description="Reload/inference contention: reload-aware vs. reload-oblivious plans",
    title=lambda result: (
        f"Reload/inference contention — DiffServe flash-crowd @ {result.qps:g} qps "
        f"nominal, adaptive re-planning, pinned threshold"
    ),
    arms=arms,
    key_headers=("scenario", "arm"),
    columns=(
        ("SLO viol", metric("slo_violation_ratio")),
        ("p99 (s)", metric("p99_latency")),
        ("mean (s)", metric("mean_latency")),
        ("FID", metric("fid")),
        ("done", metric("completed", int)),
        ("drop", metric("dropped", int)),
    ),
    claims={
        "coplacement-neutralizes": Claim(
            _coplacement_neutralizes,
            "co-fit: co-placement pinning neutralizes reloads (aware == oblivious)",
            "co-fit: arms UNEXPECTEDLY diverge despite co-placement",
        ),
        # The headline claim: when checkpoints cannot co-reside, the
        # reload-aware plan matches or Pareto-dominates the oblivious one.
        "reload-aware-dominates": Claim(
            lambda s: dominates(
                s["contended/aware"], s["contended/oblivious"], on=SLO_PLANE, tol=1e-9
            ),
            "contended: reload-aware plans Pareto-dominate reload-oblivious plans "
            "on (SLO violation, p99 latency)",
            "contended: reload-aware plans do NOT dominate in this configuration",
        ),
    },
)
