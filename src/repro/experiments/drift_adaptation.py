"""Drift adaptation study: static vs. online re-planned allocation plans.

The paper's central claim is that cascade serving must *adapt* — the
confidence threshold and worker split are re-solved as load shifts.  This
experiment exercises exactly that loop: the flash-crowd and diurnal workload
scenarios drive demand far from its mean, and the same DiffServe system is
run with three re-plan policies (see :mod:`repro.core.replanner`):

* ``static`` — one plan, solved for the workload's mean rate, never revisited;
* ``periodic`` — warm-started re-solve every epoch;
* ``adaptive`` — re-solve only on demand drift or SLO pressure.

Reported per arm: SLO violation ratio, FID, p99 latency, how many epochs
re-planned, the warm-start hit rate, and mean solver time — i.e. both the
*benefit* of adaptation (violation/FID deltas vs. static) and its *cost*
(solves actually run, each cheapened by MILP warm starts).

Every arm shares the dataset, discriminator, deferral profile, and the exact
same sampled arrival trace, so the deltas isolate the control plane.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.core.config import FleetSpec
from repro.core.system import build_diffserve_system
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.harness import (
    BENCH_SCALE,
    ExperimentScale,
    format_table,
    shared_components,
)
from repro.simulator.rng import RandomStreams
from repro.workloads import cascade_qps_range, make_workload

#: Workload scenarios whose demand drifts enough to punish a frozen plan.
DEFAULT_WORKLOADS: tuple = ("flash-crowd", "diurnal")

#: Re-plan policies compared per workload.
DEFAULT_POLICIES: tuple = ("static", "periodic", "adaptive")


@dataclass
class DriftArm:
    """Outcome of one (workload, re-plan policy) arm."""

    policy: str
    summary: Dict[str, float]
    epochs: int
    replans: int
    warm_hit_rate: float
    mean_solve_time_s: float

    @property
    def violation(self) -> float:
        """SLO violation ratio of the arm."""
        return self.summary["slo_violation_ratio"]

    @property
    def fid(self) -> float:
        """FID of the arm."""
        return self.summary["fid"]


@dataclass
class DriftAdaptationResult:
    """All arms, keyed by workload kind then policy."""

    arms: Dict[str, Dict[str, DriftArm]] = field(default_factory=dict)

    def arm(self, workload: str, policy: str) -> DriftArm:
        """The arm for one (workload, policy) pair."""
        return self.arms[workload][policy]

    def violation_delta(self, workload: str, policy: str = "adaptive") -> float:
        """SLO-violation reduction of ``policy`` relative to the static plan."""
        return self.arm(workload, "static").violation - self.arm(workload, policy).violation

    def fid_delta(self, workload: str, policy: str = "adaptive") -> float:
        """FID reduction of ``policy`` relative to the static plan."""
        return self.arm(workload, "static").fid - self.arm(workload, policy).fid


def run_drift_adaptation(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    epoch: float = 5.0,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    policies: Sequence[str] = DEFAULT_POLICIES,
) -> DriftAdaptationResult:
    """Sweep re-plan policies across drifting workloads on a shared substrate.

    Every arm is provisioned for the workload's *mean* rate (the operator's
    reasonable static guess) and replays the identical arrival trace; only
    the re-plan policy differs.
    """
    cascade, dataset, discriminator = shared_components(cascade_name, scale)
    result = DriftAdaptationResult()
    for kind in workloads:
        process = make_workload(
            kind,
            duration=scale.trace_duration,
            qps_range=cascade_qps_range(cascade_name, scale.num_workers),
            seed=scale.seed,
        )
        trace = process.sample(RandomStreams(scale.seed))
        result.arms[kind] = {}
        for policy in policies:
            # Profiled per arm: the deferral profile is updated online during
            # a run, and arms must not leak control state into each other.
            deferral_profile = DeferralProfile.profile(
                discriminator, dataset, cascade.light, seed=scale.seed
            )
            system = build_diffserve_system(
                cascade_name,
                fleet=FleetSpec.homogeneous(scale.num_workers),
                dataset=dataset,
                discriminator=discriminator,
                deferral_profile=deferral_profile,
                seed=scale.seed,
                replan_epoch=epoch,
                replan_policy=policy,
            )
            system.initial_demand = process.mean_rate()
            run = system.run(trace)
            history = run.replan_history
            replans = sum(1 for snap in history if snap.replanned)
            warm = sum(1 for snap in history if snap.warm_started)
            solve_times = [snap.solver_time_s for snap in history if snap.replanned]
            result.arms[kind][policy] = DriftArm(
                policy=policy,
                summary=run.summary(),
                epochs=len(history),
                replans=replans,
                warm_hit_rate=warm / replans if replans else 0.0,
                mean_solve_time_s=(sum(solve_times) / len(solve_times) if solve_times else 0.0),
            )
    return result


def main(scale: ExperimentScale = BENCH_SCALE) -> str:
    """Run the drift adaptation study and print the per-arm table."""
    result = run_drift_adaptation(scale=scale)
    rows: List[list] = []
    for kind, arms in result.arms.items():
        for policy, arm in arms.items():
            rows.append(
                [
                    kind,
                    policy,
                    arm.violation,
                    arm.fid,
                    arm.summary["p99_latency"],
                    arm.replans,
                    f"{arm.warm_hit_rate:.0%}",
                    arm.mean_solve_time_s * 1e3,
                ]
            )
    deltas = [
        f"{kind}: adaptive cuts SLO violations by "
        f"{result.violation_delta(kind):+.3f} and FID by {result.fid_delta(kind):+.2f} "
        f"vs. the static plan"
        for kind in result.arms
    ]
    output = "\n".join(
        [
            "Drift adaptation — static vs. online re-planned allocation",
            format_table(
                [
                    "workload",
                    "replan",
                    "SLO viol",
                    "FID",
                    "p99 (s)",
                    "replans",
                    "warm",
                    "solve (ms)",
                ],
                rows,
            ),
            *deltas,
        ]
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
