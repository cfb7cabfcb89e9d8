"""Section 4.5: overhead of the MILP resource-allocation solver.

The paper measures the average runtime of the Gurobi MILP solve at ~10 ms and
notes that it never sits on the critical path of query serving.  This module
measures the runtime of one full allocation solve across demand levels on a
``scale.num_workers`` cluster; the default 16-worker cluster's per-pair MILPs
exceed the allocator's exhaustive search limit and so run on branch-and-bound.
It then re-solves each chosen pair's MILP with both branch-and-bound and the
closed-form exhaustive solver and checks that their optima agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.milp.branch_and_bound import BranchAndBoundSolver
from repro.milp.exhaustive import ExhaustiveSolver
from repro.models.zoo import get_cascade
from repro.runner.artifacts import cached_dataset, cached_default_discriminator


@dataclass
class MILPOverheadResult:
    """Solver runtimes and plan agreement across demand levels."""

    demands: List[float] = field(default_factory=list)
    plan_times_s: List[float] = field(default_factory=list)
    thresholds: List[float] = field(default_factory=list)
    agreement_with_exhaustive: List[bool] = field(default_factory=list)

    @property
    def mean_time_ms(self) -> float:
        """Mean wall-clock time of one full allocation solve, in milliseconds."""
        return float(np.mean(self.plan_times_s)) * 1e3 if self.plan_times_s else 0.0

    @property
    def max_time_ms(self) -> float:
        """Worst-case allocation solve time in milliseconds."""
        return float(np.max(self.plan_times_s)) * 1e3 if self.plan_times_s else 0.0

    @property
    def always_agrees(self) -> bool:
        """Whether branch-and-bound matched the exhaustive optimum everywhere."""
        return all(self.agreement_with_exhaustive) if self.agreement_with_exhaustive else True


def run_milp_overhead(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    demands: Optional[Sequence[float]] = None,
    slo: Optional[float] = None,
    check_exhaustive: bool = True,
) -> MILPOverheadResult:
    """Measure allocation solve times across demand levels.

    The cluster is ``scale.num_workers`` baseline-class devices; the default
    demand sweep runs from 2 QPS up to 2 QPS per worker.
    """
    cascade = get_cascade(cascade_name)
    slo = slo if slo is not None else cascade.slo
    dataset = cached_dataset(cascade.dataset, scale.dataset_size, scale.seed)
    discriminator = cached_default_discriminator(
        dataset, cascade.light, cascade.heavy, seed=scale.seed
    )
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=scale.seed)
    allocator = DiffServeAllocator(
        cascade.light,
        cascade.heavy,
        profile,
        discriminator_latency=discriminator.latency_s,
    )

    fleet = FleetSpec.homogeneous(scale.num_workers)
    if demands is None:
        demands = np.linspace(2.0, 2.0 * scale.num_workers, 9)

    result = MILPOverheadResult()
    exhaustive = ExhaustiveSolver()
    for demand in demands:
        ctx = ControlContext(
            demand=float(demand),
            slo=slo,
            fleet=fleet,
            observed_deferral=0.4,
        )
        plan = allocator.plan(ctx)
        result.demands.append(float(demand))
        result.plan_times_s.append(plan.solver_time_s)
        result.thresholds.append(plan.threshold)

        if check_exhaustive and plan.feasible:
            problem = allocator.build_problem(
                ctx, plan.light_batch, plan.heavy_batch, float(demand) * allocator.over_provision
            )
            bnb = BranchAndBoundSolver().solve(problem)
            exh = exhaustive.solve(problem)
            same = (
                bnb.is_optimal
                and exh.is_optimal
                and abs((bnb.objective or 0.0) - (exh.objective or 0.0)) < 1e-6
            )
            result.agreement_with_exhaustive.append(bool(same))
    return result


def main(scale: ExperimentScale = BENCH_SCALE) -> str:
    """Measure and print MILP solver overhead."""
    result = run_milp_overhead(scale=scale)
    rows = [
        [f"{d:.1f}", t * 1e3, thr]
        for d, t, thr in zip(result.demands, result.plan_times_s, result.thresholds)
    ]
    output = "\n".join(
        [
            "MILP solver overhead (Section 4.5)",
            format_table(["demand (QPS)", "solve time (ms)", "threshold"], rows),
            f"mean {result.mean_time_ms:.1f} ms, max {result.max_time_ms:.1f} ms, "
            f"matches exhaustive optimum: {result.always_agrees}",
        ]
    )
    print(output)
    return output


if __name__ == "__main__":
    main()
