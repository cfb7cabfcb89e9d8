"""Benchmark — heterogeneous fleets: MILP overhead + equal-cost fleet study.

Two gates:

* Typed fleets stay cheap to plan for: cold-solving the per-device-class
  MILP over a demand ramp on a mixed 16-worker fleet costs at most 2x the
  homogeneous 16-worker solve — in wall-clock time and in LP relaxations
  solved (the deterministic cost model), both on branch-and-bound.  In
  practice the class-eligibility pruning makes the heterogeneous sweep
  *cheaper*, so the 2x bound guards against per-class variables blowing up
  branch-and-bound.
* Heterogeneity pays at equal cost: in the ``repro fleet`` study at least
  one mixed fleet matches or Pareto-dominates the homogeneous all-A100
  reference on FID and SLO-violation ratio under at least one workload —
  cheap slow devices absorb the light pool while the fast tier serves the
  heavy model.
"""

import time

import numpy as np

from repro.core import allocator as allocator_module
from repro.core.allocator import ControlContext, DiffServeAllocator
from repro.core.config import FleetSpec, fleet_from_counts
from repro.discriminators.deferral import DeferralProfile
from repro.experiments.harness import shared_components
from repro.experiments import heterogeneity
from repro.experiments.study import run_study

#: A ramp wide enough that the optimal plan keeps shifting while staying
#: feasible on both fleets.
DEMAND_RAMP = np.linspace(8.0, 30.0, 30)

#: Mixed fleet with the same worker count as the homogeneous reference.
MIXED_16 = {"a100": 8, "h100": 4, "l4": 4}


def _fresh_allocator(bench_scale):
    cascade, dataset, discriminator = shared_components("sdturbo", bench_scale)
    profile = DeferralProfile.profile(discriminator, dataset, cascade.light, seed=0)
    return (
        DiffServeAllocator(
            cascade.light,
            cascade.heavy,
            profile,
            discriminator_latency=discriminator.latency_s,
        ),
        cascade,
    )


def _cold_sweep(allocator, fleet, slo):
    """(wall seconds, LP solves) for a cold re-solve ramp on one fleet."""
    lp_before = allocator.solver.total_lp_solves
    start = time.perf_counter()
    for demand in DEMAND_RAMP:
        ctx = ControlContext(
            demand=float(demand), slo=slo, fleet=fleet, observed_deferral=0.4
        )
        plan = allocator.plan(ctx)
        assert plan.feasible
    elapsed = time.perf_counter() - start
    lp_solves = allocator.solver.total_lp_solves - lp_before
    return elapsed, lp_solves


def test_bench_heterogeneous_milp_within_2x_of_homogeneous(benchmark, bench_scale, monkeypatch):
    homo_alloc, cascade = _fresh_allocator(bench_scale)
    het_alloc, _ = _fresh_allocator(bench_scale)
    slo = cascade.slo

    # Both sweeps pinned to branch-and-bound (a zero search limit): at
    # runtime the homogeneous 16-worker problems are enumerated LP-free,
    # while MIXED_16's 50,625 assignments stay on branch-and-bound.
    with monkeypatch.context() as patch:
        patch.setattr(allocator_module, "EXHAUSTIVE_SEARCH_LIMIT", 0)
        homo_s, homo_lps = _cold_sweep(homo_alloc, FleetSpec.homogeneous(16), slo)
        het_s, het_lps = benchmark.pedantic(
            _cold_sweep,
            args=(het_alloc, fleet_from_counts(MIXED_16), slo),
            iterations=1,
            rounds=1,
        )

    assert homo_lps > 0
    # The deterministic gate: per-class variables must not explode the search.
    assert het_lps <= 2 * homo_lps, f"LP solves: het {het_lps} vs homo {homo_lps}"
    # Wall-clock gate with the same 2x budget (measured ~0.5x).
    assert het_s <= 2 * homo_s, f"wall: het {het_s:.3f}s vs homo {homo_s:.3f}s"


def test_bench_fleet_study_mixed_fleet_matches_or_dominates(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_study,
        args=(heterogeneity.STUDY,),
        kwargs={"scale": bench_scale},
        iterations=1,
        rounds=1,
    )
    summaries = result.summaries
    workloads = heterogeneity.DEFAULT_WORKLOADS
    reference = heterogeneity.REFERENCE
    # Equal-cost sanity: every arm's fleet cost is within tolerance of the
    # reference (enforced by resolve_fleets; re-checked on the results).
    for name, summary in summaries.items():
        ref_cost = summaries[f"{name.partition('/')[0]}/{reference}"]["fleet_cost"]
        assert abs(summary["fleet_cost"] - ref_cost) / ref_cost <= 0.07
    # The headline: some mixed fleet matches or Pareto-dominates the
    # homogeneous reference on at least one workload.
    dominated = {kind: heterogeneity.dominating_mixed_fleets(summaries, kind) for kind in workloads}
    assert any(result.holds(f"{kind}/mixed-dominates") for kind in workloads), dominated
    # And a mixed fleet sits on every workload's (violation, FID) front
    # alongside (or instead of) the reference on the bursty workload.
    assert any(
        name != reference
        for kind in workloads
        for name in heterogeneity.pareto_front(summaries, kind)
    )
