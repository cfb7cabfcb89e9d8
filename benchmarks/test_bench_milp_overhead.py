"""Benchmark E11 — Section 4.5: MILP solver overhead.

Paper shape asserted: one allocation solve completes in milliseconds to tens
of milliseconds (Gurobi: ~10 ms; our branch-and-bound is in the same order of
magnitude), stays off the data path, and matches the exhaustive optimum.  The
study plans a 16-worker cluster, whose per-pair MILPs are larger than the
allocator's exhaustive search limit, so every timed solve is branch-and-bound;
the closed-form exhaustive solver re-solves each chosen pair as the oracle.
"""

from repro.experiments.milp_overhead import run_milp_overhead


def test_bench_milp_overhead(benchmark, bench_scale):
    result = benchmark.pedantic(
        run_milp_overhead,
        kwargs={"scale": bench_scale, "demands": (4.0, 10.0, 16.0, 24.0, 32.0)},
        iterations=1,
        rounds=1,
    )

    # Solves complete quickly enough to run every control period.
    assert result.mean_time_ms < 300.0
    assert result.max_time_ms < 1500.0
    # Branch-and-bound finds the exhaustive optimum on every instance.
    assert result.always_agrees
    # The optimal threshold falls as demand rises (model scaling).
    assert result.thresholds[0] >= result.thresholds[-1]
    assert result.thresholds[0] == 1.0
