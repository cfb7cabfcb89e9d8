"""Benchmark — multi-resource worker model (PR 7 tentpole gate).

Two halves, mirroring the shard benchmark's correctness/speed split:

* **Overhead gate:** the three-resource stage machine (residency + transfer
  channel + egress) must stay within :data:`OVERHEAD_CEILING` of the legacy
  compute-only worker on event-loop throughput (events fired per wall-clock
  second) for the same flash-crowd cell, as the median ratio over
  alternating legacy/resourced pairs.  The resourced run fires *more*
  events (transfer completions, egress deliveries), so events/sec is the
  fair unit — wall time alone would conflate model richness with slowdown.

* **Planning claims:** :func:`repro.experiments.study.run_study` re-runs the
  contention study at bench scale and asserts both of its named claims:
  reload-aware plans Pareto-dominate reload-oblivious plans on the SLO plane
  under flash-crowd replanning when checkpoints cannot co-reside, and
  co-placement pinning neutralizes reload costs when they can.
"""

import time

from repro.core.config import FleetSpec, ResourceConfig
from repro.core.system import ClientSource, build_diffserve_system
from repro.experiments import contention
from repro.experiments.study import run_study
from repro.workloads import make_workload

#: Resourced events/sec may be at most this factor below legacy events/sec.
OVERHEAD_CEILING = 1.3
#: Cell the overhead gate times (matches the contention experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(resources):
    """Events fired per wall second for one flash-crowd run."""
    system = build_diffserve_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        resources=resources,
    )
    workload = make_workload("flash-crowd", qps=QPS, duration=DURATION, seed=0)
    runtime = system.prepare()
    ClientSource(runtime.sim, workload, system.dataset, runtime.load_balancer, system.config.slo)
    horizon = system.horizon(workload)
    start = time.perf_counter()
    runtime.sim.run(until=horizon)
    elapsed = time.perf_counter() - start
    summary = runtime.result(horizon).summary()
    return runtime.sim.events_fired / elapsed, summary


def test_bench_contention(benchmark, median_overhead):
    _, legacy_summary = _events_per_second(None)
    resourced = {}

    def resourced_run():
        resourced["summary"] = _events_per_second(ResourceConfig.default())[1]
        return resourced["summary"]

    benchmark(resourced_run)

    assert legacy_summary["completed"] > 0 and resourced["summary"]["completed"] > 0

    # The gate reads the median of alternating legacy/resourced pairs, not
    # the single samples above.
    slowdown, legacy_eps, resourced_eps = median_overhead(
        lambda: _events_per_second(None)[0],
        lambda: _events_per_second(ResourceConfig.default())[0],
    )
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["resourced_events_per_sec"] = round(resourced_eps, 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (resourced/legacy), not the slowdown.
    benchmark.extra_info["gated_stage_machine_throughput_ratio"] = round(1.0 / slowdown, 3)
    assert slowdown <= OVERHEAD_CEILING, (
        f"stage machine event throughput {slowdown:.2f}x below legacy, "
        f"over the {OVERHEAD_CEILING}x ceiling "
        f"({legacy_eps:.0f} vs {resourced_eps:.0f} events/s)"
    )

    # Planning claims at bench scale (cached by the runner on repeats).
    result = run_study(contention.STUDY)
    contended = result.summaries["contended/aware"]
    oblivious = result.summaries["contended/oblivious"]
    benchmark.extra_info["aware_slo_violation"] = round(contended["slo_violation_ratio"], 4)
    benchmark.extra_info["oblivious_slo_violation"] = round(oblivious["slo_violation_ratio"], 4)
    assert result.holds("reload-aware-dominates"), (
        "reload-aware plan fails to dominate: "
        f"aware (viol={contended['slo_violation_ratio']:.4f}, "
        f"p99={contended['p99_latency']:.3f}) vs "
        f"oblivious (viol={oblivious['slo_violation_ratio']:.4f}, "
        f"p99={oblivious['p99_latency']:.3f})"
    )
    assert result.holds("coplacement-neutralizes"), (
        "co-placement pinning no longer neutralizes reloads in the co-fit scenario"
    )
