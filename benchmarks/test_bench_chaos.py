"""Benchmark — fault injection & self-healing recovery (PR 8 tentpole gate).

Two halves, mirroring the contention benchmark's correctness/speed split:

* **Overhead gate:** arming the recovery machinery on a *quiet* fault plan
  (heartbeat detector, retry hooks, plan store — but zero injected faults)
  must stay within :data:`OVERHEAD_CEILING` of the ``faults=None`` legacy
  path on event-loop throughput (events fired per wall-clock second) for the
  same flash-crowd cell, as the median ratio over alternating legacy/armed
  pairs.  The quiet run fires extra heartbeat events, so
  events/sec is the fair unit — wall time alone would conflate the richer
  event stream with slowdown.

* **Recovery claims:** :func:`repro.experiments.study.run_study` re-runs the
  chaos study at bench scale and asserts both of its named claims: under the
  crash+straggler storm the recovery arm Pareto-dominates the unmitigated
  arm on (SLO violation ratio, p99 latency), and the unmitigated arm still
  degrades gracefully (completes work, accounts losses as drops) rather than
  falling over.
"""

import time

from repro.core.config import FleetSpec
from repro.core.system import ClientSource, build_diffserve_system
from repro.experiments import chaos
from repro.experiments.study import run_study
from repro.faults.plan import get_fault_plan
from repro.workloads import make_workload

#: Recovery-armed events/sec may be at most this factor below legacy.
OVERHEAD_CEILING = 1.2
#: Cell the overhead gate times (matches the chaos experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(faults):
    """Events fired per wall second for one flash-crowd run."""
    system = build_diffserve_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        faults=faults,
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


def test_bench_chaos(benchmark, median_overhead):
    _, legacy_summary = _events_per_second(None)
    armed = {}

    def armed_run():
        armed["summary"] = _events_per_second(get_fault_plan("quiet"))[1]
        return armed["summary"]

    benchmark(armed_run)

    # A quiet plan must not change behaviour, only add heartbeat events.
    assert armed["summary"] == legacy_summary, (
        "recovery-armed quiet run diverged from the faults=None summary"
    )

    # The gate reads the median of alternating legacy/armed pairs, not
    # the single samples above.
    slowdown, legacy_eps, armed_eps = median_overhead(
        lambda: _events_per_second(None)[0],
        lambda: _events_per_second(get_fault_plan("quiet"))[0],
    )
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["armed_events_per_sec"] = round(armed_eps, 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (armed/legacy), not the slowdown.
    benchmark.extra_info["gated_recovery_throughput_ratio"] = round(1.0 / slowdown, 3)
    assert slowdown <= OVERHEAD_CEILING, (
        f"recovery machinery event throughput {slowdown:.2f}x below legacy, "
        f"over the {OVERHEAD_CEILING}x ceiling "
        f"({legacy_eps:.0f} vs {armed_eps:.0f} events/s)"
    )

    # Recovery claims at bench scale (cached by the runner on repeats).
    result = run_study(chaos.STUDY)
    recovery = result.summaries["recovery"]
    norecovery = result.summaries["norecovery"]
    benchmark.extra_info["recovery_slo_violation"] = round(recovery["slo_violation_ratio"], 4)
    benchmark.extra_info["norecovery_slo_violation"] = round(norecovery["slo_violation_ratio"], 4)
    benchmark.extra_info["recovery_p99"] = round(recovery["p99_latency"], 3)
    benchmark.extra_info["norecovery_p99"] = round(norecovery["p99_latency"], 3)
    assert result.holds("recovery-dominates"), (
        "self-healing recovery fails to dominate under the storm: "
        f"recovery (viol={recovery['slo_violation_ratio']:.4f}, "
        f"p99={recovery['p99_latency']:.3f}) vs "
        f"norecovery (viol={norecovery['slo_violation_ratio']:.4f}, "
        f"p99={norecovery['p99_latency']:.3f})"
    )
    assert result.holds("degrades-gracefully"), (
        "unmitigated storm arm failed to degrade gracefully "
        "(expected completed > 0 and dropped > 0)"
    )
