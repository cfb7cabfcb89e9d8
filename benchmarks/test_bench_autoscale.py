"""Benchmark — elastic fleets: autoscaling + spot markets (PR 9 tentpole gate).

Two halves, mirroring the chaos benchmark's correctness/speed split:

* **Overhead gate:** arming the autoscaler with the ``static`` policy (the
  full decision machinery runs every replan epoch but never changes the
  fleet) must stay within :data:`OVERHEAD_CEILING` of the ``autoscale=None``
  legacy path on event-loop throughput (events fired per wall-clock second)
  for the same flash-crowd cell (median ratio over alternating legacy/armed
  pairs) — and must leave the summary byte-identical:
  a policy that never scales is observationally the legacy system.

* **Dominance claims:** :func:`repro.experiments.study.run_study` re-runs
  the elastic-fleet study at bench scale and asserts its named acceptance
  claim: under the diurnal workload on the diurnal spot market, the
  cost-aware policy strictly dominates the fixed equal-peak-cost fleet on
  (time-integrated cost, SLO violation ratio) — strictly cheaper, no worse
  on violations.
"""

import time

from repro.core.config import FleetSpec
from repro.core.system import ClientSource, build_diffserve_system
from repro.experiments import autoscale
from repro.experiments.study import run_study
from repro.workloads import make_workload

#: Autoscaler-armed events/sec may be at most this factor below legacy.
OVERHEAD_CEILING = 1.2
#: Cell the overhead gate times (matches the autoscale experiment shape).
N_WORKERS = 8
QPS = 9.6
DURATION = 60.0


def _events_per_second(autoscale):
    """Events fired per wall second for one flash-crowd run."""
    from repro.core.autoscaler import get_scale_policy

    system = build_diffserve_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(N_WORKERS),
        dataset_size=300,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
        autoscale=get_scale_policy(autoscale) if autoscale else None,
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


def test_bench_autoscale(benchmark, median_overhead):
    _, legacy_summary = _events_per_second(None)
    armed = {}

    def armed_run():
        armed["summary"] = _events_per_second("static")[1]
        return armed["summary"]

    benchmark(armed_run)

    # A static policy must not change behaviour, only evaluate and decline.
    assert armed["summary"] == legacy_summary, (
        "autoscale='static' run diverged from the autoscale=None summary"
    )

    # The gate reads the median of alternating legacy/armed pairs, not
    # the single samples above.
    slowdown, legacy_eps, armed_eps = median_overhead(
        lambda: _events_per_second(None)[0],
        lambda: _events_per_second("static")[0],
    )
    benchmark.extra_info["legacy_events_per_sec"] = round(legacy_eps, 1)
    benchmark.extra_info["armed_events_per_sec"] = round(armed_eps, 1)
    # compare.py gates `gated_*` higher-is-better: report the throughput
    # ratio (armed/legacy), not the slowdown.
    benchmark.extra_info["gated_autoscale_throughput_ratio"] = round(1.0 / slowdown, 3)
    assert slowdown <= OVERHEAD_CEILING, (
        f"autoscaler machinery event throughput {slowdown:.2f}x below legacy, "
        f"over the {OVERHEAD_CEILING}x ceiling "
        f"({legacy_eps:.0f} vs {armed_eps:.0f} events/s)"
    )

    # Dominance claims at bench scale (cached by the runner on repeats).
    result = run_study(autoscale.STUDY)
    fixed = result.summaries["diurnal/fixed"]
    aware = result.summaries["diurnal/cost-aware"]
    benchmark.extra_info["fixed_cost_a100h"] = round(fixed["fleet_cost"], 5)
    benchmark.extra_info["cost_aware_cost_a100h"] = round(aware["fleet_cost"], 5)
    benchmark.extra_info["fixed_slo_violation"] = round(fixed["slo_violation_ratio"], 4)
    benchmark.extra_info["cost_aware_slo_violation"] = round(aware["slo_violation_ratio"], 4)
    # Higher is better for the gate: fractional saving vs. the fixed fleet.
    benchmark.extra_info["gated_cost_aware_saving"] = round(
        autoscale.savings(result.summaries, "diurnal", "cost-aware"), 3
    )
    assert result.holds("diurnal/cost-aware-dominates"), (
        "cost-aware autoscaling fails to dominate the fixed fleet: "
        f"cost-aware (cost={aware['fleet_cost']:.5f}, "
        f"viol={aware['slo_violation_ratio']:.4f}) vs "
        f"fixed (cost={fixed['fleet_cost']:.5f}, viol={fixed['slo_violation_ratio']:.4f})"
    )
