"""The three benchmark workloads, their correctness checks and modelled metrics.

Each workload is one ``run_cell_results`` cell spec.  A run draws ``cells``
sub-seeds from the benchmark's ``--seed`` and builds one spec per sub-seed;
the program only ever sees those specs (and the traces it samples from them).

Why these three (each stresses different layers of ``repro``):

* ``paper-azure`` -- the paper's Fig. 5 cell: five systems on the Azure-like
  trace.  The only workload that runs the baselines; synthesis (models and
  discriminators) and the MILP share the time.
* ``global-8`` -- DiffServe alone on eight regions through the shard
  supervisor (``shards=1``, inline).  The control plane does most of the
  work; the only workload that runs geo routing and sharding epochs.
* ``elastic-chaos`` -- DiffServe alone with the resource model, the chaos
  fault plan, the cost-aware autoscaler and spot prices.  The MILP is mostly
  bypassed; the only workload that runs faults, autoscaling and the ledger.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

FIVE_SYSTEMS = ("clipper-light", "clipper-heavy", "proteus", "diffserve-static", "diffserve")

#: Prompts per synthesized dataset (the ``ExperimentScale`` default).
DATASET_SIZE = 1000


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cell template and its workload-specific check."""

    name: str
    #: Distinct sub-seed cells per run; the modelled metrics pool over them.
    cells: int
    trace_duration: float
    #: ``ExperimentSpec`` fields besides cascade and scale (``trace`` as TraceSpec kwargs).
    spec: dict
    #: ``check(results, summaries, captures)`` -> failure messages.
    check: Callable[..., List[str]]


@dataclass
class Captures:
    """What the benchmark's hooks saw during one cell (see ``layers.install_base``)."""

    trace_length: int = -1
    faults_fired: int = 0
    fleet_changes: int = 0
    #: Per shard-supervisor run: (regions in the topology, {region: completed}).
    regions: List[Tuple[int, Dict[str, int]]] = field(default_factory=list)


def sub_seeds(seed: int, cells: int) -> List[int]:
    """The cell seeds a benchmark seed expands to (disjoint across seeds)."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return [seed * cells + i for i in range(cells)]


def make_spec(workload: Workload, cell_seed: int):
    """The ``ExperimentSpec`` of one cell, built from the freshly imported ``repro``."""
    harness = importlib.import_module("repro.experiments.harness")
    spec_mod = importlib.import_module("repro.runner.spec")
    scale = harness.ExperimentScale(
        dataset_size=DATASET_SIZE,
        trace_duration=workload.trace_duration,
        num_workers=16,
        seed=cell_seed,
    )
    kwargs = dict(workload.spec)
    trace = kwargs.pop("trace", None)
    if trace is not None:
        kwargs["trace"] = spec_mod.TraceSpec(**trace)
    return spec_mod.ExperimentSpec(cascade="sdturbo", scale=scale, **kwargs)


# --------------------------------------------------------------------------
# Correctness checks
# --------------------------------------------------------------------------


def check_common(summaries: Dict[str, Dict[str, float]], captures: Captures) -> List[str]:
    """Query conservation and finite summaries, per system."""
    failures = []
    for name, summary in summaries.items():
        total = summary["total_queries"]
        if summary["completed"] + summary["dropped"] != total:
            failures.append(f"{name}: completed + dropped != total_queries ({total:g})")
        if total != captures.trace_length:
            failures.append(
                f"{name}: total_queries {total:g} != trace length {captures.trace_length}"
            )
        bad = sorted(key for key, value in summary.items() if not math.isfinite(value))
        if bad:
            failures.append(f"{name}: non-finite summary values {bad}")
    return failures


def check_fig5(results: Dict[str, object], summaries, captures: Captures) -> List[str]:
    """The Fig. 5 orderings that ``benchmarks/test_bench_fig5.py`` asserts."""
    fid = {name: summary["fid"] for name, summary in summaries.items()}
    viol = {name: summary["slo_violation_ratio"] for name, summary in summaries.items()}
    improvement = (fid["clipper-light"] - fid["diffserve"]) / fid["clipper-light"]
    _, thresholds = results["diffserve"].threshold_timeseries()
    spread = float(thresholds.max() - thresholds.min()) if thresholds.size else 0.0
    claims = [
        ("fid diffserve < clipper-light", fid["diffserve"] < fid["clipper-light"]),
        ("fid diffserve < proteus", fid["diffserve"] < fid["proteus"]),
        (
            "fid diffserve < diffserve-static + 0.5",
            fid["diffserve"] < fid["diffserve-static"] + 0.5,
        ),
        ("fid clipper-heavy < clipper-light", fid["clipper-heavy"] < fid["clipper-light"]),
        ("quality improvement over clipper-light > 0.08", improvement > 0.08),
        ("violations clipper-heavy > 0.25", viol["clipper-heavy"] > 0.25),
        ("violations diffserve < 0.10", viol["diffserve"] < 0.10),
        ("violations diffserve < clipper-heavy / 3", viol["diffserve"] < viol["clipper-heavy"] / 3),
        (
            "violations diffserve <= diffserve-static + 0.02",
            viol["diffserve"] <= viol["diffserve-static"] + 0.02,
        ),
        ("violations clipper-light <= 0.02", viol["clipper-light"] <= 0.02),
        ("diffserve threshold range > 0.1", spread > 0.1),
    ]
    return [f"fig5: {label} does not hold" for label, holds in claims if not holds]


def check_regions(results: Dict[str, object], summaries, captures: Captures) -> List[str]:
    """Every region of the geo topology served queries."""
    if not captures.regions:
        return ["global-8: no shard supervisor ran"]
    failures = []
    for expected, completed in captures.regions:
        if len(completed) != expected:
            failures.append(f"global-8: {len(completed)} region results for {expected} regions")
        idle = sorted(name for name, count in completed.items() if count == 0)
        if idle:
            failures.append(f"global-8: regions served no queries: {idle}")
    return failures


def check_elastic(results: Dict[str, object], summaries, captures: Captures) -> List[str]:
    """At least one fault fired and at least one fleet change happened."""
    failures = []
    if captures.faults_fired == 0:
        failures.append("elastic-chaos: no fault fired")
    if captures.fleet_changes == 0:
        failures.append("elastic-chaos: no fleet change happened")
    return failures


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-azure",
            cells=6,
            trace_duration=240.0,
            spec={"systems": FIVE_SYSTEMS},
            check=check_fig5,
        ),
        Workload(
            name="global-8",
            cells=6,
            trace_duration=35.0,
            spec={
                "systems": ("diffserve",),
                "trace": {"kind": "static", "qps": 240.0},
                "geo": "global-8",
                "shards": 1,
            },
            check=check_regions,
        ),
        Workload(
            name="elastic-chaos",
            cells=7,
            trace_duration=1200.0,
            spec={
                "systems": ("diffserve",),
                "trace": {"kind": "mmpp"},
                "resources": "default",
                "faults": "chaos",
                "autoscale": "cost-aware",
                "prices": "spot-diurnal",
                "params": (("replan_epoch", 10.0), ("replan_policy", "adaptive")),
            },
            check=check_elastic,
        ),
    )
}


def check_cell(
    workload: Workload, results: Dict[str, object], summaries, captures: Captures
) -> List[str]:
    """Every failed check of one cell (empty when the cell is correct)."""
    return check_common(summaries, captures) + workload.check(results, summaries, captures)


# --------------------------------------------------------------------------
# Modelled end-to-end metrics
# --------------------------------------------------------------------------


def modelled_metrics(cells: Sequence[Tuple[Dict[str, float], np.ndarray]]) -> Dict[str, float]:
    """DiffServe's modelled metrics pooled over the run's distinct cells.

    ``cells`` holds one (summary, finite latencies) pair per cell.  Counts and
    latency samples are pooled, so the ratios and percentiles cover every
    query of every cell; FID and fleet cost are per-cell means.
    """
    total = sum(summary["total_queries"] for summary, _ in cells)
    completed = sum(summary["completed"] for summary, _ in cells)
    violated = sum(s["slo_violation_ratio"] * s["total_queries"] for s, _ in cells)
    pooled = np.concatenate([latencies for _, latencies in cells])
    return {
        "fid": float(np.mean([summary["fid"] for summary, _ in cells])),
        "slo_attainment_ratio": 1.0 - violated / total,
        "served_ratio": completed / total,
        "mean_latency_s": float(pooled.mean()),
        "p99_latency_s": float(np.percentile(pooled, 99)),
        "fleet_cost_a100h": float(np.mean([summary["fleet_cost"] for summary, _ in cells])),
        "slo_violation_ratio": violated / total,
        "drop_ratio": (total - completed) / total,
        "p50_latency_s": float(np.percentile(pooled, 50)),
        "latency_samples": float(pooled.size),
    }
