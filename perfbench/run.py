"""Benchmark entry point: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload paper-azure --seed 1 --seconds 30 --trace 0

Every cell runs serially in this process: ``repro`` is imported afresh
(``src/`` of the checkout this file sits in), the dataset is synthesized and
the discriminator trained with the artifact cache off, the trace is sampled
and the systems are built (the set-up phase), then every system runs the
trace and is summarised (the run phase).  Untraced, every sub-seed of
``--seed`` runs once and then the first again; traced, untraced/traced pairs
of the same cell run (one pair at least).  Further cells or pairs run while
they fit in ``--seconds``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` counts
cells and ``failed`` the cells that raised.  Human-readable detail, the
machine fingerprint and the per-cell numbers come before it and are also
written to ``perfbench/out/``, as are the spans of traced cells.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import pkgutil
import platform
import resource
import statistics
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOAD_NAMES = ("paper-azure", "global-8", "elastic-chaos")

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_UNITS = {
    "sim_qps": "queries/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "fid": "FID",
    "slo_attainment_ratio": "ratio",
    "served_ratio": "ratio",
    "mean_latency_s": "s",
    "p99_latency_s": "s",
    "fleet_cost_a100h": "A100-h",
}


@dataclass
class Cell:
    """Outcome of one cell run."""

    cell_seed: int
    traced: bool
    setup_s: float = 0.0
    run_s: float = 0.0
    queries: float = 0.0
    summaries_json: str = ""
    diffserve: Optional[tuple] = None
    failures: List[str] = field(default_factory=list)
    error: str = ""
    layer: Optional[Dict[str, float]] = None
    tracer: object = None

    @property
    def sim_qps(self) -> float:
        return self.queries / self.run_s


def import_repro() -> None:
    """Import every module of ``repro`` anew (the set-up's import step)."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


def run_cell(workload, cell_seed: int, traced: bool) -> Cell:
    """Set up and run one cell; the spans it records split set-up from run."""
    import numpy as np

    from perfbench import cells, layers
    from perfbench.tracer import Tracer

    cell = Cell(cell_seed=cell_seed, traced=traced)
    gc.collect()
    tick = perf_counter()
    import_repro()
    spec = cells.make_spec(workload, cell_seed)
    import_s = perf_counter() - tick

    tracer = Tracer()
    captures = cells.Captures()
    executor = importlib.import_module("repro.runner.executor")
    cache = importlib.import_module("repro.runner.cache").ArtifactCache(
        root=OUT / "cache", enabled=False
    )
    try:
        layers.install_base(tracer, captures)
        workers = layers.install_layers(tracer) if traced else None
        root = tracer.begin(tracer.name_id(layers.ROOT))
        try:
            _, results = executor.run_cell_results(spec, cache=cache)
            summaries = {name: result.summary() for name, result in results.items()}
        finally:
            tracer.end(root)
        if traced:
            cell.layer = layers.layer_metrics(tracer, workers)
            cell.tracer = tracer
    finally:
        tracer.restore()

    phases = layers.cell_phases(tracer)
    cell.setup_s = import_s + phases["setup_s"]
    cell.run_s = phases["run_s"]
    cell.queries = sum(summary["total_queries"] for summary in summaries.values())
    cell.summaries_json = json.dumps(summaries, sort_keys=True)
    cell.failures = cells.check_cell(workload, results, summaries, captures)
    latency = results["diffserve"].cols.latency
    cell.diffserve = (summaries["diffserve"], latency[np.isfinite(latency)].copy())
    return cell


def guarded(workload, cell_seed: int, traced: bool) -> Cell:
    """:func:`run_cell`, turning an exception into a failed cell."""
    try:
        return run_cell(workload, cell_seed, traced)
    except Exception:  # noqa: BLE001 - a failing cell is reported, not fatal
        return Cell(cell_seed=cell_seed, traced=traced, error=traceback.format_exc())


def fingerprint() -> Dict[str, object]:
    """The machine and library versions every result is recorded with."""
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def determinism_failures(runs: List[Cell]) -> List[str]:
    """Cells of the same seed must produce byte-identical summaries."""
    first: Dict[tuple, str] = {}
    failures = []
    for cell in runs:
        if cell.error:
            continue
        key = cell.cell_seed
        if first.setdefault(key, cell.summaries_json) != cell.summaries_json:
            failures.append(f"cell seed {key}: summaries differ between runs of the same cell")
    return failures


def end_to_end(workload, runs: List[Cell]) -> Dict[str, float]:
    from perfbench import cells

    ok = [cell for cell in runs if not cell.error]
    distinct = {}
    for cell in ok:
        distinct.setdefault(cell.cell_seed, cell.diffserve)
    modelled = cells.modelled_metrics(list(distinct.values()))
    warm = [cell for cell in runs[1:] if not cell.error] or ok
    metrics = {
        "sim_qps": sum(cell.queries for cell in warm) / sum(cell.run_s for cell in warm),
        "setup_s": statistics.median(cell.setup_s for cell in warm),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics.update(modelled)
    return metrics


def per_layer(runs: List[Cell]) -> Dict[str, float]:
    from perfbench import layers

    traced = [cell for cell in runs if cell.traced and not cell.error]
    plain = [cell for cell in runs if not cell.traced and not cell.error]
    names = traced[0].layer.keys()
    metrics = {name: statistics.fmean(cell.layer[name] for cell in traced) for name in names}
    plain_run_s = statistics.median(cell.run_s for cell in plain)
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(cell.run_s for cell in traced) / plain_run_s - 1.0
    )
    metrics["simulator.events_per_s"] = metrics["simulator.events"] / plain_run_s
    return {name: metrics[name] for name in layers.PER_LAYER_UNITS}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    # Hermetic: nothing read from or written to a cache outside the checkout.
    os.environ["REPRO_CACHE"] = "0"
    os.environ["REPRO_CACHE_DIR"] = str(OUT / "cache")
    from perfbench import cells, layers

    workload = cells.WORKLOADS[args.workload]
    seeds = cells.sub_seeds(args.seed, workload.cells)
    print("fingerprint " + json.dumps(fingerprint(), sort_keys=True), flush=True)

    runs: List[Cell] = []
    start = perf_counter()
    index = 0
    # Untraced runs cover every sub-seed (the modelled metrics pool over them)
    # and then repeat the first, whose summaries must come out identical; the
    # first cell warms the process up and stays out of the host metrics.  A
    # traced run needs one untraced/traced pair at least.
    # Past the minimum, a cell starts only if it should end within --seconds.
    minimum = 1 if args.trace else workload.cells + 1
    last_s = 0.0
    while index < minimum or perf_counter() - start + last_s <= args.seconds:
        tick = perf_counter()
        seed = seeds[index % workload.cells]
        runs.append(guarded(workload, seed, traced=False))
        if args.trace:
            runs.append(guarded(workload, seed, traced=True))
        index += 1
        last_s = perf_counter() - tick
    wall_s = perf_counter() - start

    failures = determinism_failures(runs)
    if args.trace:
        failures += [
            f"cell seed {traced.cell_seed}: traced summaries differ from the untraced run"
            for plain, traced in zip(runs[::2], runs[1::2])
            if not (plain.error or traced.error) and plain.summaries_json != traced.summaries_json
        ]
    for cell in runs:
        failures += [f"cell seed {cell.cell_seed}: {message}" for message in cell.failures]
        if cell.error:
            print(f"cell seed {cell.cell_seed} raised:\n{cell.error}", file=sys.stderr)
        print(
            f"cell seed={cell.cell_seed} traced={int(cell.traced)} setup_s={cell.setup_s:.4f} "
            f"run_s={cell.run_s:.4f} queries={cell.queries:.0f} "
            f"sim_qps={cell.sim_qps if cell.run_s else 0.0:.1f}"
            + (" ERROR" if cell.error else ""),
            flush=True,
        )
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)

    errors = sum(1 for cell in runs if cell.error)
    if errors == len(runs) or (args.trace and not any(c.traced and not c.error for c in runs)):
        print("perfbench: every cell failed", file=sys.stderr)
        return 1
    if args.trace:
        values = per_layer(runs)
        units = layers.PER_LAYER_UNITS
    else:
        values = end_to_end(workload, runs)
        units = END_TO_END_UNITS
        print(
            "diffserve, pooled over cells: "
            + " ".join(f"{k}={values[k]:.6g}" for k in sorted(values) if k not in units)
        )
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "wall_s": wall_s,
        "fingerprint": fingerprint(),
        "cells": [
            {
                "cell_seed": c.cell_seed,
                "traced": c.traced,
                "setup_s": c.setup_s,
                "run_s": c.run_s,
                "queries": c.queries,
                "error": c.error,
            }
            for c in runs
        ],
        "failures": failures,
        "values": values,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True))
    for number, cell in enumerate(c for c in runs if c.tracer is not None):
        cell.tracer.write(
            OUT / f"{stem}-spans{number}.json.gz",
            {"workload": args.workload, "cell_seed": cell.cell_seed},
        )

    result = {
        "correct": not failures and errors == 0,
        "attempted": len(runs),
        "failed": errors,
        "metrics": metrics,
    }
    print(json.dumps(result, sort_keys=False), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
