"""Tests for the benchmark's own code (span arithmetic, wrappers, metric names)."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import cells, layers, run, tracer as tracer_mod
from perfbench.tracer import Tracer, descends_from, self_times

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture
def fake_clock(monkeypatch):
    """A perf_counter that advances by one second per reading."""
    ticks = iter(range(1000))
    monkeypatch.setattr(tracer_mod, "perf_counter", lambda: float(next(ticks)))


@pytest.fixture
def isolated_repro():
    """Put the session's ``repro`` modules back after a cell re-imported them."""
    saved = {name: mod for name, mod in sys.modules.items() if name.split(".")[0] == "repro"}
    yield
    for name in [n for n in sys.modules if n.split(".")[0] == "repro"]:
        del sys.modules[name]
    sys.modules.update(saved)


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    table = {
        "name": np.zeros(4, dtype=np.int64),
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 9.0]),
        "parent": np.array([-1, 0, 1, 0]),
    }
    assert self_times(table).tolist() == [3.0, 2.0, 1.0, 4.0]
    assert descends_from(table, np.array([1])).tolist() == [False, True, True, False]


class _Layer:
    def outer(self, n):
        return self.inner(n) + self.inner(n)

    def inner(self, n):
        return n


def test_wrappers_record_parents_and_self_time(fake_clock):
    tracer = Tracer()
    tracer.wrap(_Layer, "outer", "layer.outer")
    def keep_result(tracer, args, kwargs, result, state, index):
        tracer.span_value[index] = result

    tracer.wrap(_Layer, "inner", "layer.inner", after=keep_result)
    assert _Layer().outer(3) == 6
    table = tracer.arrays()
    names = [tracer.names[i] for i in table["name"]]
    assert names == ["layer.outer", "layer.inner", "layer.inner"]
    assert table["parent"].tolist() == [-1, 0, 0]
    assert table["value"].tolist() == [0.0, 3.0, 3.0]
    # Clock readings: outer 0..5, inner 1..2 and 3..4.
    assert tracer.self_times().tolist() == [3.0, 1.0, 1.0]
    tracer.restore()
    assert "perfbench_probe" not in vars(_Layer)["outer"].__dict__
    assert tracer.installed == 0


def test_restore_removes_wrappers_of_inherited_methods():
    class Child(_Layer):
        pass

    tracer = Tracer()
    tracer.wrap(Child, "inner", "child.inner")
    assert "inner" in vars(Child)
    tracer.restore()
    assert "inner" not in vars(Child)
    assert Child().inner(2) == 2


def test_sub_seeds_are_disjoint_across_seeds():
    seen = set()
    for seed in range(20):
        drawn = cells.sub_seeds(seed, 4)
        assert len(drawn) == 4 and not seen & set(drawn)
        seen |= set(drawn)


def _short_workloads():
    return [
        cells.Workload(
            name="short-serial",
            cells=1,
            trace_duration=20.0,
            spec={"systems": ("diffserve",)},
            check=lambda results, summaries, captures: [],
        ),
        cells.Workload(
            name="short-geo",
            cells=1,
            trace_duration=4.0,
            spec={
                "systems": ("diffserve",),
                "trace": {"kind": "static", "qps": 120.0},
                "geo": "global-8",
                "shards": 1,
            },
            check=cells.check_regions,
        ),
    ]


def _probed_attributes():
    found = []
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "repro" or module is None:
            continue
        for attr, value in vars(module).items():
            if getattr(value, "perfbench_probe", False):
                found.append(f"{name}.{attr}")
            if isinstance(value, type):
                found += [
                    f"{name}.{attr}.{key}"
                    for key, member in vars(value).items()
                    if getattr(member, "perfbench_probe", False)
                ]
    return found


@pytest.mark.parametrize("workload", _short_workloads(), ids=lambda w: w.name)
def test_traced_and_untraced_cells_agree(workload, isolated_repro):
    plain = run.run_cell(workload, cell_seed=3, traced=False)
    assert _probed_attributes() == []
    traced = run.run_cell(workload, cell_seed=3, traced=True)
    assert _probed_attributes() == []

    assert plain.failures == [] and traced.failures == []
    assert plain.summaries_json == traced.summaries_json
    assert cells.modelled_metrics([plain.diffserve]) == cells.modelled_metrics([traced.diffserve])
    assert plain.setup_s > 0 and plain.run_s > 0
    metrics = traced.layer
    derived_later = {"bench.trace_overhead_ratio", "simulator.events_per_s"}
    assert set(metrics) | derived_later == set(layers.PER_LAYER_UNITS)
    assert metrics["models.images"] > 0 and metrics["simulator.events"] > 0
    assert metrics["core.results.complete.calls"] > 0
    assert 0.0 <= metrics["bench.unattributed_share"] < 0.5
    if workload.name == "short-geo":
        assert metrics["core.geo.route.calls"] > 0 and metrics["core.sharding.epochs"] > 0


def test_metric_names_units_and_benchmark_file_agree():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == layers.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(cells.WORKLOADS)
    for name in [*end_to_end, *per_layer, *cells.WORKLOADS]:
        assert NAME.fullmatch(name), name
    for entry in layers.LAYER_MAP:
        assert set(entry["metrics"]) <= set(per_layer), entry["layer"]
        for metric, workloads in entry["moves"].items():
            assert metric in end_to_end, metric
            assert set(workloads) <= set(cells.WORKLOADS), workloads


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "global-8", "--seed", "1"]
        + ["--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
