"""Smoke + shape tests for the experiment runners (small scales).

Heavier, paper-facing assertions live in the benchmark harness; these tests
check that each experiment runs, produces sane structures, and preserves the
headline qualitative findings at reduced scale.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.experiments import fig1_motivation, fig1_pareto, milp_overhead, reuse_study
from repro.experiments.cascade_eval import CascadeEvaluator
from repro.experiments.harness import (
    ExperimentScale,
    default_trace,
    format_table,
    shared_components,
)
from repro.workloads import DEFAULT_QPS_RANGE

SMALL = ExperimentScale(dataset_size=200, trace_duration=90.0, num_workers=16)


def test_experiment_scale_validation():
    with pytest.raises(ValueError):
        ExperimentScale(dataset_size=10)
    with pytest.raises(ValueError):
        ExperimentScale(trace_duration=0.0)
    with pytest.raises(ValueError):
        ExperimentScale(num_workers=1)


def test_shared_components_and_default_trace():
    cascade, dataset, discriminator = shared_components("sdturbo", SMALL)
    assert cascade.name == "sdturbo"
    assert len(dataset) == SMALL.dataset_size
    assert discriminator.latency_s > 0
    curve, trace = default_trace("sdturbo", SMALL)
    lo, hi = DEFAULT_QPS_RANGE["sdturbo"]
    assert curve.peak == pytest.approx(hi, abs=1e-6)
    assert len(trace) > 100


def test_format_table_renders_all_rows():
    text = format_table(["a", "b"], [["x", 1.0], ["longer", 2.5]])
    assert "longer" in text and "2.500" in text
    assert len(text.splitlines()) == 4


# --------------------------------------------------------------- cascade eval
def test_cascade_evaluator_single_model_points(coco_dataset, cascade1):
    evaluator = CascadeEvaluator(coco_dataset, cascade1.light, cascade1.heavy, n_queries=200)
    light = evaluator.single_model_point("light")
    heavy = evaluator.single_model_point("heavy")
    assert heavy.fid < light.fid
    assert heavy.mean_latency > light.mean_latency


def test_cascade_sweep_monotone_deferral(coco_dataset, cascade1, trained_discriminator):
    evaluator = CascadeEvaluator(coco_dataset, cascade1.light, cascade1.heavy, n_queries=200)
    curve = evaluator.sweep(trained_discriminator, np.linspace(0, 1, 6))
    fractions = [p.deferral_fraction for p in curve.points]
    assert all(b >= a - 1e-9 for a, b in zip(fractions, fractions[1:]))
    latencies = [p.mean_latency for p in curve.points]
    assert all(b >= a - 1e-9 for a, b in zip(latencies, latencies[1:]))


# --------------------------------------------------------------------- fig 1a
def test_fig1a_discriminator_beats_metric_thresholds():
    result = fig1_motivation.run_fig1a("sdturbo", SMALL, n_thresholds=7)
    disc = result.curves["discriminator"].best_fid()
    assert disc < result.curves["pickscore"].best_fid() + 0.2
    assert disc < result.curves["clipscore"].best_fid() + 0.2
    assert disc < result.curves["random"].best_fid() + 0.2
    # PickScore / CLIPScore are no better than random (within tolerance).
    assert result.curves["pickscore"].best_fid() > result.curves["random"].best_fid() - 1.0
    assert len(result.variant_points) >= 3


# --------------------------------------------------------------------- fig 1b
def test_fig1b_easy_fraction_in_paper_band():
    result = fig1_motivation.run_fig1b("sdturbo", SMALL)
    assert 0.1 <= result.easy_fraction_confidence <= 0.6
    assert 0.1 <= result.easy_fraction_pickscore <= 0.6
    xs, ys = result.cdf("confidence")
    assert np.all(np.diff(ys) >= 0)
    assert ys[-1] == pytest.approx(1.0)


# --------------------------------------------------------------------- fig 1c
def test_fig1c_pareto_frontier_properties():
    result = fig1_pareto.run_fig1c(scale=SMALL, n_thresholds=5, num_workers=10)
    assert result.num_configurations > 100
    xs, ys = result.frontier_arrays()
    assert len(xs) >= 2
    # Along the frontier, higher throughput must cost (weakly) higher FID.
    assert np.all(np.diff(xs) > 0)
    assert np.all(np.diff(ys) >= -1e-9)


# -------------------------------------------------------------- MILP overhead
def test_milp_overhead_fast_and_consistent():
    result = milp_overhead.run_milp_overhead(scale=SMALL, demands=(4.0, 16.0, 28.0))
    assert result.mean_time_ms < 500.0
    assert result.always_agrees
    assert len(result.thresholds) == 3
    # Threshold falls (weakly) as demand rises.
    assert result.thresholds[0] >= result.thresholds[-1] - 1e-9


def test_milp_overhead_sizes_the_cluster_from_the_scale(monkeypatch):
    plans = []
    plan = milp_overhead.DiffServeAllocator.plan

    def recording_plan(self, ctx, **kwargs):
        plans.append(plan(self, ctx, **kwargs))
        return plans[-1]

    monkeypatch.setattr(milp_overhead.DiffServeAllocator, "plan", recording_plan)
    result = milp_overhead.run_milp_overhead(scale=replace(SMALL, num_workers=4))
    assert result.demands[0] == 2.0
    assert result.demands[-1] == 8.0
    feasible = [p for p in plans if p.feasible]
    assert feasible
    assert all(p.total_workers <= 4 for p in feasible)


# ----------------------------------------------------------------- reuse study
def test_reuse_study_matches_paper_direction():
    result = reuse_study.run_reuse_study(("sdturbo", "sdxs"), SMALL)
    # SD-Turbo latents are compatible: no significant FID change.
    assert abs(result.fid_change("sdturbo")) < 0.3
    # SDXS latents are not: FID increases noticeably (paper: 18.55 -> 19.75).
    assert result.fid_change("sdxs") > 0.3
