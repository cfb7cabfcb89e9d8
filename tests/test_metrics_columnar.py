"""Equivalence tests for the columnar/streaming metrics pipeline.

Every vectorized path (columnar ``summary()``, ``violation_timeseries``,
streaming ``windowed_fid``, moments-cached FID) is pinned against a
brute-force per-record reimplementation of the legacy computation on
randomized runs, to ~1e-9.  The collector's column store itself is pinned
array for array against the per-record oracle (``result_oracle``).
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from result_oracle import (
    Record,
    assert_columns_equal,
    collect,
    feed,
    from_records,
    random_records,
)

from repro.core.query import Query, QueryStage
from repro.core.results import ColumnStore, ResultCollector, SimulationResult
from repro.metrics.accumulators import GaussianStats, P2Quantile, StreamingMoments
from repro.metrics.fid import (
    RealMoments,
    fid_score,
    frechet_distance,
    frechet_from_moments,
    windowed_fid,
    windowed_fid_reference,
)
from repro.models.dataset import make_coco_like

DIM = 8
SLO = 2.0
DURATION = 120.0


# --------------------------------------------------------------------------
# Synthetic runs
# --------------------------------------------------------------------------


def _random_records(seed: int, n: int = 400):
    """A randomized record list with drops, violations, and both stages."""
    return random_records(np.random.default_rng(seed), n, DIM, duration=DURATION, slo=SLO)


def _run(seed: int, n: int = 400):
    """(records, result): a randomized run fed through the collector."""
    dataset = make_coco_like(200, seed=seed, feature_dim=DIM)
    records = _random_records(seed, n)
    result = SimulationResult(
        cols=collect(dataset, records), dataset=dataset, slo=SLO, duration=DURATION
    )
    return records, result


# --------------------------------------------------------------------------
# Brute-force references (the legacy per-record computations, verbatim)
# --------------------------------------------------------------------------


def _ref_summary(records, result: SimulationResult) -> dict:
    completed = [r for r in records if not r.dropped]
    dropped = sum(1 for r in records if r.dropped)
    violated = sum(1 for r in completed if r.slo_violated)
    latencies = np.array([r.latency for r in completed if r.latency is not None])
    feats = np.stack([r.features for r in completed if r.features is not None])
    qualities = [r.quality for r in completed if r.quality is not None]
    return {
        "total_queries": float(len(records)),
        "completed": float(len(completed)),
        "fid": fid_score(feats, result.dataset.real_features),
        "slo_violation_ratio": (violated + dropped) / len(records),
        "deferral_rate": sum(1 for r in completed if r.stage == QueryStage.HEAVY)
        / len(completed),
        "dropped": float(dropped),
        "mean_quality": float(np.mean(qualities)),
        "mean_latency": float(latencies.mean()),
        "p50_latency": float(np.percentile(latencies, 50)),
        "p99_latency": float(np.percentile(latencies, 99)),
        # Carried verbatim from the result, not derived from records: the
        # cost ledger's time-integrated total (A100-hours).
        "fleet_cost": result.fleet_cost,
    }


def _ref_violation_timeseries(records, result: SimulationResult, window: float):
    edges = np.arange(0.0, result.duration + window, window)
    centers = (edges[:-1] + edges[1:]) / 2.0
    ratios = np.zeros(len(centers))
    for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        in_window = [r for r in records if lo <= r.query.arrival_time < hi]
        if not in_window:
            continue
        ratios[i] = sum(1 for r in in_window if r.slo_violated) / len(in_window)
    return centers, ratios


# --------------------------------------------------------------------------
# Columnar result equivalence
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_columnar_summary_matches_brute_force(seed):
    records, result = _run(seed)
    summary = result.summary()
    reference = _ref_summary(records, result)
    assert set(summary) == set(reference)
    for key in reference:
        assert summary[key] == pytest.approx(reference[key], rel=1e-9, abs=1e-9), key


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("window", [7.5, 20.0, 60.0])
def test_columnar_violation_timeseries_matches_brute_force(seed, window):
    records, result = _run(seed)
    centers, ratios = result.violation_timeseries(window)
    ref_centers, ref_ratios = _ref_violation_timeseries(records, result, window)
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(ratios, ref_ratios, atol=1e-12)


def test_columnar_demand_timeseries_matches_histogram():
    records, result = _run(0)
    centers, demand = result.demand_timeseries(20.0)
    arrivals = np.array([r.query.arrival_time for r in records])
    edges = np.arange(0.0, result.duration + 20.0, 20.0)
    counts, _ = np.histogram(arrivals, bins=edges)
    np.testing.assert_allclose(demand, counts / 20.0)
    assert len(centers) == len(demand)


def test_columnar_latency_stats_match_per_record_scan():
    records, result = _run(1)
    stats = result.latency_stats()
    latencies = [r.latency for r in records if not r.dropped and r.latency is not None]
    assert stats.count == len(latencies)
    assert stats.mean == pytest.approx(np.mean(latencies), rel=1e-12)
    assert stats.p99 == pytest.approx(np.percentile(latencies, 99), rel=1e-12)
    assert stats.maximum == pytest.approx(np.max(latencies), rel=1e-12)


def test_column_store_from_records_handles_empty_and_all_dropped():
    dataset = make_coco_like(50, seed=0, feature_dim=DIM)
    assert_columns_equal(ResultCollector(dataset).columns(), from_records([], DIM))
    assert_columns_equal(ColumnStore.empty(DIM), from_records([], DIM))
    empty = SimulationResult(
        cols=ResultCollector(dataset).columns(), dataset=dataset, slo=SLO, duration=10.0
    )
    assert empty.total_queries == 0
    assert empty.dropped_count == 0
    assert empty.slo_violation_ratio == 0.0
    assert np.isnan(empty.fid())
    dropped_records = [
        Record(
            query=Query(query_id=i, arrival_time=1.0, prompt="p", difficulty=0.5, slo=SLO),
            stage=QueryStage.DROPPED,
        )
        for i in range(3)
    ]
    cols = collect(dataset, dropped_records)
    assert_columns_equal(cols, from_records(dropped_records, DIM))
    all_dropped = SimulationResult(cols=cols, dataset=dataset, slo=SLO, duration=10.0)
    assert all_dropped.slo_violation_ratio == 1.0
    assert all_dropped.deferral_rate == 0.0
    assert all_dropped.latency_stats().count == 0


# --------------------------------------------------------------------------
# Collector-driven runs
# --------------------------------------------------------------------------


def test_collector_driven_result_matches_brute_force():
    """Rows produced through the collector's data path yield the same
    columnar metrics as the per-record reference computation."""
    dataset = make_coco_like(200, seed=3, feature_dim=DIM)
    records = _random_records(3)
    collector = ResultCollector(dataset)
    for r in records:
        feed(collector, r)
    result = SimulationResult(cols=collector.columns(), dataset=dataset, slo=SLO, duration=DURATION)
    assert result.cols is result.cols
    assert isinstance(result.cols, ColumnStore)
    summary = result.summary()
    reference = _ref_summary(records, result)
    for key in reference:
        assert summary[key] == pytest.approx(reference[key], rel=1e-9, abs=1e-9), key


def test_collector_running_summary_tracks_final_summary():
    dataset = make_coco_like(200, seed=4, feature_dim=DIM)
    records = _random_records(4)
    collector = ResultCollector(dataset)
    for r in records:
        feed(collector, r)
    live = collector.running_summary()
    final = SimulationResult(
        cols=collector.columns(), dataset=dataset, slo=SLO, duration=DURATION
    ).summary()
    for key in ("total_queries", "completed", "dropped", "slo_violation_ratio", "deferral_rate"):
        assert live[key] == pytest.approx(final[key], rel=1e-12), key
    assert live["mean_latency"] == pytest.approx(final["mean_latency"], rel=1e-9)
    # Streaming sufficient stats vs. one-shot fit: same value up to fp noise.
    assert live["fid"] == pytest.approx(final["fid"], rel=1e-6, abs=1e-6)
    # P-squared p99 is an estimate, not exact — just sanity-bound it.
    assert live["p99_latency"] >= final["p50_latency"]


# One operation on the collector: ("retry", i) requeues query i, ("end", i)
# writes query i's terminal row, ("flush",) cuts a chunk.
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("retry"), st.integers(0, 29)),
        st.tuples(st.just("end"), st.integers(0, 29)),
        st.just(("flush",)),
    ),
    max_size=80,
)


@given(ops=_OPS, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_collector_columns_match_record_oracle(ops, seed):
    """Random complete/drop/retry sequences with flushes at random points:
    ``columns()`` equals the per-record oracle array for array (dtypes, NaN
    positions and retries included), and a second call returns equal arrays."""
    dataset = make_coco_like(50, seed=0, feature_dim=DIM)
    pool = random_records(np.random.default_rng(seed), 30, DIM, duration=DURATION, slo=SLO)
    collector = ResultCollector(dataset)
    retries = [0] * len(pool)
    ended = set()
    expected = []
    for op in ops:
        if op[0] == "flush":
            collector.flush()
            continue
        i = op[1]
        if i in ended:
            continue
        if op[0] == "retry":
            collector.record_retry(pool[i].query)
            retries[i] += 1
            continue
        ended.add(i)
        # Pool records carry no retries, so ``feed`` replays none of its own.
        feed(collector, pool[i])
        expected.append(replace(pool[i], retries=retries[i]))
    cols = collector.columns()
    oracle = from_records(expected, DIM)
    assert_columns_equal(cols, oracle)
    assert_columns_equal(collector.columns(), oracle)
    assert collector.completed_count + collector.dropped_count == len(expected)


# --------------------------------------------------------------------------
# Streaming windowed FID
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_streaming_windowed_fid_matches_reference(seed):
    rng = np.random.default_rng(seed)
    n = 600
    real = rng.normal(size=(400, DIM))
    times = np.sort(rng.uniform(0.0, 100.0, size=n))
    feats = rng.normal(size=(n, DIM)) + 0.3
    centers, values = windowed_fid(times, feats, real, window=10.0, horizon=100.0)
    ref_centers, ref_values = windowed_fid_reference(times, feats, real, window=10.0, horizon=100.0)
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9)


def test_streaming_windowed_fid_nan_carry_matches_reference():
    rng = np.random.default_rng(7)
    real = rng.normal(size=(300, DIM))
    # All completions land in the middle windows: leading windows stay NaN,
    # trailing windows carry the last computed value.
    times = rng.uniform(40.0, 60.0, size=200)
    feats = rng.normal(size=(200, DIM))
    _, values = windowed_fid(times, feats, real, window=10.0, horizon=100.0)
    _, ref_values = windowed_fid_reference(times, feats, real, 10.0, 100.0)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9, equal_nan=True)
    assert np.isnan(values[:4]).all()
    assert np.isfinite(values[-1])


def test_streaming_windowed_fid_accepts_unsorted_timestamps():
    rng = np.random.default_rng(11)
    real = rng.normal(size=(300, DIM))
    times = rng.uniform(0.0, 100.0, size=400)  # deliberately unsorted
    feats = rng.normal(size=(400, DIM))
    _, values = windowed_fid(times, feats, real, window=20.0, horizon=100.0)
    _, ref_values = windowed_fid_reference(times, feats, real, 20.0, 100.0)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9)


def test_fid_timeseries_uses_cached_real_moments():
    records, result = _run(2)
    centers, values = result.fid_timeseries(window=20.0)
    completed = [r for r in records if not r.dropped and r.features is not None]
    times = np.array([r.completion_time for r in completed])
    feats = np.stack([r.features for r in completed])
    ref_centers, ref_values = windowed_fid_reference(
        times, feats, result.dataset.real_features, 20.0, result.duration
    )
    np.testing.assert_allclose(centers, ref_centers)
    np.testing.assert_allclose(values, ref_values, rtol=1e-9, atol=1e-9, equal_nan=True)


def test_frechet_from_moments_matches_sqrtm_path():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.normal(size=(500, DIM))
        b = rng.normal(size=(500, DIM)) * 1.3 + 0.5
        moments = RealMoments.fit(b)
        mu, sigma = a.mean(axis=0), np.cov(a, rowvar=False)
        fast = frechet_from_moments(mu, sigma, moments)
        slow = frechet_distance(mu, sigma, moments.mu, moments.sigma)
        assert fast == pytest.approx(slow, rel=1e-9, abs=1e-9)


def test_fid_score_with_moments_matches_plain():
    rng = np.random.default_rng(6)
    gen = rng.normal(size=(400, DIM)) + 0.2
    real = rng.normal(size=(400, DIM))
    assert fid_score(gen, real_moments=RealMoments.fit(real)) == pytest.approx(
        fid_score(gen, real), rel=1e-9, abs=1e-9
    )


def test_dataset_real_moments_cached_and_correct():
    dataset = make_coco_like(150, seed=0, feature_dim=DIM)
    moments = dataset.real_moments
    assert moments is dataset.real_moments  # cached instance
    np.testing.assert_allclose(moments.mu, dataset.real_features.mean(axis=0))
    np.testing.assert_allclose(moments.sigma, np.cov(dataset.real_features, rowvar=False))
    np.testing.assert_allclose(moments.sqrt_sigma @ moments.sqrt_sigma, moments.sigma, atol=1e-10)
    # subset() must not inherit the parent's cached moments.
    sub = dataset.subset(50)
    np.testing.assert_allclose(sub.real_moments.mu, sub.real_features.mean(axis=0))


# --------------------------------------------------------------------------
# Accumulators
# --------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(3))
def test_gaussian_stats_matches_numpy(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(257, DIM))
    stats = GaussianStats.from_features(x)
    np.testing.assert_allclose(stats.mean, x.mean(axis=0), rtol=1e-12)
    np.testing.assert_allclose(stats.cov(), np.cov(x, rowvar=False), rtol=1e-9, atol=1e-12)


def test_gaussian_stats_add_matches_add_batch():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, DIM))
    one_by_one = GaussianStats(DIM)
    for row in x:
        one_by_one.add(row)
    batched = GaussianStats.from_features(x)
    assert one_by_one.count == batched.count
    np.testing.assert_allclose(one_by_one.sum, batched.sum, rtol=1e-12)
    np.testing.assert_allclose(one_by_one.outer, batched.outer, rtol=1e-9)


@given(
    sizes=st.tuples(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=40),
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=30, deadline=None)
def test_gaussian_stats_merge_is_associative(sizes, seed):
    rng = np.random.default_rng(seed)
    a, b, c = (GaussianStats.from_features(rng.normal(size=(n, 4))) for n in sizes)
    left = (a.merge(b)).merge(c)
    right = a.merge(b.merge(c))
    assert left.count == right.count == sum(sizes)
    np.testing.assert_allclose(left.sum, right.sum, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(left.outer, right.outer, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(left.cov(), right.cov(), rtol=1e-9, atol=1e-12)


def test_gaussian_stats_merge_equals_concatenation():
    rng = np.random.default_rng(1)
    x, y = rng.normal(size=(30, DIM)), rng.normal(size=(50, DIM))
    merged = GaussianStats.from_features(x).merge(GaussianStats.from_features(y))
    whole = GaussianStats.from_features(np.vstack([x, y]))
    np.testing.assert_allclose(merged.mean, whole.mean, rtol=1e-12)
    np.testing.assert_allclose(merged.cov(), whole.cov(), rtol=1e-9, atol=1e-12)


def test_gaussian_stats_validation():
    with pytest.raises(ValueError):
        GaussianStats(0)
    with pytest.raises(ValueError):
        GaussianStats(2).merge(GaussianStats(3))
    with pytest.raises(ValueError):
        GaussianStats(2).cov()  # not enough samples


@given(st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=200))
@settings(max_examples=50, deadline=None)
def test_streaming_moments_match_numpy(values):
    moments = StreamingMoments()
    for v in values:
        moments.add(v)
    assert moments.count == len(values)
    if values:
        assert moments.mean == pytest.approx(np.mean(values), rel=1e-9, abs=1e-6)
        assert moments.minimum == min(values)
        assert moments.maximum == max(values)
    if len(values) >= 2:
        assert moments.variance == pytest.approx(np.var(values, ddof=1), rel=1e-6, abs=1e-5)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
)
@settings(max_examples=50, deadline=None)
def test_streaming_moments_merge_is_exact(xs, ys):
    left, right = StreamingMoments(), StreamingMoments()
    left.add_batch(xs)
    right.add_batch(ys)
    merged = left.merge(right)
    whole = StreamingMoments()
    whole.add_batch(xs + ys)
    assert merged.count == whole.count
    assert merged.mean == pytest.approx(whole.mean, rel=1e-9, abs=1e-9)
    if merged.count >= 2:
        assert merged.variance == pytest.approx(whole.variance, rel=1e-6, abs=1e-9)


def test_p2_quantile_approximates_true_percentile():
    rng = np.random.default_rng(0)
    values = rng.exponential(1.0, size=20_000)
    p50, p99 = P2Quantile(0.5), P2Quantile(0.99)
    for v in values:
        p50.add(v)
        p99.add(v)
    assert p50.value == pytest.approx(np.percentile(values, 50), rel=0.05)
    assert p99.value == pytest.approx(np.percentile(values, 99), rel=0.10)


def test_p2_quantile_exact_for_few_samples():
    q = P2Quantile(0.5)
    assert np.isnan(q.value)
    for v in (5.0, 1.0, 3.0):
        q.add(v)
    assert q.value == 3.0
    with pytest.raises(ValueError):
        P2Quantile(0.0)
