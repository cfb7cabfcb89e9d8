"""Sharded execution: determinism gates, routing, topology, column merging.

The tentpole guarantee of the shard supervisor is that ``shards=N`` is a pure
wall-clock knob: sharded and serial runs of the same cell produce byte-identical
summaries.  The determinism tests here are the gate; they carry an
``xdist_group`` marker so a parallel CI runner keeps them on one worker.
"""

import numpy as np
import pytest
from result_oracle import assert_columns_equal, feed, from_records, random_records

from repro.core.config import FleetSpec, fleet_from_counts
from repro.core.geo import (
    GEO_TOPOLOGIES,
    GeoRouter,
    GeoTopology,
    RegionSpec,
    get_topology,
    parse_geo,
    sample_origins,
)
from repro.core.results import ColumnStore, ResultCollector
from repro.core.sharding import (
    ShardSupervisor,
    build_region_systems,
    default_shards,
    region_seed,
    run_sharded,
)
from repro.core.system import build_diffserve_system
from repro.models.dataset import make_coco_like
from repro.runner.executor import canonical_summaries_json
from repro.workloads import make_workload

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def small_system(**overrides):
    defaults = dict(fleet=FleetSpec.homogeneous(4), dataset_size=100, seed=3)
    defaults.update(overrides)
    return build_diffserve_system(**defaults)


def small_workload():
    return make_workload("static", duration=40.0, qps=6.0, seed=3)


def two_region_topology() -> GeoTopology:
    return GeoTopology(
        regions=(
            RegionSpec(name="us", fleet=fleet_from_counts({"a100": 4}), rtt_s=0.01, weight=1.2),
            RegionSpec(name="eu", fleet=fleet_from_counts({"a100": 4}), rtt_s=0.02, weight=1.0),
        )
    )


# ----------------------------------------------------------------- determinism
@pytest.mark.xdist_group("sharding-determinism")
def test_plain_run_equals_single_region_sharded_byte_identical():
    """The degenerate zero-RTT single-region path is bit-for-bit serial."""
    serial = small_system().run(small_workload())
    sharded = run_sharded(small_system(), small_workload())
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": serial.summary()}
    )
    assert sharded.total_queries == serial.total_queries


@pytest.mark.xdist_group("sharding-determinism")
@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_equals_serial_byte_identical(shards):
    """The acceptance gate: shards=N matches shards=1 byte-for-byte."""
    topology = two_region_topology()
    reference = run_sharded(small_system(), small_workload(), topology=topology, shards=1)
    sharded = run_sharded(small_system(), small_workload(), topology=topology, shards=shards)
    assert canonical_summaries_json({"s": sharded.summary()}) == canonical_summaries_json(
        {"s": reference.summary()}
    )


@pytest.mark.xdist_group("sharding-determinism")
def test_supervisor_exposes_identical_region_results_and_live_summaries():
    topology = two_region_topology()
    runs = []
    for shards in (1, 2):
        supervisor = ShardSupervisor(template=small_system(), topology=topology, shards=shards)
        merged = supervisor.run(small_workload())
        runs.append((supervisor, merged))
    inline, procs = runs
    assert set(inline[0].region_results) == {"eu", "us"}
    for name in ("eu", "us"):
        assert canonical_summaries_json(
            {"r": inline[0].region_results[name].summary()}
        ) == canonical_summaries_json({"r": procs[0].region_results[name].summary()})
    assert inline[0].spilled_queries == procs[0].spilled_queries
    assert len(inline[0].live_summaries) == len(procs[0].live_summaries)
    for a, b in zip(inline[0].live_summaries, procs[0].live_summaries):
        assert canonical_summaries_json({"e": a}) == canonical_summaries_json({"e": b})
    # Regions cover the whole trace between them.
    region_total = sum(inline[0].region_results[n].total_queries for n in ("eu", "us"))
    assert region_total == inline[1].total_queries


def test_live_summary_counts_match_final_summary():
    """The last barrier's merged live view agrees with the exact final result."""
    supervisor = ShardSupervisor(
        template=small_system(), topology=two_region_topology(), shards=1
    )
    merged = supervisor.run(small_workload())
    last = supervisor.live_summaries[-1]
    final = merged.summary()
    assert last["total_queries"] == final["total_queries"]
    assert last["completed"] == final["completed"]
    assert last["slo_violation_ratio"] == pytest.approx(final["slo_violation_ratio"])
    assert last["fid"] == pytest.approx(final["fid"])


# ----------------------------------------------------------------- region seeds
def test_region_seed_rule():
    assert region_seed(7, "main", 1) == 7  # single region: serial path untouched
    a = region_seed(7, "us", 2)
    b = region_seed(7, "eu", 2)
    assert a != b != 7
    assert a == region_seed(7, "us", 2)  # process-independent and stable
    assert a != region_seed(8, "us", 2)


def test_region_systems_are_isolated_and_scaled():
    topology = two_region_topology()
    template = small_system()
    systems = build_region_systems(template, topology)
    assert list(systems) == ["eu", "us"]  # canonical name order
    assert systems["us"].policy is not template.policy
    assert systems["us"].policy is not systems["eu"].policy
    assert systems["us"].config.fleet == topology.region("us").fleet
    us_share = 1.2 / 2.2
    assert systems["us"].initial_demand == pytest.approx(template.initial_demand * us_share)


# --------------------------------------------------------------------- routing
def router_topology():
    return GeoTopology(
        regions=(
            RegionSpec(name="a", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.01),
            RegionSpec(name="b", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.02),
            RegionSpec(name="c", fleet=fleet_from_counts({"a100": 2}), rtt_s=0.03),
        )
    )


def test_router_prefers_origin_until_threshold():
    topology = router_topology()
    router = GeoRouter(topology, spill_threshold=2.0)
    origin = topology.region("a")
    decisions = [router.route(origin) for _ in range(4)]
    assert all(d.region == "a" and not d.spilled for d in decisions)
    assert all(d.network_delay_s == pytest.approx(0.01) for d in decisions)
    # backlog/capacity = 4/2 == threshold: still not strictly above, no spill.
    assert router.route(origin).region == "a"
    # One more pushes the origin over; the spill pays both round-trips.
    spilled = router.route(origin)
    assert spilled.spilled and spilled.region != "a"
    assert spilled.network_delay_s == pytest.approx(
        0.01 + topology.region(spilled.region).rtt_s
    )
    assert router.spilled == 1


def test_router_spill_target_is_deterministic_and_rtt_penalised():
    topology = router_topology()
    # With no rtt penalty the emptiest region wins; ties break canonical order.
    router = GeoRouter(topology, spill_threshold=0.5, rtt_penalty=0.0)
    for _ in range(2):
        router.route(topology.region("a"))
    assert router.route(topology.region("a")).region == "b"  # b/c tie -> canonical
    # A large penalty keeps even an overloaded origin local.
    expensive = GeoRouter(topology, spill_threshold=0.5, rtt_penalty=1e6)
    for _ in range(2):
        expensive.route(topology.region("a"))
    assert not expensive.route(topology.region("a")).spilled


def test_router_observe_shrinks_backlog():
    topology = router_topology()
    router = GeoRouter(topology, spill_threshold=1.0)
    origin = topology.region("a")
    for _ in range(3):
        router.route(origin)
    assert router.loads["a"].backlog == 3
    router.observe("a", completed=2, dropped=1)
    assert router.loads["a"].backlog == 0
    assert not router.route(origin).spilled


def test_router_rejects_bad_tuning():
    with pytest.raises(ValueError):
        GeoRouter(router_topology(), spill_threshold=0.0)
    with pytest.raises(ValueError):
        GeoRouter(router_topology(), rtt_penalty=-1.0)


# -------------------------------------------------------------------- topology
def test_topology_is_canonically_ordered_and_validated():
    topology = two_region_topology()
    assert topology.names == ("eu", "us")
    assert topology.total_workers == 8
    assert topology.region("us").weight == 1.2
    with pytest.raises(KeyError):
        topology.region("mars")
    with pytest.raises(ValueError):
        GeoTopology(regions=())
    with pytest.raises(ValueError):
        GeoTopology(regions=(topology.regions[0], topology.regions[0]))
    with pytest.raises(ValueError):
        RegionSpec(name="x", fleet=fleet_from_counts({"a100": 1}), rtt_s=-0.1)
    with pytest.raises(ValueError):
        RegionSpec(name="x", fleet=fleet_from_counts({"a100": 1}), weight=0.0)


def test_topology_token_is_order_independent():
    a, b = two_region_topology().regions
    assert GeoTopology(regions=(a, b)).token() == GeoTopology(regions=(b, a)).token()


def test_catalog_topologies_are_well_formed():
    for name in ("single", "us-eu", "global-4", "global-8"):
        topology = get_topology(name)
        assert topology.total_workers > 0
        assert topology.total_capacity_units > 0
    assert len(GEO_TOPOLOGIES["global-8"]) == 8
    with pytest.raises(KeyError):
        get_topology("atlantis")


def test_parse_geo_catalog_json_and_errors():
    assert parse_geo(None) is None
    assert parse_geo("  ") is None
    assert parse_geo("us-eu") is get_topology("us-eu")
    parsed = parse_geo(
        '{"us": {"fleet": {"a100": 4}, "rtt_ms": 15}, "eu": {"fleet": {"l4": 8}, "weight": 0.5}}'
    )
    assert parsed.names == ("eu", "us")
    assert parsed.region("us").rtt_s == pytest.approx(0.015)
    assert parsed.region("eu").weight == 0.5
    for bad in (
        "atlantis",
        "{not json",
        "[]",
        '{"us": 3}',
        '{"us": {"fleet": {}}}',
        '{"us": {"fleet": {"a100": 4}, "color": "red"}}',
        '{"us": {"fleet": {"a100": 4}, "rtt_ms": true}}',
        '{"us": {"fleet": {"warp-drive": 4}}}',
    ):
        with pytest.raises(ValueError):
            parse_geo(bad)


def test_sample_origins_deterministic_and_weighted():
    topology = two_region_topology()
    rng_a = np.random.default_rng(11)
    rng_b = np.random.default_rng(11)
    a = sample_origins(topology, 2000, rng_a)
    b = sample_origins(topology, 2000, rng_b)
    assert np.array_equal(a, b)
    # us (index 1 in canonical eu/us order) carries weight 1.2 of 2.2.
    assert a.mean() == pytest.approx(1.2 / 2.2, abs=0.05)
    single = GeoTopology(regions=(two_region_topology().regions[0],))
    assert np.array_equal(sample_origins(single, 5, rng_a), np.zeros(5))


# -------------------------------------------------------------- column merging
def test_column_store_concat_matches_from_records():
    rng = np.random.default_rng(5)
    chunks = [
        random_records(rng, n, 4, start_id=s, duration=100.0, slo=4.0, drop_rate=0.2)
        for n, s in ((7, 0), (0, 7), (13, 7), (4, 20))
    ]
    whole = from_records([r for chunk in chunks for r in chunk], 4)
    merged = ColumnStore.concat([from_records(c, 4) for c in chunks], 4)
    assert len(merged) == len(whole)
    for column in ("arrival", "deadline", "completion", "quality", "confidence"):
        assert np.array_equal(getattr(merged, column), getattr(whole, column), equal_nan=True)
    assert np.array_equal(merged.stage, whole.stage)
    assert np.array_equal(merged.deferred, whole.deferred)
    assert np.array_equal(merged.query_id, whole.query_id)
    assert np.array_equal(merged.variant, whole.variant)
    assert np.array_equal(merged.features, whole.features)
    # A collector flushed at the same chunk boundaries builds the same store.
    dataset = make_coco_like(50, seed=0, feature_dim=4)
    collector = ResultCollector(dataset)
    for chunk in chunks:
        for record in chunk:
            feed(collector, record)
        collector.flush()
    assert_columns_equal(collector.columns(), whole)


def test_column_store_concat_empty_and_single():
    empty = ColumnStore.concat([], 4)
    assert len(empty) == 0 and empty.features.shape == (0, 4)
    assert_columns_equal(empty, ColumnStore.empty(4))
    rng = np.random.default_rng(6)
    one = from_records(random_records(rng, 3, 4, duration=100.0, slo=4.0), 4)
    assert ColumnStore.concat([one], 4) is one


# ------------------------------------------------------------------ validation
def test_supervisor_rejects_bad_configs():
    with pytest.raises(ValueError):
        ShardSupervisor(template=small_system(), topology=two_region_topology(), shards=0)
    slow = GeoTopology(
        regions=(
            RegionSpec(name="moon", fleet=fleet_from_counts({"a100": 2}), rtt_s=30.0),
        )
    )
    with pytest.raises(ValueError):
        ShardSupervisor(template=small_system(), topology=slow)


def test_default_shards_is_sane():
    assert 1 <= default_shards() <= 8


# ------------------------------------------------------------- shard timing
@pytest.mark.xdist_group("sharding-determinism")
def test_supervisor_records_per_shard_timing():
    """Each region reports event-loop telemetry; none of it leaks into summaries."""
    supervisor = ShardSupervisor(
        template=small_system(), topology=two_region_topology(), shards=1
    )
    merged = supervisor.run(small_workload())
    assert set(supervisor.shard_timing) == {"eu", "us"}
    for timing in supervisor.shard_timing.values():
        assert timing["events_fired"] > 0
        assert timing["advance_seconds"] >= 0.0
    assert supervisor.barrier_seconds >= 0.0
    # Wall-clock telemetry never enters the merged (cacheable) summary.
    summary = merged.summary()
    assert "events_fired" not in summary
    assert "advance_seconds" not in summary


@pytest.mark.xdist_group("sharding-determinism")
def test_shard_event_counts_are_deterministic_across_shard_counts():
    """events_fired is simulator state, so it must not depend on the process
    packing — only advance_seconds (wall clock) may differ."""
    counts = []
    for shards in (1, 2):
        supervisor = ShardSupervisor(
            template=small_system(), topology=two_region_topology(), shards=shards
        )
        supervisor.run(small_workload())
        counts.append(
            {name: t["events_fired"] for name, t in supervisor.shard_timing.items()}
        )
    assert counts[0] == counts[1]


def test_shard_timing_report_renders_region_rows():
    from repro.experiments.geo_scale import shard_timing_report
    from repro.experiments.harness import ExperimentScale

    report = shard_timing_report(
        scale=ExperimentScale(dataset_size=60, trace_duration=20.0, num_workers=4),
        duration=15.0,
    )
    assert "Shard event-loop timing" in report
    assert "barrier wait" in report
    for region in ("us", "eu"):
        assert f"\n{region}" in report or report.count(region)


# ------------------------------------------------------------- dead shards
def test_dead_shard_surfaces_one_line_error_instead_of_hanging():
    """A shard worker dying mid-epoch must fail fast with a named error.

    Before the liveness check, the supervisor's blocking ``recv`` would hang
    forever on the dead worker's pipe; now every pipe read polls with a short
    timeout and raises a one-line error naming the dead shard's regions and
    exit code.
    """
    from repro.core.sharding import _ProcessShard

    shard = _ProcessShard({"us": small_system(), "eu": small_system()})
    try:
        shard._process.terminate()
        shard._process.join(timeout=30)
        assert not shard._process.is_alive()
        # Depending on timing the dead worker surfaces either as a liveness
        # failure ("died (exit code N)") or as a closed pipe — both are the
        # same one-line error shape naming the shard's regions and the verb.
        with pytest.raises(
            RuntimeError,
            match=r"shard worker for region\(s\) us, eu "
            r"(died \(exit code -?\d+\)|closed its pipe) "
            r"while the supervisor waited for 'stats'",
        ):
            shard.collect_stats()
    finally:
        shard._conn.close()
        shard._process.join(timeout=30)
