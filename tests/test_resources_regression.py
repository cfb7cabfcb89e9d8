"""Legacy bit-for-bit regression pins and the runner/CLI resources surface.

The multi-resource refactor must not move a single number for configs that
do not attach a :class:`ResourceConfig` — the golden summaries below were
captured on the pre-refactor tree and every release must reproduce them
exactly (no tolerances).  Also covers the ``resources`` grid dimension of the
cached runner (schema v7) and ``parse_resources`` error surfaces.
"""

import pytest

from repro.cli import parse_grid
from repro.core.config import FleetSpec, ResourceConfig, fleet_from_counts, parse_resources
from repro.core.system import build_diffserve_system
from repro.experiments.harness import ExperimentScale
from repro.runner.spec import CACHE_SCHEMA_VERSION, ExperimentGrid, ExperimentSpec
from repro.workloads import make_workload

# Pre-refactor golden summaries (captured at PR 6): adaptive re-planning under
# a flash crowd, and a heterogeneous fleet under MMPP — the two paths that
# exercise the most control-plane machinery.
GOLDEN_REPLAN = {
    "completed": 352.0,
    "deferral_rate": 0.13920454545454544,
    "dropped": 2.0,
    "fid": 18.4136463436761,
    "mean_latency": 0.8601924912424341,
    "mean_quality": 0.7277457801755226,
    "p50_latency": 0.20735231122277575,
    "p99_latency": 3.8771323032797107,
    "slo_violation_ratio": 0.005649717514124294,
    "total_queries": 354.0,
    "fleet_cost": 0.06666666666666667,
}
GOLDEN_FLEET = {
    "completed": 177.0,
    "deferral_rate": 0.192090395480226,
    "dropped": 6.0,
    "fid": 19.421787359657174,
    "mean_latency": 1.103846469388033,
    "mean_quality": 0.7289621317802691,
    "p50_latency": 0.6534978072381605,
    "p99_latency": 4.643622283809266,
    "slo_violation_ratio": 0.03278688524590164,
    "total_queries": 183.0,
    "fleet_cost": 0.04027777777777778,
}


def test_legacy_replan_summary_is_bit_for_bit():
    system = build_diffserve_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(4),
        dataset_size=120,
        seed=0,
        replan_epoch=3.0,
        replan_policy="adaptive",
    )
    workload = make_workload("flash-crowd", qps=6.0, duration=40.0, seed=0)
    summary = system.run(workload).summary()
    assert summary == GOLDEN_REPLAN


def test_legacy_fleet_summary_is_bit_for_bit():
    system = build_diffserve_system(
        "sdturbo",
        fleet=fleet_from_counts({"a100": 2, "l4": 3}),
        dataset_size=120,
        seed=1,
    )
    workload = make_workload("mmpp", qps=5.0, duration=30.0, seed=1)
    summary = system.run(workload).summary()
    assert summary == GOLDEN_FLEET


def test_resources_enabled_run_differs_but_completes():
    """Sanity check the non-legacy side: resources change behaviour (egress
    exists) without breaking the pipeline."""
    system = build_diffserve_system(
        "sdturbo",
        fleet=FleetSpec.homogeneous(2),
        dataset_size=60,
        seed=0,
        resources=ResourceConfig.default(),
    )
    workload = make_workload("static", qps=2.0, duration=10.0, seed=0)
    summary = system.run(workload).summary()
    assert summary["completed"] > 0
    assert summary["total_queries"] >= summary["completed"]


# --------------------------------------------------------- runner dimension
def test_cache_schema_bumped_for_resources():
    # v7 introduced the resources dimension; v8 added the faults dimension;
    # v9 added the autoscale/prices dimensions and the fleet_cost summary key.
    assert CACHE_SCHEMA_VERSION == 9


def test_spec_token_includes_resolved_resources():
    scale = ExperimentScale()
    bare = ExperimentSpec(cascade="sdturbo", scale=scale)
    assert "resources(" not in bare.token()
    spec = ExperimentSpec(cascade="sdturbo", scale=scale, resources="default")
    assert f"resources({ResourceConfig.default().token()})" in spec.token()
    # Equivalent spellings share one cache entry: the token hashes the
    # *resolved* config, not the CLI string.
    json_spec = ExperimentSpec(
        cascade="sdturbo", scale=scale, resources='{"reload_aware": true}'
    )
    assert json_spec.token() == spec.token()
    oblivious = ExperimentSpec(cascade="sdturbo", scale=scale, resources="oblivious")
    assert oblivious.token() != spec.token()
    # Labels show the CLI spelling ("resources" stands in for raw JSON blobs).
    assert "oblivious" in oblivious.label
    assert "resources" in json_spec.label


def test_spec_rejects_bad_resources_eagerly():
    with pytest.raises(ValueError):
        ExperimentSpec(cascade="sdturbo", scale=ExperimentScale(), resources="not-a-spec")


def test_grid_product_threads_resources():
    grid = ExperimentGrid.product(
        cascades=("sdturbo",),
        resources="default",
    )
    assert all(spec.resources == "default" for spec in grid.specs)
    parsed = parse_grid("cascades=sdturbo;seeds=0,1", ExperimentScale(), resources="oblivious")
    assert len(parsed.specs) == 2
    assert all(spec.resources == "oblivious" for spec in parsed.specs)


# ------------------------------------------------------------- CLI parsing
def test_parse_resources_accepts_named_and_json_forms():
    assert parse_resources("default") == ResourceConfig.default()
    assert parse_resources("oblivious") == ResourceConfig.default(reload_aware=False)
    custom = parse_resources('{"sd-turbo": 30, "sd-v1.5": 60, "reload_aware": false}')
    assert not custom.reload_aware
    assert custom.footprint_for("sd-turbo").weights_gb == 30.0
    with_egress = parse_resources('{"sd-turbo": 5, "egress_gb_per_image": 0.01}')
    assert with_egress.footprint_for("sd-turbo").egress_gb_per_image == 0.01


@pytest.mark.parametrize(
    "text",
    [
        "bogus",
        "{not json",
        '{"sd-turbo": "large"}',
        '{"sd-turbo": -3}',
        '{"reload_aware": "yes"}',
        '{"egress_gb_per_image": "big"}',
    ],
)
def test_parse_resources_rejects_bad_specs(text):
    with pytest.raises(ValueError):
        parse_resources(text)
