"""Geo-scale study: multi-region serving through the shard supervisor.

The paper evaluates DiffServe on one 16-GPU cluster; production text-to-image
services run fleets of regional clusters behind latency-aware routing.  This
study serves the same cascade over a geo topology
(:data:`repro.core.geo.GEO_TOPOLOGIES`) and reports, per topology: the merged
headline metrics (computed exactly as serial — the shard supervisor's
determinism contract), the per-region breakdown, and the number of queries
the router spilled to remote regions.

Every arm is one grid cell of the parallel runner with ``geo``/``shards`` as
cached dimensions, declared as a :class:`~repro.experiments.study.Study`, so
``repro geo`` inherits the runner's cache and the
``--shards N`` byte-identity guarantee: re-running with a different shard
count changes wall-clock, never a number in the tables.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.experiments.harness import BENCH_SCALE, ExperimentScale, format_table
from repro.experiments.study import Study, metric, render_study, run_study
from repro.runner.spec import ExperimentSpec, TraceSpec

#: Topologies compared by default, smallest to largest.
DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("single", "us-eu", "global-4")

#: Worker processes each topology's regions are packed into.
SHARDS = 1


def arms(
    cascade_name: str, scale: ExperimentScale, qps: Optional[float]
) -> Dict[str, ExperimentSpec]:
    """One diurnal cell per geo topology.

    The nominal rate scales with each topology's total device count (set by
    the runner's workload resolution), so every topology is stressed
    comparably rather than the large fleets coasting.
    """
    return {
        name: ExperimentSpec(
            cascade=cascade_name,
            scale=scale,
            systems=("diffserve",),
            trace=TraceSpec(kind="diurnal", qps=qps),
            geo=name,
            shards=SHARDS,
        )
        for name in DEFAULT_TOPOLOGIES
    }


def shard_timing_report(
    cascade_name: str = "sdturbo",
    scale: ExperimentScale = BENCH_SCALE,
    *,
    topology: str = "us-eu",
    workload: str = "diurnal",
    shards: int = 1,
    duration: float = 60.0,
) -> str:
    """Per-shard event-loop timing table from one direct (uncached) run.

    Wall-clock telemetry must never enter the runner's cached summaries — a
    cache hit would replay a stale machine's timings and break byte-identity
    — so this report drives a :class:`~repro.core.sharding.ShardSupervisor`
    directly and reads its :attr:`shard_timing` / :attr:`barrier_seconds`,
    which exist only on the live supervisor object.
    """
    from repro.core.config import FleetSpec
    from repro.core.geo import get_topology
    from repro.core.sharding import ShardSupervisor
    from repro.core.system import build_diffserve_system
    from repro.workloads import cascade_qps_range, make_workload

    topo = get_topology(topology)
    template = build_diffserve_system(
        cascade_name,
        fleet=FleetSpec.homogeneous(scale.num_workers),
        dataset_size=scale.dataset_size,
        seed=scale.seed,
    )
    # Arm the per-region event-loop profiler: summaries are byte-identical
    # with profiling on or off, and this report is never cached.
    template.profile = True
    trace = make_workload(
        workload,
        duration=min(duration, scale.trace_duration),
        qps_range=cascade_qps_range(cascade_name, topo.total_workers),
        seed=scale.seed,
    )
    supervisor = ShardSupervisor(template=template, topology=topo, shards=shards)
    supervisor.run(trace)
    rows: List[list] = []
    for region, timing in supervisor.shard_timing.items():
        events = timing["events_fired"]
        seconds = timing["advance_seconds"]
        rows.append(
            [
                region,
                int(events),
                seconds,
                events / seconds if seconds > 0 else float("inf"),
            ]
        )
    from repro.simulator.profiling import format_profile_table

    sections = [
        f"Shard event-loop timing — topology={topology} shards={shards} "
        f"(barrier wait {supervisor.barrier_seconds:.3f}s; "
        "wall-clock telemetry only, never cached)",
        format_table(["region", "events", "advance (s)", "events/s"], rows),
    ]
    for region in sorted(supervisor.shard_profiles):
        sections.append("")
        sections.append(
            format_profile_table(
                supervisor.shard_profiles[region],
                top=8,
                title=f"region {region} event-loop profile",
            )
        )
    return "\n".join(sections)


def main(scale: ExperimentScale = BENCH_SCALE) -> str:
    """Print the per-topology table, then the wall-clock shard timing report."""
    output = "\n".join(
        [render_study(run_study(STUDY, scale=scale)), "", shard_timing_report(scale=scale)]
    )
    print(output)
    return output


STUDY = Study(
    name="geo",
    description="Geo-scale serving: multi-region topologies through the shard supervisor",
    title=lambda result: (
        f"Geo-scale serving — shards={SHARDS} (summaries are shard-count-invariant)"
    ),
    arms=arms,
    key_headers=("topology",),
    columns=(
        ("regions", lambda result, name: len(result.specs[name].resolve_geo())),
        ("workers", lambda result, name: result.specs[name].resolve_geo().total_workers),
        ("system", lambda result, name: result.specs[name].systems[0]),
        ("queries", metric("total_queries", int)),
        ("FID", metric("fid")),
        ("SLO viol", metric("slo_violation_ratio")),
        ("p99 (s)", metric("p99_latency")),
    ),
    main=main,
)
