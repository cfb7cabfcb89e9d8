"""Which functions of ``repro`` the benchmark wraps, and the metrics it derives.

Two probe sets go onto the freshly imported program of every cell:

* :func:`install_base` (every run): the set-up spans that split a cell's
  wall time into set-up and run phase, and the hooks the correctness checks
  read (trace length, faults fired, fleet changes, per-region completions).
  These wrap a handful of calls per cell and cost nothing measurable.
* :func:`install_layers` (``--trace 1`` only): one span per call into each
  layer's public functions.  :func:`layer_metrics` turns the spans of one
  traced cell into the per-layer metrics of ``BENCHMARK.json``.

Span names are ``<layer module>.<function>``; the layer is the name up to
its last dot.
"""

from __future__ import annotations

import importlib
from typing import Dict, List

import numpy as np

from perfbench.tracer import Tracer, descends_from, self_times

#: The span around one whole cell (``run_cell_results`` plus summaries).
ROOT = "bench.cell"
#: Set-up spans (children of ROOT); everything else under ROOT is the run phase.
SETUP_SPANS = ("harness.shared_components", "workloads.sample", "harness.build_systems")
#: Layers whose run-phase self time is reported as a share of the cell's run phase.
SHARE_LAYERS = (
    "core.allocator",
    "milp",
    "core.controller",
    "core.autoscaler",
    "models",
    "discriminators",
    "core.load_balancer",
    "core.worker",
    "core.results",
    "metrics",
    "core.geo",
    "core.sharding",
    "core.system",
    "simulator",
)

_COUNT = (
    "core.allocator.plan.calls",
    "milp.solve.calls",
    "milp.lp_solves",
    "core.controller.replans",
    "core.controller.set_fleet.calls",
    "core.autoscaler.evaluate.calls",
    "models.generate_batch.calls",
    "models.images",
    "discriminators.confidence_batch.calls",
    "discriminators.images",
    "core.load_balancer.submit.calls",
    "core.load_balancer.requeue.calls",
    "core.worker.batches",
    "core.results.complete.calls",
    "core.results.retries",
    "core.geo.route.calls",
    "core.sharding.epochs",
    "simulator.events",
)
_SECONDS = (
    "core.allocator.plan.s",
    "core.allocator.plan.self_s",
    "milp.solve.s",
    "core.autoscaler.evaluate.s",
    "models.generate_batch.s",
    "discriminators.confidence_batch.s",
    "core.load_balancer.submit.s",
    "core.worker.reload_stall_s",
    "core.results.complete.s",
    "metrics.summary.s",
    "core.geo.route.s",
    "core.sharding.run_epoch.s",
    "simulator.self_s",
    "models.dataset.s",
    "discriminators.train.s",
    "workloads.sample.s",
    "harness.build_systems.s",
    "bench.run_s",
)
_RATIOS = (
    "core.allocator.warm_start_hit_ratio",
    "milp.exhaustive_share",
    "discriminators.accept_ratio",
    "core.worker.resident_hit_ratio",
    "core.geo.spill_ratio",
    "core.sharding.epoch_skew",
    "bench.trace_overhead_ratio",
    "bench.unattributed_share",
) + tuple(f"{layer}.self_share" for layer in SHARE_LAYERS)

#: Every per-layer metric ``--trace 1`` prints, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    **{name: "count" for name in _COUNT},
    **{name: "s" for name in _SECONDS},
    **{name: "ratio" for name in _RATIOS},
    "core.allocator.plan.p99_ms": "ms",
    "milp.solve.p99_ms": "ms",
    "models.us_per_image": "us",
    "core.worker.mean_batch_size": "images",
    "simulator.events_per_s": "1/s",
}

_ALL = ("paper-azure", "global-8", "elastic-chaos")

#: Which end-to-end metric each layer's metrics should move, and on which
#: workloads -- the prediction a change to that layer is checked against.
LAYER_MAP = (
    {
        "layer": "control plane: core.allocator + milp",
        "metrics": (
            "core.allocator.plan.calls",
            "core.allocator.plan.s",
            "core.allocator.plan.self_s",
            "core.allocator.plan.p99_ms",
            "core.allocator.warm_start_hit_ratio",
            "milp.solve.calls",
            "milp.solve.s",
            "milp.solve.p99_ms",
            "milp.lp_solves",
            "milp.exhaustive_share",
            "milp.self_share",
        ),
        # Most on global-8, part on paper-azure, none on elastic-chaos; FID
        # and violations move only if the chosen plans change.
        "moves": {
            "sim_qps": ("global-8", "paper-azure"),
            "fid": _ALL,
            "slo_attainment_ratio": _ALL,
        },
    },
    {
        "layer": "core.controller + core.replanner + core.autoscaler",
        "metrics": (
            "core.controller.replans",
            "core.controller.set_fleet.calls",
            "core.autoscaler.evaluate.calls",
            "core.autoscaler.evaluate.s",
        ),
        "moves": {"fleet_cost_a100h": ("elastic-chaos",), "served_ratio": ("elastic-chaos",)},
    },
    {
        "layer": "models",
        "metrics": (
            "models.generate_batch.calls",
            "models.generate_batch.s",
            "models.images",
            "models.us_per_image",
            "models.self_share",
        ),
        # Least on global-8.
        "moves": {"sim_qps": ("elastic-chaos", "paper-azure")},
    },
    {
        "layer": "discriminators",
        "metrics": (
            "discriminators.confidence_batch.calls",
            "discriminators.confidence_batch.s",
            "discriminators.images",
            "discriminators.accept_ratio",
            "discriminators.self_share",
        ),
        # accept_ratio moves FID and tail latency.
        "moves": {
            "sim_qps": ("elastic-chaos", "paper-azure"),
            "fid": ("paper-azure",),
            "p99_latency_s": ("paper-azure",),
        },
    },
    {
        "layer": "dispatch: core.load_balancer + core.worker + core.resources",
        "metrics": (
            "core.load_balancer.submit.calls",
            "core.load_balancer.submit.s",
            "core.load_balancer.requeue.calls",
            "core.worker.batches",
            "core.worker.mean_batch_size",
            "core.worker.resident_hit_ratio",
            "core.worker.reload_stall_s",
            "core.load_balancer.self_share",
        ),
        # A small sim_qps share on every workload.
        "moves": {
            "served_ratio": ("elastic-chaos",),
            "p99_latency_s": ("elastic-chaos",),
            "sim_qps": _ALL,
        },
    },
    {
        "layer": "core.results + metrics",
        "metrics": (
            "core.results.complete.calls",
            "core.results.complete.s",
            "core.results.retries",
            "metrics.summary.s",
            "core.results.self_share",
        ),
        "moves": {"sim_qps": ("paper-azure",), "peak_rss_mb": ("global-8",)},
    },
    {
        "layer": "core.geo + core.sharding",
        "metrics": (
            "core.geo.route.calls",
            "core.geo.route.s",
            "core.geo.spill_ratio",
            "core.sharding.epochs",
            "core.sharding.run_epoch.s",
            "core.sharding.epoch_skew",
            "core.geo.self_share",
        ),
        "moves": {"sim_qps": ("global-8",), "p99_latency_s": ("global-8",)},
    },
    {
        "layer": "simulator",
        "metrics": (
            "simulator.events",
            "simulator.events_per_s",
            "simulator.self_s",
            "simulator.self_share",
        ),
        "moves": {"sim_qps": _ALL},
    },
    {
        "layer": "set-up: models.dataset, discriminators.training, workloads, experiments.harness",
        "metrics": (
            "models.dataset.s",
            "discriminators.train.s",
            "workloads.sample.s",
            "harness.build_systems.s",
        ),
        "moves": {"setup_s": _ALL},
    },
)


def _target(path: str):
    module, _, attr = path.partition(":")
    owner = importlib.import_module(module)
    *chain, name = attr.split(".")
    for part in chain:
        owner = getattr(owner, part)
    return owner, name


def _wrap(tracer: Tracer, path: str, span=None, **hooks) -> None:
    owner, name = _target(path)
    tracer.wrap(owner, name, span, **hooks)


# --------------------------------------------------------------------------
# Base probes (every run)
# --------------------------------------------------------------------------


def install_base(tracer: Tracer, captures) -> None:
    """Set-up spans plus the capture hooks :mod:`perfbench.cells` checks read."""
    pending: List[object] = []

    def trace_sampled(tracer, args, kwargs, result, state, index):
        captures.trace_length = len(result[1])

    def runtime_prepared(tracer, args, kwargs, result, state, index):
        pending.append(result)

    def reduce_runtimes() -> None:
        injector_cls = importlib.import_module("repro.faults.injector").FaultInjector
        for runtime in pending:
            for actor in runtime.sim.actors:
                if isinstance(actor, injector_cls):
                    captures.faults_fired += len(actor.log)
            log = runtime.controller.fleet_log
            captures.fleet_changes += sum(1 for entry in log if entry[1] != "initial")
        pending.clear()

    def system_ran(tracer, args, kwargs, result, state, index):
        reduce_runtimes()

    def supervisor_ran(tracer, args, kwargs, result, state, index):
        reduce_runtimes()
        supervisor = args[0]
        captures.regions.append(
            (
                len(supervisor.topology.regions),
                {
                    name: res.slo_report().completed
                    for name, res in supervisor.region_results.items()
                },
            )
        )

    _wrap(tracer, "repro.experiments.harness:shared_components", "harness.shared_components")
    _wrap(tracer, "repro.models.dataset:load_dataset", "models.dataset")
    _wrap(
        tracer,
        "repro.discriminators.training:train_default_discriminator",
        "discriminators.train",
    )
    _wrap(tracer, "repro.runner.executor:resolve_trace", "workloads.sample", after=trace_sampled)
    _wrap(tracer, "repro.experiments.harness:build_comparison_systems", "harness.build_systems")
    _wrap(tracer, "repro.core.system:ServingSimulation.prepare", after=runtime_prepared)
    _wrap(tracer, "repro.core.system:ServingSimulation.run", after=system_ran)
    _wrap(tracer, "repro.core.sharding:ShardSupervisor.run", after=supervisor_ran)


# --------------------------------------------------------------------------
# Layer probes (--trace 1)
# --------------------------------------------------------------------------


def _set_value(fn):
    """An ``after`` hook storing ``fn(args, kwargs, result, state)`` on the span."""

    def after(tracer, args, kwargs, result, state, index):
        tracer.span_value[index] = fn(args, kwargs, result, state)

    return after


def _plan_kind(args, kwargs, result, state):
    # 0: cold solve, 1: warm solve whose warm start was not used, 2: warm hit.
    if kwargs.get("warm_start") is None:
        return 0.0
    return 2.0 if args[0].last_warm_start_used else 1.0


def _variant_change(args, kwargs, result, state):
    # 1: resident hit (free reconfiguration), 2: weights reloaded, 0: neither.
    hits, reloads = state
    stats = args[0].stats
    if stats.resident_hits > hits:
        return 1.0
    if stats.weight_reloads > reloads:
        return 2.0
    return 0.0


def install_layers(tracer: Tracer) -> Dict[int, object]:
    """Wrap the public functions of every layer the per-layer metrics name.

    Returns the workers seen reconfiguring (filled as the cell runs), whose
    unreported reload stall :func:`layer_metrics` adds at the end.
    """
    workers: Dict[int, object] = {}
    regions: Dict[int, int] = {}

    def variant_before(args, kwargs):
        worker = args[0]
        workers[id(worker)] = worker
        return worker.stats.resident_hits, worker.stats.weight_reloads

    def stats_reset(args, kwargs):
        tracer.counters["core.worker.reload_stall_s"] += args[0].reload_stall_time

    def region_index(args, kwargs, result, state):
        return float(regions.setdefault(id(args[0]), len(regions)))

    def events_before(args, kwargs):
        return args[0].events_fired

    layer_probes = [
        ("repro.core.allocator:DiffServeAllocator.plan", "core.allocator.plan", None, _plan_kind),
        # Both solvers record ``milp.solve``; the value tells them apart.
        ("repro.milp.branch_and_bound:BranchAndBoundSolver.solve", "milp.solve", None, None),
        (
            "repro.milp.exhaustive:ExhaustiveSolver.solve",
            "milp.solve",
            None,
            lambda a, k, r, s: 1.0,
        ),
        ("repro.milp.branch_and_bound:linprog", "milp.linprog", None, None),
        ("repro.milp.exhaustive:linprog", "milp.linprog", None, None),
        ("repro.core.controller:Controller.replan", "core.controller.replan", None, None),
        ("repro.core.controller:Controller.set_fleet", "core.controller.set_fleet", None, None),
        ("repro.core.autoscaler:Autoscaler.evaluate", "core.autoscaler.evaluate", None, None),
        (
            "repro.models.generation:ImageGenerator.generate_batch",
            "models.generate_batch",
            None,
            lambda a, k, r, s: float(len(a[1])),
        ),
        (
            "repro.discriminators.architectures:TrainedDiscriminator.confidence_batch",
            "discriminators.confidence_batch",
            None,
            lambda a, k, r, s: float(len(a[1])),
        ),
        ("repro.core.load_balancer:LoadBalancer.submit", "core.load_balancer.submit", None, None),
        ("repro.core.load_balancer:LoadBalancer.requeue", "core.load_balancer.requeue", None, None),
        (
            "repro.core.worker:Worker.set_variant",
            "core.worker.set_variant",
            variant_before,
            _variant_change,
        ),
        (
            # A scored light result returned as the answer (``stage``, ``confidence``).
            "repro.core.results:ResultCollector.complete",
            "core.results.complete",
            None,
            lambda a, k, r, s: float(a[3].value == "light" and a[4] is not None),
        ),
        (
            "repro.core.results:ResultCollector.record_retry",
            "core.results.record_retry",
            None,
            None,
        ),
        ("repro.core.results:SimulationResult.summary", "metrics.summary", None, None),
        (
            "repro.core.geo:GeoRouter.route",
            "core.geo.route",
            None,
            lambda a, k, r, s: float(r.spilled),
        ),
        (
            "repro.core.sharding:RegionRuntime.run_epoch",
            "core.sharding.run_epoch",
            None,
            region_index,
        ),
        ("repro.core.sharding:ShardSupervisor.run", "core.sharding.supervisor", None, None),
        ("repro.core.system:ServingSimulation.run", "core.system.run", None, None),
        (
            "repro.simulator.simulation:Simulator.advance",
            "simulator.advance",
            events_before,
            lambda a, k, r, s: float(a[0].events_fired - s),
        ),
    ]
    for path, span, before, value in layer_probes:
        _wrap(tracer, path, span, before=before, after=None if value is None else _set_value(value))
    _wrap(tracer, "repro.core.worker:WorkerStats.reset", before=stats_reset)
    return workers


# --------------------------------------------------------------------------
# Derived metrics
# --------------------------------------------------------------------------


def cell_phases(tracer: Tracer) -> Dict[str, float]:
    """``setup_s`` (set-up spans) and ``run_s`` (the rest of the root span)."""
    table = tracer.arrays()
    durations = table["end"] - table["start"]
    names = np.asarray(tracer.names, dtype=object)[table["name"]]
    root = np.flatnonzero(names == ROOT)
    if len(root) != 1:
        raise RuntimeError(f"expected one {ROOT} span, found {len(root)}")
    setup = np.isin(names, SETUP_SPANS) & (table["parent"] == root[0])
    setup_s = float(durations[setup].sum())
    return {"setup_s": setup_s, "run_s": float(durations[root[0]]) - setup_s}


def layer_metrics(tracer: Tracer, workers: Dict[int, object]) -> Dict[str, float]:
    """Per-layer metrics of one traced cell (run phase, except the set-up ``.s`` times).

    ``workers`` is what :func:`install_layers` returned for the cell.
    """
    table = tracer.arrays()
    names = np.asarray(tracer.names, dtype=object)[table["name"]]
    durations = table["end"] - table["start"]
    selfs = self_times(table)
    values = table["value"]
    root = int(np.flatnonzero(names == ROOT)[0])
    setup_roots = np.flatnonzero(np.isin(names, SETUP_SPANS) & (table["parent"] == root))
    run = descends_from(table, np.array([root])) & ~descends_from(table, setup_roots)
    run_s = float(durations[root] - durations[setup_roots].sum())

    def mask(*span_names):
        return run & np.isin(names, span_names)

    def calls(*span_names):
        return float(mask(*span_names).sum())

    def total(*span_names):
        return float(durations[mask(*span_names)].sum())

    def p99_ms(*span_names):
        picked = durations[mask(*span_names)]
        return float(np.percentile(picked, 99) * 1e3) if picked.size else 0.0

    def ratio(numerator, denominator):
        return float(numerator / denominator) if denominator else 0.0

    def setup_total(span):
        return float(durations[names == span].sum())

    m: Dict[str, float] = {}
    plan = "core.allocator.plan"
    plan_kind = values[mask(plan)]
    m[f"{plan}.calls"] = calls(plan)
    m[f"{plan}.s"] = total(plan)
    m[f"{plan}.self_s"] = float(selfs[mask(plan)].sum())
    m[f"{plan}.p99_ms"] = p99_ms(plan)
    m["core.allocator.warm_start_hit_ratio"] = ratio((plan_kind == 2).sum(), (plan_kind > 0).sum())
    m["milp.solve.calls"] = calls("milp.solve")
    m["milp.solve.s"] = total("milp.solve")
    m["milp.solve.p99_ms"] = p99_ms("milp.solve")
    m["milp.lp_solves"] = calls("milp.linprog")
    m["milp.exhaustive_share"] = ratio(values[mask("milp.solve")].sum(), calls("milp.solve"))

    m["core.controller.replans"] = calls("core.controller.replan")
    m["core.controller.set_fleet.calls"] = calls("core.controller.set_fleet")
    m["core.autoscaler.evaluate.calls"] = calls("core.autoscaler.evaluate")
    m["core.autoscaler.evaluate.s"] = total("core.autoscaler.evaluate")

    gen = "models.generate_batch"
    images = float(values[mask(gen)].sum())
    m[f"{gen}.calls"] = calls(gen)
    m[f"{gen}.s"] = total(gen)
    m["models.images"] = images
    m["models.us_per_image"] = ratio(total(gen) * 1e6, images)
    disc = "discriminators.confidence_batch"
    scored = float(values[mask(disc)].sum())
    m[f"{disc}.calls"] = calls(disc)
    m[f"{disc}.s"] = total(disc)
    m["discriminators.images"] = scored
    m["discriminators.accept_ratio"] = ratio(values[mask("core.results.complete")].sum(), scored)

    m["core.load_balancer.submit.calls"] = calls("core.load_balancer.submit")
    m["core.load_balancer.submit.s"] = total("core.load_balancer.submit")
    m["core.load_balancer.requeue.calls"] = calls("core.load_balancer.requeue")
    changes = values[mask("core.worker.set_variant")]
    m["core.worker.batches"] = calls(gen)
    m["core.worker.mean_batch_size"] = ratio(images, calls(gen))
    m["core.worker.resident_hit_ratio"] = ratio((changes == 1).sum(), (changes > 0).sum())
    # Stall reported at window resets plus what the last window still holds.
    m["core.worker.reload_stall_s"] = tracer.counters["core.worker.reload_stall_s"] + sum(
        worker.stats.reload_stall_time for worker in workers.values()
    )

    m["core.results.complete.calls"] = calls("core.results.complete")
    m["core.results.complete.s"] = total("core.results.complete")
    m["core.results.retries"] = calls("core.results.record_retry")
    m["metrics.summary.s"] = total("metrics.summary")

    route = "core.geo.route"
    m[f"{route}.calls"] = calls(route)
    m[f"{route}.s"] = total(route)
    m["core.geo.spill_ratio"] = ratio(values[mask(route)].sum(), calls(route))
    epochs = mask("core.sharding.run_epoch")
    # Epoch seconds per region (the span value is the region's index).
    per_region = np.bincount(values[epochs].astype(int), weights=durations[epochs])
    m["core.sharding.epochs"] = ratio(epochs.sum(), per_region.size)
    m["core.sharding.run_epoch.s"] = total("core.sharding.run_epoch")
    skew = per_region.max() / per_region.mean() if per_region.size else 0.0
    m["core.sharding.epoch_skew"] = float(skew)

    advance = mask("simulator.advance")
    m["simulator.events"] = float(values[advance].sum())
    m["simulator.self_s"] = float(selfs[advance].sum())

    m["models.dataset.s"] = setup_total("models.dataset")
    m["discriminators.train.s"] = setup_total("discriminators.train")
    m["workloads.sample.s"] = setup_total("workloads.sample")
    m["harness.build_systems.s"] = setup_total("harness.build_systems")

    layers_of_names = [name.rsplit(".", 1)[0] for name in tracer.names]
    layer_of = np.array(layers_of_names, dtype=object)[table["name"]]
    attributed = 0.0
    for layer in SHARE_LAYERS:
        picked = run & (layer_of == layer)
        share = float(selfs[picked].sum()) / run_s
        m[f"{layer}.self_share"] = share
        attributed += share
    m["bench.unattributed_share"] = 1.0 - attributed
    m["bench.run_s"] = run_s
    return m
