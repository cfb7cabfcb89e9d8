"""Command-line entry point for the experiment runners.

Usage::

    python -m repro.cli list
    python -m repro.cli fig5 --dataset-size 500 --duration 240
    python -m repro.cli all --fast
    python -m repro.cli run --grid "cascades=sdturbo;seeds=0,1" --jobs 4
    python -m repro.cli run --workload mmpp,flash-crowd --workload-params "burst_factor=6"

Each experiment prints the same table its ``repro.experiments`` module's
``main()`` renders; ``all`` runs the full suite in order.  ``run`` executes an
arbitrary experiment grid through the parallel runner with artifact caching
(see :mod:`repro.runner`): repeated invocations are served from the cache
without firing a single simulation event.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.experiments import (
    drift_adaptation,
    fig1_motivation,
    fig1_pareto,
    fig4_static,
    fig5_real_trace,
    fig6_cascades,
    fig7_discriminator,
    fig8_allocation_ablation,
    fig9_slo_sensitivity,
    milp_overhead,
    reuse_study,
)
from repro.experiments.harness import ExperimentScale
from repro.experiments.study import print_study, registry

#: Experiment name -> (description, runner main function).
EXPERIMENTS: Dict[str, tuple] = {
    "fig1": ("Figure 1a/1b motivation study", fig1_motivation.main),
    "fig1c": ("Figure 1c FID/throughput Pareto frontier", fig1_pareto.main),
    "fig4": ("Figure 4 static-trace comparison", fig4_static.main),
    "fig5": ("Figure 5 Azure-like trace comparison (Cascade 1)", fig5_real_trace.main),
    "fig6": ("Figure 6 Cascades 2 & 3 comparison", fig6_cascades.main),
    "fig7": ("Figure 7 discriminator ablation", fig7_discriminator.main),
    "fig8": ("Figure 8 resource-allocation ablation", fig8_allocation_ablation.main),
    "fig9": ("Figure 9 SLO sensitivity", fig9_slo_sensitivity.main),
    "milp": ("Section 4.5 MILP solver overhead", milp_overhead.main),
    "reuse": ("Section 5 reuse study", reuse_study.main),
    "drift": ("Drift adaptation: static vs. online re-planned plans", drift_adaptation.main),
    **{
        name: (study.description, study.main or partial(print_study, study))
        for name, study in registry().items()
    },
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="DiffServe reproduction experiment runner"
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list", "run"],
        help=(
            "experiment to run, 'all' for every experiment, 'list' to enumerate "
            "them, 'run' to execute a grid through the parallel runner"
        ),
    )
    parser.add_argument("--dataset-size", type=int, default=1000, help="number of prompts")
    parser.add_argument("--duration", type=float, default=360.0, help="trace duration (s)")
    parser.add_argument("--workers", type=int, default=16, help="cluster size")
    parser.add_argument("--seed", type=int, default=0, help="root random seed")
    parser.add_argument(
        "--fast", action="store_true", help="use a reduced scale (~10x faster)"
    )
    runner = parser.add_argument_group("grid runner ('run' only)")
    runner.add_argument(
        "--grid",
        default="cascades=sdturbo",
        help=(
            "grid spec as ';'-separated key=value pairs; keys: cascades (comma-"
            "separated), seeds (comma-separated ints), qps (nominal mean rates; "
            "omit for each workload's cascade default), slos (SLO sweep), "
            "workloads (comma-separated scenario kinds, see --workload), systems "
            "('+'-separated subset of the five systems)"
        ),
    )
    runner.add_argument(
        "--workload",
        default=None,
        help=(
            "workload scenario kind(s), comma-separated: static, mmpp, diurnal, "
            "flash-crowd, azure.  Adds a workload axis to the grid (overrides a "
            "'workloads=' grid key)"
        ),
    )
    runner.add_argument(
        "--workload-params",
        default=None,
        help=(
            "workload knobs, either comma-separated key=value floats "
            "('burst_factor=6,dwell_burst=5') or a JSON object "
            "('{\"burst_factor\": 6}'), forwarded to the workload catalog"
        ),
    )
    runner.add_argument(
        "--fleet",
        default=None,
        help=(
            "typed device fleet, either comma-separated class=count pairs "
            "('a100=8,l4=16') or a JSON object ('{\"a100\": 8, \"l4\": 16}'); "
            "classes come from the built-in catalog (a100, h100, a10g, l4, t4) "
            "and the fleet becomes a cached grid dimension replacing --workers"
        ),
    )
    runner.add_argument(
        "--geo",
        default=None,
        help=(
            "geo topology, either a catalog name (single, us-eu, global-4, "
            "global-8) or a JSON object mapping region names to "
            "'{\"fleet\": {class: count}, \"rtt_ms\": number, \"weight\": number}'; "
            "cells run every region through the shard supervisor and become a "
            "cached grid dimension"
        ),
    )
    runner.add_argument(
        "--resources",
        default=None,
        help=(
            "attach the multi-resource worker model: 'default' (built-in "
            "footprint catalog, reload-aware), 'oblivious' (same catalog, "
            "reload-oblivious planning), or a JSON object mapping variant "
            "names to checkpoint GB with optional 'reload_aware' (bool) and "
            "'egress_gb_per_image' (number) keys; becomes a cached grid "
            "dimension (omit to keep the legacy execution model)"
        ),
    )
    runner.add_argument(
        "--faults",
        default=None,
        help=(
            "inject a deterministic fault scenario: a catalog name (quiet, "
            "crash, crash-norecovery, storm, storm-norecovery, revocation, "
            "solver-timeout, chaos) or a JSON object with a 'faults' list of "
            "{kind, ...} entries (kinds: crash, revocation, straggler, "
            "bandwidth, partition, solver-timeout, crash-storm) and an "
            "optional 'recovery' key (true/false or a config object); becomes "
            "a cached grid dimension (omit to keep runs fault-free)"
        ),
    )
    runner.add_argument(
        "--autoscale",
        default=None,
        help=(
            "attach an epoch-synchronous autoscaling policy to the DiffServe "
            "system: a catalog name (static, reactive, cost-aware) or a JSON "
            "object with ScalePolicy fields ('{\"kind\": \"cost-aware\", "
            "\"max_factor\": 1.5, \"step\": 2}'); requires --replan-epoch and "
            "becomes a cached grid dimension (omit to keep fleets fixed)"
        ),
    )
    runner.add_argument(
        "--prices",
        default=None,
        help=(
            "price the fleet on a deterministic spot-market trace: a catalog "
            "name (flat, spot-calm, spot-diurnal, spot-storm) or a JSON object "
            "with PriceTrace fields ('{\"spot_classes\": [\"l4\", \"t4\"], "
            "\"volatility\": 0.5}'); meters the time-integrated fleet_cost "
            "summary key and becomes a cached grid dimension"
        ),
    )
    runner.add_argument(
        "--shards",
        default="1",
        help=(
            "worker processes per cell for sharded execution ('auto' picks from "
            "the CPU count); results are byte-identical for any value — this "
            "only chooses how many processes the regions are packed into"
        ),
    )
    runner.add_argument(
        "--replan-epoch",
        type=float,
        default=None,
        help=(
            "enable DiffServe's online re-planning control plane with this epoch "
            "(seconds); becomes a cached grid dimension"
        ),
    )
    runner.add_argument(
        "--replan-policy",
        choices=["static", "periodic", "adaptive"],
        default=None,
        help=(
            "re-plan policy for --replan-epoch (defaults to 'periodic' when an "
            "epoch is given); 'adaptive' only re-solves on demand drift or SLO "
            "pressure"
        ),
    )
    runner.add_argument(
        "--profile",
        action="store_true",
        help=(
            "arm the deterministic event-loop profiler: cells run inline "
            "(ignoring --jobs) with the summary cache bypassed, and a per-"
            "event-name fire-count/wall-clock table is printed for every "
            "cell and system; summaries stay byte-identical with profiling "
            "on or off"
        ),
    )
    runner.add_argument("--jobs", type=int, default=1, help="worker processes for 'run'")
    runner.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the artifact cache entirely (recompute datasets/discriminators/summaries)",
    )
    runner.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock budget per cell in seconds (POSIX; applies to inline and parallel runs)",
    )
    runner.add_argument(
        "--json", dest="json_path", default=None, help="write per-cell summaries to FILE"
    )
    return parser


def scale_from_args(args: argparse.Namespace) -> ExperimentScale:
    """Build the experiment scale requested on the command line."""
    if args.fast:
        return ExperimentScale(
            dataset_size=300, trace_duration=180.0, num_workers=args.workers, seed=args.seed
        )
    return ExperimentScale(
        dataset_size=args.dataset_size,
        trace_duration=args.duration,
        num_workers=args.workers,
        seed=args.seed,
    )


def list_experiments() -> str:
    """Human-readable list of available experiments."""
    lines = ["Available experiments:"]
    for name in sorted(EXPERIMENTS):
        description, _ = EXPERIMENTS[name]
        lines.append(f"  {name:8s} {description}")
    text = "\n".join(lines)
    print(text)
    return text


def parse_workload_params(text: Optional[str]) -> Dict[str, float]:
    """Parse a ``--workload-params`` string.

    Accepts comma-separated ``key=value`` floats or a JSON object; every
    failure mode raises :class:`ValueError` with a one-line message naming
    the bad key (or the JSON syntax error), which the ``run`` command turns
    into a clean CLI error instead of a traceback.
    """
    stripped = (text or "").strip()
    if stripped.startswith(("{", "[")):
        try:
            decoded = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON for --workload-params: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ValueError("--workload-params JSON must be an object of key: number pairs")
        params: Dict[str, float] = {}
        for key, value in decoded.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"workload param {key!r} must be a number, got {value!r}")
            params[str(key)] = float(value)
        return params
    params = {}
    for part in stripped.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed workload param {part!r}; expected key=value")
        key = key.strip()
        if key in params:
            raise ValueError(f"duplicate workload param {key!r}")
        try:
            params[key] = float(value)
        except ValueError:
            raise ValueError(f"workload param {key!r} must be a number, got {value!r}")
    return params


def parse_fleet(text: Optional[str]) -> Optional[Dict[str, int]]:
    """Parse a ``--fleet`` string into ``{device class: count}``.

    Accepts comma-separated ``class=count`` pairs or a JSON object; every
    failure mode raises :class:`ValueError` with a one-line message naming
    the bad key (mirroring ``--workload-params``).  Class names and counts
    are validated against the device catalog via the central
    :class:`~repro.core.config.FleetSpec` checks.
    """
    stripped = (text or "").strip()
    if not stripped:
        return None
    counts: Dict[str, int] = {}
    if stripped.startswith(("{", "[")):
        try:
            decoded = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed JSON for --fleet: {exc}") from exc
        if not isinstance(decoded, dict):
            raise ValueError("--fleet JSON must be an object of class: count pairs")
        items = decoded.items()
    else:
        items = []
        for part in stripped.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            if not sep or not value:
                raise ValueError(f"malformed fleet entry {part!r}; expected class=count")
            items.append((key.strip(), value.strip()))
    for key, value in items:
        key = str(key)
        if key in counts:
            raise ValueError(f"duplicate fleet class {key!r}")
        if isinstance(value, bool) or (
            not isinstance(value, int) and not (isinstance(value, str) and value.isdigit())
        ):
            raise ValueError(
                f"fleet class {key!r}: count must be a positive integer, got {value!r}"
            )
        counts[key] = int(value)
    from repro.core.config import fleet_from_counts

    try:
        # Central validation: unknown classes / bad counts fail here with the
        # catalog's one-line message.
        fleet_from_counts(counts)
    except KeyError as exc:
        raise ValueError(str(exc).strip("'\"")) from exc
    return counts


def parse_shards(text: Optional[str]) -> int:
    """Parse a ``--shards`` value: a positive integer or ``auto``.

    ``auto`` resolves against the machine's CPU count (capped), so CI and
    laptops pick sensible process counts without per-host flags.
    """
    stripped = (text or "1").strip().lower()
    if stripped == "auto":
        from repro.core.sharding import default_shards

        return default_shards()
    try:
        shards = int(stripped)
    except ValueError:
        raise ValueError(f"--shards must be a positive integer or 'auto', got {text!r}") from None
    if shards < 1:
        raise ValueError(f"--shards must be >= 1, got {shards}")
    return shards


def parse_grid(
    text: str,
    scale: ExperimentScale,
    *,
    workloads: Optional[str] = None,
    workload_params: Optional[str] = None,
    replan_epoch: Optional[float] = None,
    replan_policy: Optional[str] = None,
    fleet: Optional[str] = None,
    geo: Optional[str] = None,
    shards: int = 1,
    resources: Optional[str] = None,
    faults: Optional[str] = None,
    autoscale: Optional[str] = None,
    prices: Optional[str] = None,
):
    """Build an :class:`~repro.runner.spec.ExperimentGrid` from a ``--grid`` spec.

    The spec is ``;``-separated ``key=value`` pairs; the grid is the cross
    product of every axis given.  Example::

        cascades=sdturbo,sdxs;seeds=0,1;qps=8,16;workloads=static,mmpp;systems=diffserve

    ``workloads``/``workload_params`` (the ``--workload``/``--workload-params``
    flags) override the ``workloads=`` grid key; each workload kind crossed
    with each ``qps`` value (if any) becomes one trace axis entry.  Workload
    parameter *values* are validated eagerly (the scenario is instantiated
    once per trace axis entry), so a bad knob fails the parse with a one-line
    error instead of surfacing as a traceback from inside a grid cell.
    ``replan_epoch``/``replan_policy`` (the ``--replan-*`` flags) attach the
    online re-planning control plane to every cell as cached grid params.
    ``fleet`` (the ``--fleet`` flag) runs every cell on a typed device fleet
    instead of the homogeneous ``--workers`` cluster — a real (cached) grid
    dimension, validated eagerly against the device catalog.
    ``geo`` (the ``--geo`` flag) serves every cell over a multi-region
    topology through the shard supervisor, and ``shards`` packs the regions
    into that many worker processes — sharding never changes summaries, only
    wall-clock.  ``resources`` (the ``--resources`` flag) attaches the
    multi-resource worker model to every cell as a cached grid dimension.
    ``faults`` (the ``--faults`` flag) injects the same deterministic fault
    scenario into every cell as a cached grid dimension, validated eagerly
    against the fault catalog / JSON schema.  ``autoscale``/``prices`` (the
    ``--autoscale``/``--prices`` flags) attach the scale policy / spot price
    trace to every cell as cached grid dimensions, with the same eager
    one-line validation (``--autoscale`` additionally requires
    ``--replan-epoch``: scale decisions are evaluated at replan epochs).
    """
    from repro.runner.spec import DEFAULT_SYSTEMS, ExperimentGrid, TraceSpec

    fields: Dict[str, str] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        if not sep or not value:
            raise ValueError(f"malformed grid field {part!r}; expected key=value")
        fields[key.strip()] = value.strip()

    cascades = [c for c in fields.pop("cascades", "sdturbo").split(",") if c]
    seeds = [int(s) for s in fields.pop("seeds", str(scale.seed)).split(",")]
    qps = [float(q) for q in fields.pop("qps", "").split(",") if q]
    slos = [float(s) for s in fields.pop("slos", "").split(",") if s]
    kinds_text = workloads if workloads is not None else fields.pop("workloads", "")
    fields.pop("workloads", None)
    kinds = [w.strip() for w in kinds_text.split(",") if w.strip()]
    systems = tuple(s for s in fields.pop("systems", "").split("+") if s) or DEFAULT_SYSTEMS
    if fields:
        raise ValueError(f"unknown grid keys {sorted(fields)}")

    from repro.workloads import WORKLOAD_PARAMS

    wparams = parse_workload_params(workload_params)
    if not kinds:
        # Bare qps values keep their historical meaning: static Poisson traces.
        kinds = ["static"] if qps else ["azure"]
    # Each kind takes the subset of params it understands (one flag can feed a
    # multi-workload sweep); a param no selected kind accepts is a user error.
    orphans = sorted(
        key
        for key in wparams
        if not any(key in WORKLOAD_PARAMS.get(kind, ()) for kind in kinds)
    )
    if orphans:
        raise ValueError(f"workload params {orphans} apply to none of the workloads {kinds}")
    traces = [
        TraceSpec(
            kind=kind,
            qps=q,
            params=tuple(
                sorted((k, v) for k, v in wparams.items() if k in WORKLOAD_PARAMS.get(kind, ()))
            ),
        )
        for kind in kinds
        for q in (qps or [None])
    ]
    from repro.workloads import validate_workload

    for trace in traces:
        # Instantiate each scenario once so out-of-range values (not just
        # unknown keys) fail the parse with the offending key named.
        validate_workload(
            trace.kind, trace.params_dict(), qps=trace.qps, duration=scale.trace_duration
        )
    params_list = [{"slo": s} for s in slos] or [{}]
    replan: Dict[str, object] = {}
    if replan_epoch is not None:
        replan["replan_epoch"] = float(replan_epoch)
    if replan_policy is not None:
        replan["replan_policy"] = replan_policy
    if replan:
        params_list = [{**params, **replan} for params in params_list]
    scales = [replace(scale, seed=s) for s in seeds]
    if geo is not None:
        from repro.core.geo import parse_geo

        # Eager validation: a bad topology name / malformed JSON fails the
        # parse with a one-line error, not a traceback inside a grid cell.
        parse_geo(geo)
    if resources is not None:
        # Same eager-validation rule: bad variant names / malformed JSON fail
        # the parse, not a grid cell.
        from repro.core.config import parse_resources

        parse_resources(resources)
    if faults is not None:
        # Eager validation: an unknown plan name / malformed JSON / bad fault
        # param fails the parse with a one-line error naming the bad key.
        from repro.faults.plan import parse_faults

        parse_faults(faults)
    if autoscale is not None:
        # Eager validation, plus the structural requirement: the autoscaler
        # is evaluated by the re-planner's epoch loop, so it needs one.
        from repro.core.autoscaler import parse_autoscale

        parse_autoscale(autoscale)
        if replan_epoch is None:
            raise ValueError("--autoscale requires --replan-epoch (scale decisions are evaluated at replan epochs)")
    if prices is not None:
        from repro.core.pricing import parse_prices

        parse_prices(prices)
    return ExperimentGrid.product(
        cascades=cascades,
        scales=scales,
        systems=systems,
        traces=traces,
        params_list=params_list,
        fleets=(parse_fleet(fleet),),
        geos=(geo,),
        shards=shards,
        resources=resources,
        faults=faults,
        autoscale=autoscale,
        prices=prices,
    )


def run_profiled_grid(args: argparse.Namespace, grid) -> int:
    """Execute ``run --profile``: every cell inline with the profiler armed.

    Wall-clock telemetry lives only on the simulator objects that measured
    it, so a profiled run never consults or writes the summary cache and
    always executes inline regardless of ``--jobs``.  Shared components
    (datasets, discriminators) still come from the artifact cache — those
    carry no timing.  The summaries printed (and written via ``--json``) are
    byte-identical to an unprofiled run of the same grid.
    """
    from repro.experiments.harness import format_table
    from repro.runner.cache import default_cache
    from repro.runner.executor import canonical_summaries_json, run_cell_results
    from repro.simulator.profiling import format_profile_table

    cache = None if args.no_cache else default_cache()
    rows: List[list] = []
    tables: List[str] = []
    payload_lines: List[str] = []
    for spec in grid:
        profiles: Dict[str, Dict[str, tuple]] = {}
        _, results = run_cell_results(spec, cache=cache, profile_sink=profiles)
        summaries = {
            name: {k: float(v) for k, v in result.summary().items()}
            for name, result in results.items()
        }
        for system, summary in sorted(summaries.items()):
            rows.append(
                [
                    spec.label,
                    system,
                    "ok",
                    summary["fid"],
                    summary["slo_violation_ratio"],
                    summary["p99_latency"],
                ]
            )
        for system in sorted(profiles):
            tables.append(
                format_profile_table(profiles[system], title=f"{spec.label} / {system}")
            )
        if args.json_path:
            payload_lines.append(
                json.dumps(
                    {
                        "label": spec.label,
                        "spec": spec.content_hash,
                        "status": "ok",
                        "summaries": json.loads(canonical_summaries_json(summaries)),
                    },
                    sort_keys=True,
                    separators=(",", ":"),
                )
            )
    print(format_table(["cell", "system", "status", "FID", "SLO viol", "p99 (s)"], rows))
    print(f"cells={len(grid)} profiled inline (summary cache bypassed)")
    for table in tables:
        print()
        print(table)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(payload_lines) + "\n")
    return 0


def run_grid_command(args: argparse.Namespace) -> int:
    """Execute the ``run`` subcommand: a grid through the parallel runner."""
    from repro.experiments.harness import format_table
    from repro.runner.cache import default_cache
    from repro.runner.executor import canonical_summaries_json, run_grid

    scale = scale_from_args(args)
    try:
        grid = parse_grid(
            args.grid,
            scale,
            workloads=args.workload,
            workload_params=args.workload_params,
            replan_epoch=args.replan_epoch,
            replan_policy=args.replan_policy,
            fleet=args.fleet,
            geo=args.geo,
            shards=parse_shards(args.shards),
            resources=args.resources,
            faults=args.faults,
            autoscale=args.autoscale,
            prices=args.prices,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.profile:
        return run_profiled_grid(args, grid)

    report = run_grid(
        grid,
        jobs=max(args.jobs, 1),
        use_cache=not args.no_cache,
        cell_timeout=args.cell_timeout,
    )

    rows = []
    for cell in report.cells:
        for system, summary in sorted(cell.summaries.items()):
            rows.append(
                [
                    cell.spec.label,
                    system,
                    cell.status,
                    summary["fid"],
                    summary["slo_violation_ratio"],
                    summary["p99_latency"],
                ]
            )
        if not cell.ok:
            rows.append([cell.spec.label, "-", cell.status, "-", "-", "-"])
    print(format_table(["cell", "system", "status", "FID", "SLO viol", "p99 (s)"], rows))

    cache = default_cache()
    print(
        f"cells={len(report.cells)} ok={sum(1 for c in report.cells if c.status == 'ok')} "
        f"cached={report.cached_count} failed={len(report.failed)} jobs={report.jobs}"
    )
    print(f"grid={grid.content_hash[:16]} cache={cache.root} stats={report.cache_stats}")
    for cell in report.failed:
        print(f"--- {cell.spec.label} ({cell.status}) ---\n{cell.error}", file=sys.stderr)

    if args.json_path:
        payload_lines = [
            json.dumps(
                {
                    "label": cell.spec.label,
                    "spec": cell.spec.content_hash,
                    "status": "ok" if cell.ok else cell.status,
                    "summaries": json.loads(canonical_summaries_json(cell.summaries)),
                },
                sort_keys=True,
                separators=(",", ":"),
            )
            for cell in report.cells
        ]
        with open(args.json_path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(payload_lines) + "\n")

    return 0 if report.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        list_experiments()
        return 0
    if args.experiment == "run":
        return run_grid_command(args)
    scale = scale_from_args(args)
    names: List[str] = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        description, runner = EXPERIMENTS[name]
        print(f"=== {name}: {description} ===")
        runner(scale)
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
