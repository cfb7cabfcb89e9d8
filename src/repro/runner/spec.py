"""Declarative experiment specifications with deterministic content hashes.

An :class:`ExperimentSpec` names everything that determines the outcome of one
grid cell — the cascade, the experiment scale, the systems compared, the
workload trace, and any per-system parameter overrides.  Two specs with equal
fields produce equal :attr:`ExperimentSpec.content_hash` values across
processes and machines (the hash is derived from a canonical token string via
SHA-256, never from Python's randomised ``hash``), which is what makes the
disk cache shareable between CI jobs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple, Union

from repro.experiments.harness import ExperimentScale

#: Bump when the meaning of cached artifacts changes (training pipeline,
#: simulator semantics, summary schema, ...) to invalidate every old entry.
#: v2: arrival sampling moved onto the workload scenario engine
#: (RandomStreams-derived arrival streams instead of ad-hoc generators).
#: v3: columnar metrics pipeline — summaries gained completed / mean_quality /
#: p50_latency keys and FID moved to the cached-real-moments evaluation.
#: v4: adaptive control plane — replan_epoch / replan_policy became grid
#: dimensions and the warm-started re-planning solver changed DiffServe's
#: control dynamics.
#: v5: heterogeneous device fleets — ``fleet`` became a grid dimension, the
#: MILP indexes worker variables by device class, and workers execute on
#: per-(variant, device-class) latency profiles.
#: v6: sharded geo simulation — ``geo`` / ``shards`` became grid dimensions
#: and geo cells run through the epoch-synchronous shard supervisor
#: (latency-aware routing, per-region seeds, merged columnar results).
#: v7: multi-resource worker model — ``resources`` became a grid dimension
#: and resource-enabled cells execute the residency/transfer/egress stage
#: machine (state-dependent reload costs, reload-aware MILP objective).
#: v8: deterministic fault injection — ``faults`` became a grid dimension and
#: fault-enabled cells run the injector + self-healing control plane
#: (crash/straggler/revocation faults, retry-with-backoff requeue,
#: last-known-good plan fallback); QueryRecord gained a ``retries`` column.
#: v9: elastic fleets — ``autoscale`` / ``prices`` became grid dimensions
#: (epoch-synchronous scale policies over deterministic spot price traces),
#: summaries gained a time-integrated ``fleet_cost`` key, and fleet
#: transitions route through the controller's audited ``set_fleet`` site.
CACHE_SCHEMA_VERSION = 9

#: The standard five-system comparison run by most figures.
DEFAULT_SYSTEMS: Tuple[str, ...] = (
    "clipper-light",
    "clipper-heavy",
    "proteus",
    "diffserve-static",
    "diffserve",
)

#: Parameter keys a spec may override (forwarded to the system builders).
ALLOWED_PARAMS = (
    "slo",
    "over_provision",
    "policy_variant",
    "static_threshold",
    "replan_epoch",
    "replan_policy",
)

ParamValue = Union[str, int, float, bool, None]


def _canon_token(value: ParamValue) -> str:
    """Canonical, process-independent string form of a primitive value."""
    if isinstance(value, bool) or value is None or isinstance(value, (str, int)):
        return repr(value)
    if isinstance(value, float):
        # repr() of a float is exact (shortest round-trip) in Python >= 3.1.
        return repr(value)
    raise TypeError(f"unsupported spec value {value!r} of type {type(value).__name__}")


def _sha256(token: str) -> str:
    return hashlib.sha256(token.encode("utf-8")).hexdigest()


def variants_fingerprint(light, heavy, dataset: str, slo: Optional[float] = None) -> str:
    """Hash of everything the synthetic substrate contributes to a result.

    Cache entries must be invalidated when the model zoo is recalibrated or
    the feature space changes, even though the *spec* (which is declarative)
    stays identical.  The fingerprint therefore folds in the variant
    definitions and the generation constants.
    """
    from repro.models.difficulty import COCO_DIFFICULTY, DIFFUSIONDB_DIFFICULTY
    from repro.models.generation import FEATURE_DIM

    token = "|".join(
        [
            f"schema={CACHE_SCHEMA_VERSION}",
            repr(light),
            repr(heavy),
            f"slo={slo!r}",
            f"dataset={dataset}",
            f"feature_dim={FEATURE_DIM}",
            repr(COCO_DIFFICULTY),
            repr(DIFFUSIONDB_DIFFICULTY),
        ]
    )
    return _sha256(token)[:16]


def substrate_fingerprint(cascade_name: str) -> str:
    """:func:`variants_fingerprint` of a named cascade."""
    from repro.models.zoo import get_cascade

    cascade = get_cascade(cascade_name)
    return variants_fingerprint(cascade.light, cascade.heavy, cascade.dataset, slo=cascade.slo)


@dataclass(frozen=True)
class TraceSpec:
    """Workload scenario of a grid cell.

    ``kind`` names an arrival process from the workload catalog
    (:data:`repro.workloads.WORKLOAD_KINDS`): ``azure`` replays the diurnal
    Azure-Functions-like curve at the cascade's default QPS range,
    ``static`` is constant-rate Poisson at ``qps``, and ``mmpp`` /
    ``diurnal`` / ``flash-crowd`` shape their load around the nominal mean
    rate ``qps`` (defaulting to the cascade range's midpoint).  ``params``
    are the kind-specific float knobs (see
    :data:`repro.workloads.WORKLOAD_PARAMS`), kept as a sorted tuple so the
    scenario hashes into the cache key like any other grid dimension.
    ``seed`` overrides the arrival-sampling seed (defaults to the experiment
    scale's seed).
    """

    kind: str = "azure"
    qps: Optional[float] = None
    seed: Optional[int] = None
    params: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        from repro.workloads import WORKLOAD_PARAMS

        if self.kind not in WORKLOAD_PARAMS:
            raise ValueError(
                f"unknown trace kind {self.kind!r}; expected one of {tuple(WORKLOAD_PARAMS)}"
            )
        if self.kind == "static" and (self.qps is None or self.qps <= 0):
            raise ValueError("static traces require a positive qps")
        allowed = WORKLOAD_PARAMS[self.kind]
        seen = set()
        for key, value in self.params:
            if key not in allowed:
                raise ValueError(
                    f"unknown workload param {key!r} for kind {self.kind!r}; "
                    f"allowed: {sorted(allowed)}"
                )
            if key in seen:
                raise ValueError(f"duplicate workload param {key!r}")
            seen.add(key)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"workload param {key!r} must be a number, got {value!r}")
        object.__setattr__(
            self, "params", tuple(sorted((k, float(v)) for k, v in self.params))
        )

    def params_dict(self) -> Dict[str, float]:
        """The workload params as a plain dict."""
        return dict(self.params)

    def token(self) -> str:
        """Canonical hash token."""
        extras = ",".join(f"{k}={_canon_token(v)}" for k, v in self.params)
        return (
            f"trace({self.kind},{_canon_token(self.qps)},{_canon_token(self.seed)},"
            f"[{extras}])"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    """One cell of an experiment grid.

    Attributes
    ----------
    cascade:
        Cascade name (``sdturbo`` / ``sdxs`` / ``sdxlltn``).
    scale:
        Experiment scale (dataset size, trace duration, cluster size, seed).
    systems:
        Systems compared in this cell, in execution order.
    trace:
        Workload trace description.
    peak_provision_factor:
        Fraction of the trace peak that DiffServe-Static is provisioned for.
    params:
        Sorted ``(key, value)`` pairs forwarded to the system builders
        (see :data:`ALLOWED_PARAMS`).  Kept as a tuple so specs stay hashable.
    fleet:
        Typed device fleet as sorted ``(class name, count)`` pairs resolved
        against the built-in catalog (``None`` keeps the homogeneous
        ``scale.num_workers`` cluster).  A real grid dimension: it enters the
        canonical token, so cells with different fleets hash differently.
    geo:
        Geo topology the cell is served over: a catalog name from
        :data:`repro.core.geo.GEO_TOPOLOGIES` or the ``--geo`` JSON form
        (``None`` keeps the single-cluster path).  Hashes by the *resolved*
        topology token, so a catalog name and its equivalent JSON share a
        cache entry.
    shards:
        Worker processes the cell's regions are packed into.  Enters the
        token deliberately even though sharding never changes results — the
        ``--shards 4`` vs ``--shards 1`` byte-identity gate must compare two
        genuinely computed cells, not one cell and its own cache hit.
    resources:
        Multi-resource worker model: ``"default"`` for the built-in footprint
        catalog or the ``--resources`` JSON form (``None`` keeps the legacy
        compute-only execution model).  Hashes by the *resolved*
        :meth:`~repro.core.config.ResourceConfig.token`, so equivalent
        spellings share a cache entry.
    faults:
        Deterministic fault scenario: a catalog name from
        :data:`repro.faults.plan.FAULT_PLANS` or the ``--faults`` JSON form
        (``None`` keeps runs fault-free and bit-for-bit legacy).  Hashes by
        the *resolved* :meth:`~repro.faults.plan.FaultPlan.token`, so a
        catalog name and its equivalent JSON share a cache entry.
    autoscale:
        Epoch-synchronous scale policy: a catalog name from
        :data:`repro.core.autoscaler.SCALE_POLICIES` or the ``--autoscale``
        JSON form (``None`` keeps the fleet fixed and bit-for-bit legacy).
        Hashes by the *resolved*
        :meth:`~repro.core.autoscaler.ScalePolicy.token`.
    prices:
        Spot-market price trace: a catalog name from
        :data:`repro.core.pricing.PRICE_TRACES` or the ``--prices`` JSON
        form (``None`` meters the static catalog rate).  Hashes by the
        *resolved* :meth:`~repro.core.pricing.PriceTrace.token`, so
        equivalent JSON spellings share a cache entry.
    """

    cascade: str
    scale: ExperimentScale
    systems: Tuple[str, ...] = DEFAULT_SYSTEMS
    trace: TraceSpec = field(default_factory=TraceSpec)
    peak_provision_factor: float = 0.8
    params: Tuple[Tuple[str, ParamValue], ...] = ()
    fleet: Optional[Tuple[Tuple[str, int], ...]] = None
    geo: Optional[str] = None
    shards: int = 1
    resources: Optional[str] = None
    faults: Optional[str] = None
    autoscale: Optional[str] = None
    prices: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.systems:
            raise ValueError("a spec must compare at least one system")
        object.__setattr__(self, "systems", tuple(self.systems))
        seen = set()
        for key, value in self.params:
            if key not in ALLOWED_PARAMS:
                raise ValueError(f"unknown param {key!r}; allowed: {ALLOWED_PARAMS}")
            if key in seen:
                raise ValueError(f"duplicate param {key!r}")
            seen.add(key)
            _canon_token(value)  # raises on unsupported types
        object.__setattr__(self, "params", tuple(sorted(self.params)))
        if self.fleet is not None:
            object.__setattr__(
                self, "fleet", tuple(sorted((str(k), int(v)) for k, v in self.fleet))
            )
            # Resolve eagerly so bad class names / counts fail at spec
            # construction with the one-line FleetSpec error, not inside a
            # grid cell.
            self.resolve_fleet()
        if isinstance(self.shards, bool) or not isinstance(self.shards, int):
            raise ValueError(f"shards must be an integer, got {self.shards!r}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.geo is not None:
            # Same eager-resolution rule as fleets: a bad topology name or
            # malformed JSON fails at spec construction.
            if self.resolve_geo() is None:
                raise ValueError("geo must be a topology name/JSON, not blank")
        if self.resources is not None:
            if self.resolve_resources() is None:
                raise ValueError("resources must be 'default' or JSON, not blank")
        if self.faults is not None:
            if self.resolve_faults() is None:
                raise ValueError("faults must be a catalog name or JSON, not blank")
        if self.autoscale is not None:
            if self.resolve_autoscale() is None:
                raise ValueError("autoscale must be a policy name or JSON, not blank")
        if self.prices is not None:
            if self.resolve_prices() is None:
                raise ValueError("prices must be a trace name or JSON, not blank")

    # ------------------------------------------------------------- builders
    def with_params(self, **params: ParamValue) -> "ExperimentSpec":
        """A copy with additional/overridden builder params."""
        merged = dict(self.params)
        merged.update(params)
        return replace(self, params=tuple(sorted(merged.items())))

    def params_dict(self) -> Dict[str, ParamValue]:
        """The params as a plain dict."""
        return dict(self.params)

    def resolve_fleet(self):
        """The spec's fleet as a :class:`~repro.core.config.FleetSpec`.

        ``None`` when the cell runs the homogeneous ``scale.num_workers``
        cluster.  Validation (unknown classes, bad counts) lives in
        :class:`~repro.core.config.FleetSpec`.
        """
        if self.fleet is None:
            return None
        from repro.core.config import fleet_from_counts

        return fleet_from_counts(dict(self.fleet))

    def resolve_geo(self):
        """The spec's geo topology as a :class:`~repro.core.geo.GeoTopology`.

        ``None`` when the cell runs the single-cluster path.  Parsing and
        validation live in :func:`~repro.core.geo.parse_geo`.
        """
        if self.geo is None:
            return None
        from repro.core.geo import parse_geo

        return parse_geo(self.geo)

    def resolve_resources(self):
        """The spec's resource model as a
        :class:`~repro.core.config.ResourceConfig`.

        ``None`` when the cell runs the legacy compute-only execution model.
        Parsing and validation live in
        :func:`~repro.core.config.parse_resources` (``"default"`` or the
        ``--resources`` JSON form).
        """
        if self.resources is None:
            return None
        from repro.core.config import parse_resources

        return parse_resources(self.resources)

    def resolve_faults(self):
        """The spec's fault scenario as a :class:`~repro.faults.plan.FaultPlan`.

        ``None`` when the cell runs fault-free.  Parsing and validation live
        in :func:`~repro.faults.plan.parse_faults` (a catalog name or the
        ``--faults`` JSON form).
        """
        if self.faults is None:
            return None
        from repro.faults.plan import parse_faults

        return parse_faults(self.faults)

    def resolve_autoscale(self):
        """The spec's scale policy as a
        :class:`~repro.core.autoscaler.ScalePolicy`.

        ``None`` when the cell runs with a fixed fleet.  Parsing and
        validation live in :func:`~repro.core.autoscaler.parse_autoscale`
        (a catalog name or the ``--autoscale`` JSON form).
        """
        if self.autoscale is None:
            return None
        from repro.core.autoscaler import parse_autoscale

        return parse_autoscale(self.autoscale)

    def resolve_prices(self):
        """The spec's price trace as a
        :class:`~repro.core.pricing.PriceTrace`.

        ``None`` when the cell meters the static catalog rate.  Parsing and
        validation live in :func:`~repro.core.pricing.parse_prices` (a
        catalog name or the ``--prices`` JSON form).
        """
        if self.prices is None:
            return None
        from repro.core.pricing import parse_prices

        return parse_prices(self.prices)

    # ------------------------------------------------------------- identity
    def token(self) -> str:
        """Canonical token string the content hash is derived from."""
        scale = self.scale
        fleet_token = (
            "" if self.fleet is None else ",".join(f"{k}:{v}" for k, v in self.fleet)
        )
        parts = [
            f"schema={CACHE_SCHEMA_VERSION}",
            f"cascade={self.cascade}",
            f"scale({scale.dataset_size},{_canon_token(scale.trace_duration)},"
            f"{scale.num_workers},{scale.seed})",
            "systems(" + ",".join(self.systems) + ")",
            self.trace.token(),
            f"peak={_canon_token(self.peak_provision_factor)}",
            "params(" + ",".join(f"{k}={_canon_token(v)}" for k, v in self.params) + ")",
            f"fleet({fleet_token})",
        ]
        if self.geo is not None or self.shards != 1:
            # Appended conditionally so pre-geo specs keep their v-schema
            # token shape (the schema bump invalidates old entries anyway;
            # this just keeps tokens minimal for the common case).
            geo = self.resolve_geo()
            parts.append(f"geo({'' if geo is None else geo.token()})")
            parts.append(f"shards={self.shards}")
        if self.resources is not None:
            # Hash by the *resolved* canonical token so "default" and its
            # equivalent JSON spelling share a cache entry.
            parts.append(f"resources({self.resolve_resources().token()})")
        if self.faults is not None:
            parts.append(f"faults({self.resolve_faults().token()})")
        if self.autoscale is not None:
            parts.append(f"autoscale({self.resolve_autoscale().token()})")
        if self.prices is not None:
            parts.append(f"prices({self.resolve_prices().token()})")
        return "|".join(parts)

    @property
    def content_hash(self) -> str:
        """Deterministic SHA-256 hex digest of the spec."""
        return _sha256(self.token())

    @property
    def cache_key(self) -> str:
        """Cache key: content hash plus the substrate fingerprint."""
        return f"{self.content_hash[:32]}-{substrate_fingerprint(self.cascade)}"

    @property
    def label(self) -> str:
        """Short human-readable cell label for tables and logs."""
        bits = [self.cascade, f"seed{self.scale.seed}"]
        if self.trace.kind != "azure" or self.trace.qps is not None or self.trace.params:
            desc = self.trace.kind
            if self.trace.qps is not None:
                desc += f"{self.trace.qps:g}qps"
            bits.append(desc)
        if self.fleet is not None:
            bits.append("+".join(f"{k}x{v}" for k, v in self.fleet))
        if self.geo is not None:
            geo = self.geo if not self.geo.strip().startswith("{") else "geo-json"
            bits.append(geo)
        if self.shards != 1:
            bits.append(f"shards{self.shards}")
        if self.resources is not None:
            bits.append(
                "resources" if self.resources.strip().startswith("{") else self.resources
            )
        if self.faults is not None:
            bits.append(
                "faults-json" if self.faults.strip().startswith("{") else f"faults-{self.faults}"
            )
        if self.autoscale is not None:
            bits.append(
                "autoscale-json"
                if self.autoscale.strip().startswith("{")
                else f"autoscale-{self.autoscale}"
            )
        if self.prices is not None:
            bits.append(
                "prices-json" if self.prices.strip().startswith("{") else f"prices-{self.prices}"
            )
        bits.extend(f"{k}={v}" for k, v in self.params)
        return "/".join(bits)


@dataclass(frozen=True)
class ExperimentGrid:
    """An ordered collection of grid cells."""

    specs: Tuple[ExperimentSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    def __iter__(self) -> Iterator[ExperimentSpec]:
        return iter(self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __getitem__(self, index: int) -> ExperimentSpec:
        return self.specs[index]

    @property
    def content_hash(self) -> str:
        """Hash of the whole grid (order-sensitive)."""
        return _sha256("\n".join(spec.token() for spec in self.specs))

    @classmethod
    def product(
        cls,
        *,
        cascades: Sequence[str] = ("sdturbo",),
        scales: Optional[Sequence[ExperimentScale]] = None,
        seeds: Optional[Sequence[int]] = None,
        systems: Sequence[str] = DEFAULT_SYSTEMS,
        traces: Sequence[TraceSpec] = (TraceSpec(),),
        params_list: Sequence[Dict[str, ParamValue]] = ({},),
        peak_provision_factor: float = 0.8,
        base_scale: Optional[ExperimentScale] = None,
        fleets: Sequence[Optional[Dict[str, int]]] = (None,),
        geos: Sequence[Optional[str]] = (None,),
        shards: int = 1,
        resources: Optional[str] = None,
        faults: Optional[str] = None,
        autoscale: Optional[str] = None,
        prices: Optional[str] = None,
    ) -> "ExperimentGrid":
        """Cross product of cascades x scales (or seeds) x traces x params x fleets x geos.

        Either pass explicit ``scales`` or a ``base_scale`` plus ``seeds`` to
        vary only the seed.  Each ``fleets`` entry is a ``{class: count}``
        mapping (``None`` keeps the homogeneous ``scale.num_workers``
        cluster); each ``geos`` entry a topology name / JSON (``None`` keeps
        the single-cluster path).  ``shards`` applies to every cell — it is an
        execution knob, not a studied dimension, so it does not fan out.
        ``resources`` attaches the multi-resource worker model to every cell
        (``"default"`` or the ``--resources`` JSON form; ``None`` keeps the
        legacy execution model).  ``faults`` injects the same deterministic
        fault scenario into every cell (a catalog name or the ``--faults``
        JSON form; ``None`` keeps cells fault-free).  ``autoscale`` /
        ``prices`` attach the same scale policy / price trace to every cell
        (catalog names or JSON; ``None`` keeps fleets fixed at catalog rates).
        """
        if scales is None:
            base = base_scale if base_scale is not None else ExperimentScale()
            scales = [replace(base, seed=s) for s in (seeds if seeds is not None else [base.seed])]
        elif seeds is not None:
            raise ValueError("pass either scales or seeds, not both")
        specs = [
            ExperimentSpec(
                cascade=cascade,
                scale=scale,
                systems=tuple(systems),
                trace=trace,
                peak_provision_factor=peak_provision_factor,
                params=tuple(sorted(params.items())),
                fleet=None if fleet is None else tuple(sorted(fleet.items())),
                geo=geo,
                shards=shards,
                resources=resources,
                faults=faults,
                autoscale=autoscale,
                prices=prices,
            )
            for cascade in cascades
            for scale in scales
            for trace in traces
            for params in params_list
            for fleet in fleets
            for geo in geos
        ]
        return cls(specs=tuple(specs))

    @classmethod
    def of(cls, specs: Iterable[ExperimentSpec]) -> "ExperimentGrid":
        """Grid from an explicit spec list."""
        return cls(specs=tuple(specs))
