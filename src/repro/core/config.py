"""System configuration: device classes, fleets, and cluster-level knobs.

The hardware model is a typed **fleet**: a :class:`FleetSpec` names how many
devices of each :class:`DeviceClass` the cluster has.  Every layer above —
latency profiles, the MILP allocator, the Controller, the runner's cache keys
— indexes by device class, so mixed A100/H100/L4 clusters are first-class.
A fleet is the only way to size a cluster: ``FleetSpec.homogeneous(N)`` is
``N`` devices of the baseline class, and :data:`DEFAULT_FLEET` (the paper's
16 A100s) is the default everywhere a fleet may be omitted.

Fleet validation lives in exactly one place — :meth:`FleetSpec.__post_init__`
(reached from every constructor, including :func:`fleet_from_counts`) — and
fails with one-line errors naming the offending device class, mirroring the
CLI's ``--workload-params`` error style.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from repro.models.profiles import ModelFootprint
from repro.models.zoo import MODEL_FOOTPRINTS, CascadeSpec


class RoutingMode(enum.Enum):
    """How the Load Balancer routes queries to model variants."""

    #: Light model first, defer to heavy on low discriminator confidence
    #: (DiffServe and DiffServe-Static).
    CASCADE = "cascade"

    #: All queries to a single model variant (Clipper-Light / Clipper-Heavy).
    SINGLE = "single"

    #: Content-agnostic random split across hosted variants proportional to
    #: their provisioned capacity (Proteus).
    RANDOM_SPLIT = "random_split"


# --------------------------------------------------------------------------
# Device classes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class DeviceClass:
    """One accelerator type a fleet can be built from.

    Attributes
    ----------
    name:
        Catalog key (``"a100"``, ``"h100"``, ``"l4"``, ...).
    speed_factor:
        Execution-latency multiplier relative to the A100-80GB baseline the
        model zoo is profiled on (lower is faster; H100 < 1 < L4).
    memory_gb:
        Device memory; a model variant can only be hosted when its
        ``memory_gb`` fits.
    reload_factor:
        Multiplier on the configured model-reload latency (slow devices also
        reload models more slowly).
    cost_per_hour:
        Relative cost in A100-hours, used by the equal-cost fleet studies.
    transfer_gbps:
        Weight-transfer bandwidth budget per device (GB/s): the host-to-device
        channel model reloads and result egress share proportionally under the
        multi-resource worker model.  Ignored unless a
        :class:`ResourceConfig` is attached to the system.
    """

    name: str
    speed_factor: float = 1.0
    memory_gb: float = 80.0
    reload_factor: float = 1.0
    cost_per_hour: float = 1.0
    transfer_gbps: float = 16.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("device class name must be non-empty")
        if self.speed_factor <= 0:
            raise ValueError(f"device class {self.name!r}: speed_factor must be positive")
        if self.memory_gb <= 0:
            raise ValueError(f"device class {self.name!r}: memory_gb must be positive")
        if self.reload_factor < 0:
            raise ValueError(f"device class {self.name!r}: reload_factor must be non-negative")
        if self.cost_per_hour <= 0:
            raise ValueError(f"device class {self.name!r}: cost_per_hour must be positive")
        if self.transfer_gbps <= 0:
            raise ValueError(f"device class {self.name!r}: transfer_gbps must be positive")

    def can_host(self, variant) -> bool:
        """Whether ``variant`` (any object with ``memory_gb``) fits in memory."""
        return float(variant.memory_gb) <= self.memory_gb + 1e-9


#: Built-in device-class catalog.  Speed factors are per-image execution
#: multipliers vs. the A100-80GB the zoo's profiles were measured on; costs
#: are relative on-demand prices in A100-hours.
DEVICE_CLASSES: Dict[str, DeviceClass] = {
    "a100": DeviceClass("a100", speed_factor=1.0, memory_gb=80.0, reload_factor=1.0,
                        cost_per_hour=1.0, transfer_gbps=16.0),
    "h100": DeviceClass("h100", speed_factor=0.55, memory_gb=80.0, reload_factor=0.8,
                        cost_per_hour=1.8, transfer_gbps=24.0),
    "a10g": DeviceClass("a10g", speed_factor=1.8, memory_gb=24.0, reload_factor=1.4,
                        cost_per_hour=0.45, transfer_gbps=8.0),
    "l4": DeviceClass("l4", speed_factor=2.4, memory_gb=24.0, reload_factor=1.6,
                      cost_per_hour=0.3, transfer_gbps=6.0),
    "t4": DeviceClass("t4", speed_factor=3.6, memory_gb=16.0, reload_factor=2.0,
                      cost_per_hour=0.15, transfer_gbps=4.0),
}

#: The class :meth:`FleetSpec.homogeneous` fleets (and hand-built workers)
#: default to.
DEFAULT_DEVICE_CLASS = DEVICE_CLASSES["a100"]


def get_device_class(name: str) -> DeviceClass:
    """Look up a device class by catalog name (one-line error on miss)."""
    try:
        return DEVICE_CLASSES[name]
    except KeyError:
        known = ", ".join(sorted(DEVICE_CLASSES))
        raise KeyError(f"unknown device class {name!r}; known classes: {known}") from None


# --------------------------------------------------------------------------
# Fleets
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FleetSpec:
    """A typed cluster: how many devices of each class are available.

    ``devices`` is kept in canonical (name-sorted) order so equal fleets
    compare, hash, and serialise identically — worker construction, plan
    application, and cache keys all iterate it in this one order.

    This class is the *single* fleet validation site: :class:`SystemConfig`,
    :class:`~repro.core.allocator.ControlContext`, the CLI's ``--fleet``
    parser and the runner's grid specs all construct a ``FleetSpec`` and rely
    on the checks here.
    """

    devices: Tuple[Tuple[DeviceClass, int], ...]

    def __post_init__(self) -> None:
        if not self.devices:
            raise ValueError("fleet must contain at least one device class")
        seen = set()
        for device, count in self.devices:
            if not isinstance(device, DeviceClass):
                raise ValueError(f"fleet entry {device!r} is not a DeviceClass")
            if device.name in seen:
                raise ValueError(f"fleet class {device.name!r}: listed more than once")
            seen.add(device.name)
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(
                    f"fleet class {device.name!r}: count must be an integer, got {count!r}"
                )
            if count < 1:
                raise ValueError(f"fleet class {device.name!r}: count must be >= 1, got {count}")
        object.__setattr__(
            self, "devices", tuple(sorted(self.devices, key=lambda dc: dc[0].name))
        )

    # ------------------------------------------------------------ constructors
    @classmethod
    def homogeneous(cls, count: int, device: DeviceClass = DEFAULT_DEVICE_CLASS) -> "FleetSpec":
        """A single-class fleet of ``count`` devices (the pre-fleet model)."""
        return cls(devices=((device, count),))

    # -------------------------------------------------------------- properties
    @property
    def classes(self) -> Tuple[DeviceClass, ...]:
        """Device classes present, in canonical order."""
        return tuple(device for device, _ in self.devices)

    @property
    def total_workers(self) -> int:
        """Total devices across all classes."""
        return sum(count for _, count in self.devices)

    @property
    def total_cost(self) -> float:
        """Aggregate fleet cost in A100-hours per hour."""
        return sum(device.cost_per_hour * count for device, count in self.devices)

    @property
    def is_homogeneous(self) -> bool:
        """Whether the fleet has exactly one device class."""
        return len(self.devices) == 1

    def count_for(self, name: str) -> int:
        """Devices of class ``name`` (0 when absent)."""
        for device, count in self.devices:
            if device.name == name:
                return count
        return 0

    def as_counts(self) -> Dict[str, int]:
        """``{class name: count}`` in canonical order."""
        return {device.name: count for device, count in self.devices}

    def token(self) -> str:
        """Canonical, process-independent string form (cache keys, labels)."""
        return ",".join(f"{device.name}:{count}" for device, count in self.devices)

    def __str__(self) -> str:
        return self.token()


def fleet_from_counts(counts: Mapping[str, int], *, drop_zero: bool = False) -> FleetSpec:
    """Build a fleet from ``{class name: count}`` via the built-in catalog.

    Unknown class names and bad counts fail with a one-line error naming the
    offending key (the validation itself lives in :class:`FleetSpec`).

    ``drop_zero=True`` is the supported spelling of *scale-to-zero*: classes
    with ``count == 0`` are omitted from the fleet (a :class:`FleetSpec`
    never carries empty per-class rows, so the MILP lowering sees only live
    classes).  An all-zero mapping still fails with the one-line empty-fleet
    error.  Without the flag a zero count keeps failing validation — an
    explicit fleet listing a dead class is a spec mistake, not a request.
    """
    if drop_zero:
        for name, count in counts.items():
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(
                    f"fleet class {name!r}: count must be an integer, got {count!r}"
                )
        counts = {name: count for name, count in counts.items() if count != 0}
    if not counts:
        raise ValueError("fleet must contain at least one device class")
    return FleetSpec(
        devices=tuple((get_device_class(name), count) for name, count in counts.items())
    )


#: The paper's testbed (16 A100s, Section 4.1): the cluster every system
#: builder and :class:`SystemConfig` serve on unless given a fleet.
DEFAULT_FLEET = FleetSpec.homogeneous(16)


# --------------------------------------------------------------------------
# Resource model (memory residency + transfer bandwidth + egress)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ResourceConfig:
    """Multi-resource worker model configuration.

    Attaching one of these to a :class:`SystemConfig` switches workers from
    the legacy "compute + scalar reload delay" model to the three-resource
    stage machine (resident → transferring → computing → sending): variant
    weights occupy device memory while resident, reloads move
    ``footprints[variant].weights_gb`` over the device's ``transfer_gbps``
    channel, and result egress shares that channel proportionally.  ``None``
    (the default everywhere) keeps the legacy model bit-for-bit.

    ``footprints`` is canonical (name-sorted) so equal configs compare,
    hash, and tokenise identically — it is validated here and consumed by the
    worker, the allocator, and the runner's cache keys.
    """

    footprints: Tuple[Tuple[str, ModelFootprint], ...]
    #: Whether the MILP objective penalises reloads and pins co-placement
    #: residency.  ``False`` keeps the simulator's resource model but plans
    #: as if reloads were free — the naive arm of the contention study.
    reload_aware: bool = True

    def __post_init__(self) -> None:
        if not self.footprints:
            raise ValueError("resources: footprints must name at least one variant")
        seen = set()
        for name, footprint in self.footprints:
            if not name:
                raise ValueError("resources: footprint variant name must be non-empty")
            if name in seen:
                raise ValueError(f"resources: footprint {name!r} listed more than once")
            seen.add(name)
            if not isinstance(footprint, ModelFootprint):
                raise ValueError(f"resources: footprint {name!r} is not a ModelFootprint")
        object.__setattr__(
            self, "footprints", tuple(sorted(self.footprints, key=lambda nf: nf[0]))
        )

    # ------------------------------------------------------------ constructors
    @classmethod
    def default(cls, *, reload_aware: bool = True) -> "ResourceConfig":
        """The zoo's full footprint catalog."""
        return cls(
            footprints=tuple(sorted(MODEL_FOOTPRINTS.items())), reload_aware=reload_aware
        )

    @classmethod
    def from_weights(
        cls,
        weights: Mapping[str, float],
        *,
        reload_aware: bool = True,
        egress_gb_per_image: Optional[float] = None,
    ) -> "ResourceConfig":
        """Catalog overridden with explicit ``{variant: weights_gb}`` entries.

        Variants absent from ``weights`` keep their catalog footprint; an
        explicit ``egress_gb_per_image`` applies to every entry.
        """
        merged: Dict[str, ModelFootprint] = dict(MODEL_FOOTPRINTS)
        for name, gb in weights.items():
            base = merged.get(name)
            egress = (
                egress_gb_per_image
                if egress_gb_per_image is not None
                else (base.egress_gb_per_image if base is not None else 0.003)
            )
            merged[name] = ModelFootprint(weights_gb=float(gb), egress_gb_per_image=egress)
        if egress_gb_per_image is not None:
            merged = {
                name: ModelFootprint(fp.weights_gb, float(egress_gb_per_image))
                for name, fp in merged.items()
            }
        return cls(footprints=tuple(sorted(merged.items())), reload_aware=reload_aware)

    # ---------------------------------------------------------------- lookups
    def footprint_for(self, name: str) -> ModelFootprint:
        """Footprint of a variant (one-line error on miss)."""
        for vname, footprint in self.footprints:
            if vname == name:
                return footprint
        known = ", ".join(name for name, _ in self.footprints)
        raise KeyError(f"resources: no footprint declared for {name!r}; declared: {known}")

    def has_footprint(self, name: str) -> bool:
        """Whether a footprint is declared for ``name``."""
        return any(vname == name for vname, _ in self.footprints)

    def footprint_or_derived(self, variant) -> ModelFootprint:
        """Declared footprint, or one derived from the variant's ``memory_gb``.

        Baselines may host derived variants (e.g. a re-sampled heavy model)
        that no catalog entry names; deriving weights as 80% of the variant's
        memory requirement keeps the resource model total without forcing
        every synthetic variant into the catalog.
        """
        name = variant.name if hasattr(variant, "name") else str(variant)
        if self.has_footprint(name):
            return self.footprint_for(name)
        return ModelFootprint(
            weights_gb=max(float(variant.memory_gb) * 0.8, 0.1), egress_gb_per_image=0.001
        )

    def validate_fleet(self, fleet: FleetSpec, variants: Iterable) -> None:
        """Check every served variant has a footprint that fits the fleet.

        Called from the single fleet-validation site
        (:meth:`SystemConfig.__post_init__`); fails with one-line errors
        naming the offending variant, mirroring the fleet checks.
        """
        for variant in variants:
            name = variant.name if hasattr(variant, "name") else str(variant)
            footprint = self.footprint_for(name)
            if not any(
                footprint.weights_gb <= device.memory_gb + 1e-9 for device in fleet.classes
            ):
                raise ValueError(
                    f"resources: variant {name!r} ({footprint.weights_gb:g} GB) fits no "
                    f"device class in fleet {fleet.token()!r}"
                )

    def token(self) -> str:
        """Canonical, process-independent string form (cache keys, labels)."""
        parts = ",".join(f"{name}:{fp.token()}" for name, fp in self.footprints)
        return f"aware={int(self.reload_aware)};{parts}"

    def __str__(self) -> str:
        return self.token()


def parse_resources(text: Optional[str]) -> Optional[ResourceConfig]:
    """Parse a ``--resources`` string into a :class:`ResourceConfig`.

    Accepts ``default`` (the built-in footprint catalog, reload-aware), or a
    JSON object mapping variant names to checkpoint sizes in GB, with two
    optional control keys: ``"reload_aware"`` (bool, default true) and
    ``"egress_gb_per_image"`` (number, applied to every listed variant).
    Unlisted variants keep their catalog footprints.  Every failure mode
    raises :class:`ValueError` with a one-line message naming the bad key
    (mirroring ``--fleet``).
    """
    stripped = (text or "").strip()
    if not stripped:
        return None
    if not stripped.startswith(("{", "[")):
        if stripped == "default":
            return ResourceConfig.default()
        if stripped == "oblivious":
            return ResourceConfig.default(reload_aware=False)
        raise ValueError(
            f"--resources must be 'default', 'oblivious' or a JSON object, got {text!r}"
        )
    try:
        decoded = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed JSON for --resources: {exc}") from exc
    if not isinstance(decoded, dict):
        raise ValueError("--resources JSON must be an object of variant: GB pairs")
    reload_aware = decoded.pop("reload_aware", True)
    if not isinstance(reload_aware, bool):
        raise ValueError(f"resources key 'reload_aware' must be a boolean, got {reload_aware!r}")
    egress = decoded.pop("egress_gb_per_image", None)
    if egress is not None and (isinstance(egress, bool) or not isinstance(egress, (int, float))):
        raise ValueError(f"resources key 'egress_gb_per_image' must be a number, got {egress!r}")
    weights: Dict[str, float] = {}
    for key, value in decoded.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or value <= 0:
            raise ValueError(
                f"resources variant {key!r}: weights must be a positive number (GB), "
                f"got {value!r}"
            )
        weights[str(key)] = float(value)
    try:
        return ResourceConfig.from_weights(
            weights,
            reload_aware=reload_aware,
            egress_gb_per_image=None if egress is None else float(egress),
        )
    except (KeyError, ValueError) as exc:
        raise ValueError(str(exc).strip("'\"")) from exc


# --------------------------------------------------------------------------
# System configuration
# --------------------------------------------------------------------------


@dataclass
class SystemConfig:
    """Cluster- and experiment-level configuration.

    Attributes
    ----------
    cascade:
        The light/heavy diffusion model pair being served.
    slo:
        Latency SLO in seconds (defaults to the cascade's paper SLO).
    routing:
        Routing mode of the Load Balancer.
    control_period:
        Controller re-allocation period (seconds).
    over_provision:
        Over-provisioning factor ``lambda`` applied to the estimated demand
        (1.05 by default per Section 3.3).
    seed:
        Root random seed for the simulation.
    fleet:
        The typed device fleet (default :data:`DEFAULT_FLEET`, the paper's
        16 A100s).
    resources:
        Multi-resource worker model (:class:`ResourceConfig`).  ``None``
        keeps the legacy compute + scalar-reload model bit-for-bit.
    """

    cascade: CascadeSpec
    slo: Optional[float] = None
    routing: RoutingMode = RoutingMode.CASCADE
    control_period: float = 5.0
    over_provision: float = 1.05
    seed: int = 0
    fleet: FleetSpec = DEFAULT_FLEET
    resources: Optional[ResourceConfig] = field(default=None)

    def __post_init__(self) -> None:
        # Fleet validation (including worker counts) lives in FleetSpec.
        if self.resources is not None:
            if not isinstance(self.resources, ResourceConfig):
                raise ValueError("resources must be a ResourceConfig or None")
            self.resources.validate_fleet(self.fleet, self.cascade.variants)
        if self.slo is None:
            self.slo = self.cascade.slo
        if self.slo <= 0:
            raise ValueError("slo must be positive")
        if self.control_period <= 0:
            raise ValueError("control_period must be positive")
        if self.over_provision < 1.0:
            raise ValueError("over_provision must be >= 1.0")
