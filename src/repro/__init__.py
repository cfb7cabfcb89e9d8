"""DiffServe reproduction: query-aware model scaling for text-to-image diffusion serving.

The package is organised as:

* :mod:`repro.simulator` — discrete-event simulation substrate.
* :mod:`repro.models` — synthetic diffusion model variants, datasets and
  quality model.
* :mod:`repro.metrics` — FID, SLO and Pareto utilities.
* :mod:`repro.discriminators` — trainable discriminators and the baselines
  they are compared against.
* :mod:`repro.milp` — from-scratch MILP solver (branch-and-bound + exhaustive).
* :mod:`repro.core` — the DiffServe serving system (workers, load balancer,
  controller, MILP resource allocator).
* :mod:`repro.baselines` — Clipper, Proteus and DiffServe-Static.
* :mod:`repro.traces` — rate curves and concrete arrival traces.
* :mod:`repro.workloads` — the arrival-process scenario engine (Poisson,
  MMPP, diurnal, flash crowd, trace replay) behind one ``ArrivalProcess`` API.
* :mod:`repro.experiments` — one runner per paper figure/table.

Quickstart::

    from repro import FleetSpec, build_diffserve_system
    from repro.workloads import make_workload

    system = build_diffserve_system("sdturbo", fleet=FleetSpec.homogeneous(16))
    workload = make_workload("mmpp", duration=120.0, qps=16.0)
    result = system.run(workload)  # sampled from the simulator's own streams
    print(result.summary())
"""

from repro.core.config import DEVICE_CLASSES, DeviceClass, FleetSpec, fleet_from_counts
from repro.core.system import ServingSimulation, build_diffserve_system
from repro.models.zoo import CASCADES, MODEL_ZOO, get_cascade, get_variant

__version__ = "0.1.0"

__all__ = [
    "ServingSimulation",
    "build_diffserve_system",
    "DeviceClass",
    "FleetSpec",
    "DEVICE_CLASSES",
    "fleet_from_counts",
    "MODEL_ZOO",
    "CASCADES",
    "get_variant",
    "get_cascade",
    "__version__",
]
