"""DiffServe core: the query-aware model-scaling serving system.

This package implements the paper's primary contribution:

* the data path — :class:`~repro.core.load_balancer.LoadBalancer`,
  :class:`~repro.core.worker.Worker` (queue + batching + model execution +
  discriminator), and the result collector;
* the control path — :class:`~repro.core.controller.Controller`, the EWMA
  demand estimator, queueing-delay models, and the MILP-based
  :class:`~repro.core.allocator.DiffServeAllocator` (Section 3.3);
* the end-to-end simulation entry point
  :class:`~repro.core.system.ServingSimulation` and the system presets in
  :mod:`repro.core.system`.
"""

from repro.core.allocator import AllocationPlan, ControlContext, DiffServeAllocator
from repro.core.config import (
    DEVICE_CLASSES,
    DeviceClass,
    FleetSpec,
    RoutingMode,
    SystemConfig,
    fleet_from_counts,
    get_device_class,
)
from repro.core.controller import Controller
from repro.core.demand import DemandEstimator
from repro.core.load_balancer import LoadBalancer
from repro.core.query import Query, QueryStage
from repro.core.queueing import QueueingModel, LittlesLawModel, TwoXExecutionModel
from repro.core.repository import ModelRepository
from repro.core.results import SimulationResult
from repro.core.system import ServingSimulation, build_diffserve_system
from repro.core.worker import Worker

__all__ = [
    "Query",
    "QueryStage",
    "SystemConfig",
    "RoutingMode",
    "DeviceClass",
    "FleetSpec",
    "DEVICE_CLASSES",
    "fleet_from_counts",
    "get_device_class",
    "ControlContext",
    "Worker",
    "LoadBalancer",
    "Controller",
    "DemandEstimator",
    "QueueingModel",
    "LittlesLawModel",
    "TwoXExecutionModel",
    "AllocationPlan",
    "DiffServeAllocator",
    "ModelRepository",
    "SimulationResult",
    "ServingSimulation",
    "build_diffserve_system",
]
