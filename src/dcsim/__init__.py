"""dcsim: a discrete-time data-center simulator with pluggable VM schedulers.

The package models a fleet of heterogeneous physical machines serving a
stream of VM requests with per-tick demand traces.  Placement policies
range from round-robin baselines to a consolidation policy that scores
machines by resource-shape similarity and rebalances around utilization
thresholds; the engine measures energy, SLA violations and migration churn
so policies can be compared on identical inputs.
"""

from .engine import (
    FleetMachine,
    Simulation,
    SimulationConfig,
    SimulationReport,
    proportional_delivery,
    run_simulation,
)
from .model import (
    DEFAULT_RV,
    BreachSide,
    MachineCapacity,
    MachineState,
    NoHistoryError,
    PhysicalMachine,
    PowerModel,
    ResourceVector,
    UtilizationWeights,
    VirtualMachine,
    power_draw,
    rescale_rv,
    unified_utilization,
    used_shares_of,
)
from .policies import (
    PolicyConfig,
    RebalanceAction,
    SchedulerPolicy,
    SimilarityMethod,
    SimilarityPolicy,
    build_policy,
    cosine_similarity,
)
from .workload import (
    DemandSample,
    VmRequest,
    WorkloadProfile,
    WorkloadSpec,
    generate_workload,
    load_trace_files,
    save_trace_files,
)

__version__ = "0.1.0"

__all__ = [
    "BreachSide",
    "DEFAULT_RV",
    "DemandSample",
    "FleetMachine",
    "MachineCapacity",
    "MachineState",
    "NoHistoryError",
    "PhysicalMachine",
    "PolicyConfig",
    "PowerModel",
    "RebalanceAction",
    "ResourceVector",
    "SchedulerPolicy",
    "SimilarityMethod",
    "SimilarityPolicy",
    "Simulation",
    "SimulationConfig",
    "SimulationReport",
    "UtilizationWeights",
    "VirtualMachine",
    "VmRequest",
    "WorkloadProfile",
    "WorkloadSpec",
    "build_policy",
    "cosine_similarity",
    "generate_workload",
    "load_trace_files",
    "power_draw",
    "proportional_delivery",
    "rescale_rv",
    "run_simulation",
    "save_trace_files",
    "unified_utilization",
    "used_shares_of",
    "__version__",
]
