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
    PhysicalMachine,
    PowerModel,
    ResourceVector,
    UtilizationWeights,
    VirtualMachine,
    used_shares_of,
)
from .policies import (
    PolicyConfig,
    RebalanceAction,
    SchedulerPolicy,
    SimilarityMethod,
    SimilarityPolicy,
    build_policy,
)
from .workload import (
    DemandSample,
    DemandTrace,
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
    "DemandTrace",
    "FleetMachine",
    "MachineCapacity",
    "MachineState",
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
    "generate_workload",
    "load_trace_files",
    "proportional_delivery",
    "run_simulation",
    "save_trace_files",
    "used_shares_of",
    "__version__",
]
