"""Scheduler policy interface and the rebalance actions policies emit.

Policies are pure deciders: they inspect a cluster view and name machines;
the simulation engine owns all state changes.  ``allocate`` returns a
machine id, or None to reject.  A policy never wakes a machine itself: the
engine wakes a standby machine that a placement or a migration names.
``rebalance`` may be a generator — the engine executes each yielded action
before resuming it, so a policy always plans against the cluster state its
earlier actions produced.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Protocol, runtime_checkable

from ..model import (
    DEFAULT_RV,
    MachineCapacity,
    PhysicalMachine,
    PowerModel,
    ResourceVector,
    Shares,
    UtilizationWeights,
)


@runtime_checkable
class ClusterView(Protocol):
    """What a policy may read of the cluster; the engine's ``Simulation`` is one.

    Policies treat every member as read-only and change state only through
    the machine ids and actions they return.

    Shares of a machine's capacity come as plain ``Shares`` tuples in
    ``RESOURCES`` order, each component in [0, 1]; the view does not wrap
    them in ``ResourceVector``.

    ``vm_rv_on`` and ``vm_nominal_rv_on`` depend on the machine only through
    its capacity, and the engine gives all machines of equal capacity one
    shared ``MachineCapacity`` object, so a policy may key per-capacity work,
    such as a VM's share, by ``id(pm.capacity)`` within one call.  The
    sharing is an efficiency contract only: a view whose equal capacities are
    separate objects costs such a policy extra lookups, never a different
    decision.

    ``machine_rv`` and ``vm_rv_on`` return the same value until the engine
    arbitrates a new tick or changes the VMs that machine hosts or that fly
    to it; the engine memoizes ``machine_rv`` on that basis.  The identity of a
    ``machine_rv`` result is a hint for caching only: a policy may reuse what
    it derived from a tuple while the view returns that same object, but a
    new object, equal or not, must be treated as a new value.

    ``running_machines`` returns a fresh list of the running machines in id
    order; the caller may change the list.
    """

    @property
    def current_tick(self) -> int: ...
    @property
    def power_model(self) -> PowerModel: ...

    def all_machines(self) -> list[PhysicalMachine]: ...
    def machine(self, machine_id: int) -> PhysicalMachine: ...
    def running_machines(self) -> list[PhysicalMachine]: ...
    def standby_machines(self) -> list[PhysicalMachine]: ...
    def vm_host(self, vm_id: str) -> Optional[int]: ...
    def vm_in_flight(self, vm_id: str) -> bool: ...
    def has_inbound(self, machine_id: int) -> bool: ...
    def vm_nominal(self, vm_id: str) -> MachineCapacity: ...
    def vm_window_mean(self, vm_id: str) -> Optional[tuple[float, float, float, float]]: ...
    def vm_rv_on(self, vm_id: str, machine_id: int) -> Shares: ...
    def vm_nominal_rv_on(self, vm_id: str, machine_id: int) -> Shares: ...
    def machine_rv(self, machine_id: int) -> Shares: ...
    def nominal_free(self, machine_id: int) -> tuple[float, float, float, float]: ...
    def cpu_used_abs(self, machine_id: int) -> float: ...


class ActionKind(Enum):
    MIGRATE = "migrate"
    STANDBY_MACHINE = "standby-machine"


@dataclass(frozen=True, slots=True)
class RebalanceAction:
    """One state change requested by a policy's rebalance pass."""

    kind: ActionKind
    vm_id: Optional[str] = None
    source_id: Optional[int] = None
    target_id: Optional[int] = None
    reason: str = ""

    def __post_init__(self) -> None:
        if self.kind is ActionKind.STANDBY_MACHINE:
            if self.target_id is None or self.vm_id is not None:
                raise ValueError("standby action names a machine and no VM")
        else:
            if self.vm_id is None or self.source_id is None or self.target_id is None:
                raise ValueError(f"{self.kind.value} requires vm, source and target")
            if self.source_id == self.target_id:
                raise ValueError("migration source and target must differ")

    @classmethod
    def migrate(cls, vm_id: str, source_id: int, target_id: int, reason: str = "") -> "RebalanceAction":
        return cls(ActionKind.MIGRATE, vm_id, source_id, target_id, reason)

    @classmethod
    def standby_machine(cls, machine_id: int, reason: str = "") -> "RebalanceAction":
        return cls(ActionKind.STANDBY_MACHINE, target_id=machine_id, reason=reason)


class SchedulerPolicy:
    """Base class for placement policies.

    Subclasses must implement :meth:`allocate`; the remaining hooks have
    neutral defaults so simple policies stay simple.
    """

    name = "base"

    #: Length in seconds of the usage observation window behind VM resource
    #: vectors.  The engine sizes per-VM windows from this.
    usage_window_seconds: float = 300.0

    #: Assumed share for VMs without usage history; the engine reads it once.
    default_rv: ResourceVector = DEFAULT_RV

    #: Weights of the utilization the engine measures against ``breach_thresholds``.
    utilization_weights: UtilizationWeights = UtilizationWeights()

    def __init__(self) -> None:
        self.stats: dict[str, int] = {}

    @property
    def breach_thresholds(self) -> Optional[tuple[float, float]]:
        """``(u_up, u_down)`` if the policy reacts to utilization breaches."""
        return None

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        """The machine to host ``vm_id``, standby or running, or None to reject it."""
        raise NotImplementedError

    def rebalance(self, view: ClusterView, tick: int) -> Iterable[RebalanceAction]:
        return ()

    def notify_departure(self, vm_id: str, machine_id: int, view: ClusterView, tick: int) -> None:
        """Called by the engine when a VM departs while hosted."""

    def migration_landing_ok(self, vm_id: str, machine_id: int, view: ClusterView) -> bool:
        """Re-validate a delayed migration at landing time."""
        return True

    def _count(self, key: str) -> None:
        self.stats[key] = self.stats.get(key, 0) + 1
