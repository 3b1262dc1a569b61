"""A hand-rolled cluster view stub for exercising policies in isolation."""

from __future__ import annotations

from typing import Optional

from dcsim import policies
from dcsim.model import (
    DEFAULT_RV,
    integer,
    MachineCapacity,
    MachineState,
    PhysicalMachine,
    PowerModel,
    ResourceVector,
    shares_of,
)
from dcsim.policies.base import SchedulerPolicy

CAP = MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0)


class FakeView:
    """Minimal stand-in for the engine's ``ClusterView``.

    Machine used shares, per-VM resource vectors, nominal sizes and window
    means are all set directly by the test; the stub does no bookkeeping of
    its own beyond reading the ``PhysicalMachine`` objects it was given.
    Tests set shares as ``ResourceVector``s; the view returns them as plain
    tuples, as the engine does.
    """

    def __init__(self, machines, *, tick=0, power_model=None):
        self.machines = {pm.id: pm for pm in machines}
        self.tick = tick
        self._power_model = power_model or PowerModel()
        self.vm_rvs: dict[str, ResourceVector] = {}
        self.machine_rvs: dict[int, ResourceVector] = {}
        self.nominals: dict[str, MachineCapacity] = {}
        self.window_means: dict[str, tuple] = {}
        self.in_flight: set[str] = set()
        self.inbound: set[int] = set()
        self.free_overrides: dict[int, tuple] = {}
        self.cpu_abs: dict[int, float] = {}

    # -- ClusterView -------------------------------------------------------

    @property
    def current_tick(self):
        return self.tick

    @property
    def power_model(self):
        return self._power_model

    def all_machines(self):
        return [self.machines[i] for i in sorted(self.machines)]

    def machine(self, machine_id):
        return self.machines[machine_id]

    def running_machines(self):
        return [pm for pm in self.all_machines() if pm.state is MachineState.RUNNING]

    def standby_machines(self):
        return [pm for pm in self.all_machines() if pm.state is MachineState.STANDBY]

    def vm_host(self, vm_id) -> Optional[int]:
        for pm in self.all_machines():
            if vm_id in pm.hosted_vm_ids:
                return pm.id
        return None

    def vm_in_flight(self, vm_id):
        return vm_id in self.in_flight

    def has_inbound(self, machine_id):
        return machine_id in self.inbound

    def vm_nominal(self, vm_id):
        return self.nominals.get(vm_id, MachineCapacity(1000, 2048, 250, 250))

    def vm_window_mean(self, vm_id):
        return self.window_means.get(vm_id)

    def vm_rv_on(self, vm_id, machine_id):
        return self.vm_rvs.get(vm_id, DEFAULT_RV).as_tuple()

    def vm_nominal_rv_on(self, vm_id, machine_id):
        nominal = self.vm_nominal(vm_id).as_tuple()
        return shares_of(nominal, self.machines[machine_id].capacity.as_tuple())

    def machine_rv(self, machine_id):
        rv = self.machine_rvs.get(machine_id)
        return rv.as_tuple() if rv is not None else (0.0, 0.0, 0.0, 0.0)

    def nominal_free(self, machine_id):
        if machine_id in self.free_overrides:
            return self.free_overrides[machine_id]
        return self.machines[machine_id].capacity.as_tuple()

    def cpu_used_abs(self, machine_id):
        return self.cpu_abs.get(machine_id, 0.0)


def make_machine(machine_id, *, state=MachineState.RUNNING, last_used=0, cap=CAP, peak=200.0):
    return PhysicalMachine(
        id=machine_id,
        capacity=cap,
        peak_power_watts=peak,
        state=state,
        last_used_tick=last_used,
    )


def allocation(policy, vm_id, view):
    """``(machine id, that machine's state)`` for ``policy.allocate``, or None for a rejection."""
    machine_id = policy.allocate(vm_id, view)
    if machine_id is None:
        return None
    return machine_id, view.machine(machine_id).state


class FixedPlacer(SchedulerPolicy):
    """Places every VM on one fixed machine id.

    Pointed at an id outside the fleet it is a faulty policy: the engine
    raises ``EngineError`` on its first placement.  Importing this module
    registers it as ``fixed_placer``.
    """

    name = "fixed_placer"

    def __init__(self, machine=0):
        super().__init__()
        self.machine = machine

    def allocate(self, vm_id, view):
        return self.machine


class _FakePolicyId(str):
    """A policy id whose unpickling imports this module.

    Sweep and compare workers build their policy from the spec they are
    sent.  A worker started by ``spawn`` or ``forkserver`` has imported no
    test module, so the id's class brings this module, and with it the
    registry entry below, into the worker.
    """


def fixed_placer_spec(machine):
    """A policy spec for ``FixedPlacer`` that any pool worker can build."""
    return {"id": _FakePolicyId(FixedPlacer.name), "machine": machine}


policies._REGISTRY.setdefault(
    FixedPlacer.name, ({"machine": integer(0)}, lambda params: FixedPlacer(**params))
)


class PickleCountingList(list):
    """A list that counts in ``pickles`` how often it has been pickled."""

    def __init__(self, items=()):
        super().__init__(items)
        self.pickles = 0

    def __reduce_ex__(self, protocol):
        self.pickles += 1
        return super().__reduce_ex__(protocol)
