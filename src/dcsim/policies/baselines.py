"""Baseline placement policies the consolidation policy is measured against.

The round-robin family admits VMs by *nominal* (requested) size: a machine
fits a VM when its capacity minus the nominal sizes of everything already
assigned covers the request.  Machines are woken on demand and — except for
the power-save and retirement variants — never put back to standby.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Iterator, Optional

from ..model import (
    MachineState,
    PhysicalMachine,
    PowerModel,
    UtilizationWeights,
    checked,
    integer,
    number,
    record,
    shares_of,
    utilization_of,
)
from .base import ClusterView, RebalanceAction, SchedulerPolicy

# A machine kind (see ``SingleThresholdPolicy._fleet``).
_Kind = tuple[float, float, float, int, list[int], list[int]]
_Amounts = tuple[float, float, float, float]  # absolute amounts, in RESOURCES order
_machine_id = attrgetter("id")


def _first_fit(vm_id: str, view: ClusterView, machines: list[PhysicalMachine]) -> Optional[int]:
    """The id of the first of ``machines`` with nominal room for the VM, or None."""
    nominal = view.vm_nominal(vm_id)
    for pm in machines:
        free = view.nominal_free(pm.id)
        if (
            nominal.cpu <= free[0]
            and nominal.mem <= free[1]
            and nominal.disk <= free[2]
            and nominal.bw <= free[3]
        ):
            return pm.id
    return None


class RoundRobinPolicy(SchedulerPolicy):
    """Cycle through the fleet in id order, waking machines as needed."""

    name = "round_robin"

    def __init__(self) -> None:
        super().__init__()
        self._cursor = 0

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        return self._rotate(vm_id, view, view.all_machines())

    def _rotate(
        self, vm_id: str, view: ClusterView, machines: list[PhysicalMachine]
    ) -> Optional[int]:
        """First fit over ``machines`` (in id order) from the cursor round.

        The cursor is the id after the last pick, not a position in
        ``machines``, so a machine leaving the list does not shift it.
        """
        start = bisect_left(machines, self._cursor, key=_machine_id)
        machine_id = _first_fit(vm_id, view, machines[start:] + machines[:start])
        if machine_id is not None:
            self._cursor = machine_id + 1
        return machine_id


class GreedyPolicy(SchedulerPolicy):
    """First fit by machine id, waking machines as needed."""

    name = "greedy"

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        return _first_fit(vm_id, view, view.all_machines())


class PowerSavePolicy(SchedulerPolicy):
    """Greedy over running machines first; parks machines that host nothing."""

    name = "power_save"

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        return _first_fit(vm_id, view, view.running_machines() + view.standby_machines())

    def rebalance(self, view: ClusterView, tick: int) -> Iterator[RebalanceAction]:
        for pm in view.running_machines():
            if not pm.hosted_vm_ids and not view.has_inbound(pm.id):
                yield RebalanceAction.standby_machine(pm.id, reason="idle")


class DynamicRoundRobinPolicy(RoundRobinPolicy):
    """Round robin plus machine retirement.

    A machine that loses a VM while still hosting others stops accepting
    placements.  Once it has been retiring for ``retirement_threshold``
    ticks its remaining VMs are force-migrated (first fit over non-retiring
    machines) and the machine is put on standby as soon as it is empty.
    """

    name = "dynamic_round_robin"

    #: The kind of each constructor parameter, by name.
    parameters = {"retirement_threshold": integer(1)}

    def __init__(self, retirement_threshold: int = 10) -> None:
        super().__init__()
        self.retirement_threshold = checked(
            self.parameters["retirement_threshold"], "retirement_threshold", retirement_threshold
        )
        self._retiring: dict[int, int] = {}

    def _accepting(self, view: ClusterView) -> list[PhysicalMachine]:
        return [pm for pm in view.all_machines() if pm.id not in self._retiring]

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        return self._rotate(vm_id, view, self._accepting(view))

    def notify_departure(self, vm_id: str, machine_id: int, view: ClusterView, tick: int) -> None:
        pm = view.machine(machine_id)
        if pm.hosted_vm_ids and machine_id not in self._retiring:
            self._retiring[machine_id] = tick

    def rebalance(self, view: ClusterView, tick: int) -> Iterator[RebalanceAction]:
        for pm_id in sorted(self._retiring):
            pm = view.machine(pm_id)
            if pm.hosted_vm_ids and tick - self._retiring[pm_id] >= self.retirement_threshold:
                for vm_id in list(pm.hosted_vm_ids):
                    if view.vm_in_flight(vm_id):
                        continue
                    target = _first_fit(vm_id, view, self._accepting(view))
                    if target is None:
                        self._count("retirement_stuck")
                        continue
                    yield RebalanceAction.migrate(vm_id, pm_id, target, reason="retirement")
            if not pm.hosted_vm_ids and not view.has_inbound(pm_id):
                yield RebalanceAction.standby_machine(pm_id, reason="retirement")
                del self._retiring[pm_id]


class SingleThresholdPolicy(SchedulerPolicy):
    """Utilization-sorted best-fit packing under a CPU utilization cap.

    Every ``epoch_ticks`` ticks the policy replans the whole assignment:
    VMs are taken in decreasing order of current CPU demand and each goes
    to the machine whose power draw grows least, subject to the machine's
    planned CPU utilization staying strictly below ``threshold``.  Machines
    are woken when nothing running fits, and are never put back to standby.
    The replan moves VMs freely, with no migration cost in its objective
    (22,124 moves per simulated day on the ``compare_single_threshold``
    preset).

    A machine *kind* is the machines that share one capacity object and one
    peak power; they add equal power for a VM, which is scored once per kind.
    ``allocate`` and the replan both price a VM's placement with ``_place``,
    from its window mean, or its nominal size before it has a sample.
    """

    name = "single_threshold"

    #: The kind of each constructor parameter, by name.
    parameters = {
        "threshold": number(0.0, 1.0, low_open=True),
        "epoch_ticks": integer(1),
        "weights": record(UtilizationWeights, sequence=True),
    }

    def __init__(
        self,
        threshold: float = 0.75,
        epoch_ticks: int = 5,
        weights: UtilizationWeights = UtilizationWeights(),
    ) -> None:
        super().__init__()
        kinds = self.parameters
        self.threshold = checked(kinds["threshold"], "threshold", threshold)
        self.epoch_ticks = checked(kinds["epoch_ticks"], "epoch_ticks", epoch_ticks)
        self.weights = checked(kinds["weights"], "weights", weights)

    # -- helpers -----------------------------------------------------------

    def _fleet(
        self, machines: list[PhysicalMachine], model: PowerModel
    ) -> tuple[list[_Kind], list[_Amounts]]:
        """The fleet's kinds, and each capacity class's capacity as a tuple.

        Returns ``(kinds, capacities)``.  A kind is the tuple
        ``(cpu capacity, slope, wake cost, class, on ids, off ids)``: the
        slope is the watts one unit of unified utilization adds, the wake
        cost what leaving standby adds, and the class an index into
        ``capacities``, one entry per capacity object.  The two lists hold
        the kind's running and standby machines in id order (``machines``
        comes in id order); the replan moves a machine it wakes from the one
        to the other.
        """
        classes: dict[int, int] = {}  # id(capacity) -> class
        capacities: list[_Amounts] = []
        kinds: dict[tuple[int, float], _Kind] = {}  # (id(capacity), peak) -> kind
        running = MachineState.RUNNING
        for pm in machines:
            capacity, peak = pm.capacity, pm.peak_power_watts
            kind = kinds.get((id(capacity), peak))
            if kind is None:
                cls = classes.setdefault(id(capacity), len(capacities))
                if cls == len(capacities):
                    capacities.append(capacity.as_tuple())
                slope = peak * (1.0 - model.idle_fraction)
                wake = peak * model.idle_fraction - model.standby_watts
                kind = kinds[id(capacity), peak] = (capacity.cpu, slope, wake, cls, [], [])
            kind[4 if pm.state is running else 5].append(pm.id)
        return list(kinds.values()), capacities

    def _place(
        self,
        amounts: _Amounts,
        plan_cpu: dict[int, float],
        kinds: list[_Kind],
        capacities: list[_Amounts],
    ) -> Optional[tuple[float, int, Optional[_Kind]]]:
        """The least ``(power increase, machine id, woken kind)`` for a VM, or None.

        The VM's footprint on a capacity class is
        ``utilization_of(shares_of(amounts, cap), weights)``.  Only machines
        whose planned CPU utilization stays strictly below the threshold with
        the VM added qualify.  A machine planned off also pays its wake cost;
        the third item is its kind when the machine came from its kind's off
        list, and None when it came from an on list.  Every machine of one
        list adds the same increase, so each list offers its first machine
        that qualifies.
        """
        weights = self.weights.as_tuple()
        footprints = [utilization_of(shares_of(amounts, cap), weights) for cap in capacities]
        vm_cpu, threshold = amounts[0], self.threshold
        best = None
        for kind in kinds:
            cpu_capacity, slope, wake, cls, on, off = kind
            increase = slope * footprints[cls]
            for cost, ids, woken in ((increase, on, None), (increase + wake, off, kind)):
                for pm_id in ids:
                    if (plan_cpu[pm_id] + vm_cpu) / cpu_capacity < threshold:
                        if best is None or (cost, pm_id) < best[:2]:
                            best = (cost, pm_id, woken)
                        break
        return best

    # -- placement ---------------------------------------------------------

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        machines = view.all_machines()
        kinds, capacities = self._fleet(machines, view.power_model)
        amounts = view.vm_window_mean(vm_id) or view.vm_nominal(vm_id).as_tuple()
        plan_cpu = {pm.id: view.cpu_used_abs(pm.id) for pm in machines}
        best = self._place(amounts, plan_cpu, kinds, capacities)
        return None if best is None else best[1]

    # -- epoch replanning ----------------------------------------------------

    def rebalance(self, view: ClusterView, tick: int) -> list[RebalanceAction]:
        if tick % self.epoch_ticks != 0:
            return []
        # The whole plan is made before the engine executes its first move, so
        # the view cannot change under the per-pass kinds and CPU plan.
        machines = view.all_machines()
        kinds, capacities = self._fleet(machines, view.power_model)
        plan_cpu = {pm.id: 0.0 for pm in machines}

        # An in-flight VM stays charged to the machine it is leaving.
        placed: list[tuple[str, int, _Amounts]] = []
        for pm in machines:
            for vm_id in pm.hosted_vm_ids:
                amounts = view.vm_window_mean(vm_id) or view.vm_nominal(vm_id).as_tuple()
                if view.vm_in_flight(vm_id):
                    plan_cpu[pm.id] += amounts[0]
                else:
                    placed.append((vm_id, pm.id, amounts))

        order = sorted(placed, key=lambda item: (-item[2][0], item[0]))
        moves = []
        for vm_id, current_host, amounts in order:
            best = self._place(amounts, plan_cpu, kinds, capacities)
            if best is None:
                self._count("replan_stuck")
                target, woken = current_host, None
            else:
                _, target, woken = best
            plan_cpu[target] += amounts[0]
            if woken is not None:
                # The plan turns the machine on: it moves to its kind's on list.
                woken[5].remove(target)
                insort(woken[4], target)
            if target != current_host:
                moves.append(RebalanceAction.migrate(vm_id, current_host, target, reason="replan"))

        # The engine wakes a machine the plan turns on with the first move to it.
        return moves
