"""Baseline placement policies the consolidation policy is measured against.

The round-robin family admits VMs by *nominal* (requested) size: a machine
fits a VM when its capacity minus the nominal sizes of everything already
assigned covers the request.  Machines are woken on demand and — except for
the power-save and retirement variants — never put back to standby.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter, itemgetter
from typing import Iterator, Optional

from ..model import (
    PhysicalMachine,
    PowerModel,
    UtilizationWeights,
    utilization_of,
)
from .base import ClusterView, RebalanceAction, SchedulerPolicy

# A machine kind (see ``SingleThresholdPolicy._fleet``).
_Kind = tuple[float, float, float, int, list[int], list[int]]
# A VM's ``view.vm_window_mean``; single_threshold reads it once per VM it scores.
_Mean = Optional[tuple[float, float, float, float]]
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

    def __init__(self, retirement_threshold: int = 10) -> None:
        super().__init__()
        if retirement_threshold < 1:
            raise ValueError("retirement_threshold must be >= 1")
        self.retirement_threshold = retirement_threshold
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
    """

    name = "single_threshold"

    def __init__(
        self,
        threshold: float = 0.75,
        epoch_ticks: int = 5,
        weights: Optional[UtilizationWeights] = None,
    ) -> None:
        super().__init__()
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if epoch_ticks < 1:
            raise ValueError("epoch_ticks must be >= 1")
        self.threshold = threshold
        self.epoch_ticks = epoch_ticks
        self.weights = weights or UtilizationWeights()

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _vm_cpu_abs(vm_id: str, mean: _Mean, view: ClusterView) -> float:
        if mean is not None:
            return mean[0]
        return view.vm_nominal(vm_id).cpu

    @staticmethod
    def _fleet(
        machines: list[PhysicalMachine], model: PowerModel
    ) -> tuple[list[_Kind], list[int]]:
        """The fleet's kinds, and one machine standing for each capacity class.

        Returns ``(kinds, representatives)``.  A kind is the tuple
        ``(cpu capacity, slope, wake cost, class, on ids, off ids)``: the
        slope is the watts one unit of unified utilization adds, the wake
        cost what leaving standby adds, and the class an index into
        ``representatives``, the id of the first machine of each capacity
        object.  The two lists hold the kind's running and standby machines
        in id order (``machines`` comes in id order); the replan moves a
        machine it wakes from the one to the other.
        """
        classes: dict[int, int] = {}  # id(capacity) -> class
        representatives: list[int] = []
        kinds: dict[tuple[int, float], _Kind] = {}
        for pm in machines:
            cls = classes.setdefault(id(pm.capacity), len(representatives))
            if cls == len(representatives):
                representatives.append(pm.id)
            peak = pm.peak_power_watts
            kind = kinds.get((cls, peak))
            if kind is None:
                slope = peak * (1.0 - model.idle_fraction)
                wake = peak * model.idle_fraction - model.standby_watts
                kind = kinds[cls, peak] = (pm.capacity.cpu, slope, wake, cls, [], [])
            kind[4 if pm.is_running else 5].append(pm.id)
        return list(kinds.values()), representatives

    def _footprints(
        self, vm_id: str, mean: _Mean, view: ClusterView, representatives: list[int]
    ) -> list[float]:
        """The VM's unified footprint on each capacity class.

        One machine stands for its class because the view's share of a VM
        on a machine depends on the machine only through its capacity.
        """
        if mean is not None:
            rv_on = view.vm_rv_on
        else:
            rv_on = view.vm_nominal_rv_on
        weights = self.weights.as_tuple()
        return [utilization_of(rv_on(vm_id, pm_id), weights) for pm_id in representatives]

    def _cheapest(
        self,
        vm_cpu: float,
        footprints: list[float],
        plan_cpu: dict[int, float],
        kinds: list[_Kind],
    ) -> Optional[tuple[float, int, Optional[_Kind]]]:
        """The least ``(power increase, machine id, woken kind)`` for a VM, or None.

        Only machines whose planned CPU utilization stays strictly below the
        threshold with the VM added qualify.  A machine planned off also
        pays its wake cost; the third item is its kind when the machine came
        from its kind's off list, and None when it came from an on list.

        Every machine of one kind's on list, or of its off list, adds the
        same increase bit for bit, so the least id that qualifies in a list
        is its first machine that does.  The lists are visited in increasing
        order of increase, and the visit stops at the first list whose
        increase exceeds the best found: no later list can beat it.  Lists
        whose increase equals the best are still visited, so the least id
        wins a tie across kinds, as in a scan of every machine.
        """
        threshold = self.threshold
        lists = []
        for kind in kinds:
            cpu_capacity, slope, wake, cls, on, off = kind
            increase = slope * footprints[cls]
            lists.append((increase, on, cpu_capacity, None))
            lists.append((increase + wake, off, cpu_capacity, kind))
        lists.sort(key=itemgetter(0))
        best = None
        for increase, ids, cpu_capacity, woken in lists:
            if best is not None and increase > best[0]:
                break
            for pm_id in ids:
                if (plan_cpu[pm_id] + vm_cpu) / cpu_capacity < threshold:
                    if best is None or pm_id < best[1]:
                        best = (increase, pm_id, woken)
                    break
        return best

    # -- placement ---------------------------------------------------------

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        machines = view.all_machines()
        kinds, representatives = self._fleet(machines, view.power_model)
        mean = view.vm_window_mean(vm_id)
        best = self._cheapest(
            self._vm_cpu_abs(vm_id, mean, view),
            self._footprints(vm_id, mean, view, representatives),
            {pm.id: view.cpu_used_abs(pm.id) for pm in machines},
            kinds,
        )
        return None if best is None else best[1]

    # -- epoch replanning ----------------------------------------------------

    def rebalance(self, view: ClusterView, tick: int) -> list[RebalanceAction]:
        if tick % self.epoch_ticks != 0:
            return []
        # The whole plan is made before the engine executes its first move, so
        # the view cannot change under the per-pass kinds and footprints.
        machines = view.all_machines()
        kinds, representatives = self._fleet(machines, view.power_model)
        plan_cpu = {pm.id: 0.0 for pm in machines}

        # An in-flight VM stays charged to the machine it is leaving.
        placed: list[tuple[str, int, _Mean]] = []
        for pm in machines:
            for vm_id in pm.hosted_vm_ids:
                mean = view.vm_window_mean(vm_id)
                if view.vm_in_flight(vm_id):
                    plan_cpu[pm.id] += self._vm_cpu_abs(vm_id, mean, view)
                else:
                    placed.append((vm_id, pm.id, mean))

        vm_cpu = {vm_id: self._vm_cpu_abs(vm_id, mean, view) for vm_id, _, mean in placed}
        order = sorted(placed, key=lambda item: (-vm_cpu[item[0]], item[0]))
        moves = []
        for vm_id, current_host, mean in order:
            cpu = vm_cpu[vm_id]
            footprints = self._footprints(vm_id, mean, view, representatives)
            best = self._cheapest(cpu, footprints, plan_cpu, kinds)
            if best is None:
                self._count("replan_stuck")
                target, woken = current_host, None
            else:
                _, target, woken = best
            plan_cpu[target] += cpu
            if woken is not None:
                # The plan turns the machine on: it moves to its kind's on list.
                woken[5].remove(target)
                insort(woken[4], target)
            if target != current_host:
                moves.append(RebalanceAction.migrate(vm_id, current_host, target, reason="replan"))

        # The engine wakes a machine the plan turns on with the first move to it.
        return moves
