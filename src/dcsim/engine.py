"""Discrete-time simulation engine for a fleet of physical machines.

Each tick runs a fixed pipeline:

1. land migrations whose transfer delay has elapsed;
2. process VM departures;
3. offer new arrivals (and earlier rejections) to the policy, waking the
   standby machine it names, if it names one;
4. sum each running machine's hosted demand and arbitrate its resources —
   when a machine is over-committed every contender receives its
   proportional share, which is kept as the VM's delivered usage at that
   tick, and each shorted (vm, resource) pair produces one SLA violation;
5. if the policy has breach thresholds, measure each running machine's
   unified utilization and track threshold-breach episodes;
6. run the policy's rebalance pass, executing each emitted action as it is
   produced; a migration that passes its checks wakes a standby target;
7. integrate energy from the power model.

The engine draws no random numbers and iterates every collection in a fixed
order, so a run is a pure function of (config, workload, policy).

A VM's demand at a tick is a step function of its trace: zero before the
first sample, each sample held until the next, the last held after the end.
When a VM is created its demand becomes its ``VirtualMachine.columns``,
``(first, cpu, mem, disk, bw)``, with an entry for every tick it can be
hosted, ``[arrival, end)`` with ``end`` the earlier of its departure and the
horizon, each read as ``column[tick - first]`` with no range check (see
``_trace_columns``).  A generated trace has a sample on each of those ticks,
so its ``DemandTrace`` holds its ticks as a ``range``, and its own columns
are read in place.

A hosted VM's delivered usage is its demand, except at a tick its machine
was over-committed: the VM keeps what ``proportional_delivery`` gave it then
as an override for that tick.  A VM is hosted, on a running machine, at every
tick from its placement to its departure, so its usage window is the
delivered usage of the last ``W`` of those ticks up to the last arbitrated
one.  Arbitration records nothing per VM.  ``vm_window_mean`` replays the
ticks since the VM's cursor into its window sums when it is read, in one
loop over list copies of the columns with the overrides written in, running
the recurrence an eagerly kept window runs: add while fewer than ``W``
samples are held, then ``(sum - evicted) + new``.  An override is dropped
once it has left the window, and before a VM takes a new one its sums are
brought up to the tick before, so it holds at most ``W + 1``.

The running machines are kept as a list in id order.  Only ``_wake`` and
``_standby`` change a machine's state, and they update the list, so the
per-tick phases that concern running machines only (arbitration and
measurement) walk it instead of the whole fleet.  Energy walks the whole
fleet, standby machines included, in id order.

A delayed migration is one entry of ``_inflight`` (vm -> target, land
tick), kept in start order; nothing else records it, and only ``_set_flight``
adds or removes an entry.  Every flight takes ``migration_cost_ticks``, so
the flights due at a tick are the ones that started together, and they land
in the order they started: when two land on one machine, the first to start
is checked against the machine first.  A machine's inbound VMs are derived
from the table in id order (``_inbound_ids``), so no sum over them depends
on ``PYTHONHASHSEED``.

Each machine's used share (``machine_rv``) is memoized.  ``_arbitrate``
clears the memo, since it moves every VM's latest delivered usage to a new
tick, and seeds it with the share it has just computed for every running
machine no flight targets: that share sums the same delivered usage in the
same hosted order as ``_used_share`` would.  A machine's entry is dropped
whenever its hosted list changes or a flight to it starts or ends; every
such change goes through ``_set_host`` or ``_set_flight``, which drop it.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .model import (
    POSITIVE,
    BreachSide,
    MachineCapacity,
    MachineState,
    PhysicalMachine,
    PowerModel,
    Shares,
    UtilizationWeights,
    VirtualMachine,
    _column_sums,
    check_fields,
    clamped_sum_of,
    complement_of,
    declare,
    integer,
    record,
    running_power,
    shares_of,
    used_shares_of,
    utilization_of,
)
from .policies.base import ActionKind, RebalanceAction, SchedulerPolicy
from .workload import DemandTrace, VmRequest

_USAGE_ZERO = (0.0, 0.0, 0.0, 0.0)
_machine_id = attrgetter("id")


class EngineError(ValueError):
    """Raised for invalid simulation configurations or policy decisions."""


@dataclass(frozen=True, slots=True)
class FleetMachine:
    """Static description of one physical machine."""

    capacity: MachineCapacity = declare(record(MachineCapacity))
    peak_power_watts: float = declare(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, EngineError)


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Static parameters of a simulation run."""

    fleet: tuple[FleetMachine, ...]
    duration_ticks: int = declare(integer(1))
    tick_length_seconds: float = declare(POSITIVE, 60.0)
    initial_running_count: int = declare(integer(1), 1)
    power_model: PowerModel = declare(record(PowerModel), default_factory=PowerModel)
    migration_cost_ticks: int = declare(integer(0), 0)
    energy_weights: UtilizationWeights = declare(
        record(UtilizationWeights), default_factory=UtilizationWeights
    )

    def __post_init__(self) -> None:
        if not self.fleet:
            raise EngineError("fleet must contain at least one machine")
        check_fields(self, EngineError)
        if self.initial_running_count > len(self.fleet):
            raise EngineError(
                f"initial_running_count must be in [1, {len(self.fleet)}], "
                f"got {self.initial_running_count}"
            )


def _trace_columns(
    trace: DemandTrace, arrival: int, end: int
) -> tuple[int, array, array, array, array]:
    """``(first, cpu, mem, disk, bw)``; each column's ``[tick - first]`` is in force.

    Every tick from ``arrival`` to ``end - 1`` has an entry.  A trace whose
    ticks are a range from ``arrival`` or before through ``end - 1`` (every
    generated trace) gives its own columns.  Any other gives new columns
    over ``[arrival, end)``, expanded once: zero before the first sample,
    each sample held until the next, the last held to ``end``.
    """
    ticks = trace.ticks
    columns = (trace.cpu, trace.mem, trace.disk, trace.bw)
    if isinstance(ticks, range) and ticks.start <= arrival and ticks.stop >= end:
        return (ticks.start, *columns)
    # Index ``k`` of ``[0.0, *column]`` is in force once ``k`` samples have started.
    started = [bisect_right(ticks, tick) for tick in range(arrival, end)]
    return (arrival, *(array("d", map([0.0, *col].__getitem__, started)) for col in columns))


def proportional_delivery(
    demands: list[tuple[float, float, float, float]],
    capacity: tuple[float, float, float, float],
) -> tuple[list[tuple[float, float, float, float]], list[tuple[int, int]]]:
    """Fair-share arbitration of one machine's resources for one tick.

    Per resource: if total demand fits, everyone gets what they asked;
    otherwise each contender receives ``demand * capacity / total``.
    Returns the delivered tuples plus ``(vm_index, resource_index)`` pairs
    for every shorted demand.
    """
    totals = _column_sums(demands)
    factors = [1.0, 1.0, 1.0, 1.0]
    shorted_resources = []
    for r in range(4):
        if totals[r] > capacity[r]:
            factors[r] = capacity[r] / totals[r]
            shorted_resources.append(r)
    if not shorted_resources:
        return list(demands), []
    delivered = []
    shorted = []
    for i, demand in enumerate(demands):
        values = list(demand)
        for r in shorted_resources:
            if demand[r] > 0.0:
                values[r] = demand[r] * factors[r]
                shorted.append((i, r))
        delivered.append((values[0], values[1], values[2], values[3]))
    return delivered, shorted


@dataclass(slots=True)
class SimulationReport:
    """Aggregated outcome of one run plus per-tick series.

    A ``Simulation`` counts into its ``report`` as it runs; the energy fields
    and ``policy_stats`` are filled in when the run ends.
    """

    total_energy_kwh: float = 0.0
    sla_violation_count: int = 0
    migration_count: int = 0
    wake_count: int = 0
    standby_count: int = 0
    rejected_requests: int = 0
    dropped_actions: int = 0
    running_machines: list[int] = field(default_factory=list)
    total_power_watts: list[float] = field(default_factory=list)
    violations_per_tick: list[int] = field(default_factory=list)
    per_machine_energy_kwh: dict[int, float] = field(default_factory=dict)
    policy_stats: dict[str, int] = field(default_factory=dict)

    @property
    def mean_running_machines(self) -> float:
        if not self.running_machines:
            return 0.0
        return sum(self.running_machines) / len(self.running_machines)

    @property
    def peak_running_machines(self) -> int:
        return max(self.running_machines) if self.running_machines else 0


class Simulation:
    """One mutable simulation run.  Also serves as the policy's ``ClusterView``.

    ``current_tick``, ``vm_host`` and ``vm_nominal_rv_on`` are not view members.
    """

    def __init__(
        self,
        config: SimulationConfig,
        workload: list[VmRequest],
        policy: SchedulerPolicy,
    ) -> None:
        self.config = config
        self.policy = policy
        self.current_tick = 0

        ids = [req.vm_id for req in workload]
        if len(set(ids)) != len(ids):
            raise EngineError("workload contains duplicate vm ids")

        # Machines of equal capacity share one ``MachineCapacity`` object.
        shared: dict[MachineCapacity, MachineCapacity] = {}
        running, standby = MachineState.RUNNING, MachineState.STANDBY
        self.machines: list[PhysicalMachine] = []
        for index, spec in enumerate(config.fleet):
            self.machines.append(
                PhysicalMachine(
                    id=index,
                    capacity=shared.setdefault(spec.capacity, spec.capacity),
                    peak_power_watts=spec.peak_power_watts,
                    state=running if index < config.initial_running_count else standby,
                )
            )
        # The running machines in id order; only ``_wake`` and ``_standby`` change it.
        self._running = self.machines[: config.initial_running_count]
        # Each machine's capacity as a tuple, indexed by machine id.
        self._capacities = [pm.capacity.as_tuple() for pm in self.machines]

        self._default_share = policy.default_rv.as_tuple()
        self._window_ticks = max(
            1, math.ceil(policy.usage_window_seconds / config.tick_length_seconds)
        )
        self._requests = {req.vm_id: req for req in workload}
        self._arrivals: dict[int, list[str]] = {}
        for req in sorted(workload, key=lambda r: r.vm_id):
            if req.arrival_tick < config.duration_ticks:
                self._arrivals.setdefault(req.arrival_tick, []).append(req.vm_id)

        self.vms: dict[str, VirtualMachine] = {}
        # The last tick arbitrated: every window and latest usage ends there.
        self._arbitrated = -1
        self._pending: list[str] = []
        self._departures: dict[int, list[str]] = {}

        # Delayed migrations in start order; only ``_set_flight`` changes it.
        self._inflight: dict[str, tuple[int, int]] = {}  # vm -> (target, land tick)
        self._deferred_standby: list[int] = []

        # Each running machine's delivered usage as shares of its capacity.
        self._shares: dict[int, Shares] = {}
        self._machine_ws: list[float] = [0.0] * len(self.machines)

        # Memoized used shares (see the module docstring for invalidation).
        self._used: dict[int, Shares] = {}

        # What the run counts; ``run`` returns it.
        self.report = SimulationReport()

    # ------------------------------------------------------------------
    # Cluster view: the ``ClusterView`` members policies read
    # ------------------------------------------------------------------

    @property
    def power_model(self) -> PowerModel:
        return self.config.power_model

    def all_machines(self) -> list[PhysicalMachine]:
        return self.machines

    def machine(self, machine_id: int) -> PhysicalMachine:
        return self.machines[machine_id]

    def running_machines(self) -> list[PhysicalMachine]:
        return self._running[:]

    def standby_machines(self) -> list[PhysicalMachine]:
        standby = MachineState.STANDBY
        return [pm for pm in self.machines if pm.state is standby]

    def vm_host(self, vm_id: str) -> Optional[int]:
        vm = self.vms.get(vm_id)
        return vm.host_id if vm is not None else None

    def vm_in_flight(self, vm_id: str) -> bool:
        return vm_id in self._inflight

    def has_inbound(self, machine_id: int) -> bool:
        return any(target == machine_id for target, _ in self._inflight.values())

    def vm_nominal(self, vm_id: str) -> MachineCapacity:
        return self._requests[vm_id].nominal

    def vm_window_mean(self, vm_id: str) -> Optional[tuple[float, float, float, float]]:
        """Mean delivered usage over the VM's window, or None before its first sample."""
        vm = self.vms.get(vm_id)
        if vm is None:
            return None
        placed = vm.placed_tick
        through = self._arbitrated
        if placed is None or through < placed:
            return None
        if vm.cursor <= through:
            self._replay(vm, through)
        n = through - placed + 1
        if n > self._window_ticks:
            n = self._window_ticks
        s0, s1, s2, s3 = vm.sums
        return (s0 / n, s1 / n, s2 / n, s3 / n)

    def vm_delivered(self, vm_id: str) -> Optional[tuple[float, float, float, float]]:
        """The VM's delivered usage at the last arbitrated tick, or None if it had none.

        Not a ``ClusterView`` member; ``machine_rv`` and the invariant checks read it.
        """
        vm = self.vms.get(vm_id)
        tick = self._arbitrated
        if vm is None or vm.placed_tick is None or tick < vm.placed_tick:
            return None
        usage = vm.overrides.get(tick)
        if usage is not None:
            return usage
        first, cpu, mem, disk, bw = vm.columns
        i = tick - first
        return (cpu[i], mem[i], disk[i], bw[i])

    def vm_rv_on(self, vm_id: str, machine_id: int) -> Shares:
        """The VM's usage share relative to one machine's capacity.

        Falls back to the policy's assumed default share when the VM has
        no delivered-usage history yet.
        """
        mean = self.vm_window_mean(vm_id)
        if mean is None:
            return self._default_share
        return shares_of(mean, self._capacities[machine_id])

    def vm_nominal_rv_on(self, vm_id: str, machine_id: int) -> Shares:
        nominal = self._requests[vm_id].nominal.as_tuple()
        return shares_of(nominal, self._capacities[machine_id])

    def machine_rv(self, machine_id: int) -> Shares:
        """Used share of a machine as placement logic should see it.

        Hosted VMs contribute their latest delivered usage; VMs placed this
        tick (no samples yet) and VMs inbound through a delayed migration
        contribute their estimated share, so back-to-back placements within
        one tick are accounted against the machine.
        """
        used = self._used.get(machine_id)
        if used is None:
            used = self._used[machine_id] = self._used_share(machine_id)
        return used

    def _used_share(self, machine_id: int) -> Shares:
        """``machine_rv`` computed afresh, without the memo."""
        pm = self.machines[machine_id]
        latest = [self.vm_delivered(vm_id) for vm_id in pm.hosted_vm_ids]
        used = used_shares_of(pm, latest)
        for usage in latest:
            if usage is None:
                used = clamped_sum_of(used, self._default_share)
        for vm_id in self._inbound_ids(machine_id):
            used = clamped_sum_of(used, self.vm_rv_on(vm_id, machine_id))
        return used

    def machine_free(self, machine_id: int) -> Shares:
        """Free share of a machine.  Not a ``ClusterView`` member; no policy calls it."""
        return complement_of(self.machine_rv(machine_id))

    def nominal_free(self, machine_id: int) -> tuple[float, float, float, float]:
        """Capacity minus nominal sizes of hosted plus inbound VMs."""
        pm = self.machines[machine_id]
        free = list(pm.capacity.as_tuple())
        for vm_id in pm.hosted_vm_ids + self._inbound_ids(machine_id):
            nom = self._requests[vm_id].nominal.as_tuple()
            for r in range(4):
                free[r] -= nom[r]
        return (free[0], free[1], free[2], free[3])

    def cpu_used_abs(self, machine_id: int) -> float:
        """Absolute CPU demand attributed to a machine (usage, else nominal)."""
        pm = self.machines[machine_id]
        total = 0.0
        for vm_id in pm.hosted_vm_ids + self._inbound_ids(machine_id):
            mean = self.vm_window_mean(vm_id)
            total += mean[0] if mean is not None else self._requests[vm_id].nominal.cpu
        return total

    # ------------------------------------------------------------------
    # State transitions
    # ------------------------------------------------------------------

    def _wake(self, pm: PhysicalMachine) -> None:
        """Bring a standby machine up; the caller has checked that it is on standby."""
        pm.state = MachineState.RUNNING
        insort(self._running, pm, key=_machine_id)
        self.report.wake_count += 1

    def _standby(self, pm: PhysicalMachine) -> None:
        """Park an empty machine; the caller has checked that it is empty."""
        pm.state = MachineState.STANDBY
        del self._running[bisect_left(self._running, pm.id, key=_machine_id)]
        pm.last_used_tick = self.current_tick
        pm.clear_breach()
        self.report.standby_count += 1

    def _set_host(self, vm: VirtualMachine, target: Optional[PhysicalMachine]) -> None:
        """Take ``vm`` off its host, if any, and put it on ``target``, if given.

        The only place hosted lists change; it drops both machines' memoized
        used shares.
        """
        if vm.host_id is not None:
            self.machines[vm.host_id].remove_vm(vm.id)
            self._used.pop(vm.host_id, None)
            vm.host_id = None
        if target is not None:
            target.add_vm(vm.id)
            vm.host_id = target.id
            self._used.pop(target.id, None)

    def _set_flight(self, vm_id: str, flight: Optional[tuple[int, int]]) -> None:
        """Start ``vm_id``'s flight, ``(target, land tick)``, or end it if None.

        The only place ``_inflight`` changes; it drops the target's memoized
        used share.
        """
        if flight is None:
            flight = self._inflight.pop(vm_id)
        else:
            self._inflight[vm_id] = flight
        self._used.pop(flight[0], None)

    def _inbound_ids(self, machine_id: int) -> list[str]:
        """The VMs flying to a machine, in id order."""
        if not self._inflight:
            return []
        return sorted(vm for vm, (target, _) in self._inflight.items() if target == machine_id)

    def _named_machine(self, machine_id: int) -> PhysicalMachine:
        """The machine a policy decision or action names; it must be in the fleet."""
        if not 0 <= machine_id < len(self.machines):
            raise EngineError(
                f"policy {self.policy.name!r} named machine {machine_id}, "
                f"outside the fleet of {len(self.machines)}"
            )
        return self.machines[machine_id]

    def _move(self, vm: VirtualMachine, target: PhysicalMachine) -> None:
        source = self.machines[vm.host_id]
        self._set_host(vm, target)
        source.clear_breach()
        self.report.migration_count += 1

    # ------------------------------------------------------------------
    # Tick pipeline
    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        for _ in range(self.config.duration_ticks):
            self._step()
        return self._report()

    def _step(self) -> None:
        tick = self.current_tick
        self._land_migrations(tick)
        self._process_departures(tick)
        self._process_arrivals(tick)
        self._arbitrate(tick)
        self._measure(tick)
        self._rebalance(tick)
        self._integrate_energy()
        self.current_tick = tick + 1

    # -- step 1: migration landings -------------------------------------

    def _land_migrations(self, tick: int) -> None:
        due = [
            (vm_id, target_id)
            for vm_id, (target_id, land_tick) in self._inflight.items()
            if land_tick == tick
        ]
        for vm_id, target_id in due:
            self._set_flight(vm_id, None)
            if not self.policy.migration_landing_ok(vm_id, target_id, self):
                self.report.dropped_actions += 1
                continue
            self._move(self.vms[vm_id], self.machines[target_id])

    # -- step 2: departures ----------------------------------------------

    def _process_departures(self, tick: int) -> None:
        for vm_id in self._departures.pop(tick, ()):
            vm = self.vms[vm_id]
            if vm_id in self._inflight:
                self._set_flight(vm_id, None)
            host_id = vm.host_id
            self._set_host(vm, None)
            del self.vms[vm_id]
            if host_id is not None:
                self.policy.notify_departure(vm_id, host_id, self, tick)
            elif vm_id in self._pending:
                self._pending.remove(vm_id)

    # -- step 3: arrivals --------------------------------------------------

    def _process_arrivals(self, tick: int) -> None:
        queue = list(self._pending)
        queue.extend(self._arrivals.pop(tick, ()))
        if not queue:
            return
        self._pending = []
        standby = MachineState.STANDBY
        for vm_id in queue:
            vm = self.vms.get(vm_id)
            if vm is None:
                req = self._requests[vm_id]
                end = self.config.duration_ticks
                if req.departure_tick is not None and req.departure_tick < end:
                    end = req.departure_tick
                    self._departures.setdefault(end, []).append(vm_id)
                vm = self.vms[vm_id] = VirtualMachine(vm_id, _trace_columns(req.trace, tick, end))
            machine_id = self.policy.allocate(vm_id, self)
            if machine_id is None:
                self.report.rejected_requests += 1
                self._pending.append(vm_id)
                continue
            target = self._named_machine(machine_id)
            if target.state is standby:
                self._wake(target)
            self._set_host(vm, target)
            vm.placed_tick = vm.cursor = tick

    # -- step 4: demand + arbitration --------------------------------------

    def _arbitrate(self, tick: int) -> None:
        """Deliver each hosted VM's demand and count the tick's SLA violations.

        Each machine's totals are summed in hosted order from the trace
        columns, as ``_column_sums`` sums them.  A machine whose totals fit
        its capacity delivers every demand as asked, and nothing is recorded
        per VM; only an over-committed one goes through ``_over_committed``.
        Each machine's share also seeds the ``machine_rv`` memo unless a
        flight targets the machine.
        """
        violations = 0
        shares = self._shares = {}
        used = self._used
        used.clear()
        self._arbitrated = tick
        targets = {target_id for target_id, _ in self._inflight.values()}
        capacities = self._capacities
        vms = self.vms
        for pm in self._running:
            pm_id = pm.id
            hosted = pm.hosted_vm_ids
            if not hosted:
                share = _USAGE_ZERO
            else:
                # A hosted VM's columns cover the tick.  A zero padded before
                # a late first sample adds +0.0, which leaves every float but
                # -0.0 as it is, and a sum from +0.0 is never -0.0: the totals
                # are bit for bit those of the samples alone.
                t0 = t1 = t2 = t3 = 0.0
                for vm_id in hosted:
                    first, cpu, mem, disk, bw = vms[vm_id].columns
                    i = tick - first
                    t0 += cpu[i]
                    t1 += mem[i]
                    t2 += disk[i]
                    t3 += bw[i]
                cap = capacities[pm_id]
                if t0 > cap[0] or t1 > cap[1] or t2 > cap[2] or t3 > cap[3]:
                    (t0, t1, t2, t3), shorted = self._over_committed(hosted, tick, cap)
                    violations += shorted
                share = shares_of((t0, t1, t2, t3), cap)
            shares[pm_id] = share
            if pm_id not in targets:
                used[pm_id] = share
        report = self.report
        report.sla_violation_count += violations
        report.violations_per_tick.append(violations)

    def _over_committed(
        self, hosted: list[str], tick: int, cap: tuple[float, float, float, float]
    ) -> tuple[tuple[float, float, float, float], int]:
        """Arbitrate an over-committed machine; return its delivered totals and shorted count.

        Each VM's delivered usage becomes its override at ``tick``, once its
        window sums are brought up to the tick before.  Demands are read from
        the columns: only this writes an override, once per machine per tick.
        """
        vms = [self.vms[vm_id] for vm_id in hosted]
        demands = [
            (cpu[tick - first], mem[tick - first], disk[tick - first], bw[tick - first])
            for first, cpu, mem, disk, bw in [vm.columns for vm in vms]
        ]
        delivered, shorted = proportional_delivery(demands, cap)
        for vm, usage in zip(vms, delivered):
            if vm.cursor < tick:
                self._replay(vm, tick - 1)
            vm.overrides[tick] = usage
        return _column_sums(delivered), len(shorted)

    def _replay(self, vm: VirtualMachine, through: int) -> None:
        """Fold the VM's delivered usage at ticks ``cursor`` .. ``through`` into its sums.

        Each tick adds its sample while fewer than ``W`` are held, and from
        then on subtracts the sample ``W`` ticks back and adds the new one.
        The samples are read from list copies of the columns, from the first
        one the window can evict (never before placement) through
        ``through``, with the VM's overrides written over their ticks; an
        override stays only while it is inside the window.
        """
        first, cpu, mem, disk, bw = vm.columns
        window = self._window_ticks
        start = vm.cursor
        placed = vm.placed_tick
        base = start - window
        if base < placed:
            base = placed
        # A list item reads faster than an array item.
        lo = base - first
        hi = through + 1 - first
        c = cpu[lo:hi].tolist()
        m = mem[lo:hi].tolist()
        d = disk[lo:hi].tolist()
        b = bw[lo:hi].tolist()
        overrides = vm.overrides
        if overrides:
            # Every override is at a tick from ``base`` through ``through``.
            for t, usage in overrides.items():
                i = t - base
                c[i], m[i], d[i], b[i] = usage
            for old in [t for t in overrides if t <= through - window]:
                del overrides[old]
        # Index ``j`` of the copies is tick ``base + j``; from ``full`` on the window is full.
        k = start - base
        full = placed + window - base
        if full < k:
            full = k
        elif full > len(c):
            full = len(c)
        s0, s1, s2, s3 = vm.sums
        for j in range(k, full):
            s0 += c[j]
            s1 += m[j]
            s2 += d[j]
            s3 += b[j]
        for j in range(full, len(c)):
            i = j - window
            s0 = (s0 - c[i]) + c[j]
            s1 = (s1 - m[i]) + m[j]
            s2 = (s2 - d[i]) + d[j]
            s3 = (s3 - b[i]) + b[j]
        vm.sums = (s0, s1, s2, s3)
        vm.cursor = through + 1

    # -- step 5: measurement + breach episodes ------------------------------

    def _measure(self, tick: int) -> None:
        thresholds = self.policy.breach_thresholds
        if thresholds is None:
            return
        u_up, u_down = thresholds
        weights = self.policy.utilization_weights.as_tuple()
        shares = self._shares
        over, under = BreachSide.OVER, BreachSide.UNDER
        for pm in self._running:
            u = utilization_of(shares[pm.id], weights)
            if u > u_up:
                side = over
            elif u < u_down:
                side = under
            else:
                side = None
            if side is not pm.breach_side:
                pm.breach_side = side
                pm.threshold_breach_since = tick if side is not None else None

    # -- step 6: rebalance ---------------------------------------------------

    def _rebalance(self, tick: int) -> None:
        for action in self.policy.rebalance(self, tick):
            self._execute_action(action, tick)
        if self._deferred_standby:
            still_waiting = []
            for pm_id in self._deferred_standby:
                pm = self.machines[pm_id]
                if not pm.hosted_vm_ids and not self.has_inbound(pm_id):
                    self._standby(pm)
                elif all(vm_id in self._inflight for vm_id in pm.hosted_vm_ids):
                    still_waiting.append(pm_id)
                else:
                    self.report.dropped_actions += 1
            self._deferred_standby = still_waiting

    def _execute_action(self, action: RebalanceAction, tick: int) -> None:
        if action.kind is ActionKind.STANDBY_MACHINE:
            pm = self._named_machine(action.target_id)
            if pm.state is not MachineState.RUNNING:
                self.report.dropped_actions += 1
                return
            if pm.id not in self._deferred_standby:
                self._deferred_standby.append(pm.id)
            return

        vm = self.vms.get(action.vm_id)
        target = self._named_machine(action.target_id)
        if (
            vm is None
            or vm.host_id != action.source_id
            or action.vm_id in self._inflight
        ):
            self.report.dropped_actions += 1
            return
        if target.state is MachineState.STANDBY:
            self._wake(target)

        cost = self.config.migration_cost_ticks
        if cost == 0:
            self._move(vm, target)
            return
        self._set_flight(vm.id, (target.id, tick + cost))
        self.machines[vm.host_id].clear_breach()

    # -- step 7: energy -------------------------------------------------------

    def _integrate_energy(self) -> None:
        model = self.config.power_model
        standby_watts = model.standby_watts
        weights = self.config.energy_weights.as_tuple()
        dt = self.config.tick_length_seconds
        shares = self._shares
        machine_ws = self._machine_ws
        total = 0.0
        running_state = MachineState.RUNNING
        for pm_id, pm in enumerate(self.machines):  # an id is its index
            if pm.state is running_state:
                u = utilization_of(shares.get(pm_id, _USAGE_ZERO), weights)
                watts = running_power(pm.peak_power_watts, u, model)
            else:
                watts = standby_watts
            machine_ws[pm_id] += watts * dt
            total += watts
        self.report.running_machines.append(len(self._running))
        self.report.total_power_watts.append(total)

    # ------------------------------------------------------------------

    def _report(self) -> SimulationReport:
        """Fill in the report's energy and policy fields and return it."""
        report = self.report
        # Left to right: ``sum`` of floats is compensated from CPython 3.12 on.
        total_ws = 0.0
        for ws in self._machine_ws:
            total_ws += ws
        report.total_energy_kwh = total_ws / 3.6e6
        report.per_machine_energy_kwh = {
            pm.id: self._machine_ws[pm.id] / 3.6e6 for pm in self.machines
        }
        report.policy_stats = dict(self.policy.stats)
        return report


def run_simulation(
    config: SimulationConfig, workload: list[VmRequest], policy: SchedulerPolicy
) -> SimulationReport:
    """Build and run one simulation; convenience wrapper around Simulation."""
    return Simulation(config, workload, policy).run()
