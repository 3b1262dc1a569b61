"""Discrete-time simulation engine for a fleet of physical machines.

Each tick runs a fixed pipeline:

1. land migrations whose transfer delay has elapsed;
2. process VM departures;
3. offer new arrivals (and earlier rejections) to the policy, waking the
   standby machine it names, if it names one;
4. read each hosted VM's demand and arbitrate each machine's resources —
   when a machine is over-committed every contender receives its
   proportional share and each shorted (vm, resource) pair produces one SLA
   violation;
5. if the policy has breach thresholds, measure each running machine's
   unified utilization and track threshold-breach episodes;
6. run the policy's rebalance pass, executing each emitted action as it is
   produced; a migration that passes its checks wakes a standby target;
7. integrate energy from the power model.

The engine draws no random numbers and iterates every collection in a fixed
order, so a run is a pure function of (config, workload, policy).

A VM's demand at a tick is a step function of its trace: zero before the
first sample, each sample held until the next, the last held after the end.
The engine reads it as ``rows[tick - first]`` (see ``_trace_rows``); a
generated trace has a sample every tick and is read as it is.

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
clears the memo, since it is the only phase that records usage, and seeds it
with the share it has just computed for every running machine no flight
targets: that share sums the same delivered usage in the same hosted order
as ``_used_share`` would.  A machine's entry is dropped whenever its hosted
list changes or a flight to it starts or ends; every such change goes
through ``_set_host`` or ``_set_flight``, which drop it.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Sequence

from .model import (
    MachineCapacity,
    MachineState,
    BreachSide,
    PhysicalMachine,
    PowerModel,
    Shares,
    UtilizationWeights,
    VirtualMachine,
    clamped_sum_of,
    complement_of,
    power_draw,
    shares_of,
    used_shares_of,
    utilization_of,
)
from .policies.base import ActionKind, RebalanceAction, SchedulerPolicy
from .workload import DemandSample, VmRequest

_USAGE_ZERO = (0.0, 0.0, 0.0, 0.0)
_machine_id = attrgetter("id")


class EngineError(ValueError):
    """Raised for invalid simulation configurations or policy decisions."""


@dataclass(frozen=True, slots=True)
class FleetMachine:
    """Static description of one physical machine."""

    capacity: MachineCapacity
    peak_power_watts: float


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Static parameters of a simulation run."""

    fleet: tuple[FleetMachine, ...]
    duration_ticks: int
    tick_length_seconds: float = 60.0
    initial_running_count: int = 1
    power_model: PowerModel = field(default_factory=PowerModel)
    migration_cost_ticks: int = 0
    energy_weights: UtilizationWeights = field(default_factory=UtilizationWeights)

    def __post_init__(self) -> None:
        if not self.fleet:
            raise EngineError("fleet must contain at least one machine")
        if self.duration_ticks < 1:
            raise EngineError("duration_ticks must be >= 1")
        if not math.isfinite(self.tick_length_seconds) or self.tick_length_seconds <= 0:
            raise EngineError("tick_length_seconds must be > 0")
        if not 1 <= self.initial_running_count <= len(self.fleet):
            raise EngineError(
                f"initial_running_count must be in [1, {len(self.fleet)}], "
                f"got {self.initial_running_count}"
            )
        if self.migration_cost_ticks < 0:
            raise EngineError("migration_cost_ticks must be >= 0")


def _column_sums(
    rows: list[tuple[float, float, float, float]],
) -> tuple[float, float, float, float]:
    """Per-resource totals of four-component rows, summed in row order."""
    t0 = t1 = t2 = t3 = 0.0
    for a, b, c, d in rows:
        t0 += a
        t1 += b
        t2 += c
        t3 += d
    return (t0, t1, t2, t3)


def _trace_rows(
    trace: tuple[DemandSample, ...], duration_ticks: int
) -> tuple[int, int, Sequence[DemandSample]]:
    """``(first, last, rows)`` such that ``rows[tick - first]`` is the sample in force.

    ``last`` is the index of the final row, which holds for every later
    tick.  A trace with a sample every tick is returned as it is.  A gapped
    one (only a loaded file has gaps) is expanded, each missing tick holding
    the previous sample, up to ``duration_ticks``.  An empty trace gets
    ``first = duration_ticks``, which no tick reaches.
    """
    if not trace:
        return duration_ticks, -1, trace
    first = trace[0].tick
    if trace[-1].tick - first == len(trace) - 1:
        return first, len(trace) - 1, trace
    rows: list[DemandSample] = []
    for sample in trace:
        if sample.tick >= duration_ticks:
            break
        if rows:
            rows.extend([rows[-1]] * (sample.tick - first - len(rows)))
        rows.append(sample)
    return first, len(rows) - 1, rows


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
    """Aggregated outcome of one run plus per-tick series."""

    total_energy_kwh: float
    sla_violation_count: int
    migration_count: int
    wake_count: int
    standby_count: int
    rejected_requests: int
    dropped_actions: int
    running_machines: list[int]
    total_power_watts: list[float]
    violations_per_tick: list[int]
    per_machine_energy_kwh: dict[int, float]
    policy_stats: dict[str, int]

    @property
    def mean_running_machines(self) -> float:
        if not self.running_machines:
            return 0.0
        return sum(self.running_machines) / len(self.running_machines)

    @property
    def peak_running_machines(self) -> int:
        return max(self.running_machines) if self.running_machines else 0


class Simulation:
    """One mutable simulation run.  Also serves as the policy's ``ClusterView``."""

    def __init__(
        self,
        config: SimulationConfig,
        workload: list[VmRequest],
        policy: SchedulerPolicy,
    ) -> None:
        self.config = config
        self.policy = policy
        self.tick = 0

        ids = [req.vm_id for req in workload]
        if len(set(ids)) != len(ids):
            raise EngineError("workload contains duplicate vm ids")

        # Machines of equal capacity share one ``MachineCapacity`` object.
        shared: dict[MachineCapacity, MachineCapacity] = {}
        self.machines: list[PhysicalMachine] = []
        for index, spec in enumerate(config.fleet):
            state = (
                MachineState.RUNNING
                if index < config.initial_running_count
                else MachineState.STANDBY
            )
            self.machines.append(
                PhysicalMachine(
                    id=index,
                    capacity=shared.setdefault(spec.capacity, spec.capacity),
                    peak_power_watts=spec.peak_power_watts,
                    state=state,
                )
            )
        # The running machines in id order; only ``_wake`` and ``_standby`` change it.
        self._running = [pm for pm in self.machines if pm.state is MachineState.RUNNING]
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
        # Each created VM's ``_trace_rows``.
        self._rows: dict[str, tuple[int, int, Sequence[DemandSample]]] = {}
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

        self.migration_count = 0
        self.wake_count = 0
        self.standby_count = 0
        self.rejected_requests = 0
        self.dropped_actions = 0
        self.sla_violation_count = 0

        self._series_running: list[int] = []
        self._series_power: list[float] = []
        self._series_violations: list[int] = []

    # ------------------------------------------------------------------
    # Cluster view: the ``ClusterView`` members policies read
    # ------------------------------------------------------------------

    @property
    def current_tick(self) -> int:
        return self.tick

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
        return [pm for pm in self.machines if pm.state is MachineState.STANDBY]

    def vm_host(self, vm_id: str) -> Optional[int]:
        vm = self.vms.get(vm_id)
        return vm.host_id if vm is not None else None

    def vm_in_flight(self, vm_id: str) -> bool:
        return vm_id in self._inflight

    def has_inbound(self, machine_id: int) -> bool:
        return bool(self._inbound_ids(machine_id))

    def vm_nominal(self, vm_id: str) -> MachineCapacity:
        return self._requests[vm_id].nominal

    def vm_window_mean(self, vm_id: str) -> Optional[tuple[float, float, float, float]]:
        vm = self.vms.get(vm_id)
        if vm is None or not vm.has_history:
            return None
        return vm.window_mean()

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
        hosted = [self.vms[vm_id] for vm_id in pm.hosted_vm_ids]
        used = used_shares_of(pm, hosted)
        for vm in hosted:
            if not vm.usage_window:
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
        self.wake_count += 1

    def _standby(self, pm: PhysicalMachine) -> None:
        """Park an empty machine; the caller has checked that it is empty."""
        pm.state = MachineState.STANDBY
        del self._running[bisect_left(self._running, pm.id, key=_machine_id)]
        pm.last_used_tick = self.tick
        pm.clear_breach()
        self.standby_count += 1

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
        self.migration_count += 1

    # ------------------------------------------------------------------
    # Tick pipeline
    # ------------------------------------------------------------------

    def run(self) -> SimulationReport:
        for _ in range(self.config.duration_ticks):
            self._step()
        return self._report()

    def _step(self) -> None:
        tick = self.tick
        self._land_migrations(tick)
        self._process_departures(tick)
        self._process_arrivals(tick)
        violations = self._arbitrate(tick)
        self._measure(tick)
        self._rebalance(tick)
        self._integrate_energy(tick, violations)
        self.tick = tick + 1

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
                self.dropped_actions += 1
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
            del self._rows[vm_id]
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
        for vm_id in queue:
            vm = self.vms.get(vm_id)
            if vm is None:
                req = self._requests[vm_id]
                vm = VirtualMachine(
                    id=vm_id,
                    nominal=req.nominal,
                    arrival_tick=req.arrival_tick,
                    departure_tick=req.departure_tick,
                    window_ticks=self._window_ticks,
                )
                self.vms[vm_id] = vm
                self._rows[vm_id] = _trace_rows(req.trace, self.config.duration_ticks)
                if req.departure_tick is not None and req.departure_tick < self.config.duration_ticks:
                    self._departures.setdefault(req.departure_tick, []).append(vm_id)
            machine_id = self.policy.allocate(vm_id, self)
            if machine_id is None:
                self.rejected_requests += 1
                self._pending.append(vm_id)
                continue
            target = self._named_machine(machine_id)
            if target.state is MachineState.STANDBY:
                self._wake(target)
            self._set_host(vm, target)

    # -- step 4: demand + arbitration --------------------------------------

    def _arbitrate(self, tick: int) -> int:
        """Deliver each hosted VM's demand; return the tick's SLA violations.

        A machine whose totals fit its capacity delivers every demand as
        asked; only an over-committed one goes through
        ``proportional_delivery``.  Each machine's share also seeds the
        ``machine_rv`` memo unless a flight targets the machine.
        """
        violations = 0
        shares = self._shares = {}
        used = self._used
        used.clear()
        targets = {target_id for target_id, _ in self._inflight.values()}
        capacities = self._capacities
        vms = self.vms
        all_rows = self._rows
        for pm in self._running:
            pm_id = pm.id
            hosted = pm.hosted_vm_ids
            if not hosted:
                share = _USAGE_ZERO
            else:
                demands = []
                for vm_id in hosted:
                    first, last, rows = all_rows[vm_id]
                    i = tick - first
                    if i < 0:
                        demands.append(_USAGE_ZERO)
                    else:
                        demands.append(rows[i if i < last else last][1:])
                cap = capacities[pm_id]
                totals = _column_sums(demands)
                if (
                    totals[0] > cap[0]
                    or totals[1] > cap[1]
                    or totals[2] > cap[2]
                    or totals[3] > cap[3]
                ):
                    demands, shorted = proportional_delivery(demands, cap)
                    violations += len(shorted)
                    totals = _column_sums(demands)
                for vm_id, usage in zip(hosted, demands):
                    vms[vm_id].record_usage(usage)
                share = shares_of(totals, cap)
            shares[pm_id] = share
            if pm_id not in targets:
                used[pm_id] = share
        self.sla_violation_count += violations
        return violations

    # -- step 5: measurement + breach episodes ------------------------------

    def _measure(self, tick: int) -> None:
        thresholds = self.policy.breach_thresholds
        if thresholds is None:
            return
        u_up, u_down = thresholds
        weights = self.policy.utilization_weights.as_tuple()
        shares = self._shares
        for pm in self._running:
            u = utilization_of(shares[pm.id], weights)
            if u > u_up:
                side = BreachSide.OVER
            elif u < u_down:
                side = BreachSide.UNDER
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
                    self.dropped_actions += 1
            self._deferred_standby = still_waiting

    def _execute_action(self, action: RebalanceAction, tick: int) -> None:
        if action.kind is ActionKind.STANDBY_MACHINE:
            pm = self._named_machine(action.target_id)
            if pm.state is not MachineState.RUNNING:
                self.dropped_actions += 1
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
            self.dropped_actions += 1
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

    def _integrate_energy(self, tick: int, violations: int) -> None:
        model = self.config.power_model
        weights = self.config.energy_weights.as_tuple()
        dt = self.config.tick_length_seconds
        total = 0.0
        running = 0
        for pm in self.machines:
            if pm.state is MachineState.RUNNING:
                running += 1
                u = utilization_of(self._shares.get(pm.id, _USAGE_ZERO), weights)
                watts = power_draw(pm, u, model)
            else:
                watts = model.standby_watts
            self._machine_ws[pm.id] += watts * dt
            total += watts
        self._series_running.append(running)
        self._series_power.append(total)
        self._series_violations.append(violations)

    # ------------------------------------------------------------------

    def _report(self) -> SimulationReport:
        per_machine = {
            pm.id: self._machine_ws[pm.id] / 3.6e6 for pm in self.machines
        }
        total_kwh = sum(self._machine_ws) / 3.6e6
        return SimulationReport(
            total_energy_kwh=total_kwh,
            sla_violation_count=self.sla_violation_count,
            migration_count=self.migration_count,
            wake_count=self.wake_count,
            standby_count=self.standby_count,
            rejected_requests=self.rejected_requests,
            dropped_actions=self.dropped_actions,
            running_machines=self._series_running,
            total_power_watts=self._series_power,
            violations_per_tick=self._series_violations,
            per_machine_energy_kwh=per_machine,
            policy_stats=dict(self.policy.stats),
        )


def run_simulation(
    config: SimulationConfig, workload: list[VmRequest], policy: SchedulerPolicy
) -> SimulationReport:
    """Build and run one simulation; convenience wrapper around Simulation."""
    return Simulation(config, workload, policy).run()
