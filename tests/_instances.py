"""Randomized small-instance generator plus an invariant-checked simulation.

``run_checked_instance(seed)`` builds a random fleet, workload and policy,
then steps the simulation tick by tick, asserting structural invariants and
cross-checking arbitration, demand lookup and energy accounting against
independent brute-force implementations after every tick.  With
``sparse=True`` the generated traces are first thinned by ``thin_workload``,
so the demand lookup also meets gaps, late first and early last samples, and
empty traces; ``delay_arrivals`` moves arrivals later, so traces begin
before them.  The engine's kept running list and the used shares that
arbitration seeds into its ``machine_rv`` memo are checked against
recomputations as well.
"""

from __future__ import annotations

import dataclasses
import random
from bisect import bisect_right

from _oracles import fresh_machine_rv
from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import MachineCapacity, MachineState, PowerModel
from dcsim.policies import build_policy
from dcsim.workload import WorkloadProfile, WorkloadSpec, generate_workload

_CAPACITY_TEMPLATES = [
    (4000.0, 8192.0, 1000.0, 1000.0),
    (2000.0, 4096.0, 500.0, 500.0),
    (8000.0, 16384.0, 2000.0, 2000.0),
    (4000.0, 4096.0, 2000.0, 500.0),
]

_PROFILES = [
    WorkloadProfile.STEADY,
    WorkloadProfile.DIURNAL,
    WorkloadProfile.SPIKY,
    WorkloadProfile.MIXED_INTENSIVE,
]


#: The policy kinds ``make_instance`` draws from; similarity is drawn twice as often.
POLICY_KINDS = [
    "similarity",
    "similarity",
    "recommended",
    "round_robin",
    "greedy",
    "power_save",
    "dynamic_round_robin",
    "single_threshold",
]


def _random_policy_spec(rng: random.Random, policy_id: str | None = None) -> dict:
    kind = policy_id or rng.choice(POLICY_KINDS)
    if kind == "similarity":
        u_up = round(rng.uniform(0.35, 0.95), 2)
        u_down = round(rng.uniform(0.0, u_up - 0.2), 2)
        return {
            "id": "similarity",
            "u_up": u_up,
            "u_down": u_down,
            "buffer": round(rng.uniform(0.0, u_up / 2), 2),
            "similarity_method": rng.choice(["dissimilar", "free-fit"]),
            "similarity_threshold": round(rng.uniform(0.0, 1.0), 2),
            "consistency_ticks": rng.randint(1, 4),
        }
    if kind == "dynamic_round_robin":
        return {"id": kind, "retirement_threshold": rng.randint(1, 8)}
    if kind == "single_threshold":
        return {
            "id": kind,
            "threshold": round(rng.uniform(0.4, 1.0), 2),
            "epoch_ticks": rng.randint(1, 6),
        }
    return {"id": kind}


def make_instance(seed: int, policy_id: str | None = None):
    """Build one random (config, workload, policy_spec) triple.

    ``policy_id`` fixes the policy kind; its parameters are still drawn.
    """
    rng = random.Random(seed)
    n_machines = rng.randint(1, 5)
    fleet = tuple(
        FleetMachine(
            MachineCapacity(*rng.choice(_CAPACITY_TEMPLATES)),
            peak_power_watts=rng.choice([120.0, 200.0, 350.0]),
        )
        for _ in range(n_machines)
    )
    duration = rng.randint(20, 50)
    config = SimulationConfig(
        fleet=fleet,
        duration_ticks=duration,
        tick_length_seconds=rng.choice([30.0, 60.0, 120.0]),
        initial_running_count=rng.randint(1, n_machines),
        power_model=PowerModel(
            idle_fraction=round(rng.uniform(0.3, 0.7), 2),
            standby_watts=rng.choice([0.0, 0.0, 5.0]),
        ),
        migration_cost_ticks=rng.choice([0, 0, 0, 1, 2, 3]),
    )
    profile = rng.choice(_PROFILES)
    spec = WorkloadSpec(
        seed=seed,
        vm_count=rng.randint(1, 8),
        duration_ticks=duration,
        profile=profile,
        nominal_fraction=round(rng.uniform(0.1, 0.4), 2),
        mean_level=round(rng.uniform(0.2, 0.9), 2),
        jitter=round(rng.uniform(0.0, 0.1), 3),
        spike_probability=round(rng.uniform(0.0, 0.1), 3),
        spike_magnitude=round(rng.uniform(1.0, 2.0), 2),
        spike_duration_ticks=rng.randint(1, 5),
        arrival_spread_ticks=rng.randint(0, duration - 1),
        lifetime_ticks=rng.choice([None, rng.randint(3, duration)]),
    )
    workload = generate_workload(spec)
    return config, workload, _random_policy_spec(rng, policy_id)


def thin_workload(workload, seed: int):
    """Sparse copies of dense traces, thinned with their own RNG stream.

    Each VM's trace is either emptied or loses a random prefix and suffix
    (a first sample after arrival, a last one before departure) and a random
    share of what is left (gaps).  ``make_instance``'s draws are untouched.
    """
    rng = random.Random(f"thin-{seed}")
    thinned = []
    for req in workload:
        trace = req.trace
        if rng.random() < 0.1:
            trace = ()
        else:
            start = rng.randint(0, len(trace) // 3)
            stop = len(trace) - rng.randint(0, len(trace) // 3)
            keep = rng.uniform(0.2, 1.0)
            trace = tuple(s for s in trace[start:stop] if rng.random() < keep)
        thinned.append(dataclasses.replace(req, trace=trace))
    return thinned


def delay_arrivals(workload, seed: int):
    """Copies whose arrival moves to a random tick of the VM's trace, trace kept.

    A generated trace covers the VM's residency, so the new arrival stays
    before its departure and the horizon, and the trace then begins before
    the arrival.  Uses its own RNG stream; an empty trace is left as it is.
    """
    rng = random.Random(f"delay-{seed}")
    delayed = []
    for req in workload:
        if req.trace:
            arrival = rng.randint(req.arrival_tick, req.arrival_tick + len(req.trace) - 1)
            req = dataclasses.replace(req, arrival_tick=arrival)
        delayed.append(req)
    return delayed


# ---------------------------------------------------------------------------
# Brute-force reference computations
# ---------------------------------------------------------------------------


def demand_at(request, tick):
    """Step-function demand lookup, reimplemented with bisect."""
    ticks = [s.tick for s in request.trace]
    idx = bisect_right(ticks, tick) - 1
    if idx < 0:
        return (0.0, 0.0, 0.0, 0.0)
    s = request.trace[idx]
    return (s.cpu, s.mem, s.disk, s.bw)


def brute_arbitrate(demands, capacity):
    """Proportional fair share, written resource-major instead of VM-major.

    Each total is a left-to-right sum in list order, as the engine sums a
    machine's demands; ``sum`` may compensate its rounding.
    """
    delivered = [list(d) for d in demands]
    shorted = 0
    for r in range(4):
        total = 0.0
        for d in demands:
            total += d[r]
        if total > capacity[r]:
            scale = capacity[r] / total
            for i, d in enumerate(demands):
                if d[r] > 0.0:
                    delivered[i][r] = d[r] * scale
                    shorted += 1
    return [tuple(d) for d in delivered], shorted


def _approx(a, b, tol=1e-9):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class CheckedSimulation(Simulation):
    """Simulation that snapshots arbitration inputs and outputs for later cross-checks.

    ``seeded_rv`` maps each machine whose used share arbitration seeded into
    the ``machine_rv`` memo to ``(seeded, fresh_machine_rv)``, taken right
    after arbitration; ``inbound_at_arbitration`` holds the running machines
    that had an inbound VM then.
    """

    def _arbitrate(self, tick):
        self.arbitration_hosts = {
            pm.id: list(pm.hosted_vm_ids)
            for pm in self.machines
            if pm.state is MachineState.RUNNING
        }
        super()._arbitrate(tick)
        self.seeded_rv = {
            pm_id: (rv, fresh_machine_rv(self, pm_id)) for pm_id, rv in self._used.items()
        }
        self.inbound_at_arbitration = {
            pm_id for pm_id in self.arbitration_hosts if self.has_inbound(pm_id)
        }


class InvariantViolation(AssertionError):
    pass


def _fail(seed, tick, message):
    raise InvariantViolation(f"instance seed={seed} tick={tick}: {message}")


def check_tick(sim: CheckedSimulation, seed: int, tick: int) -> None:
    """All invariants that must hold at the end of one tick."""
    # --- structural consistency -------------------------------------------
    seen_hosts = {}
    for pm in sim.machines:
        if pm.hosted_vm_ids != sorted(pm.hosted_vm_ids):
            _fail(seed, tick, f"machine {pm.id} hosted list not sorted")
        for vm_id in pm.hosted_vm_ids:
            if vm_id in seen_hosts:
                _fail(seed, tick, f"{vm_id} hosted on {seen_hosts[vm_id]} and {pm.id}")
            seen_hosts[vm_id] = pm.id
            vm = sim.vms.get(vm_id)
            if vm is None:
                _fail(seed, tick, f"machine {pm.id} hosts unknown VM {vm_id}")
            if vm.host_id != pm.id:
                _fail(seed, tick, f"{vm_id} host pointer {vm.host_id} != machine {pm.id}")
        if pm.state is MachineState.STANDBY:
            if pm.hosted_vm_ids:
                _fail(seed, tick, f"standby machine {pm.id} hosts VMs")
            if sim.has_inbound(pm.id):
                _fail(seed, tick, f"standby machine {pm.id} has inbound migrations")
        if (pm.breach_side is None) != (pm.threshold_breach_since is None):
            _fail(seed, tick, f"machine {pm.id} breach bookkeeping out of sync")
        if pm.threshold_breach_since is not None and pm.threshold_breach_since > tick:
            _fail(seed, tick, f"machine {pm.id} breach onset in the future")

    for vm_id, vm in sim.vms.items():
        if vm.host_id is not None and vm_id not in sim.machines[vm.host_id].hosted_vm_ids:
            _fail(seed, tick, f"{vm_id} points at machine {vm.host_id} but is not hosted")

    # --- the kept running list ------------------------------------------------
    expected_running = [pm for pm in sim.machines if pm.state is MachineState.RUNNING]
    running = sim.running_machines()
    if len(running) != len(expected_running) or any(
        a is not b for a, b in zip(running, expected_running)
    ):
        _fail(
            seed,
            tick,
            f"running_machines() {[pm.id for pm in running]} != "
            f"{[pm.id for pm in expected_running]}",
        )
    running.reverse()
    running.append(sim.machines[0])
    if [pm.id for pm in sim.running_machines()] != [pm.id for pm in expected_running]:
        _fail(seed, tick, "changing the list running_machines() returned changed the engine")

    # --- the machine_rv memo as arbitration seeded it --------------------------
    seeded_ids = set(sim.arbitration_hosts) - sim.inbound_at_arbitration
    if set(sim.seeded_rv) != seeded_ids:
        _fail(
            seed,
            tick,
            f"arbitration seeded {sorted(sim.seeded_rv)}, expected {sorted(seeded_ids)}",
        )
    for pm_id, (seeded, fresh) in sim.seeded_rv.items():
        if seeded != fresh:
            _fail(seed, tick, f"machine {pm_id} seeded used share {seeded} != fresh {fresh}")

    # --- conservation: exactly the resident VMs exist ----------------------
    expected_live = set()
    for vm_id, req in sim._requests.items():
        if req.arrival_tick <= tick and (
            req.departure_tick is None or req.departure_tick > tick
        ):
            expected_live.add(vm_id)
    actual_live = set(sim.vms)
    if actual_live != expected_live:
        _fail(
            seed,
            tick,
            f"live VM set mismatch: missing={sorted(expected_live - actual_live)} "
            f"extra={sorted(actual_live - expected_live)}",
        )

    # --- in-flight bookkeeping ---------------------------------------------
    for vm_id, (_, land_tick) in sim._inflight.items():
        if vm_id not in sim.vms:
            _fail(seed, tick, f"in-flight VM {vm_id} does not exist")
        if land_tick <= tick:
            _fail(seed, tick, f"flight of {vm_id} should have landed at {land_tick}")

    # --- arbitration cross-check -------------------------------------------
    checked_totals = {}
    violations = 0
    for pm_id, hosted in sim.arbitration_hosts.items():
        pm = sim.machines[pm_id]
        demands = [demand_at(sim._requests[vm_id], tick) for vm_id in hosted]
        delivered, shorted = brute_arbitrate(demands, pm.capacity.as_tuple())
        violations += shorted
        totals = [0.0, 0.0, 0.0, 0.0]
        for i, vm_id in enumerate(hosted):
            vm = sim.vms.get(vm_id)
            if vm is None:
                continue  # departed after arbitration is impossible; guard anyway
            got = sim.vm_delivered(vm_id)
            for r in range(4):
                if not _approx(got[r], delivered[i][r], 1e-12):
                    _fail(
                        seed,
                        tick,
                        f"{vm_id} delivered[{r}] {got[r]} != reference {delivered[i][r]}",
                    )
                totals[r] += delivered[i][r]
        for r in range(4):
            if totals[r] > pm.capacity.as_tuple()[r] * (1 + 1e-9):
                _fail(seed, tick, f"machine {pm_id} delivered over capacity on {r}")
        checked_totals[pm_id] = totals

    if violations != sim.report.violations_per_tick[-1]:
        _fail(
            seed,
            tick,
            f"violation count {sim.report.violations_per_tick[-1]} != reference {violations}",
        )

    # --- energy cross-check --------------------------------------------------
    model = sim.config.power_model
    weights = sim.config.energy_weights.as_tuple()
    expected_power = 0.0
    for pm in sim.machines:
        if pm.state is MachineState.RUNNING:
            totals = checked_totals.get(pm.id, (0.0, 0.0, 0.0, 0.0))
            cap = pm.capacity.as_tuple()
            u = sum(weights[r] * min(1.0, totals[r] / cap[r]) for r in range(4))
            expected_power += pm.peak_power_watts * (
                model.idle_fraction + (1.0 - model.idle_fraction) * u
            )
        else:
            expected_power += model.standby_watts
    if not _approx(sim.report.total_power_watts[-1], expected_power, 1e-9):
        _fail(
            seed,
            tick,
            f"power {sim.report.total_power_watts[-1]} != reference {expected_power}",
        )

    if sim.report.running_machines[-1] != sum(
        1 for pm in sim.machines if pm.state is MachineState.RUNNING
    ):
        _fail(seed, tick, "running-machine series does not match machine states")


def check_report(sim: CheckedSimulation, report, seed: int) -> None:
    duration = sim.config.duration_ticks
    if len(report.running_machines) != duration:
        _fail(seed, -1, "running series length != duration")
    if sum(report.violations_per_tick) != report.sla_violation_count:
        _fail(seed, -1, "violation series does not sum to the total")
    total = sum(report.per_machine_energy_kwh.values())
    if not _approx(report.total_energy_kwh, total, 1e-9):
        _fail(seed, -1, "per-machine energy does not sum to the total")
    if report.total_energy_kwh < 0:
        _fail(seed, -1, "negative energy")
    counters = (
        report.migration_count,
        report.wake_count,
        report.standby_count,
        report.rejected_requests,
        report.dropped_actions,
    )
    if any(c < 0 for c in counters):
        _fail(seed, -1, "negative counter")


def run_checked_instance(seed: int, sparse: bool = False):
    """Run one random instance under full invariant checking."""
    config, workload, policy_spec = make_instance(seed)
    if sparse:
        workload = thin_workload(workload, seed)
    sim = CheckedSimulation(config, workload, build_policy(policy_spec))
    for tick in range(config.duration_ticks):
        sim._step()
        check_tick(sim, seed, tick)
    report = sim._report()
    check_report(sim, report, seed)
    return report
