"""``single_threshold`` against its direct per-(VM, machine) reference.

The policy reads a VM's window mean once, computes its share of each
capacity class itself, scores it once per machine kind and scans each kind's
machines only for CPU room.  The reference in ``_oracles`` asks the view for
the VM's share on every machine.  These tests hold the policy to it decision
for decision, on the small random instances and on larger fleets where
machines fill up and two kinds tie, and bound what an epoch replan reads of
the view, so the per-machine cost cannot return unnoticed.
"""

from __future__ import annotations

import random

import _fakes as fakes
from _instances import make_instance
from _oracles import ReferenceSingleThreshold
from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import (
    DEFAULT_RV,
    MachineCapacity,
    MachineState,
    PowerModel,
    shares_of,
    utilization_of,
)
from dcsim.policies import SingleThresholdPolicy
from dcsim.workload import WorkloadProfile, WorkloadSpec, generate_workload

DIFFERENTIAL_INSTANCES = 240


def _recording(policy_cls):
    """``policy_cls`` extended to log its decisions and what its replans saw."""

    class Recording(policy_cls):
        def __init__(self, **params):
            super().__init__(**params)
            self.log = []
            self.saw_in_flight = False
            self.saw_no_history = False

        def allocate(self, vm_id, view):
            self.saw_no_history |= view.vm_window_mean(vm_id) is None
            decision = super().allocate(vm_id, view)
            self.log.append((view.current_tick, vm_id, decision))
            return decision

        def rebalance(self, view, tick):
            if tick % self.epoch_ticks == 0:
                self.saw_in_flight |= any(
                    view.vm_in_flight(vm_id)
                    for pm in view.all_machines()
                    for vm_id in pm.hosted_vm_ids
                )
            for action in super().rebalance(view, tick):
                self.log.append((tick, action))
                yield action

    return Recording


def _run(policy_cls, config, workload, params):
    policy = _recording(policy_cls)(**params)
    report = Simulation(config, workload, policy).run()
    return policy, report


def test_matches_reference_on_random_instances():
    covered = {
        "equal capacity, different peak": 0,
        "standby draw": 0,
        "in-flight VM at a replan": 0,
        "VM without usage history": 0,
        "replan with nothing fitting": 0,
    }
    for seed in range(DIFFERENTIAL_INSTANCES):
        config, workload, spec = make_instance(seed, "single_threshold")
        params = {k: v for k, v in spec.items() if k != "id"}
        ref, ref_report = _run(ReferenceSingleThreshold, config, workload, params)
        got, got_report = _run(SingleThresholdPolicy, config, workload, params)
        assert got.log == ref.log, f"seed {seed}: decisions differ"
        assert got.stats == ref.stats, f"seed {seed}: policy_stats differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"

        peaks: dict[MachineCapacity, set[float]] = {}
        for fm in config.fleet:
            peaks.setdefault(fm.capacity, set()).add(fm.peak_power_watts)
        covered["equal capacity, different peak"] += any(len(p) > 1 for p in peaks.values())
        covered["standby draw"] += config.power_model.standby_watts > 0
        covered["in-flight VM at a replan"] += ref.saw_in_flight
        covered["VM without usage history"] += ref.saw_no_history
        covered["replan with nothing fitting"] += ref.stats.get("replan_stuck", 0) > 0
    assert all(covered.values()), covered


class _SharingView(fakes.FakeView):
    """The view stub with the engine's ``vm_rv_on``.

    A VM's share is its window mean's share of the machine's capacity, or
    the default share while it has no window mean.
    """

    def vm_rv_on(self, vm_id, machine_id):
        mean = self.window_means.get(vm_id)
        if mean is None:
            return DEFAULT_RV.as_tuple()
        return shares_of(mean, self.machines[machine_id].capacity.as_tuple())


def test_replan_matches_reference_for_vms_without_history():
    # The engine gives every hosted VM a usage sample before the replan, so
    # the replan's nominal fallback is exercised on the view stub instead.
    rng = random.Random(7)
    capacities = [fakes.CAP, MachineCapacity(2000.0, 4096.0, 500.0, 500.0)]
    for _ in range(100):
        machines = [
            fakes.make_machine(
                i,
                cap=rng.choice(capacities),
                peak=rng.choice([120.0, 200.0, 350.0]),
                state=rng.choice([MachineState.RUNNING, MachineState.STANDBY]),
            )
            for i in range(rng.randint(1, 6))
        ]
        view = _SharingView(
            machines, power_model=PowerModel(idle_fraction=0.5, standby_watts=rng.choice([0.0, 5.0]))
        )
        for n in range(rng.randint(1, 8)):
            vm_id = f"vm-{n}"
            running = [pm for pm in machines if pm.state is MachineState.RUNNING]
            if not running:
                break
            rng.choice(running).add_vm(vm_id)
            view.nominals[vm_id] = MachineCapacity(
                rng.uniform(100.0, 1500.0), rng.uniform(100.0, 3000.0), 50.0, 50.0
            )
            if rng.random() < 0.5:
                view.window_means[vm_id] = (rng.uniform(50.0, 1500.0), 100.0, 10.0, 10.0)
            if rng.random() < 0.2:
                view.in_flight.add(vm_id)
        threshold = rng.choice([0.3, 0.75, 1.0])
        ref = ReferenceSingleThreshold(threshold=threshold, epoch_ticks=1)
        got = SingleThresholdPolicy(threshold=threshold, epoch_ticks=1)
        assert list(got.rebalance(view, 0)) == list(ref.rebalance(view, 0))
        assert got.stats == ref.stats


class _CountingView:
    """Forwards every read to the simulation, counting share and mean lookups."""

    def __init__(self, sim):
        self._sim = sim
        self.share_calls = 0
        self.mean_calls = 0

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def vm_rv_on(self, vm_id, machine_id):
        self.share_calls += 1
        return self._sim.vm_rv_on(vm_id, machine_id)

    def vm_nominal_rv_on(self, vm_id, machine_id):
        self.share_calls += 1
        return self._sim.vm_nominal_rv_on(vm_id, machine_id)

    def vm_window_mean(self, vm_id):
        self.mean_calls += 1
        return self._sim.vm_window_mean(vm_id)


class _CountedSingleThreshold(SingleThresholdPolicy):
    def __init__(self, **params):
        super().__init__(**params)
        self.epochs = []  # (share lookups, mean lookups, VMs hosted) per epoch replan
        self.classes = set()  # how many capacity classes ``_fleet`` found

    def _fleet(self, machines, model):
        kinds, capacities = super()._fleet(machines, model)
        self.classes.add(len(capacities))
        return kinds, capacities

    def rebalance(self, view, tick):
        counting = _CountingView(view)
        hosted = sum(len(pm.hosted_vm_ids) for pm in view.all_machines())
        yield from super().rebalance(counting, tick)
        if tick % self.epoch_ticks == 0:
            self.epochs.append((counting.share_calls, counting.mean_calls, hosted))


def _check_replan_lookups(separate):
    """An epoch replan asks the view for no share, and for each hosted VM's mean once.

    With ``separate`` every machine gets its own, equal capacity object; the
    engine must share them again for the policy to score each class once.
    """
    classes = [
        MachineCapacity(2000.0, 4096.0, 500.0, 500.0),
        MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0),
        MachineCapacity(8000.0, 16384.0, 2000.0, 2000.0),
    ]
    fleet = tuple(
        FleetMachine(
            MachineCapacity(*cap.as_tuple()) if separate else cap, peak_power_watts=peak
        )
        for cap in classes
        for peak in (120.0, 200.0, 360.0, 450.0)
    )
    config = SimulationConfig(
        fleet=fleet,
        duration_ticks=40,
        initial_running_count=len(fleet),
        power_model=PowerModel(idle_fraction=0.5, standby_watts=5.0),
        migration_cost_ticks=1,
    )
    workload = generate_workload(
        WorkloadSpec(seed=11, vm_count=30, duration_ticks=40, profile=WorkloadProfile.MIXED_INTENSIVE)
    )
    policy = _CountedSingleThreshold(threshold=1.0, epoch_ticks=5)
    Simulation(config, workload, policy).run()

    assert len(policy.epochs) == 8
    assert max(hosted for _, _, hosted in policy.epochs) > 0
    for share_calls, mean_calls, hosted in policy.epochs:
        assert share_calls == 0
        assert mean_calls <= hosted
    assert policy.classes == {len(classes)}


def test_replan_reads_each_vm_mean_once_and_no_view_share():
    _check_replan_lookups(separate=False)


def test_replan_scores_each_class_once_when_equal_capacities_are_separate():
    _check_replan_lookups(separate=True)


# Two kinds whose on-increases tie bit for bit: twice the capacity at twice
# the peak halves every share and doubles the slope.  The other two kinds add
# a second peak on the small capacity and a large machine.
_SMALL = MachineCapacity(2000.0, 4096.0, 500.0, 500.0)
_MEDIUM = MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0)
_LARGE = MachineCapacity(8000.0, 16384.0, 2000.0, 2000.0)
_KINDS = [(_SMALL, 100.0), (_MEDIUM, 200.0), (_SMALL, 120.0), (_LARGE, 360.0)]
LARGE_FLEET_INSTANCES = 12


class _TieCountingSingleThreshold(SingleThresholdPolicy):
    """Counts scans that skip a full machine and choices tied across kinds."""

    def __init__(self, **params):
        super().__init__(**params)
        self.skips = 0
        self.ties = 0

    def _place(self, amounts, plan_cpu, kinds, capacities):
        best = super()._place(amounts, plan_cpu, kinds, capacities)
        vm_cpu, weights = amounts[0], self.weights.as_tuple()
        footprints = [utilization_of(shares_of(amounts, cap), weights) for cap in capacities]
        tied = set()
        for cpu_capacity, slope, wake, cls, on, off in kinds:
            on_increase = slope * footprints[cls]
            for ids, increase in ((on, on_increase), (off, on_increase + wake)):
                fits = [(plan_cpu[i] + vm_cpu) / cpu_capacity < self.threshold for i in ids]
                self.skips += any(fits) and not fits[0]
                if best is not None and increase == best[0] and any(fits):
                    tied.add((cls, slope))
        self.ties += len(tied) > 1
        return best


def _large_fleet_instance(seed):
    rng = random.Random(seed)
    fleet = tuple(FleetMachine(*rng.choice(_KINDS)) for _ in range(rng.randint(20, 60)))
    duration = rng.randint(30, 60)
    config = SimulationConfig(
        fleet=fleet,
        duration_ticks=duration,
        initial_running_count=rng.randint(1, 4),
        power_model=PowerModel(idle_fraction=0.5, standby_watts=rng.choice([0.0, 5.0])),
        migration_cost_ticks=rng.choice([0, 1, 2]),
    )
    workload = generate_workload(
        WorkloadSpec(
            seed=seed,
            vm_count=rng.randint(2, 4) * len(fleet),
            duration_ticks=duration,
            profile=rng.choice(list(WorkloadProfile)),
            nominal_fraction=round(rng.uniform(0.05, 0.2), 2),
            arrival_spread_ticks=rng.randint(0, duration // 2),
        )
    )
    params = {"threshold": round(rng.uniform(0.5, 0.95), 2), "epoch_ticks": rng.randint(1, 5)}
    return config, workload, params


def test_matches_reference_on_larger_fleets_with_tied_kinds():
    skips = ties = 0
    for seed in range(LARGE_FLEET_INSTANCES):
        config, workload, params = _large_fleet_instance(seed)
        ref, ref_report = _run(ReferenceSingleThreshold, config, workload, params)
        got, got_report = _run(_TieCountingSingleThreshold, config, workload, params)
        assert got.log == ref.log, f"seed {seed}: decisions differ"
        assert got.stats == ref.stats, f"seed {seed}: policy_stats differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"
        skips += got.skips
        ties += got.ties
    assert skips > 0 and ties > 0, (skips, ties)
