"""Unit tests for the baseline placement policies."""

import pytest

import _fakes as fakes
from dcsim.model import MachineCapacity, MachineState, PowerModel, ResourceVector
from dcsim.policies.base import ActionKind
from dcsim.policies.baselines import (
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    PowerSavePolicy,
    RoundRobinPolicy,
    SingleThresholdPolicy,
)

SMALL = MachineCapacity(100, 100, 100, 100)


def three_machine_view():
    view = fakes.FakeView(
        [fakes.make_machine(0), fakes.make_machine(1), fakes.make_machine(2)]
    )
    view.nominals["vm-a"] = MachineCapacity(10, 10, 10, 10)
    view.nominals["vm-b"] = MachineCapacity(10, 10, 10, 10)
    view.nominals["vm-c"] = MachineCapacity(10, 10, 10, 10)
    view.nominals["vm-d"] = MachineCapacity(10, 10, 10, 10)
    return view


class TestRoundRobin:
    def test_cycles_through_machines(self):
        view = three_machine_view()
        policy = RoundRobinPolicy()
        targets = [policy.allocate(v, view) for v in ("vm-a", "vm-b", "vm-c", "vm-d")]
        assert targets == [0, 1, 2, 0]

    def test_wakes_standby_in_rotation(self):
        view = three_machine_view()
        view.machines[1].state = MachineState.STANDBY
        policy = RoundRobinPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (0, MachineState.RUNNING)
        assert fakes.allocation(policy, "vm-b", view) == (1, MachineState.STANDBY)

    def test_skips_machines_without_nominal_room(self):
        view = three_machine_view()
        view.free_overrides[0] = (5, 100, 100, 100)  # too little CPU
        policy = RoundRobinPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

    def test_rejects_when_nothing_fits(self):
        view = three_machine_view()
        for mid in view.machines:
            view.free_overrides[mid] = (5, 5, 5, 5)
        policy = RoundRobinPolicy()
        assert policy.allocate("vm-a", view) is None

    def test_never_rebalances(self):
        view = three_machine_view()
        assert list(RoundRobinPolicy().rebalance(view, 0)) == []


class TestGreedy:
    def test_first_fit_by_id(self):
        view = three_machine_view()
        policy = GreedyPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (0, MachineState.RUNNING)
        assert fakes.allocation(policy, "vm-b", view) == (0, MachineState.RUNNING)

    def test_moves_on_when_first_is_full(self):
        view = three_machine_view()
        view.free_overrides[0] = (0.5, 0.5, 0.5, 0.5)
        policy = GreedyPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)


class TestPowerSave:
    def test_prefers_running_over_lower_id_standby(self):
        view = three_machine_view()
        view.machines[0].state = MachineState.STANDBY
        policy = PowerSavePolicy()
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

    def test_wakes_only_when_no_running_machine_fits(self):
        view = three_machine_view()
        view.machines[0].state = MachineState.STANDBY
        view.free_overrides[1] = (1, 1, 1, 1)
        view.free_overrides[2] = (1, 1, 1, 1)
        policy = PowerSavePolicy()
        assert fakes.allocation(policy, "vm-a", view) == (0, MachineState.STANDBY)

    def test_parks_empty_machines(self):
        view = three_machine_view()
        view.machines[1].add_vm("vm-x")
        actions = list(PowerSavePolicy().rebalance(view, 3))
        assert [(a.kind, a.target_id) for a in actions] == [
            (ActionKind.STANDBY_MACHINE, 0),
            (ActionKind.STANDBY_MACHINE, 2),
        ]

    def test_does_not_park_machines_expecting_arrivals(self):
        view = three_machine_view()
        view.inbound.add(0)
        view.machines[1].add_vm("vm-x")
        actions = list(PowerSavePolicy().rebalance(view, 3))
        assert [a.target_id for a in actions] == [2]


class TestDynamicRoundRobin:
    def test_departure_from_nonempty_machine_starts_retirement(self):
        view = three_machine_view()
        view.machines[0].add_vm("vm-b")
        policy = DynamicRoundRobinPolicy(retirement_threshold=4)
        policy.notify_departure("vm-a", 0, view, tick=7)
        assert policy.allocate("vm-c", view) == 1  # 0 is retiring

    def test_departure_from_emptied_machine_does_not_retire(self):
        view = three_machine_view()
        policy = DynamicRoundRobinPolicy()
        policy.notify_departure("vm-a", 0, view, tick=7)
        assert policy.allocate("vm-c", view) == 0

    def test_force_migrates_after_threshold(self):
        view = three_machine_view()
        view.machines[0].add_vm("vm-b")
        policy = DynamicRoundRobinPolicy(retirement_threshold=4)
        policy.notify_departure("vm-a", 0, view, tick=7)
        assert list(policy.rebalance(view, 10)) == []  # 3 ticks in: too soon
        actions = list(policy.rebalance(view, 11))
        assert len(actions) == 1
        assert actions[0].kind is ActionKind.MIGRATE
        assert (actions[0].vm_id, actions[0].source_id, actions[0].target_id) == ("vm-b", 0, 1)

    def test_parks_and_forgets_once_empty(self):
        view = three_machine_view()
        view.machines[0].add_vm("vm-b")
        policy = DynamicRoundRobinPolicy(retirement_threshold=4)
        policy.notify_departure("vm-a", 0, view, tick=7)
        view.machines[0].remove_vm("vm-b")  # as if the migration completed
        actions = list(policy.rebalance(view, 20))
        assert [(a.kind, a.target_id) for a in actions] == [(ActionKind.STANDBY_MACHINE, 0)]
        # Machine 0 accepts placements again after unretiring.
        assert policy.allocate("vm-c", view) in (0, 1, 2)
        assert list(policy.rebalance(view, 21)) == []

    def test_skips_in_flight_vms_during_forced_migration(self):
        view = three_machine_view()
        view.machines[0].add_vm("vm-b")
        view.in_flight.add("vm-b")
        policy = DynamicRoundRobinPolicy(retirement_threshold=1)
        policy.notify_departure("vm-a", 0, view, tick=0)
        assert list(policy.rebalance(view, 5)) == []

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError):
            DynamicRoundRobinPolicy(retirement_threshold=0)

    def test_rotation_resumes_after_the_last_pick_when_a_machine_retires(self):
        view = fakes.FakeView([fakes.make_machine(i) for i in range(4)])
        policy = DynamicRoundRobinPolicy()
        assert [policy.allocate(v, view) for v in ("vm-a", "vm-b")] == [0, 1]
        view.machines[1].add_vm("vm-b")
        policy.notify_departure("vm-c", 1, view, tick=3)  # machine 1 starts retiring
        assert [policy.allocate(v, view) for v in ("vm-d", "vm-e", "vm-f")] == [2, 3, 0]


class TestSingleThreshold:
    def test_threshold_excludes_hot_machines(self):
        view = three_machine_view()
        view.cpu_abs[0] = 3500.0  # 3500/4000 + vm would cross 0.75
        view.nominals["vm-a"] = MachineCapacity(400, 10, 10, 10)
        policy = SingleThresholdPolicy(threshold=0.75)
        assert policy.allocate("vm-a", view) not in (0, None)

    def test_prefers_running_machine_over_waking(self):
        # Waking costs the idle jump, so a running machine wins even when a
        # standby machine would see the same slope cost.
        view = fakes.FakeView(
            [
                fakes.make_machine(0, state=MachineState.STANDBY),
                fakes.make_machine(1),
            ]
        )
        view.nominals["vm-a"] = MachineCapacity(100, 100, 10, 10)
        policy = SingleThresholdPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

    def test_wakes_cheapest_machine_when_nothing_runs(self):
        view = fakes.FakeView(
            [
                fakes.make_machine(0, state=MachineState.STANDBY, peak=400.0),
                fakes.make_machine(1, state=MachineState.STANDBY, peak=200.0),
            ]
        )
        view.nominals["vm-a"] = MachineCapacity(100, 100, 10, 10)
        policy = SingleThresholdPolicy()
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.STANDBY)

    def test_uses_window_mean_cpu_when_available(self):
        view = three_machine_view()
        view.cpu_abs[0] = 2600.0
        view.window_means["vm-a"] = (500.0, 10.0, 10.0, 10.0)
        view.nominals["vm-a"] = MachineCapacity(10, 10, 10, 10)  # would fit nominally
        policy = SingleThresholdPolicy(threshold=0.75)
        # 2600 + 500 = 3100 > 3000 = 0.75 * 4000, so machine 0 is out.
        assert policy.allocate("vm-a", view) != 0

    def test_rejects_when_all_machines_hot(self):
        view = three_machine_view()
        for mid in view.machines:
            view.cpu_abs[mid] = 3900.0
        policy = SingleThresholdPolicy(threshold=0.75)
        assert policy.allocate("vm-a", view) is None

    def test_replans_only_on_epoch_boundaries(self):
        view = three_machine_view()
        view.machines[2].add_vm("vm-a")
        view.window_means["vm-a"] = (1000.0, 10.0, 10.0, 10.0)
        view.vm_rvs["vm-a"] = ResourceVector(0.25, 0.001, 0.01, 0.01)
        policy = SingleThresholdPolicy(epoch_ticks=5)
        assert list(policy.rebalance(view, 3)) == []
        moves = list(policy.rebalance(view, 5))
        assert [(m.vm_id, m.source_id, m.target_id) for m in moves] == [("vm-a", 2, 0)]
        assert moves[0].reason == "replan"

    def test_replan_packs_big_vms_first(self):
        # Two VMs on separate machines; the replan should consolidate both
        # onto machine 0, taking the CPU-heavier VM first.
        view = three_machine_view()
        view.machines[1].add_vm("vm-small")
        view.machines[2].add_vm("vm-big")
        view.window_means["vm-small"] = (200.0, 10.0, 10.0, 10.0)
        view.window_means["vm-big"] = (900.0, 10.0, 10.0, 10.0)
        view.vm_rvs["vm-small"] = ResourceVector(0.05, 0.001, 0.01, 0.01)
        view.vm_rvs["vm-big"] = ResourceVector(0.225, 0.001, 0.01, 0.01)
        policy = SingleThresholdPolicy(epoch_ticks=1)
        moves = list(policy.rebalance(view, 0))
        assert [(m.vm_id, m.target_id) for m in moves] == [
            ("vm-big", 0),
            ("vm-small", 0),
        ]

    def test_replan_never_emits_standby(self):
        view = three_machine_view()
        view.machines[1].add_vm("vm-a")
        view.window_means["vm-a"] = (100.0, 10, 10, 10)
        view.vm_rvs["vm-a"] = ResourceVector(0.025, 0.001, 0.01, 0.01)
        policy = SingleThresholdPolicy(epoch_ticks=1)
        for tick in range(4):
            for action in policy.rebalance(view, tick):
                assert action.kind is not ActionKind.STANDBY_MACHINE

    def test_power_increase_includes_idle_jump_for_off_machines(self):
        policy = SingleThresholdPolicy()

        def increase(state):
            view = fakes.FakeView(
                [fakes.make_machine(0, state=state)],
                power_model=PowerModel(idle_fraction=0.5, standby_watts=10.0),
            )
            view.nominals["vm-a"] = MachineCapacity(400, 819.2, 100, 100)
            kinds, representatives = policy._fleet(view.all_machines(), view.power_model)
            mean = view.vm_window_mean("vm-a")
            footprints = policy._footprints("vm-a", mean, view, representatives)
            best = policy._cheapest(0.0, footprints, {0: 0.0}, kinds)
            assert best is not None and best[1] == 0
            # The third item is the kind when the machine came from an off list.
            assert (best[2] is not None) == (state is MachineState.STANDBY)
            return best[0]

        # Footprint is 0.1 of every resource -> unified 0.1; slope 100 W.
        # Waking adds idle draw 100 W minus the 10 W standby it replaces.
        assert increase(MachineState.STANDBY) == pytest.approx(100.0 * 0.1 + 100.0 - 10.0)
        assert increase(MachineState.RUNNING) == pytest.approx(10.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            SingleThresholdPolicy(threshold=0.0)
        with pytest.raises(ValueError):
            SingleThresholdPolicy(epoch_ticks=0)
