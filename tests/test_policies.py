"""Unit tests for the similarity consolidation policy."""

import math

import pytest

import _fakes as fakes
from dcsim.model import (
    BreachSide,
    MachineState,
    ResourceVector,
    UtilizationWeights,
    utilization_of,
)
from dcsim.policies.base import ActionKind, RebalanceAction
from dcsim.policies.similarity import (
    PolicyConfig,
    SimilarityMethod,
    SimilarityPolicy,
)


def make_policy(**kw):
    return SimilarityPolicy(PolicyConfig(**kw))


class TestPolicyConfig:
    def test_defaults(self):
        cfg = PolicyConfig()
        assert (cfg.u_up, cfg.u_down, cfg.buffer) == (0.75, 0.15, 0.15)
        assert cfg.similarity_method is SimilarityMethod.FREE_FIT
        assert cfg.similarity_threshold == 0.6
        assert cfg.consistency_ticks == 3

    def test_threshold_ordering_enforced(self):
        with pytest.raises(ValueError):
            PolicyConfig(u_up=0.3, u_down=0.4)
        with pytest.raises(ValueError):
            PolicyConfig(u_up=1.2)

    def test_minimum_gap_enforced(self):
        with pytest.raises(ValueError, match="minimum gap"):
            PolicyConfig(u_up=0.30, u_down=0.15)
        PolicyConfig(u_up=0.35, u_down=0.15)  # exactly at the gap is fine

    def test_buffer_must_leave_headroom(self):
        with pytest.raises(ValueError):
            PolicyConfig(u_up=0.5, buffer=0.5)
        with pytest.raises(ValueError):
            PolicyConfig(buffer=-0.1)

    def test_similarity_threshold_range(self):
        with pytest.raises(ValueError):
            PolicyConfig(similarity_threshold=1.5)


class TestAllocateRanking:
    def test_dissimilar_prefers_least_similar_machine(self):
        # Machine 0 is CPU-loaded like the VM; machine 1 is memory-loaded.
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        view.vm_rvs["vm-a"] = ResourceVector(0.3, 0.05, 0.0, 0.0)
        view.machine_rvs[0] = ResourceVector(0.4, 0.05, 0.0, 0.0)
        view.machine_rvs[1] = ResourceVector(0.05, 0.4, 0.0, 0.0)
        policy = make_policy(similarity_method=SimilarityMethod.DISSIMILAR,
                             similarity_threshold=1.0)
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

    def test_free_fit_prefers_most_aligned_free_share(self):
        # Machine 0's leftover capacity is CPU-shaped, matching the VM;
        # machine 1's leftover is memory-shaped.
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        view.vm_rvs["vm-a"] = ResourceVector(0.3, 0.02, 0.0, 0.0)
        view.machine_rvs[0] = ResourceVector(0.1, 0.6, 0.3, 0.3)
        view.machine_rvs[1] = ResourceVector(0.6, 0.1, 0.3, 0.3)
        policy = make_policy(similarity_method=SimilarityMethod.FREE_FIT,
                             similarity_threshold=0.0)
        assert fakes.allocation(policy, "vm-a", view) == (0, MachineState.RUNNING)

    def test_tie_breaks_by_lowest_machine_id(self):
        view = fakes.FakeView([fakes.make_machine(2), fakes.make_machine(0), fakes.make_machine(1)])
        view.vm_rvs["vm-a"] = ResourceVector(0.1, 0.1, 0.1, 0.1)
        policy = make_policy()
        assert fakes.allocation(policy, "vm-a", view) == (0, MachineState.RUNNING)

    def test_dissimilar_threshold_excludes_lookalikes(self):
        # The only running machine is loaded exactly like the VM (score 1),
        # above the threshold, so the policy wakes a standby instead.
        view = fakes.FakeView(
            [fakes.make_machine(0), fakes.make_machine(1, state=MachineState.STANDBY)]
        )
        view.vm_rvs["vm-a"] = ResourceVector(0.2, 0.02, 0.0, 0.0)
        view.machine_rvs[0] = ResourceVector(0.4, 0.04, 0.0, 0.0)
        policy = make_policy(similarity_method=SimilarityMethod.DISSIMILAR,
                             similarity_threshold=0.6)
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.STANDBY)

    def test_free_fit_threshold_excludes_poor_fits(self):
        # Free share is memory-shaped while the VM is CPU-shaped: similarity
        # to the free vector falls below the threshold, so wake.
        view = fakes.FakeView(
            [fakes.make_machine(0), fakes.make_machine(1, state=MachineState.STANDBY)]
        )
        view.vm_rvs["vm-a"] = ResourceVector(0.5, 0.0, 0.0, 0.0)
        view.machine_rvs[0] = ResourceVector(0.05, 0.95, 0.95, 0.95)
        policy = make_policy(similarity_method=SimilarityMethod.FREE_FIT,
                             similarity_threshold=0.9)
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.STANDBY)

    def test_buffer_check_skips_to_next_candidate(self):
        # Machine 0 ranks first but adding the VM would cross u_up - buffer.
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        view.vm_rvs["vm-a"] = ResourceVector(0.2, 0.2, 0.2, 0.2)
        view.machine_rvs[0] = ResourceVector(0.5, 0.5, 0.5, 0.5)
        view.machine_rvs[1] = ResourceVector(0.1, 0.1, 0.1, 0.1)
        policy = make_policy(u_up=0.75, buffer=0.15, similarity_threshold=0.0)
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

    def test_machine_at_the_cap_is_skipped_and_one_an_ulp_below_still_fits(self):
        # A zero share fits any machine below the cap, however close, and
        # none at it; a class whose machines are all at the cap is never
        # asked for the VM's share.
        policy = make_policy(similarity_threshold=0.0)
        cap = policy.config.u_up - policy.config.buffer
        weights = policy.config.weights.as_tuple()
        below = cap
        while utilization_of((below,) * 4, weights) >= cap:
            below = math.nextafter(below, 0.0)
        assert utilization_of((cap,) * 4, weights) >= cap
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        view.vm_rvs["vm-a"] = ResourceVector(0.0, 0.0, 0.0, 0.0)
        view.machine_rvs[0] = ResourceVector(cap, cap, cap, cap)
        view.machine_rvs[1] = ResourceVector(below, below, below, below)
        assert fakes.allocation(policy, "vm-a", view) == (1, MachineState.RUNNING)

        full = fakes.FakeView([fakes.make_machine(0)])
        full.machine_rvs[0] = ResourceVector(cap, cap, cap, cap)
        asked = []

        def vm_rv_on(vm_id, machine_id):
            asked.append((vm_id, machine_id))
            return (0.0, 0.0, 0.0, 0.0)

        full.vm_rv_on = vm_rv_on
        assert fakes.allocation(policy, "vm-a", full) is None
        assert asked == []

    def test_wakes_least_recently_used_standby(self):
        view = fakes.FakeView(
            [
                fakes.make_machine(0),
                fakes.make_machine(1, state=MachineState.STANDBY, last_used=9),
                fakes.make_machine(2, state=MachineState.STANDBY, last_used=4),
            ]
        )
        view.vm_rvs["vm-a"] = ResourceVector(0.3, 0.3, 0.3, 0.3)
        view.machine_rvs[0] = ResourceVector(0.6, 0.6, 0.6, 0.6)
        policy = make_policy()
        assert fakes.allocation(policy, "vm-a", view) == (2, MachineState.STANDBY)

    def test_never_used_standby_wins_lru(self):
        view = fakes.FakeView(
            [
                fakes.make_machine(0),
                fakes.make_machine(1, state=MachineState.STANDBY, last_used=0),
                fakes.make_machine(2, state=MachineState.STANDBY, last_used=-1),
            ]
        )
        view.vm_rvs["vm-a"] = ResourceVector(0.4, 0.4, 0.4, 0.4)
        view.machine_rvs[0] = ResourceVector(0.5, 0.5, 0.5, 0.5)
        policy = make_policy()
        assert fakes.allocation(policy, "vm-a", view) == (2, MachineState.STANDBY)

    def test_rejects_when_everything_is_full(self):
        view = fakes.FakeView([fakes.make_machine(0)])
        view.vm_rvs["vm-a"] = ResourceVector(0.4, 0.4, 0.4, 0.4)
        view.machine_rvs[0] = ResourceVector(0.5, 0.5, 0.5, 0.5)
        policy = make_policy()
        assert policy.allocate("vm-a", view) is None

    def test_exact_cap_boundary_is_excluded(self):
        # Estimated utilization landing exactly on u_up - buffer must not fit
        # (the comparison is strict).
        view = fakes.FakeView([fakes.make_machine(0)])
        view.vm_rvs["vm-a"] = ResourceVector(0.3, 0.3, 0.3, 0.3)
        view.machine_rvs[0] = ResourceVector(0.3, 0.3, 0.3, 0.3)
        policy = make_policy(u_up=0.75, buffer=0.15)  # cap = 0.6 == estimate
        assert policy.allocate("vm-a", view) is None


def set_breach(pm, side, since):
    pm.breach_side = side
    pm.threshold_breach_since = since


class TestScaleUp:
    def make_overloaded_view(self):
        source = fakes.make_machine(0)
        peer = fakes.make_machine(1)
        source.add_vm("vm-cool")
        source.add_vm("vm-hot")
        view = fakes.FakeView([source, peer])
        view.machine_rvs[0] = ResourceVector(0.9, 0.9, 0.9, 0.9)
        view.machine_rvs[1] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        view.vm_rvs["vm-hot"] = ResourceVector(0.5, 0.5, 0.5, 0.5)
        view.vm_rvs["vm-cool"] = ResourceVector(0.1, 0.1, 0.1, 0.1)
        return source, peer, view

    def test_requires_consistent_breach(self):
        source, _, view = self.make_overloaded_view()
        policy = make_policy(consistency_ticks=3)
        set_breach(source, BreachSide.OVER, since=5)
        assert policy.scale_up_check(source, 6, view) is None  # 2 ticks only
        action = policy.scale_up_check(source, 7, view)  # 3rd consecutive tick
        assert action is not None

    def test_moves_the_hottest_vm(self):
        source, _, view = self.make_overloaded_view()
        policy = make_policy()
        set_breach(source, BreachSide.OVER, since=0)
        action = policy.scale_up_check(source, 10, view)
        assert action == RebalanceAction.migrate("vm-hot", 0, 1, reason="scale-up")

    def test_skips_vms_already_in_flight(self):
        source, _, view = self.make_overloaded_view()
        view.in_flight.add("vm-hot")
        policy = make_policy()
        set_breach(source, BreachSide.OVER, since=0)
        action = policy.scale_up_check(source, 10, view)
        assert action.vm_id == "vm-cool"

    def test_wakes_standby_when_no_running_peer_fits(self):
        source, peer, view = self.make_overloaded_view()
        peer.state = MachineState.STANDBY
        policy = make_policy()
        set_breach(source, BreachSide.OVER, since=0)
        action = policy.scale_up_check(source, 10, view)
        assert action == RebalanceAction.migrate("vm-hot", 0, 1, reason="scale-up")
        assert view.machine(1).state is MachineState.STANDBY

    def test_exhausted_fleet_counts_and_stays(self):
        source, peer, view = self.make_overloaded_view()
        view.machine_rvs[1] = ResourceVector(0.7, 0.7, 0.7, 0.7)  # peer too full
        policy = make_policy()
        set_breach(source, BreachSide.OVER, since=0)
        assert policy.scale_up_check(source, 10, view) is None
        assert policy.stats["scale_up_exhausted"] == 1

    def test_no_reaction_without_breach(self):
        source, _, view = self.make_overloaded_view()
        policy = make_policy()
        assert policy.scale_up_check(source, 10, view) is None

    def test_under_breach_does_not_trigger_scale_up(self):
        source, _, view = self.make_overloaded_view()
        policy = make_policy()
        set_breach(source, BreachSide.UNDER, since=0)
        assert policy.scale_up_check(source, 10, view) is None


class TestScaleDown:
    def make_underloaded_view(self):
        source = fakes.make_machine(0)
        peer = fakes.make_machine(1)
        source.add_vm("vm-a")
        source.add_vm("vm-b")
        view = fakes.FakeView([source, peer])
        view.machine_rvs[0] = ResourceVector(0.08, 0.08, 0.08, 0.08)
        view.machine_rvs[1] = ResourceVector(0.3, 0.3, 0.3, 0.3)
        view.vm_rvs["vm-a"] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        view.vm_rvs["vm-b"] = ResourceVector(0.03, 0.03, 0.03, 0.03)
        return source, peer, view

    def test_full_evacuation_plan(self):
        source, _, view = self.make_underloaded_view()
        policy = make_policy()
        set_breach(source, BreachSide.UNDER, since=0)
        plan = policy.scale_down_check(source, 10, view)
        assert plan == [
            RebalanceAction.migrate("vm-a", 0, 1, reason="scale-down"),
            RebalanceAction.migrate("vm-b", 0, 1, reason="scale-down"),
            RebalanceAction.standby_machine(0, reason="scale-down"),
        ]

    def test_plan_accounts_for_accumulated_placements(self):
        # The peer can absorb one VM but not both once the first plan entry
        # is layered on top; the whole evacuation must then be abandoned.
        source, _, view = self.make_underloaded_view()
        view.machine_rvs[1] = ResourceVector(0.52, 0.52, 0.52, 0.52)
        view.vm_rvs["vm-a"] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        view.vm_rvs["vm-b"] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        policy = make_policy(u_up=0.75, buffer=0.15)  # cap 0.6; 0.52+0.05 ok, +0.10 not
        set_breach(source, BreachSide.UNDER, since=0)
        assert policy.scale_down_check(source, 10, view) is None
        assert policy.stats["scale_down_blocked"] == 1

    def test_waking_is_not_an_option_for_scale_down(self):
        source, peer, view = self.make_underloaded_view()
        peer.state = MachineState.STANDBY
        policy = make_policy()
        set_breach(source, BreachSide.UNDER, since=0)
        assert policy.scale_down_check(source, 10, view) is None

    def test_empty_machine_goes_straight_to_standby(self):
        source = fakes.make_machine(0)
        view = fakes.FakeView([source, fakes.make_machine(1)])
        policy = make_policy()
        set_breach(source, BreachSide.UNDER, since=0)
        plan = policy.scale_down_check(source, 10, view)
        assert plan == [RebalanceAction.standby_machine(0, reason="scale-down")]

    def test_in_flight_vm_blocks_evacuation(self):
        source, _, view = self.make_underloaded_view()
        view.in_flight.add("vm-a")
        policy = make_policy()
        set_breach(source, BreachSide.UNDER, since=0)
        assert policy.scale_down_check(source, 10, view) is None

    def test_requires_consistent_breach(self):
        source, _, view = self.make_underloaded_view()
        policy = make_policy(consistency_ticks=3)
        set_breach(source, BreachSide.UNDER, since=8)
        assert policy.scale_down_check(source, 9, view) is None


class TestRebalanceGenerator:
    def test_scale_up_takes_priority_over_scale_down(self):
        source = fakes.make_machine(0)
        peer = fakes.make_machine(1)
        source.add_vm("vm-a")
        view = fakes.FakeView([source, peer])
        view.machine_rvs[0] = ResourceVector(0.9, 0.9, 0.9, 0.9)
        view.vm_rvs["vm-a"] = ResourceVector(0.2, 0.2, 0.2, 0.2)
        policy = make_policy()
        set_breach(source, BreachSide.OVER, since=0)
        actions = list(policy.rebalance(view, 10))
        assert [a.kind for a in actions] == [ActionKind.MIGRATE]
        assert actions[0].reason == "scale-up"

    def test_healthy_fleet_yields_nothing(self):
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        policy = make_policy()
        assert list(policy.rebalance(view, 10)) == []

    def test_multiple_underloaded_machines_each_get_plans(self):
        a = fakes.make_machine(0)
        b = fakes.make_machine(1)
        busy = fakes.make_machine(2)
        view = fakes.FakeView([a, b, busy])
        view.machine_rvs[2] = ResourceVector(0.3, 0.3, 0.3, 0.3)
        policy = make_policy()
        set_breach(a, BreachSide.UNDER, since=0)
        set_breach(b, BreachSide.UNDER, since=0)
        actions = list(policy.rebalance(view, 10))
        assert actions == [
            RebalanceAction.standby_machine(0, reason="scale-down"),
            RebalanceAction.standby_machine(1, reason="scale-down"),
        ]


class TestMigrationLanding:
    def test_rejects_target_that_filled_up(self):
        target = fakes.make_machine(1)
        view = fakes.FakeView([fakes.make_machine(0), target])
        view.machine_rvs[1] = ResourceVector(0.58, 0.58, 0.58, 0.58)
        view.vm_rvs["vm-a"] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        policy = make_policy(u_up=0.75, buffer=0.15)  # cap 0.6 < 0.63
        assert not policy.migration_landing_ok("vm-a", 1, view)

    def test_rejects_landing_exactly_at_the_cap(self):
        view = fakes.FakeView([fakes.make_machine(0), fakes.make_machine(1)])
        view.machine_rvs[1] = ResourceVector(0.25, 0.25, 0.25, 0.25)
        view.vm_rvs["vm-a"] = ResourceVector(0.25, 0.25, 0.25, 0.25)
        policy = make_policy(u_up=0.75, buffer=0.25)  # u = 0.5 = cap, both exact
        assert not policy.migration_landing_ok("vm-a", 1, view)

    def test_accepts_target_with_headroom(self):
        target = fakes.make_machine(1)
        view = fakes.FakeView([fakes.make_machine(0), target])
        view.machine_rvs[1] = ResourceVector(0.2, 0.2, 0.2, 0.2)
        view.vm_rvs["vm-a"] = ResourceVector(0.05, 0.05, 0.05, 0.05)
        policy = make_policy()
        assert policy.migration_landing_ok("vm-a", 1, view)


class TestPolicyWiring:
    def test_breach_thresholds_follow_config(self):
        policy = make_policy(u_up=0.8, u_down=0.1)
        assert policy.breach_thresholds == (0.8, 0.1)

    def test_window_and_weights_follow_config(self):
        weights = UtilizationWeights(0.7, 0.1, 0.1, 0.1)
        policy = make_policy(weights=weights, delta_window_seconds=120.0)
        assert policy.utilization_weights == weights
        assert policy.usage_window_seconds == 120.0

    def test_action_kind_strings(self):
        assert [kind.value for kind in ActionKind] == ["migrate", "standby-machine"]
