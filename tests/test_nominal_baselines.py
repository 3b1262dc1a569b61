"""The nominal-size baselines against their own loops, kept in ``_oracles``.

``round_robin``, ``greedy``, ``power_save`` and ``dynamic_round_robin`` share
one first fit and one rotation.  These tests hold each policy to a reference
that keeps the policy's own loops, decision for decision, on random
instances, and require the instances to reach the paths where the shared
code could diverge: a rotation that wraps past the end of its list, a
placement while a machine retires, a forced migration, a forced migration
that wakes its target, and one with nowhere to go.
"""

from __future__ import annotations

import pytest

from _instances import make_instance
from _oracles import (
    ReferenceDynamicRoundRobin,
    ReferenceGreedy,
    ReferencePowerSave,
    ReferenceRoundRobin,
)
from dcsim.engine import Simulation
from dcsim.model import MachineState
from dcsim.policies import (
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    PowerSavePolicy,
    RoundRobinPolicy,
)
from dcsim.policies.base import ActionKind

DIFFERENTIAL_INSTANCES = 400

PAIRS = {
    "round_robin": (RoundRobinPolicy, ReferenceRoundRobin),
    "greedy": (GreedyPolicy, ReferenceGreedy),
    "power_save": (PowerSavePolicy, ReferencePowerSave),
    "dynamic_round_robin": (DynamicRoundRobinPolicy, ReferenceDynamicRoundRobin),
}


def _recording(policy_cls):
    """``policy_cls`` extended to log its decisions and actions, and count what it reached.

    A placement or a migration "wakes" when its target is on standby as the
    policy names it; the engine then wakes the target.
    """

    class Recording(policy_cls):
        def __init__(self, **params):
            super().__init__(**params)
            self.log = []
            self.wraps = 0
            self.retiring_allocations = 0
            self.running_placements = 0
            self.forced = {"running": 0, "standby": 0}  # retirement moves by target state

        def allocate(self, vm_id, view):
            retiring = getattr(self, "_retiring", {})
            self.retiring_allocations += bool(retiring)
            cursor = getattr(self, "_cursor", None)
            machine_id = super().allocate(vm_id, view)
            if cursor is not None and machine_id is not None:
                # Machine ids equal positions in the fleet, so this reads both
                # an index cursor and a machine-id cursor.
                self.wraps += machine_id < cursor
            if machine_id is not None:
                self.running_placements += view.machine(machine_id).state is MachineState.RUNNING
            self.log.append((view.current_tick, vm_id, machine_id))
            return machine_id

        def rebalance(self, view, tick):
            for action in super().rebalance(view, tick):
                if action.kind is ActionKind.MIGRATE and action.reason == "retirement":
                    self.forced[view.machine(action.target_id).state.value] += 1
                self.log.append((tick, action))
                yield action

    return Recording


def _run(policy_cls, config, workload, params):
    policy = _recording(policy_cls)(**params)
    report = Simulation(config, workload, policy).run()
    return policy, report


@pytest.mark.parametrize("policy_id", sorted(PAIRS))
def test_matches_its_own_loops_on_random_instances(policy_id):
    policy_cls, reference_cls = PAIRS[policy_id]
    covered = {
        "placement": 0,
        "wake": 0,
        "rejection": 0,
        "cursor wrap": 0,
        "allocation while a machine retires": 0,
        "forced migration": 0,
        "forced wake-and-migrate": 0,
        "retirement_stuck": 0,
    }
    for seed in range(DIFFERENTIAL_INSTANCES):
        config, workload, spec = make_instance(seed, policy_id)
        params = {k: v for k, v in spec.items() if k != "id"}
        ref, ref_report = _run(reference_cls, config, workload, params)
        got, got_report = _run(policy_cls, config, workload, params)
        assert got.log == ref.log, f"seed {seed}: decisions or actions differ"
        assert got.stats == ref.stats, f"seed {seed}: policy_stats differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"

        covered["placement"] += ref.running_placements
        covered["wake"] += ref_report.wake_count
        covered["rejection"] += ref_report.rejected_requests
        covered["cursor wrap"] += ref.wraps
        covered["allocation while a machine retires"] += ref.retiring_allocations
        covered["forced migration"] += ref.forced["running"]
        covered["forced wake-and-migrate"] += ref.forced["standby"]
        covered["retirement_stuck"] += ref.stats.get("retirement_stuck", 0)

    expected = {"placement", "wake", "rejection"}
    if policy_id in ("round_robin", "dynamic_round_robin"):
        expected.add("cursor wrap")
    if policy_id == "dynamic_round_robin":
        expected |= {
            "allocation while a machine retires",
            "forced migration",
            "forced wake-and-migrate",
            "retirement_stuck",
        }
    assert all(covered[name] for name in expected), covered
