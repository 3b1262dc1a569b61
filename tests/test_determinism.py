"""A run must not depend on ``PYTHONHASHSEED``.

String hashing is salted per process, so any sum the engine takes in the
iteration order of a ``set`` of VM ids can come out differently in two
processes.  The scenario here runs in two subprocesses under different fixed
hash seeds and compares a digest of every ``nominal_free`` and
``cpu_used_abs`` result, and of the report.  Three VMs of different sizes
fly to one machine together, and two more VMs are placed there while the
flights are under way, so the views sum hosted plus several inbound VMs.

Run directly (``python tests/test_determinism.py``), the module prints the
digest of the scenario.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import MachineCapacity
from dcsim.policies.base import RebalanceAction, SchedulerPolicy
from dcsim.workload import DemandSample, VmRequest

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("1", "2")

# vm id -> (first host, demand level); the first three fly to machine 0 at tick 1.
VMS = {
    "vm-02": (1, 0.2),
    "vm-07": (2, 0.7),
    "vm-10": (3, 0.3),
    "vm-00": (0, 0.1),
}
# Placed on machine 0 while the flights are under way.
LATE = {"vm-20": (2, 0.6), "vm-21": (3, 0.9)}


class RecordingPolicy(SchedulerPolicy):
    """Places each VM on a fixed machine and records what the views return."""

    name = "recording"

    def __init__(self):
        super().__init__()
        self.records = []

    def _record(self, view, where):
        tick = view.current_tick
        for pm in view.all_machines():
            free, used = view.nominal_free(pm.id), view.cpu_used_abs(pm.id)
            self.records.append((tick, where, pm.id, free, used))

    def allocate(self, vm_id, view):
        self._record(view, "allocate " + vm_id)
        return VMS[vm_id][0] if vm_id in VMS else 0

    def rebalance(self, view, tick):
        self._record(view, "rebalance")
        if tick == 1:
            for vm_id in ("vm-02", "vm-07", "vm-10"):
                yield RebalanceAction.migrate(vm_id, VMS[vm_id][0], 0)
                self._record(view, "after " + vm_id)


def _request(vm_id, level, arrival):
    return VmRequest(
        vm_id=vm_id,
        nominal=MachineCapacity(level, 2 * level, level, level),
        arrival_tick=arrival,
        departure_tick=None,
        trace=tuple(DemandSample(t, level, 2 * level, level, level) for t in range(arrival, 8)),
    )


def digest():
    """The hex digest of every recorded view result and of the report."""
    workload = [_request(vm_id, level, 0) for vm_id, (_, level) in VMS.items()]
    workload += [_request(vm_id, level, arrival) for vm_id, (arrival, level) in LATE.items()]
    config = SimulationConfig(
        fleet=tuple(FleetMachine(MachineCapacity(10.0, 20.0, 10.0, 10.0), 200.0) for _ in range(4)),
        duration_ticks=8,
        initial_running_count=4,
        migration_cost_ticks=3,
    )
    policy = RecordingPolicy()
    report = Simulation(config, workload, policy).run()
    return hashlib.sha256(repr((policy.records, report)).encode()).hexdigest()


def test_views_and_report_do_not_depend_on_pythonhashseed():
    digests = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, __file__],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        digests.append(out.stdout.strip())
    assert digests[0] == digests[1], dict(zip(HASH_SEEDS, digests))


if __name__ == "__main__":
    print(digest())
