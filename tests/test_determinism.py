"""A run must not depend on ``PYTHONHASHSEED``.

String hashing is salted per process, so any sum the engine takes in the
iteration order of a ``set`` of VM ids can come out differently in two
processes.  The scenario here runs in two subprocesses under different fixed
hash seeds and compares a digest of every ``nominal_free`` and
``cpu_used_abs`` result, and of the report.  Three VMs of different sizes
fly to one machine together, and two more VMs are placed there while the
flights are under way, so the views sum hosted plus several inbound VMs.

The pickled bytes of a generated workload must not depend on it either:
``spawn`` pool workers receive those bytes, and the benchmark's input check
hashes them.

Nor may the artifacts depend on the interpreter: a shortened ``compare`` and
``sweep`` run under every other CPython 3.10+ that pyenv has installed
(``~/.pyenv/versions/*/bin/python3``) must write the same bytes as under the
interpreter running the tests.  Those tests skip when pyenv has no other one.

Run directly (``python tests/test_determinism.py``), the module prints the
digest of the scenario; with the argument ``workload``, the digest of the
pickled workload.
"""

import hashlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import MachineCapacity
from dcsim.policies.base import RebalanceAction, SchedulerPolicy
from dcsim.workload import (
    DemandSample,
    VmRequest,
    WorkloadProfile,
    WorkloadSpec,
    generate_workload,
)

SRC = Path(__file__).resolve().parent.parent / "src"
HASH_SEEDS = ("1", "2")

PYENV_VERSIONS = Path.home() / ".pyenv" / "versions"
#: Each command run across interpreters: its preset and its ``--set`` values.
SHORT_RUNS = {
    "compare": ("compare_single_threshold.json", []),
    "run": ("sweep_scale_up_energy.json", ["policy.u_up=0.4"]),
    "sweep": ("sweep_scale_down.json", ["sweep.values=[0.0,0.2,0.4]"]),
}
SHORTENED = ["simulation.duration_ticks=120", "workload.spec.duration_ticks=120"]

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


def workload_digest():
    """The hex digest of a generated workload's pickled bytes."""
    spec = WorkloadSpec(
        seed=11,
        vm_count=12,
        duration_ticks=90,
        profile=WorkloadProfile.MIXED_INTENSIVE,
        spike_probability=0.1,
        nominal_fraction_spread=0.3,
        arrival_spread_ticks=30,
        lifetime_ticks=40,
    )
    return hashlib.sha256(pickle.dumps(generate_workload(spec))).hexdigest()


def _digests_under_hash_seeds(*args):
    digests = []
    for seed in HASH_SEEDS:
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, __file__, *args],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        digests.append(out.stdout.strip())
    return digests


def test_views_and_report_do_not_depend_on_pythonhashseed():
    digests = _digests_under_hash_seeds()
    assert digests[0] == digests[1], dict(zip(HASH_SEEDS, digests))


def test_pickled_workload_does_not_depend_on_pythonhashseed():
    digests = _digests_under_hash_seeds("workload")
    assert digests[0] == digests[1], dict(zip(HASH_SEEDS, digests))
    assert digests[0] == workload_digest()


@pytest.fixture(scope="module")
def other_interpreters():
    """Every pyenv CPython 3.10+ whose version differs from the running one."""
    probe = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"
    found = []
    for python in sorted(PYENV_VERSIONS.glob("*/bin/python3")):
        out = subprocess.run([python, "-c", probe], capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            continue
        implementation, *version = out.stdout.split()
        version = tuple(map(int, version))
        if implementation == "CPython" and version >= (3, 10) and version != sys.version_info[:3]:
            found.append(python)
    if not found:
        pytest.skip(f"no other CPython 3.10+ under {PYENV_VERSIONS}")
    return found


def _artifact_digests(python, command, out):
    """The sha256 of every file ``python -m dcsim.cli`` writes for a shortened ``command``."""
    config, sets = SHORT_RUNS[command]
    args = [python, "-m", "dcsim.cli", command, "--config", str(SRC.parent / "configs" / config)]
    for value in sets + SHORTENED:
        args += ["--set", value]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(SRC))
    args += ["--out", str(out)]
    subprocess.run(args, env=env, capture_output=True, check=True, timeout=300)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(SHORT_RUNS))
def test_artifacts_are_identical_under_every_other_cpython(other_interpreters, tmp_path, command):
    expected = _artifact_digests(sys.executable, command, tmp_path / "running")
    for python in other_interpreters:
        got = _artifact_digests(python, command, tmp_path / python.parent.parent.name)
        assert got == expected, python


if __name__ == "__main__":
    print(workload_digest() if sys.argv[1:] == ["workload"] else digest())
