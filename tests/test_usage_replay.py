"""The usage window the engine replays on read, against one kept eagerly.

Arbitration records nothing per VM on a machine whose totals fit: a VM's
delivered usage is its trace there, and only an over-committed machine
keeps its VMs' delivered usage as overrides.  ``vm_window_mean`` replays
the ticks since it was last read.  These tests hold that to an eagerly kept
window, fed each tick by ``brute_arbitrate`` through
``reference_record_usage``, bit for bit, on the random instances under every
policy: dense, thinned, and early (arrivals moved later inside the VM's
lifetime, so its trace begins before it arrives; at odd seeds the traces are
thinned as well).  A second test checks that reading windows
changes nothing: a run whose policy reads every VM's window on every call
reports exactly what the plain run reports.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from _instances import brute_arbitrate, delay_arrivals, demand_at, make_instance, thin_workload
from _oracles import EagerWindow, reference_record_usage
from dcsim.engine import Simulation
from dcsim.policies import POLICY_IDS, build_policy
from dcsim.policies.base import SchedulerPolicy

REPLAY_INSTANCES = 100  # per policy, trace density and read cadence
INVARIANCE_INSTANCES = 120  # per policy and trace density


def _bits(usage):
    return None if usage is None else [x.hex() for x in usage]


class _EagerSimulation(Simulation):
    """A simulation that also keeps every hosted VM's window eagerly.

    Before each arbitration it computes each running machine's delivered
    usage with ``demand_at`` and ``brute_arbitrate`` and records it in the
    VM's ``EagerWindow``; a departed VM's window goes.  ``seen`` counts the
    cases the comparison should meet: over-committed machine-ticks, VMs
    placed after a rejection and departures.
    """

    def __init__(self, config, workload, policy):
        super().__init__(config, workload, policy)
        self.requests = {request.vm_id: request for request in workload}
        self.window_ticks = max(
            1, math.ceil(policy.usage_window_seconds / config.tick_length_seconds)
        )
        self.eager: dict[str, EagerWindow] = {}
        self.rejected: set[str] = set()
        self.seen = Counter()

    def _arbitrate(self, tick):
        for vm_id in [vm_id for vm_id in self.eager if vm_id not in self.vms]:
            del self.eager[vm_id]
            self.seen["departures"] += 1
        for pm in self.running_machines():
            hosted = pm.hosted_vm_ids
            demands = [demand_at(self.requests[vm_id], tick) for vm_id in hosted]
            delivered, shorted = brute_arbitrate(demands, pm.capacity.as_tuple())
            self.seen["over-committed"] += shorted > 0
            for vm_id, usage in zip(hosted, delivered):
                if vm_id not in self.eager:
                    self.eager[vm_id] = EagerWindow(self.window_ticks)
                    self.seen["placed after a rejection"] += vm_id in self.rejected
                reference_record_usage(self.eager[vm_id], usage)
        self.rejected.update(vm_id for vm_id in self.vms if self.vm_host(vm_id) is None)
        super()._arbitrate(tick)


def _shaped(workload, seed, shape):
    if shape == "early":
        workload = delay_arrivals(workload, seed)
    if shape == "thinned" or (shape == "early" and seed % 2):
        workload = thin_workload(workload, seed)
    return workload


def _check_instance(seed, policy_id, shape, read_share):
    """Run one instance and compare every live VM's usage after every tick.

    The latest delivered usage is compared at every tick; the window mean
    is read at every tick with ``read_share`` 1, and otherwise at a random
    share of the ticks, so that a replay spans many ticks.
    """
    config, workload, spec = make_instance(seed, policy_id)
    sim = _EagerSimulation(config, _shaped(workload, seed, shape), build_policy(spec))
    rng = random.Random(f"reads-{seed}")
    for tick in range(config.duration_ticks):
        sim._step()
        for vm_id in sorted(sim.vms):
            window = sim.eager.get(vm_id)
            last = window.usage_window[-1] if window is not None else None
            where = f"seed={seed} policy={policy_id} tick={tick} {vm_id}"
            assert _bits(sim.vm_delivered(vm_id)) == _bits(last), where
            if rng.random() < read_share:
                mean = window.mean() if window is not None else None
                assert _bits(sim.vm_window_mean(vm_id)) == _bits(mean), where
                sim.seen["window reads"] += 1
            assert len(sim.vms[vm_id].overrides) <= sim.window_ticks + 1, where
        for vm_id in sim.eager:
            assert vm_id in sim.vms, f"seed={seed} tick={tick}: {vm_id} departed but kept"
    return sim.seen


@pytest.mark.parametrize("read_share", [1.0, 0.15], ids=["every-tick", "sparse-reads"])
@pytest.mark.parametrize("shape", ["dense", "thinned", "early"])
def test_replayed_windows_equal_an_eager_window_bit_for_bit(shape, read_share):
    seen = Counter()
    for policy_id in POLICY_IDS:
        for seed in range(REPLAY_INSTANCES):
            seen += _check_instance(seed, policy_id, shape, read_share)
    for case in ("over-committed", "placed after a rejection", "departures", "window reads"):
        assert seen[case] > 0, f"no instance met {case!r}: {dict(seen)}"


class _ReadingEveryWindow(SchedulerPolicy):
    """Delegates to ``inner``, reading every VM's window mean as it goes.

    It reads before each ``allocate`` call, before the inner ``rebalance``
    starts and after each action it yields, for every VM of the workload,
    whether it is pending, hosted, departed or not yet arrived.
    """

    def __init__(self, inner: SchedulerPolicy, vm_ids: list[str]) -> None:
        super().__init__()
        self.inner = inner
        self.vm_ids = vm_ids
        self.name = inner.name
        self.stats = inner.stats
        self.usage_window_seconds = inner.usage_window_seconds
        self.default_rv = inner.default_rv
        self.utilization_weights = inner.utilization_weights

    @property
    def breach_thresholds(self):
        return self.inner.breach_thresholds

    def _read_every_window(self, view):
        for vm_id in self.vm_ids:
            view.vm_window_mean(vm_id)

    def allocate(self, vm_id, view):
        self._read_every_window(view)
        return self.inner.allocate(vm_id, view)

    def rebalance(self, view, tick):
        self._read_every_window(view)
        for action in self.inner.rebalance(view, tick):
            yield action
            self._read_every_window(view)

    def notify_departure(self, vm_id, machine_id, view, tick):
        self.inner.notify_departure(vm_id, machine_id, view, tick)

    def migration_landing_ok(self, vm_id, machine_id, view):
        return self.inner.migration_landing_ok(vm_id, machine_id, view)


@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "thinned"])
@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_reading_every_window_leaves_the_report_unchanged(policy_id, sparse):
    for seed in range(INVARIANCE_INSTANCES):
        config, workload, spec = make_instance(seed, policy_id)
        if sparse:
            workload = thin_workload(workload, seed)
        plain = Simulation(config, workload, build_policy(spec)).run()
        reading = _ReadingEveryWindow(build_policy(spec), [r.vm_id for r in workload])
        assert Simulation(config, workload, reading).run() == plain, f"seed {seed}"
