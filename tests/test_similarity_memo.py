"""The similarity policy's per-class scoring and the engine's memoized view.

``_pick`` fetches a VM's share once per capacity object, caches each machine's
side of the cosine against the tuple ``machine_rv`` returned, and scores on
plain tuples; the engine memoizes each machine's used share.  These tests hold
both to the direct reference in ``_oracles`` decision for decision, check
every memoized answer against a fresh recomputation, check that the cache is
right when the view's tuples are fresh each call or the policy outlives a
simulation, and bound the work per pick and per tick so that per-candidate
recomputation cannot return unnoticed.
"""

from __future__ import annotations

import math

from _instances import make_instance
from _oracles import ReferenceSimilarity, fresh_machine_rv
from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import (
    MachineCapacity,
    MachineState,
    PowerModel,
    ResourceVector,
    clamped_sum_of,
    utilization_of,
)
from dcsim.policies import build_policy
from dcsim.policies.base import RebalanceAction, SchedulerPolicy
from dcsim.policies import similarity
from dcsim.policies.similarity import SimilarityPolicy, cosine_of
from dcsim.workload import DemandSample, VmRequest, WorkloadProfile, WorkloadSpec, generate_workload

DIFFERENTIAL_INSTANCES = 300


class FreshSimulation(Simulation):
    """A simulation whose view recomputes every used share on every call."""

    def machine_rv(self, machine_id):
        return fresh_machine_rv(self, machine_id)


class CheckedSimulation(Simulation):
    """A simulation that checks each memoized used share against a fresh one.

    It also notes whether a VM ever departed while its migration was in flight.
    """

    departed_in_flight = False

    def machine_rv(self, machine_id):
        got = super().machine_rv(machine_id)
        assert got == fresh_machine_rv(self, machine_id), (self.current_tick, machine_id)
        return got

    def _process_departures(self, tick):
        for vm_id in self._departures.get(tick, ()):
            self.departed_in_flight |= self.vm_in_flight(vm_id)
        super()._process_departures(tick)


def _below_cap(policy, view, machine_id, extras):
    """Whether a machine's used share, with any planned extras, is below the packing cap."""
    used = view.machine_rv(machine_id)
    if extras and machine_id in extras:
        extra = extras[machine_id]
        if isinstance(extra, ResourceVector):  # the reference plans in vectors
            extra = extra.as_tuple()
        used = clamped_sum_of(used, extra)
    cfg = policy.config
    return utilization_of(used, cfg.weights.as_tuple()) < cfg.u_up - cfg.buffer


def _recording(policy_cls):
    """``policy_cls`` extended to log its decisions and what its picks saw."""

    class Recording(policy_cls):
        def __init__(self, config):
            super().__init__(config)
            self.log = []
            self.picked_with_inbound = False
            self.picked_with_extras = False
            self.picked_with_machine_at_cap = False

        def allocate(self, vm_id, view):
            decision = super().allocate(vm_id, view)
            self.log.append((view.current_tick, vm_id, decision))
            return decision

        def rebalance(self, view, tick):
            for action in super().rebalance(view, tick):
                self.log.append((tick, action))
                yield action

        def _pick(self, vm_id, view, source=None, extras=None):
            self.picked_with_inbound |= any(
                view.has_inbound(pm.id) for pm in view.running_machines()
            )
            self.picked_with_extras |= bool(extras)
            self.picked_with_machine_at_cap |= any(
                not _below_cap(self, view, pm.id, extras)
                for pm in view.running_machines()
                if pm.id != source
            )
            return super()._pick(vm_id, view, source, extras)

    return Recording


def _run(sim_cls, policy_cls, config, workload, spec):
    policy = _recording(policy_cls)(build_policy(spec).config)
    sim = sim_cls(config, workload, policy)
    return sim, policy, sim.run()


def test_matches_reference_on_random_instances():
    covered = {
        "dissimilar": 0,
        "free-fit": 0,
        "migration_cost_ticks 0": 0,
        "migration_cost_ticks > 0": 0,
        "pick while an inbound flight exists": 0,
        "pick using planned extras": 0,
        "pick skipped a machine at the cap": 0,
        "departure while a migration is in flight": 0,
        "wake": 0,
        "blocked scale-down": 0,
    }
    for seed in range(DIFFERENTIAL_INSTANCES):
        config, workload, spec = make_instance(seed, "similarity")
        _, ref, ref_report = _run(FreshSimulation, ReferenceSimilarity, config, workload, spec)
        sim, got, got_report = _run(CheckedSimulation, SimilarityPolicy, config, workload, spec)
        assert got.log == ref.log, f"seed {seed}: decisions differ"
        assert got.stats == ref.stats, f"seed {seed}: policy_stats differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"

        covered[spec["similarity_method"]] += 1
        if config.migration_cost_ticks:
            covered["migration_cost_ticks > 0"] += 1
        else:
            covered["migration_cost_ticks 0"] += 1
        covered["pick while an inbound flight exists"] += got.picked_with_inbound
        covered["pick using planned extras"] += got.picked_with_extras
        covered["pick skipped a machine at the cap"] += got.picked_with_machine_at_cap
        covered["departure while a migration is in flight"] += sim.departed_in_flight
        covered["wake"] += got_report.wake_count > 0
        covered["blocked scale-down"] += got.stats.get("scale_down_blocked", 0) > 0
    assert all(covered.values()), covered


class FreshTupleSimulation(Simulation):
    """A simulation whose ``machine_rv`` returns a new, equal tuple on every call."""

    def machine_rv(self, machine_id):
        return tuple(list(super().machine_rv(machine_id)))


def _cosine_as_first_written(a, b):
    """``cosine_of`` before norms could be reused: both norms taken in place."""
    denom = math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]) * math.sqrt(
        b[0] * b[0] + b[1] * b[1] + b[2] * b[2] + b[3] * b[3]
    )
    if denom == 0.0:
        return 0.0
    value = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]) / denom
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _scoring_spy(monkeypatch):
    """Count the scores and norms ``similarity`` computes, and keep each score.

    Every norm handed in must be that tuple's own norm.  Each score is kept
    with its two tuples in ``scored`` for checking once the spy is gone.
    """
    counts = {"scores": 0, "norms": 0}
    scored = []
    norm_of = similarity._norm_of
    cosine_normed = similarity._cosine_normed

    def counted_norm(a):
        counts["norms"] += 1
        return norm_of(a)

    def kept_cosine(a, norm_a, b, norm_b):
        counts["scores"] += 1
        assert norm_a.hex() == norm_of(a).hex() and norm_b.hex() == norm_of(b).hex()
        score = cosine_normed(a, norm_a, b, norm_b)
        scored.append((a, b, score))
        return score

    monkeypatch.setattr(similarity, "_norm_of", counted_norm)
    monkeypatch.setattr(similarity, "_cosine_normed", kept_cosine)
    return counts, scored


def test_cached_machine_terms_match_reference_when_every_tuple_is_fresh(monkeypatch):
    methods = set()
    extras_seen = 0
    scored = []
    for seed in range(100):
        config, workload, spec = make_instance(seed, "similarity")
        _, ref, ref_report = _run(FreshSimulation, ReferenceSimilarity, config, workload, spec)
        with monkeypatch.context() as patch:
            _, scored_here = _scoring_spy(patch)
            _, got, got_report = _run(
                FreshTupleSimulation, SimilarityPolicy, config, workload, spec
            )
        assert got.log == ref.log, f"seed {seed}: decisions differ"
        assert got.stats == ref.stats, f"seed {seed}: policy_stats differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"
        methods.add(spec["similarity_method"])
        extras_seen += got.picked_with_extras
        scored += scored_here
    assert methods == {"dissimilar", "free-fit"} and extras_seen > 0 and scored
    for a, b, score in scored:
        assert score.hex() == cosine_of(a, b).hex() == _cosine_as_first_written(a, b).hex()


def test_one_policy_reused_across_two_simulations_decides_like_a_new_one():
    small = MachineCapacity(2000.0, 4096.0, 500.0, 500.0)
    mixed = MachineCapacity(4000.0, 4096.0, 2000.0, 500.0)
    checked = 0
    for seed in range(40):
        config_b, workload_b, spec = make_instance(seed, "similarity")
        config_a, workload_a, _ = make_instance(seed + 1000, "similarity")
        # Fleet A differs from fleet B in size and in every capacity.
        fleet_a = tuple(
            FleetMachine(small if i % 2 else mixed, 200.0)
            for i in range(len(config_b.fleet) + 2)
        )
        config_a = SimulationConfig(
            fleet=fleet_a,
            duration_ticks=config_a.duration_ticks,
            initial_running_count=len(fleet_a),
            migration_cost_ticks=config_a.migration_cost_ticks,
        )
        reused = _recording(SimilarityPolicy)(build_policy(spec).config)
        CheckedSimulation(config_a, workload_a, reused).run()
        first_run = len(reused.log)
        reused.stats.clear()
        got_report = CheckedSimulation(config_b, workload_b, reused).run()
        _, ref, ref_report = _run(FreshSimulation, ReferenceSimilarity, config_b, workload_b, spec)
        assert reused.log[first_run:] == ref.log, f"seed {seed}: decisions differ"
        assert got_report == ref_report, f"seed {seed}: reports differ"
        checked += first_run > 0 and bool(ref.log)
    assert checked > 20


def test_machine_terms_are_reused_within_a_tick(monkeypatch):
    counts, scored = _scoring_spy(monkeypatch)
    capacity = MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0)
    config = SimulationConfig(
        fleet=tuple(FleetMachine(capacity, 200.0) for _ in range(12)),
        duration_ticks=60,
        initial_running_count=6,
        migration_cost_ticks=1,
    )
    workload = generate_workload(
        WorkloadSpec(
            seed=5,
            vm_count=30,
            duration_ticks=60,
            profile=WorkloadProfile.SPIKY,
            arrival_spread_ticks=20,
            lifetime_ticks=40,
        )
    )
    policy = build_policy({"id": "similarity", "u_down": 0.3, "similarity_method": "dissimilar"})
    Simulation(config, workload, policy).run()
    # Without reuse every score would compute its machine's norm, so the
    # norms would outnumber the scores.
    assert counts["scores"] > 1000
    assert counts["norms"] < counts["scores"] / 2
    # The cache holds at most one entry per machine.
    assert set(policy._terms) <= set(range(len(config.fleet)))
    monkeypatch.undo()
    for a, b, score in scored:
        assert score.hex() == cosine_of(a, b).hex()


class _MigrateThenLook(SchedulerPolicy):
    """Places every VM on machine 0 and sends ``vm-a`` to machine 1 at tick 1.

    It reads machine 1's used share in every allocation and rebalance.
    """

    name = "migrate-then-look"

    def allocate(self, vm_id, view):
        view.machine_rv(1)
        return 0

    def rebalance(self, view, tick):
        if tick == 1:
            yield RebalanceAction.migrate("vm-a", 0, 1)
        view.machine_rv(1)


def _flat(vm_id, level, arrival, departure):
    trace = tuple(DemandSample(t, level, level, level, level) for t in range(arrival, 10))
    nominal = MachineCapacity(level, level, level, level)
    return VmRequest(vm_id, nominal, arrival, departure, trace)


def test_departure_in_flight_drops_the_target_share_before_the_next_pick():
    # vm-a departs at tick 2 while in flight to machine 1; vm-b's allocation
    # in the same tick, before arbitration, must not see vm-a's share there.
    capacity = MachineCapacity(1000.0, 1000.0, 1000.0, 1000.0)
    config = SimulationConfig(
        fleet=(FleetMachine(capacity, 200.0),) * 2,
        duration_ticks=4,
        initial_running_count=2,
        migration_cost_ticks=3,
    )
    workload = [_flat("vm-a", 100.0, 0, 2), _flat("vm-b", 100.0, 2, None)]
    sim = CheckedSimulation(config, workload, _MigrateThenLook())
    sim.run()
    assert sim.departed_in_flight


# ---------------------------------------------------------------------------
# Bounds on the work
# ---------------------------------------------------------------------------


class _CountingView:
    """Forwards every read to the simulation, counting per-VM share lookups
    and machine used-share reads."""

    def __init__(self, sim):
        self._sim = sim
        self.share_calls = 0
        self.machine_reads = 0

    def __getattr__(self, name):
        return getattr(self._sim, name)

    def vm_rv_on(self, vm_id, machine_id):
        self.share_calls += 1
        return self._sim.vm_rv_on(vm_id, machine_id)

    def machine_rv(self, machine_id):
        self.machine_reads += 1
        return self._sim.machine_rv(machine_id)


class _CountedSimilarity(SimilarityPolicy):
    def __init__(self, config):
        super().__init__(config)
        # Per pick: (share lookups, capacity classes, candidates, cosines,
        # candidates below the cap, machine used-share reads).
        self.picks = []
        self.cosines = 0  # counted by the spy ``_check_work_is_bounded`` installs

    def _pick(self, vm_id, view, source=None, extras=None):
        counting = _CountingView(view)
        cosines = self.cosines
        decision = super()._pick(vm_id, counting, source, extras)
        candidates = [pm for pm in view.running_machines() if pm.id != source]
        classes = {pm.capacity for pm in candidates}
        below_cap = sum(_below_cap(self, view, pm.id, extras) for pm in candidates)
        self.picks.append(
            (
                counting.share_calls,
                len(classes),
                len(candidates),
                self.cosines - cosines,
                below_cap,
                counting.machine_reads,
            )
        )
        return decision


class _CountingSimulation(Simulation):
    """Counts uncached used-share computations between two arbitrations.

    Each window runs from one arbitration to the next: a tick's rebalance
    plus the next tick's landings, departures and arrivals.  Its bound is
    the machines running when it opens, plus the machines woken and the
    hosted-list changes and flight starts and ends made inside it.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.windows = []  # (computations, bound)
        self._computed = 0
        self._bound = self.config.initial_running_count

    def _used_share(self, machine_id):
        self._computed += 1
        return super()._used_share(machine_id)

    def _set_host(self, vm, target):
        self._bound += (vm.host_id is not None) + (target is not None)
        super()._set_host(vm, target)

    def _set_flight(self, vm_id, flight):
        self._bound += 1
        super()._set_flight(vm_id, flight)

    def _wake(self, pm):
        self._bound += 1
        super()._wake(pm)

    def _arbitrate(self, tick):
        self.windows.append((self._computed, self._bound))
        super()._arbitrate(tick)
        self._computed = 0
        self._bound = sum(pm.state is MachineState.RUNNING for pm in self.machines)


def _check_work_is_bounded(separate, monkeypatch, loaded=False, per_class=4):
    """Run a mixed fleet and bound the share lookups, cosines and machine
    used-share reads per pick and the used-share computations per tick.

    The fleet has ``per_class`` machines of each of three capacities.  With
    ``separate`` every machine gets its own, equal capacity object; the
    engine must share them again for the per-class bound to hold.  With
    ``loaded`` the VMs run near their nominal size and spike, so picks meet
    machines already at the packing cap.
    """
    capacities = [
        MachineCapacity(2000.0, 4096.0, 500.0, 500.0),
        MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0),
        MachineCapacity(8000.0, 16384.0, 2000.0, 2000.0),
    ]
    fleet = tuple(
        FleetMachine(MachineCapacity(*cap.as_tuple()) if separate else cap, 200.0)
        for cap in capacities
        for _ in range(per_class)
    )
    config = SimulationConfig(
        fleet=fleet,
        duration_ticks=60,
        initial_running_count=6,
        power_model=PowerModel(idle_fraction=0.5),
        migration_cost_ticks=1,
    )
    workload = generate_workload(
        WorkloadSpec(
            seed=5,
            vm_count=30,
            duration_ticks=60,
            profile=WorkloadProfile.SPIKY,
            arrival_spread_ticks=20,
            lifetime_ticks=40,
            mean_level=0.9 if loaded else 0.5,
            spike_probability=0.1 if loaded else 0.0,
        )
    )
    spec = {"id": "similarity", "u_down": 0.3, "similarity_method": "dissimilar"}
    policy = _CountedSimilarity(build_policy(spec).config)
    cosine_normed = similarity._cosine_normed

    def counted_cosine(*args):
        policy.cosines += 1
        return cosine_normed(*args)

    monkeypatch.setattr(similarity, "_cosine_normed", counted_cosine)
    sim = _CountingSimulation(config, workload, policy)
    report = sim.run()

    assert report.migration_count > 0 and policy.stats.get("scale_down_blocked", 0) > 0
    # Picks that see several machines of one class are where a per-machine
    # lookup would show.
    assert sum(candidates > classes for _, classes, candidates, _, _, _ in policy.picks) > 100
    for calls, classes, _, _, _, _ in policy.picks:
        assert calls <= classes
    # A machine at the cap is skipped before its cosine is computed.
    for _, _, _, cosines, below, _ in policy.picks:
        assert cosines <= below
    # A pick reads each candidate's used share at most once, not once per VM.
    for _, _, candidates, _, _, reads in policy.picks:
        assert reads <= candidates
    if loaded:
        assert sum(below < candidates for _, _, candidates, _, below, _ in policy.picks) > 100
    windows = sim.windows + [(sim._computed, sim._bound)]
    assert sum(computed for computed, _ in windows) > 0
    for computed, bound in windows:
        assert computed <= bound


def test_work_per_pick_and_per_tick_is_bounded(monkeypatch):
    _check_work_is_bounded(separate=False, monkeypatch=monkeypatch)


def test_work_is_bounded_when_equal_capacities_are_separate_objects(monkeypatch):
    _check_work_is_bounded(separate=True, monkeypatch=monkeypatch)


def test_work_is_bounded_when_machines_reach_the_cap(monkeypatch):
    _check_work_is_bounded(separate=False, monkeypatch=monkeypatch, loaded=True)


def test_work_is_bounded_on_a_fleet_twice_the_size(monkeypatch):
    _check_work_is_bounded(separate=False, monkeypatch=monkeypatch, per_class=8)


def test_work_is_bounded_on_a_loaded_fleet_twice_the_size(monkeypatch):
    _check_work_is_bounded(separate=False, monkeypatch=monkeypatch, loaded=True, per_class=8)
