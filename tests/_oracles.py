"""Independent reference implementations of the core math, for cross-checking.

Everything here deliberately avoids the production code paths: exact rational
arithmetic (``fractions.Fraction``) where the target expression is rational,
and 50-digit ``mpmath`` arithmetic where it is not (cosine similarity needs a
square root).  Floats convert to Fraction losslessly, so the reference value
is the mathematically exact result for the same binary inputs.

Two reference policies keep the direct per-(VM, machine) scoring that the
production policies' per-capacity-class scoring must reproduce decision for
decision: ``ReferenceSingleThreshold`` and ``ReferenceSimilarity``.  Four
more keep the nominal-size baselines' own loops, one per policy, which the
shared first fit and rotation must reproduce: ``ReferenceRoundRobin``,
``ReferenceGreedy``, ``ReferencePowerSave`` and
``ReferenceDynamicRoundRobin``.
``fresh_machine_rv`` recomputes a machine's used share from scratch, as the
reference for the engine's memoized one.  ``reference_generate_workload`` is
the per-(VM, tick, resource) generator loop that the straight-line
``generate_workload`` must reproduce sample for sample.  The reference policies wrap the
view's share tuples in ``ResourceVector`` as they read them.
``reference_record_usage`` is the usage window's update as first written,
on an eagerly kept ``EagerWindow``; the engine's replay of a window on read
must match it sum for sum.
"""

from __future__ import annotations

import math
import random
from collections import deque
from fractions import Fraction
from typing import Optional

import mpmath

from dcsim.model import (
    BreachSide,
    MachineCapacity,
    MachineState,
    ResourceVector,
    clamped_sum_of,
    complement_of,
    shares_of,
    used_shares_of,
    utilization_of,
)
from dcsim.policies.base import RebalanceAction
from dcsim.policies.baselines import (
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    PowerSavePolicy,
    RoundRobinPolicy,
    SingleThresholdPolicy,
)
from dcsim.policies.similarity import SimilarityMethod, SimilarityPolicy, cosine_of
from dcsim.workload import DemandSample, VmRequest, WorkloadProfile, WorkloadSpec, _derived_rng

mpmath.mp.dps = 50

Tuple4 = tuple[float, float, float, float]


def rel_error(actual: float, expected: float) -> float:
    """Relative error of ``actual`` against an exact ``expected`` value."""
    if expected == 0.0:
        return abs(actual)
    return abs(actual - expected) / abs(expected)


def _clamp01_frac(x: Fraction) -> Fraction:
    if x < 0:
        return Fraction(0)
    if x > 1:
        return Fraction(1)
    return x


def exact_rescale(rv: Tuple4, from_cap: Tuple4, to_cap: Tuple4) -> Tuple4:
    """Exact capacity rescaling: component * from/to, clamped to [0, 1]."""
    out = []
    for v, f, t in zip(rv, from_cap, to_cap):
        out.append(float(_clamp01_frac(Fraction(v) * Fraction(f) / Fraction(t))))
    return tuple(out)


def exact_unified(rv: Tuple4, weights: Tuple4) -> float:
    """Exact weighted sum of resource shares, clamped to [0, 1]."""
    total = sum(Fraction(w) * Fraction(v) for w, v in zip(weights, rv))
    return float(_clamp01_frac(total))


def exact_power(peak: float, idle_fraction: float, u: float) -> float:
    """Exact affine power curve for a running machine."""
    p, i, uu = Fraction(peak), Fraction(idle_fraction), Fraction(u)
    return float(p * (i + (1 - i) * uu))


def exact_window_rv(samples: list[Tuple4], cap: Tuple4) -> Tuple4:
    """Exact window-mean usage divided by capacity, clamped to [0, 1]."""
    n = len(samples)
    out = []
    for i in range(4):
        mean = sum(Fraction(s[i]) for s in samples) / n
        out.append(float(_clamp01_frac(mean / Fraction(cap[i]))))
    return tuple(out)


def mp_cosine(a: Tuple4, b: Tuple4) -> float:
    """High-precision cosine similarity; 0 when either vector is all-zero."""
    av = [mpmath.mpf(x) for x in a]
    bv = [mpmath.mpf(x) for x in b]
    dot = mpmath.fsum(x * y for x, y in zip(av, bv))
    na = mpmath.sqrt(mpmath.fsum(x * x for x in av))
    nb = mpmath.sqrt(mpmath.fsum(x * x for x in bv))
    if na == 0 or nb == 0:
        return 0.0
    c = dot / (na * nb)
    if c < 0:
        return 0.0
    if c > 1:
        return 1.0
    return float(c)


# ---------------------------------------------------------------------------
# Random input generators (deterministic given the seed)
# ---------------------------------------------------------------------------


def random_fraction(rng: random.Random) -> float:
    """A fraction in [0, 1] with occasional exact endpoints."""
    roll = rng.random()
    if roll < 0.05:
        return 0.0
    if roll < 0.10:
        return 1.0
    return rng.random()


def random_rv_tuple(rng: random.Random) -> Tuple4:
    return tuple(random_fraction(rng) for _ in range(4))


def random_capacity_tuple(rng: random.Random) -> Tuple4:
    return tuple(10.0 ** rng.uniform(-2.0, 6.0) for _ in range(4))


def random_weights_tuple(rng: random.Random) -> Tuple4:
    if rng.random() < 0.05:
        one_hot = [0.0, 0.0, 0.0, 0.0]
        one_hot[rng.randrange(4)] = 1.0
        return tuple(one_hot)
    raw = [rng.uniform(0.01, 1.0) for _ in range(4)]
    total = sum(raw)
    w = [x / total for x in raw]
    # Pin the last weight so the four sum to 1 within a couple of ulp.
    w[3] = 1.0 - (w[0] + w[1] + w[2])
    return tuple(w)


# ---------------------------------------------------------------------------
# Reference policies
# ---------------------------------------------------------------------------


def _ref_fits(free, nominal):
    return (
        nominal.cpu <= free[0]
        and nominal.mem <= free[1]
        and nominal.disk <= free[2]
        and nominal.bw <= free[3]
    )


class ReferenceRoundRobin(RoundRobinPolicy):
    """``round_robin`` with its own cursor loop."""

    def allocate(self, vm_id, view):
        machines = view.all_machines()
        nominal = view.vm_nominal(vm_id)
        n = len(machines)
        for step in range(n):
            pm = machines[(self._cursor + step) % n]
            if _ref_fits(view.nominal_free(pm.id), nominal):
                self._cursor = (self._cursor + step + 1) % n
                return pm.id
        return None


class ReferenceGreedy(GreedyPolicy):
    """``greedy`` with its own first-fit loop."""

    def allocate(self, vm_id, view):
        nominal = view.vm_nominal(vm_id)
        for pm in view.all_machines():
            if _ref_fits(view.nominal_free(pm.id), nominal):
                return pm.id
        return None


class ReferencePowerSave(PowerSavePolicy):
    """``power_save`` placing with one loop over running, then one over standby machines."""

    def allocate(self, vm_id, view):
        nominal = view.vm_nominal(vm_id)
        for pm in view.running_machines():
            if _ref_fits(view.nominal_free(pm.id), nominal):
                return pm.id
        for pm in view.standby_machines():
            if _ref_fits(view.nominal_free(pm.id), nominal):
                return pm.id
        return None


class ReferenceDynamicRoundRobin(DynamicRoundRobinPolicy):
    """``dynamic_round_robin`` with its own cursor loop and its own forced-migration scan."""

    def allocate(self, vm_id, view):
        machines = [pm for pm in view.all_machines() if pm.id not in self._retiring]
        if not machines:
            return None
        nominal = view.vm_nominal(vm_id)
        n = len(machines)
        start = sum(pm.id < self._cursor for pm in machines)  # the cursor is a machine id
        for step in range(n):
            pm = machines[(start + step) % n]
            if _ref_fits(view.nominal_free(pm.id), nominal):
                self._cursor = pm.id + 1
                return pm.id
        return None

    def rebalance(self, view, tick):
        for pm_id in sorted(self._retiring):
            pm = view.machine(pm_id)
            if pm.hosted_vm_ids and tick - self._retiring[pm_id] >= self.retirement_threshold:
                for vm_id in list(pm.hosted_vm_ids):
                    if view.vm_in_flight(vm_id):
                        continue
                    target = self._ref_target(vm_id, view)
                    if target is None:
                        self._count("retirement_stuck")
                        continue
                    yield RebalanceAction.migrate(vm_id, pm_id, target.id, reason="retirement")
            if not pm.hosted_vm_ids and not view.has_inbound(pm_id):
                yield RebalanceAction.standby_machine(pm_id, reason="retirement")
                del self._retiring[pm_id]

    def _ref_target(self, vm_id, view):
        nominal = view.vm_nominal(vm_id)
        for pm in view.all_machines():
            if pm.id in self._retiring:
                continue
            if _ref_fits(view.nominal_free(pm.id), nominal):
                return pm
        return None


class ReferenceSingleThreshold(SingleThresholdPolicy):
    """``single_threshold`` scored the direct way: every (VM, machine) pair.

    Each candidate machine's footprint and power increase are computed from
    that machine itself, with no grouping by capacity and no per-pass cache.
    It uses none of the production helpers, only the constructor, ``name``
    and the ``replan_stuck`` counter.
    """

    def _ref_cpu(self, vm_id, view):
        usage = view.vm_window_mean(vm_id)
        if usage is not None:
            return usage[0]
        return view.vm_nominal(vm_id).cpu

    def _ref_increase(self, vm_id, pm, view, plan_on):
        if view.vm_window_mean(vm_id) is not None:
            rv = ResourceVector(*view.vm_rv_on(vm_id, pm.id))
        else:
            rv = ResourceVector(*view.vm_nominal_rv_on(vm_id, pm.id))
        model = view.power_model
        slope = pm.peak_power_watts * (1.0 - model.idle_fraction)
        increase = slope * utilization_of(rv.as_tuple(), self.weights.as_tuple())
        if not plan_on:
            increase += pm.peak_power_watts * model.idle_fraction - model.standby_watts
        return increase

    def allocate(self, vm_id, view):
        vm_cpu = self._ref_cpu(vm_id, view)
        best = None
        for pm in view.all_machines():
            used_cpu = view.cpu_used_abs(pm.id)
            if (used_cpu + vm_cpu) / pm.capacity.cpu >= self.threshold:
                continue
            increase = self._ref_increase(vm_id, pm, view, pm.state is MachineState.RUNNING)
            if best is None or (increase, pm.id) < (best[0], best[1]):
                best = (increase, pm.id)
        if best is None:
            return None
        return best[1]

    def rebalance(self, view, tick):
        if tick % self.epoch_ticks != 0:
            return
        machines = view.all_machines()
        plan_cpu = {pm.id: 0.0 for pm in machines}
        plan_on = {pm.id: pm.state is MachineState.RUNNING for pm in machines}

        placed = []
        skipped = []
        for pm in machines:
            for vm_id in pm.hosted_vm_ids:
                if view.vm_in_flight(vm_id):
                    skipped.append(vm_id)
                else:
                    placed.append((vm_id, pm.id))
        for vm_id in skipped:
            host = view.vm_host(vm_id)
            if host is not None:
                plan_cpu[host] += self._ref_cpu(vm_id, view)

        order = sorted(placed, key=lambda item: (-self._ref_cpu(item[0], view), item[0]))
        moves = []
        for vm_id, current_host in order:
            vm_cpu = self._ref_cpu(vm_id, view)
            best = None
            for pm in machines:
                if (plan_cpu[pm.id] + vm_cpu) / pm.capacity.cpu >= self.threshold:
                    continue
                increase = self._ref_increase(vm_id, pm, view, plan_on[pm.id])
                if best is None or (increase, pm.id) < (best[0], best[1]):
                    best = (increase, pm.id)
            target = best[1] if best is not None else current_host
            if best is None:
                self._count("replan_stuck")
            plan_cpu[target] += vm_cpu
            plan_on[target] = True
            if target != current_host:
                moves.append((vm_id, current_host, target))

        for vm_id, source, target in moves:
            yield RebalanceAction.migrate(vm_id, source, target, reason="replan")


_ZERO_RV = ResourceVector(0.0, 0.0, 0.0, 0.0)


def _add_clamped(a, b):
    """Componentwise sum of two resource vectors, clamped into [0, 1]."""
    return ResourceVector(*clamped_sum_of(a.as_tuple(), b.as_tuple()))


class ReferenceSimilarity(SimilarityPolicy):
    """The similarity policy scored the direct way, on ``ResourceVector``s.

    ``_pick`` asks the view for the VM's share and the used share of every
    candidate machine, with no grouping by capacity; ``scale_down_check``
    accumulates its planned placements as vectors to match.
    """

    def _pick(self, vm_id, view, source=None, extras=None):
        cfg = self.config
        cap_u = cfg.u_up - cfg.buffer
        ranked = []
        for pm in view.running_machines():
            if pm.id == source:
                continue
            vm_rv = ResourceVector(*view.vm_rv_on(vm_id, pm.id))
            used = ResourceVector(*view.machine_rv(pm.id))
            if extras is not None and pm.id in extras:
                used = _add_clamped(used, extras[pm.id])
            if cfg.similarity_method is SimilarityMethod.DISSIMILAR:
                score = cosine_of(vm_rv.as_tuple(), used.as_tuple())
                if score > cfg.similarity_threshold:
                    continue
                ranked.append((score, pm.id, vm_rv, used))
            else:
                score = cosine_of(vm_rv.as_tuple(), complement_of(used.as_tuple()))
                if score < cfg.similarity_threshold:
                    continue
                ranked.append((-score, pm.id, vm_rv, used))
        ranked.sort(key=lambda item: (item[0], item[1]))

        for _, pm_id, vm_rv, used in ranked:
            if utilization_of(_add_clamped(used, vm_rv).as_tuple(), cfg.weights.as_tuple()) < cap_u:
                return pm_id

        if extras is None:
            standby = view.standby_machines()
            if standby:
                chosen = min(standby, key=lambda pm: (pm.last_used_tick, pm.id))
                return chosen.id
        return None

    def scale_down_check(self, pm, tick, view):
        if not self._breach_mature(pm, BreachSide.UNDER, tick):
            return None
        if any(view.vm_in_flight(vm_id) for vm_id in pm.hosted_vm_ids):
            return None
        extras = {}
        plan = []
        for vm_id in list(pm.hosted_vm_ids):
            target = self._pick(vm_id, view, pm.id, extras)
            if target is None:
                self._count("scale_down_blocked")
                return None
            vm_rv = ResourceVector(*view.vm_rv_on(vm_id, target))
            extras[target] = _add_clamped(extras.get(target, _ZERO_RV), vm_rv)
            plan.append(RebalanceAction.migrate(vm_id, pm.id, target, reason="scale-down"))
        plan.append(RebalanceAction.standby_machine(pm.id, reason="scale-down"))
        return plan


def _fresh_vm_rv_on(sim, vm_id, machine_id):
    """A VM's share of one machine, recomputed from its usage window."""
    mean = sim.vm_window_mean(vm_id)
    if mean is None:
        return sim.policy.default_rv.as_tuple()
    return shares_of(mean, sim.machines[machine_id].capacity.as_tuple())


def fresh_machine_rv(sim, machine_id):
    """A machine's used share, recomputed from scratch.

    Latest delivered usage of the hosted VMs, the default share for those
    without any, then the shares of VMs inbound through a delayed migration.
    """
    pm = sim.machines[machine_id]
    latest = [sim.vm_delivered(vm_id) for vm_id in pm.hosted_vm_ids]
    used = used_shares_of(pm, latest)
    for usage in latest:
        if usage is None:
            used = clamped_sum_of(used, sim.policy.default_rv.as_tuple())
    inbound = sorted(
        vm_id for vm_id, (target_id, _) in sim._inflight.items() if target_id == machine_id
    )
    for vm_id in inbound:
        used = clamped_sum_of(used, _fresh_vm_rv_on(sim, vm_id, machine_id))
    return used


class EagerWindow:
    """A VM's usage window kept eagerly, one delivered sample per tick.

    ``usage_window`` holds the last ``window_ticks`` samples and
    ``_window_sums`` their running sums, as ``reference_record_usage`` keeps
    them.
    """

    def __init__(self, window_ticks: int) -> None:
        self.usage_window = deque(maxlen=window_ticks)
        self._window_sums = (0.0, 0.0, 0.0, 0.0)

    def mean(self) -> Optional[Tuple4]:
        """The mean over the window, or None without samples."""
        n = len(self.usage_window)
        if n == 0:
            return None
        s = self._window_sums
        return (s[0] / n, s[1] / n, s[2] / n, s[3] / n)


def reference_record_usage(window, sample):
    """The usage window's update as first written, on an ``EagerWindow``.

    Evicts by ``deque.maxlen``, subtracts the evicted sample into the sums,
    then adds the new one.
    """
    samples = window.usage_window
    s0, s1, s2, s3 = window._window_sums
    if len(samples) == samples.maxlen:
        o0, o1, o2, o3 = samples[0]
        s0, s1, s2, s3 = s0 - o0, s1 - o1, s2 - o2, s3 - o3
    samples.append(sample)
    c, m, d, b = sample
    window._window_sums = (s0 + c, s1 + m, s2 + d, s3 + b)


# ---------------------------------------------------------------------------
# Reference workload generator
# ---------------------------------------------------------------------------


def reference_generate_workload(spec: WorkloadSpec) -> list[VmRequest]:
    """The generator loop as first written: per VM, tick and resource.

    Recomputes the diurnal level for every (VM, tick), draws jitter with
    ``random.uniform`` and clamps with ``min(max(x, 0.0), ceiling)``.
    """
    ref = spec.reference_capacity.as_tuple()
    period = spec.diurnal_period_ticks or spec.duration_ticks
    width = len(str(max(spec.vm_count - 1, 1)))

    spikes_enabled = (
        spec.profile in (WorkloadProfile.SPIKY, WorkloadProfile.MIXED_INTENSIVE)
        and spec.spike_probability > 0.0
    )
    sync_spike: Optional[list[bool]] = None
    if spikes_enabled and spec.spike_synchronized:
        sync_rng = _derived_rng(spec.seed, 0, 3)
        sync_spike = []
        left = 0
        for _ in range(spec.duration_ticks):
            if left == 0 and sync_rng.random() < spec.spike_probability:
                left = spec.spike_duration_ticks
            sync_spike.append(left > 0)
            if left > 0:
                left -= 1

    requests = []
    for index in range(spec.vm_count):
        vm_id = f"vm-{index:0{width}d}"
        life_rng = _derived_rng(spec.seed, index, 0)
        base_rng = _derived_rng(spec.seed, index, 1)
        spike_rng = _derived_rng(spec.seed, index, 2)

        fraction = spec.nominal_fraction
        if spec.nominal_fraction_spread > 0.0:
            size_rng = _derived_rng(spec.seed, index, 4)
            fraction *= 1.0 + size_rng.uniform(
                -spec.nominal_fraction_spread, spec.nominal_fraction_spread
            )
        nominal = MachineCapacity(
            ref[0] * fraction, ref[1] * fraction, ref[2] * fraction, ref[3] * fraction
        )
        nom = nominal.as_tuple()
        ceiling = [c * spec.spike_magnitude for c in nom]

        arrival = life_rng.randint(0, spec.arrival_spread_ticks)
        departure: Optional[int] = None
        if spec.lifetime_ticks is not None:
            departure = arrival + spec.lifetime_ticks
        trace_end = spec.duration_ticks if departure is None else min(departure, spec.duration_ticks)

        if spec.profile is WorkloadProfile.MIXED_INTENSIVE:
            dominant = index % 4
            means = [
                nom[i] * (spec.dominant_level if i == dominant else spec.background_level)
                for i in range(4)
            ]
        else:
            means = [nom[i] * spec.mean_level for i in range(4)]

        spike_left = 0
        samples = []
        for tick in range(arrival, trace_end):
            level = 1.0
            if spec.profile is WorkloadProfile.DIURNAL:
                phase = 2.0 * math.pi * (tick % period) / period
                level = (1.0 - spec.diurnal_amplitude) + spec.diurnal_amplitude * 0.5 * (
                    1.0 - math.cos(phase)
                )
            if spikes_enabled:
                if sync_spike is not None:
                    if sync_spike[tick]:
                        level *= spec.spike_magnitude
                else:
                    if spike_left == 0 and spike_rng.random() < spec.spike_probability:
                        spike_left = spec.spike_duration_ticks
                    if spike_left > 0:
                        level *= spec.spike_magnitude
                        spike_left -= 1
            values = []
            for i in range(4):
                jittered = means[i] * (1.0 + base_rng.uniform(-spec.jitter, spec.jitter))
                values.append(min(max(jittered * level, 0.0), ceiling[i]))
            samples.append(DemandSample(tick, values[0], values[1], values[2], values[3]))

        requests.append(
            VmRequest(
                vm_id=vm_id,
                nominal=nominal,
                arrival_tick=arrival,
                departure_tick=departure,
                trace=tuple(samples),
            )
        )
    return requests
