"""Unit tests for the core model: vectors, machines, VMs, utilization, power."""

import math
import random

import pytest

import _fakes as fakes
import _oracles as oracle
from _instances import brute_arbitrate
from dcsim.engine import FleetMachine, Simulation, SimulationConfig
from dcsim.model import (
    DEFAULT_RV,
    MachineCapacity,
    PhysicalMachine,
    PowerModel,
    ResourceVector,
    UtilizationWeights,
    VirtualMachine,
    clamped_sum_of,
    complement_of,
    running_power,
    shares_of,
    used_shares_of,
    utilization_of,
)
from dcsim.policies.similarity import cosine_of
from dcsim.workload import DemandSample, VmRequest

#: A machine no test sample over-commits.
_ROOMY = (1e12, 1e12, 1e12, 1e12)


def _rescaled(shares, from_capacity, to_capacity):
    """A share of one machine as a share of another: the amounts ``v·from`` as shares of ``to``."""
    return shares_of(tuple(v * f for v, f in zip(shares, from_capacity)), to_capacity)


def _window_sim(samples, window_ticks, capacity=_ROOMY):
    """A one-machine simulation of one VM, ``vm-0``, that demands ``samples[t]`` at tick t.

    Its policy is a ``FixedPlacer`` of machine 0.  Each tick is 60 s, so the
    VM's usage window holds ``window_ticks`` ticks.
    """
    trace = tuple(DemandSample(t, *sample) for t, sample in enumerate(samples))
    request = VmRequest("vm-0", MachineCapacity(1, 1, 1, 1), 0, None, trace)
    config = SimulationConfig(
        fleet=(FleetMachine(MachineCapacity(*capacity), 100.0),),
        duration_ticks=len(samples),
    )
    policy = fakes.FixedPlacer(0)
    policy.usage_window_seconds = 60.0 * window_ticks
    return Simulation(config, [request], policy)


def _stepped(samples, window_ticks, **kwargs):
    """``_window_sim`` run to its horizon."""
    sim = _window_sim(samples, window_ticks, **kwargs)
    for _ in samples:
        sim._step()
    return sim


# ---------------------------------------------------------------------------
# ResourceVector basics
# ---------------------------------------------------------------------------


class TestResourceVector:
    def test_holds_components(self):
        rv = ResourceVector(0.1, 0.2, 0.3, 0.4)
        assert rv.as_tuple() == (0.1, 0.2, 0.3, 0.4)

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan"), float("inf")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ResourceVector(bad, 0.5, 0.5, 0.5)

    def test_add_clamped_saturates(self):
        assert clamped_sum_of((0.9, 0.2, 0.0, 1.0), (0.3, 0.2, 0.0, 0.5)) == (1.0, 0.4, 0.0, 1.0)

    def test_complement(self):
        assert complement_of((0.25, 0.5, 0.0, 1.0)) == (0.75, 0.5, 1.0, 0.0)

    def test_default_constant(self):
        assert DEFAULT_RV.as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_is_immutable(self):
        rv = ResourceVector(0.1, 0.1, 0.1, 0.1)
        with pytest.raises(AttributeError):
            rv.cpu = 0.5


class TestMachineCapacity:
    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            MachineCapacity(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            MachineCapacity(1.0, -5.0, 1.0, 1.0)


class TestUtilizationWeights:
    def test_defaults_are_uniform(self):
        assert UtilizationWeights().as_tuple() == (0.25, 0.25, 0.25, 0.25)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            UtilizationWeights(0.5, 0.5, 0.5, 0.5)

    def test_accepts_one_hot(self):
        w = UtilizationWeights(1.0, 0.0, 0.0, 0.0)
        assert w.cpu == 1.0


# ---------------------------------------------------------------------------
# Frozen reference values (hand-computed, independent of the implementation)
# ---------------------------------------------------------------------------


class TestFrozenValues:
    def test_cosine_of_opposed_profiles(self):
        # dot = .07 + .07 + .0025 + .0025 = 0.145; each norm^2 = 0.505.
        a = (0.70, 0.10, 0.05, 0.05)
        b = (0.10, 0.70, 0.05, 0.05)
        assert cosine_of(a, b) == pytest.approx(0.145 / 0.505, rel=1e-12)
        assert cosine_of(a, b) == pytest.approx(0.2871287128712871, rel=1e-12)

    def test_cosine_of_identical_direction_is_one(self):
        a = (0.2, 0.4, 0.1, 0.3)
        b = (0.1, 0.2, 0.05, 0.15)
        assert cosine_of(a, b) == pytest.approx(1.0, rel=1e-12)

    def test_cosine_of_orthogonal_is_zero(self):
        a = (1.0, 0.0, 0.0, 0.0)
        b = (0.0, 1.0, 0.0, 0.0)
        assert cosine_of(a, b) == 0.0

    def test_cosine_zero_vector_is_zero(self):
        a = (0.0, 0.0, 0.0, 0.0)
        b = (0.5, 0.5, 0.5, 0.5)
        assert cosine_of(a, b) == 0.0
        assert cosine_of(b, a) == 0.0

    def test_vm_vector_from_window_mean(self):
        cap = MachineCapacity(2000, 500, 100, 100)
        sim = _stepped([(400, 200, 5, 5), (600, 300, 15, 15)], window_ticks=4)
        shares = shares_of(sim.vm_window_mean("vm-0"), cap.as_tuple())
        assert shares == pytest.approx((0.25, 0.5, 0.1, 0.1), rel=1e-12)

    def test_unified_utilization_equal_weights(self):
        rv = (0.70, 0.10, 0.05, 0.05)
        assert utilization_of(rv, UtilizationWeights().as_tuple()) == pytest.approx(
            0.225, rel=1e-12
        )

    def test_utilization_clamps_weights_that_sum_past_one_in_floats(self):
        assert 0.2 + 0.4 + 0.3 + 0.1 > 1.0
        assert utilization_of((1, 1, 1, 1), (0.2, 0.4, 0.3, 0.1)) == 1.0

    def test_shares_clamp_overcommit(self):
        shares = shares_of((500.0, 2000.0, 0.0, 100.0), (1000.0, 1000.0, 1000.0, 1000.0))
        assert shares == (0.5, 1.0, 0.0, 0.1)

    def test_power_idle_and_peak(self):
        model = PowerModel(idle_fraction=0.5)
        assert running_power(200.0, 0.0, model) == pytest.approx(100.0)
        assert running_power(200.0, 1.0, model) == pytest.approx(200.0)
        assert running_power(200.0, 0.5, model) == pytest.approx(150.0)

    def test_rescale_between_machines(self):
        small = (1000, 2048, 500, 500)
        big = (4000, 8192, 1000, 1000)
        rv = (0.8, 0.5, 0.2, 0.1)
        out = _rescaled(rv, small, big)
        assert out == pytest.approx((0.2, 0.125, 0.1, 0.05), rel=1e-12)
        # Going the other way can saturate.
        back = _rescaled((0.8, 0.5, 0.2, 0.1), big, small)
        assert back == pytest.approx((1.0, 1.0, 0.4, 0.2), rel=1e-12)


# ---------------------------------------------------------------------------
# VM usage window behavior
# ---------------------------------------------------------------------------


class TestVirtualMachine:
    """The usage window, as the engine replays it from the trace when it is read."""

    def test_window_mean_is_none_without_samples(self):
        vm = VirtualMachine("vm-0")
        assert (vm.placed_tick, vm.sums, vm.overrides) == (None, (0.0, 0.0, 0.0, 0.0), {})
        sim = _window_sim([(1.0, 1.0, 1.0, 1.0)] * 3, window_ticks=2)
        sim.policy.machine = None  # rejects the VM at tick 0
        sim._step()
        assert "vm-0" in sim.vms  # offered and rejected: never hosted
        assert sim.vm_window_mean("vm-0") is None
        assert sim.vm_delivered("vm-0") is None
        sim.policy.machine = 0
        sim._step()
        assert sim.vm_window_mean("vm-0") == (1.0, 1.0, 1.0, 1.0)

    def test_window_evicts_oldest(self):
        sim = _stepped([(10, 0, 0, 0), (20, 0, 0, 0), (40, 0, 0, 0)], window_ticks=2)
        assert sim.vm_window_mean("vm-0")[0] == pytest.approx(30.0)  # the 10 is evicted

    def test_window_sums_stay_consistent_after_many_appends(self):
        rng = random.Random(3)
        samples = [tuple(rng.uniform(0, 100) for _ in range(4)) for _ in range(200)]
        sim = _stepped(samples, window_ticks=5)  # one replay of all 200 ticks
        tail = samples[-5:]
        expected = tuple(sum(s[i] for s in tail) / 5 for i in range(4))
        assert sim.vm_window_mean("vm-0") == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("window_ticks", [1, 2, 3, 4, 5, 6])
    def test_record_usage_matches_the_reference_sum_for_sum(self, window_ticks):
        """The replayed sums equal ``reference_record_usage``'s eager ones, bit for bit.

        Some ticks over-commit the machine, so the VM's delivered usage there
        is an override, and the window is read at random ticks, so a replay
        spans from one tick to many.
        """
        rng = random.Random(window_ticks)
        # Magnitudes spread over nine decades, so the sums round.
        samples = [
            tuple(
                0.0 if rng.random() < 0.05 else rng.uniform(0.0, 10.0 ** rng.uniform(-3.0, 6.0))
                for _ in range(4)
            )
            for _ in range(300)
        ]
        cap = (3e5, 3e5, 3e5, 3e5)
        sim = _window_sim(samples, window_ticks, capacity=cap)
        vms = sim.vms
        ref = oracle.EagerWindow(window_ticks)
        over_committed = reads = 0
        for demand in samples:
            sim._step()
            delivered, shorted = brute_arbitrate([demand], cap)
            over_committed += shorted > 0
            oracle.reference_record_usage(ref, delivered[0])
            assert sim.vm_delivered("vm-0") == delivered[0]
            if rng.random() < 0.3:
                reads += 1
                assert sim.vm_window_mean("vm-0") == ref.mean()
                sums = vms["vm-0"].sums
                assert [x.hex() for x in sums] == [x.hex() for x in ref._window_sums]
            assert len(vms["vm-0"].overrides) <= window_ticks + 1
        assert sim.vm_window_mean("vm-0") == ref.mean()
        assert over_committed > 10 and reads > 50


class TestPhysicalMachine:
    def test_hosted_ids_stay_sorted(self):
        pm = PhysicalMachine(0, MachineCapacity(1, 1, 1, 1), 100.0)
        pm.add_vm("vm-2")
        pm.add_vm("vm-1")
        assert pm.hosted_vm_ids == ["vm-1", "vm-2"]
        pm.remove_vm("vm-2")
        assert pm.hosted_vm_ids == ["vm-1"]

    def test_duplicate_host_rejected(self):
        pm = PhysicalMachine(0, MachineCapacity(1, 1, 1, 1), 100.0)
        pm.add_vm("vm-1")
        with pytest.raises(ValueError):
            pm.add_vm("vm-1")

    def test_machine_rv_sums_latest_samples(self):
        pm = PhysicalMachine(0, MachineCapacity(1000, 1000, 1000, 1000), 100.0)
        used = used_shares_of(pm, [(200, 0, 0, 0), (300, 500, 0, 0)])
        assert used == pytest.approx((0.5, 0.5, 0.0, 0.0))
        assert complement_of(used) == pytest.approx((0.5, 0.5, 1.0, 1.0))

    def test_machine_rv_ignores_vms_without_history(self):
        pm = PhysicalMachine(0, MachineCapacity(1000, 1000, 1000, 1000), 100.0)
        assert used_shares_of(pm, [None]) == (0.0, 0.0, 0.0, 0.0)
        assert used_shares_of(pm, [None, (100, 0, 0, 0)]) == (0.1, 0.0, 0.0, 0.0)

    def test_machine_rv_clamps_overcommit(self):
        pm = PhysicalMachine(0, MachineCapacity(100, 100, 100, 100), 100.0)
        assert used_shares_of(pm, [(80, 0, 0, 0), (80, 0, 0, 0)])[0] == 1.0


# ---------------------------------------------------------------------------
# The clamp, the rescale and the used-share sum as first written
# ---------------------------------------------------------------------------


def _bits(values):
    return [float(x).hex() for x in values]


def _clamp01(x):
    """The clamp that ``shares_of`` and ``utilization_of`` write inline."""
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def _rescale_as_first_written(v, f, t):
    """Rescaling a share as first written, before it ran ``shares_of``: multiply, divide, clamp."""
    return (
        _clamp01(v[0] * f[0] / t[0]),
        _clamp01(v[1] * f[1] / t[1]),
        _clamp01(v[2] * f[2] / t[2]),
        _clamp01(v[3] * f[3] / t[3]),
    )


def _used_shares_of_as_first_written(pm, latest):
    """``used_shares_of`` before it summed through ``_column_sums``."""
    cpu = mem = disk = bw = 0.0
    for last in latest:
        if last is not None:
            cpu += last[0]
            mem += last[1]
            disk += last[2]
            bw += last[3]
    return shares_of((cpu, mem, disk, bw), pm.capacity.as_tuple())


REROUTED_INPUTS = 10_000


def _usage(rng):
    """One resource's delivered usage, spread over nine decades, sometimes a signed zero."""
    if rng.random() < 0.1:
        return rng.choice((0.0, -0.0))
    return rng.uniform(0.0, 10.0 ** rng.uniform(-3.0, 6.0))


class TestReroutedMath:
    """Rescaling by ``shares_of`` and ``used_shares_of`` give their first-written results bit for bit."""

    def test_rescale_by_shares_of_equals_the_first_written(self):
        rng = random.Random(107)
        seen = set()
        for _ in range(REROUTED_INPUTS):
            rv = oracle.random_rv_tuple(rng)
            src = oracle.random_capacity_tuple(rng)
            dst = oracle.random_capacity_tuple(rng)
            if rng.random() < 0.1:
                dst = src  # a full share lands exactly on the clamp
            got = _rescaled(rv, src, dst)
            assert _bits(got) == _bits(_rescale_as_first_written(rv, src, dst))
            seen.update("clamped" if x == 1.0 else "zero" if x == 0.0 else "inside" for x in got)
        assert seen == {"clamped", "zero", "inside"}

    def test_used_shares_of_equals_the_first_written(self):
        rng = random.Random(108)
        seen = set()
        for _ in range(REROUTED_INPUTS):
            pm = PhysicalMachine(0, MachineCapacity(*oracle.random_capacity_tuple(rng)), 100.0)
            latest = [
                None if rng.random() < 0.2 else tuple(_usage(rng) for _ in range(4))
                for _ in range(rng.randint(0, 6))
            ]  # None: a VM without a sample yet
            got = used_shares_of(pm, latest)
            assert _bits(got) == _bits(_used_shares_of_as_first_written(pm, latest))
            seen.update("clamped" if x == 1.0 else "zero" if x == 0.0 else "inside" for x in got)
        assert seen == {"clamped", "zero", "inside"}


# ---------------------------------------------------------------------------
# The inline clamps of shares_of and utilization_of
# ---------------------------------------------------------------------------

_EDGES = [
    0.0,
    -0.0,
    1.0,
    0.5,
    math.nan,
    math.inf,
    -math.inf,
    math.nextafter(0.0, -1.0),
    math.nextafter(0.0, 1.0),
    math.nextafter(1.0, 2.0),
    math.nextafter(1.0, 0.0),
]


class TestInlineClamps:
    """``shares_of`` and ``utilization_of`` clamp inline exactly as ``_clamp01`` does."""

    def test_shares_of_equals_the_clamp01_composition(self):
        capacities = [(1.0, 1.0, 1.0, 1.0), (2.0, 0.5, 3.0, 7.0)]
        for x in _EDGES:
            for y in _EDGES:
                amounts = (x, y, -x, y * 2.0)
                for cap in capacities:
                    expected = [_clamp01(a / c) for a, c in zip(amounts, cap)]
                    assert _bits(shares_of(amounts, cap)) == _bits(expected), (amounts, cap)

    def test_utilization_of_equals_the_clamp01_composition(self):
        weights_list = [(1.0, 0.0, 0.0, 0.0), (0.25, 0.25, 0.25, 0.25), (0.1, 0.2, 0.3, 0.4)]
        for x in _EDGES:
            for y in _EDGES:
                for shares in [(x, x, x, x), (x, y, 0.0, -0.0), (-0.0, -0.0, -0.0, x)]:
                    for w in weights_list:
                        expected = _clamp01(
                            w[0] * shares[0]
                            + w[1] * shares[1]
                            + w[2] * shares[2]
                            + w[3] * shares[3]
                        )
                        assert _bits([utilization_of(shares, w)]) == _bits([expected]), (shares, w)

    def test_edges_reach_every_branch(self):
        results = {_clamp01(x).hex() for x in _EDGES}
        assert {"0x0.0p+0", "-0x0.0p+0", "0x1.0000000000000p+0", "nan"} <= results


class TestClampedSum:
    """``clamped_sum_of`` caps like ``min(1.0, s)`` and never lowers a utilization.

    Similarity placement skips a machine whose own utilization is at the
    packing cap, which is exact only if adding a VM's share to a machine's
    used share cannot lower the machine's utilization.
    """

    def test_returns_the_operand_min_returns(self):
        edges = _EDGES + [1.0 - 2.0**-53, 2.0**-1074]
        sums = set()
        for x in edges:
            for y in edges:
                a = (x, y, -x, 0.0)
                b = (y, x, -y, x)
                got = clamped_sum_of(a, b)
                expected = [min(1.0, p + q) for p, q in zip(a, b)]
                assert _bits(got) == _bits(expected), (a, b)
                assert [math.copysign(1.0, g) for g in got] == [
                    math.copysign(1.0, e) for e in expected
                ], (a, b)
                sums.update(_bits(p + q for p, q in zip(a, b)))
        assert {"nan", "-0x0.0p+0", "0x1.0000000000000p+0", "0x1.0000000000001p+0"} <= sums

    def test_adding_a_share_never_lowers_utilization(self):
        rng = random.Random(109)
        picks = [
            lambda: 0.0,
            lambda: 1.0,
            lambda: rng.random(),
            lambda: 1.0 - rng.random() * 2.0**-40,  # near 1 ...
            lambda: rng.random() * 2.0**-40,  # ... plus a little passes 1 by a few ulp
            lambda: rng.random() * 2.0**-1022,  # subnormal
            lambda: 2.0**-1074,
        ]
        seen = set()
        for _ in range(100_000):
            a = tuple(rng.choice(picks)() for _ in range(4))
            b = tuple(rng.choice(picks)() for _ in range(4))
            if rng.random() < 0.5:
                w = oracle.random_weights_tuple(rng)
            else:  # any weights in [0, 1], summing to 1 or not
                w = tuple(rng.choice((0.0, 1.0, rng.random())) for _ in range(4))
            summed = clamped_sum_of(a, b)
            assert utilization_of(summed, w) >= utilization_of(a, w), (a, b, w)
            for p, q in zip(a, b):
                if 1.0 < p + q < 1.0 + 2.0**-40:
                    seen.add("sum just above 1")
                if 0.0 < p < 2.0**-1022 or 0.0 < q < 2.0**-1022:
                    seen.add("subnormal")
                if 0.0 in (p, q) or 1.0 in (p, q):
                    seen.add("0 or 1")
            if utilization_of(summed, w) == 1.0:
                seen.add("utilization at 1")
        assert seen == {"sum just above 1", "subnormal", "0 or 1", "utilization at 1"}


# ---------------------------------------------------------------------------
# Randomized cross-checks against the exact reference implementations
# ---------------------------------------------------------------------------

TOL = 1e-12


class TestRandomizedAgainstOracle:
    def test_cosine_matches_high_precision(self):
        rng = random.Random(101)
        for _ in range(2000):
            a = oracle.random_rv_tuple(rng)
            b = oracle.random_rv_tuple(rng)
            got = cosine_of(a, b)
            assert oracle.rel_error(got, oracle.mp_cosine(a, b)) <= TOL

    def test_rescale_matches_exact_rational(self):
        rng = random.Random(102)
        for _ in range(2000):
            rv = oracle.random_rv_tuple(rng)
            f = oracle.random_capacity_tuple(rng)
            t = oracle.random_capacity_tuple(rng)
            got = _rescaled(rv, f, t)
            expected = oracle.exact_rescale(rv, f, t)
            for g, e in zip(got, expected):
                assert oracle.rel_error(g, e) <= TOL

    def test_unified_matches_exact_rational(self):
        rng = random.Random(103)
        for _ in range(2000):
            rv = oracle.random_rv_tuple(rng)
            w = oracle.random_weights_tuple(rng)
            got = utilization_of(rv, w)
            assert oracle.rel_error(got, oracle.exact_unified(rv, w)) <= TOL

    def test_power_matches_exact_rational(self):
        rng = random.Random(104)
        for _ in range(2000):
            peak = 10.0 ** rng.uniform(0.0, 4.0)
            idle = rng.random()
            u = oracle.random_fraction(rng)
            got = running_power(peak, u, PowerModel(idle_fraction=idle))
            assert oracle.rel_error(got, oracle.exact_power(peak, idle, u)) <= TOL

    def test_window_rv_matches_exact_rational(self):
        rng = random.Random(105)
        for _ in range(500):
            n = rng.randint(1, 5)
            cap = oracle.random_capacity_tuple(rng)
            samples = [
                tuple(rng.uniform(0, cap[i] * 1.5) for i in range(4)) for _ in range(n)
            ]
            got = shares_of(_stepped(samples, window_ticks=5).vm_window_mean("vm-0"), cap)
            expected = oracle.exact_window_rv(samples, cap)
            for g, e in zip(got, expected):
                assert oracle.rel_error(g, e) <= TOL

    def test_cosine_symmetry_and_bounds(self):
        rng = random.Random(106)
        for _ in range(500):
            a = oracle.random_rv_tuple(rng)
            b = oracle.random_rv_tuple(rng)
            s = cosine_of(a, b)
            assert 0.0 <= s <= 1.0
            assert s == cosine_of(b, a)
            assert math.isfinite(s)
