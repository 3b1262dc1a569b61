"""Unit tests for the simulation engine: tick pipeline, arbitration, energy."""

import importlib.util
import math
import re
from pathlib import Path

import pytest

import _fakes as fakes
from _instances import demand_at
from dcsim.config import apply_overrides, build_experiment, load_raw_config
from dcsim.engine import (
    EngineError,
    FleetMachine,
    Simulation,
    SimulationConfig,
    _trace_columns,
    proportional_delivery,
    run_simulation,
)
from dcsim.model import (
    MachineCapacity,
    MachineState,
    BreachSide,
    PowerModel,
    ResourceVector,
    UtilizationWeights,
    _column_sums,
    shares_of,
)
from dcsim.policies import build_policy
from dcsim.policies.base import ClusterView, RebalanceAction, SchedulerPolicy
from dcsim.policies.baselines import GreedyPolicy
from dcsim.policies.similarity import PolicyConfig, SimilarityPolicy
from dcsim.workload import DemandSample, VmRequest, WorkloadSpec, generate_workload

CAP = MachineCapacity(1000.0, 1000.0, 1000.0, 1000.0)
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def fleet(n, peak=200.0, cap=CAP):
    return tuple(FleetMachine(cap, peak) for _ in range(n))


def config(n_machines=2, duration=10, running=None, **kw):
    return SimulationConfig(
        fleet=fleet(n_machines),
        duration_ticks=duration,
        tick_length_seconds=60.0,
        initial_running_count=running if running is not None else n_machines,
        **kw,
    )


def flat_request(vm_id, level, arrival=0, departure=None, until=100, nominal=None):
    """A VM demanding ``level`` of every resource each tick."""
    end = until if departure is None else min(departure, until)
    trace = tuple(
        DemandSample(t, level, level, level, level) for t in range(arrival, end)
    )
    return VmRequest(
        vm_id=vm_id,
        nominal=nominal or MachineCapacity(level, level, level, level),
        arrival_tick=arrival,
        departure_tick=departure,
        trace=trace,
    )


class ScriptedPolicy(SchedulerPolicy):
    """Places each VM on a fixed machine; optionally rejects for a while."""

    name = "scripted"

    def __init__(self, targets, reject_until_tick=0, actions=None):
        super().__init__()
        self.targets = targets
        self.reject_until_tick = reject_until_tick
        self.actions = actions or {}  # tick -> [RebalanceAction]
        self.departures_seen = []

    def allocate(self, vm_id, view):
        if view.current_tick < self.reject_until_tick:
            return None
        return self.targets[vm_id]

    def rebalance(self, view, tick):
        return list(self.actions.get(tick, ()))

    def notify_departure(self, vm_id, machine_id, view, tick):
        self.departures_seen.append((vm_id, machine_id, tick))


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------


class TestConfigValidation:
    def test_rejects_empty_fleet(self):
        with pytest.raises(EngineError):
            SimulationConfig(fleet=(), duration_ticks=5)

    def test_rejects_bad_duration(self):
        with pytest.raises(EngineError):
            SimulationConfig(fleet=fleet(1), duration_ticks=0)

    def test_rejects_bad_initial_running(self):
        with pytest.raises(EngineError):
            SimulationConfig(fleet=fleet(2), duration_ticks=5, initial_running_count=3)
        with pytest.raises(EngineError):
            SimulationConfig(fleet=fleet(2), duration_ticks=5, initial_running_count=0)

    def test_rejects_negative_migration_cost(self):
        with pytest.raises(EngineError):
            SimulationConfig(fleet=fleet(1), duration_ticks=5, migration_cost_ticks=-1)

    @pytest.mark.parametrize("seconds", [0, 0.0, -60.0, float("nan"), float("inf")])
    def test_rejects_a_tick_length_that_is_not_positive_and_finite(self, seconds):
        message = f"tick_length_seconds must be a finite number > 0, got {seconds!r}"
        with pytest.raises(EngineError, match=re.escape(message)):
            SimulationConfig(fleet=fleet(1), duration_ticks=5, tick_length_seconds=seconds)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("duration_ticks", 119.5),
            ("duration_ticks", 5.0),
            ("duration_ticks", True),
            ("initial_running_count", 1.5),
            ("initial_running_count", 1.0),
            ("initial_running_count", True),
            ("migration_cost_ticks", 0.5),
            ("migration_cost_ticks", 1.0),
            ("migration_cost_ticks", False),
        ],
    )
    def test_tick_counts_must_be_integers(self, name, value):
        kwargs = {"duration_ticks": 5, name: value}
        low = 0 if name == "migration_cost_ticks" else 1
        with pytest.raises(
            EngineError, match=f"^{name} must be an integer >= {low}, got {value!r}$"
        ):
            SimulationConfig(fleet=fleet(2), **kwargs)

    @pytest.mark.parametrize("peak", [float("nan"), float("inf"), -200.0, 0.0])
    def test_fleet_machine_rejects_bad_peak_power(self, peak):
        message = f"peak_power_watts must be a finite number > 0, got {peak!r}"
        with pytest.raises(EngineError, match=re.escape(message)):
            FleetMachine(MachineCapacity(4000, 8192, 1000, 1000), peak)

    def test_rejects_duplicate_vm_ids(self):
        reqs = [flat_request("vm-0", 10.0), flat_request("vm-0", 10.0)]
        with pytest.raises(EngineError, match="duplicate"):
            Simulation(config(), reqs, GreedyPolicy())

    def test_initial_states(self):
        sim = Simulation(config(4, running=2), [], GreedyPolicy())
        states = [pm.state for pm in sim.all_machines()]
        assert states == [
            MachineState.RUNNING,
            MachineState.RUNNING,
            MachineState.STANDBY,
            MachineState.STANDBY,
        ]
        # No machine has gone to standby yet, running or not.
        assert [pm.last_used_tick for pm in sim.all_machines()] == [-1, -1, -1, -1]

    def test_equal_capacities_share_one_object(self):
        small = (2000.0, 4096.0, 500.0, 500.0)
        large = (8000.0, 16384.0, 2000.0, 2000.0)
        specs = (small, large, small, small, large)
        cfg = SimulationConfig(
            fleet=tuple(FleetMachine(MachineCapacity(*spec), 200.0) for spec in specs),
            duration_ticks=1,
        )
        capacities = [pm.capacity for pm in Simulation(cfg, [], GreedyPolicy()).all_machines()]
        assert [c.as_tuple() for c in capacities] == list(specs)
        assert len({id(c) for c in capacities}) == 2
        assert capacities[0] is capacities[2] is capacities[3]
        assert capacities[1] is capacities[4]
        assert capacities[0] is not capacities[1]


# ---------------------------------------------------------------------------
# Fair-share arbitration
# ---------------------------------------------------------------------------


class TestProportionalDelivery:
    def test_all_fits_passes_through(self):
        demands = [(100.0, 0, 0, 0), (200.0, 0, 0, 0)]
        delivered, shorted = proportional_delivery(demands, (1000, 1000, 1000, 1000))
        assert delivered == demands
        assert shorted == []

    def test_overcommit_splits_proportionally(self):
        demands = [(600.0, 0, 0, 0), (600.0, 0, 0, 0)]
        delivered, shorted = proportional_delivery(demands, (1000, 1000, 1000, 1000))
        assert delivered[0][0] == pytest.approx(500.0)
        assert delivered[1][0] == pytest.approx(500.0)
        assert shorted == [(0, 0), (1, 0)]

    def test_unequal_demands_split_proportionally(self):
        demands = [(900.0, 0, 0, 0), (300.0, 0, 0, 0)]
        delivered, shorted = proportional_delivery(demands, (600, 1000, 1000, 1000))
        assert delivered[0][0] == pytest.approx(450.0)
        assert delivered[1][0] == pytest.approx(150.0)
        assert shorted == [(0, 0), (1, 0)]

    def test_zero_demand_is_never_shorted(self):
        demands = [(0.0, 0, 0, 0), (2000.0, 0, 0, 0)]
        delivered, shorted = proportional_delivery(demands, (1000, 1000, 1000, 1000))
        assert delivered[0][0] == 0.0
        assert delivered[1][0] == pytest.approx(1000.0)
        assert shorted == [(1, 0)]

    def test_each_resource_arbitrated_independently(self):
        demands = [(600.0, 100.0, 0, 0), (600.0, 100.0, 0, 0)]
        delivered, shorted = proportional_delivery(demands, (1000, 1000, 1000, 1000))
        assert delivered[0] == (500.0, 100.0, 0, 0)
        assert shorted == [(0, 0), (1, 0)]

    def test_delivered_never_exceeds_capacity(self):
        demands = [(700.0, 800.0, 10.0, 0.0), (700.0, 900.0, 10.0, 0.0)]
        delivered, _ = proportional_delivery(demands, (1000, 1000, 1000, 1000))
        for r in range(4):
            assert sum(d[r] for d in delivered) <= 1000 + 1e-9


class TestArbitrationBoundary:
    """A machine's totals exactly at, and one ulp over, its capacity."""

    def step_once(self, demands):
        reqs = [
            VmRequest(f"vm-{i}", CAP, 0, None, (DemandSample(0, *d),))
            for i, d in enumerate(demands)
        ]
        sim = Simulation(config(1, duration=1), reqs, ScriptedPolicy({r.vm_id: 0 for r in reqs}))
        sim._step()
        delivered = [sim.vm_delivered(r.vm_id) for r in reqs]
        return sim, delivered

    def test_totals_equal_to_capacity_are_delivered_in_full(self):
        demands = [(600.0, 250.0, 1000.0, 0.0), (400.0, 750.0, 0.0, 1000.0)]
        assert _column_sums(demands) == CAP.as_tuple()
        sim, delivered = self.step_once(demands)
        assert sim.report.sla_violation_count == 0
        assert delivered == demands
        assert sim._shares[0] == shares_of(_column_sums(delivered), CAP.as_tuple())

    def test_one_ulp_over_shorts_only_that_resource(self):
        over = math.nextafter(1000.0, math.inf)
        demands = [(600.0, 250.0, 1000.0, 0.0), (over - 600.0, 750.0, 0.0, 1000.0)]
        assert _column_sums(demands) == (over, 1000.0, 1000.0, 1000.0)
        sim, delivered = self.step_once(demands)
        assert sim.report.sla_violation_count == 2  # both VMs, CPU only
        for got, want in zip(delivered, demands):
            assert got[0] < want[0]
            assert got[1:] == want[1:]
        assert sim._shares[0] == shares_of(_column_sums(delivered), CAP.as_tuple())

    def test_over_committed_share_is_summed_from_delivered_usage(self):
        # Scaled down to capacity, these three CPU demands sum to just under it.
        demands = [(207.5, 0.0, 0.0, 0.0), (777.9, 0.0, 0.0, 0.0), (711.0, 0.0, 0.0, 0.0)]
        sim, delivered = self.step_once(demands)
        assert sim.report.sla_violation_count == 3
        assert sim._shares[0] == shares_of(_column_sums(delivered), CAP.as_tuple())
        assert sim._shares[0][0] < 1.0


# ---------------------------------------------------------------------------
# Arrivals, rejections, departures
# ---------------------------------------------------------------------------


class TestArrivalsAndDepartures:
    def test_vm_is_placed_and_usage_recorded(self):
        reqs = [flat_request("vm-0", 100.0)]
        sim = Simulation(config(1), reqs, ScriptedPolicy({"vm-0": 0}))
        sim._step()
        assert sim.vm_host("vm-0") == 0
        assert sim.vm_delivered("vm-0") == (100.0, 100.0, 100.0, 100.0)

    def test_rejected_arrivals_retry_each_tick(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy({"vm-0": 0}, reject_until_tick=3)
        sim = Simulation(config(1, duration=6), reqs, policy)
        report = sim.run()
        assert report.rejected_requests == 3  # offered at ticks 0, 1, 2
        assert sim.vm_host("vm-0") == 0

    def test_wake_and_place_wakes_machine(self):
        reqs = [flat_request("vm-0", 100.0)]
        sim = Simulation(config(2, running=1), reqs, ScriptedPolicy({"vm-0": 1}))
        sim._step()
        assert sim.machine(1).state is MachineState.RUNNING
        assert sim.report.wake_count == 1

    def test_allocate_naming_a_standby_machine_wakes_it_once(self):
        # Both VMs name standby machine 1; the first placement wakes it and
        # the second finds it running.  The woken machine serves both VMs'
        # demand in the tick it wakes.
        reqs = [flat_request("vm-0", 100.0), flat_request("vm-1", 200.0)]
        sim = Simulation(config(2, running=1), reqs, fakes.FixedPlacer(1))
        sim._step()
        assert sim.machine(1).state is MachineState.RUNNING
        assert sim.machine(1).hosted_vm_ids == ["vm-0", "vm-1"]
        assert sim.report.wake_count == 1
        assert sim.machine_rv(1) == pytest.approx((0.3, 0.3, 0.3, 0.3))

    @pytest.mark.parametrize("machine", [-1, 3])
    def test_placement_outside_the_fleet_is_an_error(self, machine):
        reqs = [flat_request("vm-0", 100.0), flat_request("vm-1", 100.0)]
        sim = Simulation(config(3), reqs, fakes.FixedPlacer(machine))
        with pytest.raises(EngineError, match=f"named machine {machine}, outside the fleet of 3"):
            sim._step()
        assert all(not pm.hosted_vm_ids for pm in sim.all_machines())

    def test_departure_frees_host_and_notifies_policy(self):
        reqs = [flat_request("vm-0", 100.0, departure=3)]
        policy = ScriptedPolicy({"vm-0": 0})
        sim = Simulation(config(1, duration=6), reqs, policy)
        sim.run()
        assert sim.machine(0).hosted_vm_ids == []
        assert "vm-0" not in sim.vms
        assert policy.departures_seen == [("vm-0", 0, 3)]

    def test_departure_while_pending_stops_retries(self):
        reqs = [flat_request("vm-0", 100.0, departure=2)]
        policy = ScriptedPolicy({"vm-0": 0}, reject_until_tick=99)
        sim = Simulation(config(1, duration=6), reqs, policy)
        report = sim.run()
        assert report.rejected_requests == 2  # ticks 0 and 1 only
        assert policy.departures_seen == []  # never hosted, so no callback

    def test_arrivals_after_horizon_are_ignored(self):
        reqs = [flat_request("vm-0", 100.0, arrival=50, until=60)]
        sim = Simulation(config(1, duration=10), reqs, ScriptedPolicy({"vm-0": 0}))
        report = sim.run()
        assert report.rejected_requests == 0
        assert sim.vms == {}

    def test_demand_follows_the_trace_stepwise(self):
        trace = (
            DemandSample(0, 100.0, 0, 0, 0),
            DemandSample(3, 400.0, 0, 0, 0),
        )
        req = VmRequest("vm-0", MachineCapacity(400, 1, 1, 1), 0, None, trace)
        sim = Simulation(config(1, duration=5), [req], ScriptedPolicy({"vm-0": 0}))
        seen = []
        for _ in range(5):
            sim._step()
            seen.append(sim.vm_delivered("vm-0")[0])
        assert seen == [100.0, 100.0, 100.0, 400.0, 400.0]

    def test_demand_is_zero_until_a_late_first_sample(self):
        trace = (DemandSample(3, 200.0, 1.0, 2.0, 3.0), DemandSample(4, 300.0, 1.0, 2.0, 3.0))
        req = VmRequest("vm-0", MachineCapacity(400, 4, 4, 4), 0, None, trace)
        sim = Simulation(config(1, duration=6), [req], ScriptedPolicy({"vm-0": 0}))
        seen = []
        for _ in range(6):
            sim._step()
            seen.append(sim.vm_delivered("vm-0"))
        zero = (0.0, 0.0, 0.0, 0.0)
        late = [(200.0, 1.0, 2.0, 3.0), (300.0, 1.0, 2.0, 3.0), (300.0, 1.0, 2.0, 3.0)]
        assert seen == [zero, zero, zero] + late

    @pytest.mark.parametrize("every", [1, 2, 3], ids=["dense", "gap-1", "gap-2"])
    def test_vm_first_hosted_mid_trace_reads_the_sample_in_force(self, every):
        trace = tuple(DemandSample(t, 10.0 * t, 0.0, 0.0, 0.0) for t in range(0, 9, every))
        req = VmRequest("vm-0", MachineCapacity(100, 1, 1, 1), 0, None, trace)
        policy = ScriptedPolicy({"vm-0": 0}, reject_until_tick=4)
        sim = Simulation(config(1, duration=9), [req], policy)
        for _ in range(4):
            sim._step()
        assert sim.report.rejected_requests == 4
        assert sim.vm_delivered("vm-0") is None
        assert sim.vm_window_mean("vm-0") is None
        seen = []
        for _ in range(5):
            sim._step()
            seen.append(sim.vm_delivered("vm-0")[0])
        assert seen == [10.0 * (t - t % every) for t in range(4, 9)]

    def test_empty_trace_demands_nothing(self):
        req = VmRequest("vm-0", MachineCapacity(100, 1, 1, 1), 0, None, ())
        sim = Simulation(config(1, duration=3), [req], ScriptedPolicy({"vm-0": 0}))
        for _ in range(3):
            sim._step()
            assert sim.vm_delivered("vm-0") == (0.0, 0.0, 0.0, 0.0)
        assert sim.vm_window_mean("vm-0") == (0.0, 0.0, 0.0, 0.0)

    def test_dense_trace_is_read_in_place(self):
        for start in (2, 0):  # from the arrival, and from before it
            trace = tuple(DemandSample(t, 10.0 * t, 1.0, 2.0, 3.0) for t in range(start, 100))
            req = VmRequest("vm-0", MachineCapacity(1000, 4, 4, 4), 2, None, trace)
            sim = Simulation(config(1, duration=5), [req], ScriptedPolicy({"vm-0": 0}))
            seen = []
            for _ in range(5):
                sim._step()
                seen.append(sim.vm_delivered("vm-0"))
            assert seen == [None, None] + [(10.0 * t, 1.0, 2.0, 3.0) for t in (2, 3, 4)]
            first, *columns = sim.vms["vm-0"].columns
            assert first == start
            trace = req.trace
            own = (trace.cpu, trace.mem, trace.disk, trace.bw)
            assert all(a is b for a, b in zip(columns, own, strict=True))

    def test_trace_columns_are_a_generated_traces_own_or_new_for_a_gap(self):
        spec = WorkloadSpec(seed=3, vm_count=1, duration_ticks=20, arrival_spread_ticks=5)
        (req,) = generate_workload(spec)
        trace = req.trace
        own = (trace.cpu, trace.mem, trace.disk, trace.bw)
        first, *columns = _trace_columns(trace, req.arrival_tick, 20)
        assert first == req.arrival_tick
        assert all(a is b for a, b in zip(columns, own, strict=True))
        gapped = trace[::2]
        first, *columns = _trace_columns(gapped, req.arrival_tick, 20)
        assert first == req.arrival_tick
        assert not any(a is b for a, b in zip(columns, own))
        assert [len(col) for col in columns] == [20 - req.arrival_tick] * 4

    def test_gapped_trace_expansion_stops_at_the_horizon(self):
        trace = (
            DemandSample(1, 100.0, 0.0, 0.0, 0.0),
            DemandSample(3, 200.0, 0.0, 0.0, 0.0),
            DemandSample(40, 900.0, 0.0, 0.0, 0.0),
        )
        cases = {None: [0.0, 100.0, 100.0, 200.0, 200.0, 200.0], 4: [0.0, 100.0, 100.0, 200.0]}
        for departure, expected in cases.items():  # staying, and leaving before the horizon
            req = VmRequest("vm-0", MachineCapacity(900, 1, 1, 1), 0, departure, trace)
            sim = Simulation(config(1, duration=6), [req], ScriptedPolicy({"vm-0": 0}))
            seen = []
            for _ in expected:
                sim._step()
                seen.append(sim.vm_delivered("vm-0")[0])
            assert seen == expected
            # One entry per tick from the arrival to the departure or the horizon.
            columns = sim.vms["vm-0"].columns[1:]
            assert [len(col) for col in columns] == [len(expected)] * 4

    @pytest.mark.parametrize(
        "ticks, arrival, departure",
        [
            ((3, 4, 5), 0, None),  # late first sample
            ((0, 2, 5, 6, 9), 0, None),  # gapped
            ((1, 2, 3, 4), 1, 7),  # departs before the horizon
            ((0, 1, 2), 0, None),  # ends before the horizon
            ((), 2, 8),  # empty
            ((0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13), 0, None),  # past the horizon
            ((0, 3, 11, 15), 2, None),  # gapped, from before arrival to past the horizon
        ],
        ids=["late-first", "gapped", "departs", "ends-early", "empty", "past-horizon",
             "early-gapped"],
    )
    def test_delivered_usage_is_the_step_function_of_the_trace(self, ticks, arrival, departure):
        trace = tuple(DemandSample(t, 10.0 + t, 20.0 + t, 30.0 + t, 40.0 + t) for t in ticks)
        req = VmRequest("vm-0", MachineCapacity(100, 100, 100, 100), arrival, departure, trace)
        duration = 10
        sim = Simulation(config(1, duration=duration), [req], ScriptedPolicy({"vm-0": 0}))
        for tick in range(duration):
            sim._step()
            hosted = arrival <= tick and (departure is None or tick < departure)
            expected = demand_at(req, tick) if hosted else None
            assert sim.vm_delivered("vm-0") == expected, f"tick {tick}"


# ---------------------------------------------------------------------------
# Utilization measurement and breach episodes
# ---------------------------------------------------------------------------


class TestBreachTracking:
    def make_sim(self, level, duration=8, policy=None):
        reqs = [flat_request("vm-0", level)]
        policy = policy or SimilarityPolicy(PolicyConfig(u_up=0.75, u_down=0.15))
        return Simulation(config(1, duration=duration), reqs, policy), policy

    def test_over_breach_is_tracked_with_onset_tick(self):
        sim, _ = self.make_sim(900.0)  # u = 0.9 > 0.75
        sim._step()
        pm = sim.machine(0)
        assert pm.breach_side is BreachSide.OVER
        assert pm.threshold_breach_since == 0
        sim._step()
        assert pm.threshold_breach_since == 0  # onset is sticky

    def test_under_breach_is_tracked(self):
        sim, _ = self.make_sim(100.0)  # u = 0.1 < 0.15
        sim._step()
        pm = sim.machine(0)
        assert pm.breach_side is BreachSide.UNDER

    def test_in_band_clears_breach(self):
        trace = tuple(
            DemandSample(t, 900.0 if t < 2 else 500.0, 0.0, 0.0, 0.0) for t in range(8)
        )
        # Use CPU-only weights so u tracks the CPU share alone.
        weights = UtilizationWeights(1.0, 0.0, 0.0, 0.0)
        policy = SimilarityPolicy(PolicyConfig(weights=weights))
        req = VmRequest("vm-0", MachineCapacity(900, 1, 1, 1), 0, None, trace)
        sim = Simulation(config(1, duration=8), [req], policy)
        sim._step()
        assert sim.machine(0).breach_side is BreachSide.OVER
        sim._step()
        sim._step()  # demand now 500 -> u 0.5, inside the band
        assert sim.machine(0).breach_side is None
        assert sim.machine(0).threshold_breach_since is None

    def test_policies_without_thresholds_track_nothing(self):
        sim, _ = self.make_sim(900.0, policy=GreedyPolicy())
        sim._step()
        assert sim.machine(0).breach_side is None

    def test_measured_utilization_uses_policy_weights(self):
        # CPU-only weights measure u = 0.8 where equal weights would measure
        # 0.225: over a u_up of 0.79, and inside a band of (0.6, 0.81).
        weights = UtilizationWeights(1.0, 0.0, 0.0, 0.0)
        trace = (DemandSample(0, 800.0, 100.0, 0.0, 0.0),)
        req = VmRequest("vm-0", MachineCapacity(800, 100, 1, 1), 0, None, trace)
        for u_up, u_down, side in [(0.79, 0.15, BreachSide.OVER), (0.81, 0.6, None)]:
            policy = SimilarityPolicy(PolicyConfig(u_up=u_up, u_down=u_down, weights=weights))
            sim = Simulation(config(1, duration=2), [req], policy)
            sim._step()
            assert sim.machine(0).breach_side is side


# ---------------------------------------------------------------------------
# Rebalance action execution
# ---------------------------------------------------------------------------


class TestActionExecution:
    def test_instant_migration_moves_vm(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={2: [RebalanceAction.migrate("vm-0", 0, 1)]}
        )
        sim = Simulation(config(2), reqs, policy)
        for _ in range(3):
            sim._step()
        assert sim.vm_host("vm-0") == 1
        assert sim.report.migration_count == 1

    def test_migration_with_stale_source_is_dropped(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={2: [RebalanceAction.migrate("vm-0", 1, 0)]}
        )
        sim = Simulation(config(2), reqs, policy)
        for _ in range(3):
            sim._step()
        assert sim.vm_host("vm-0") == 0
        assert sim.report.dropped_actions == 1

    def test_wake_and_migrate_wakes_target(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={1: [RebalanceAction.migrate("vm-0", 0, 1)]}
        )
        sim = Simulation(config(2, running=1), reqs, policy)
        sim._step()
        sim._step()
        assert sim.machine(1).state is MachineState.RUNNING
        assert sim.vm_host("vm-0") == 1
        assert sim.report.wake_count == 1

    def test_standby_of_empty_machine_parks_it(self):
        policy = ScriptedPolicy({}, actions={0: [RebalanceAction.standby_machine(1)]})
        sim = Simulation(config(2), [], policy)
        sim._step()
        assert sim.machine(1).state is MachineState.STANDBY
        assert sim.report.standby_count == 1

    def test_standby_of_busy_machine_is_dropped(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={1: [RebalanceAction.standby_machine(0)]}
        )
        sim = Simulation(config(1, duration=3), reqs, policy)
        sim._step()
        sim._step()
        assert sim.machine(0).state is MachineState.RUNNING
        assert sim.report.dropped_actions == 1

    def test_standby_of_standby_machine_is_dropped(self):
        policy = ScriptedPolicy({}, actions={0: [RebalanceAction.standby_machine(1)]})
        sim = Simulation(config(2, running=1), [], policy)
        sim._step()
        assert sim.report.dropped_actions == 1

    @pytest.mark.parametrize("target", [-1, 2])
    def test_migration_outside_the_fleet_is_an_error(self, target):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={1: [RebalanceAction.migrate("vm-0", 0, target)]}
        )
        sim = Simulation(config(2), reqs, policy)
        sim._step()
        with pytest.raises(EngineError, match=f"named machine {target}, outside the fleet of 2"):
            sim._step()
        assert sim.vm_host("vm-0") == 0

    def test_migrating_a_missing_vm_is_dropped(self):
        policy = ScriptedPolicy({}, actions={0: [RebalanceAction.migrate("ghost", 0, 1)]})
        sim = Simulation(config(2), [], policy)
        sim._step()
        assert sim.report.dropped_actions == 1


# ---------------------------------------------------------------------------
# Delayed migrations
# ---------------------------------------------------------------------------


class TestDelayedMigrations:
    def make_sim(self, actions, duration=8, landing_ok=True, n=2, reqs=None, running=None):
        class LandingPolicy(ScriptedPolicy):
            def migration_landing_ok(self, vm_id, machine_id, view):
                return landing_ok

        reqs = reqs if reqs is not None else [flat_request("vm-0", 100.0)]
        policy = LandingPolicy({"vm-0": 0}, actions=actions)
        cfg = SimulationConfig(
            fleet=fleet(n),
            duration_ticks=duration,
            tick_length_seconds=60.0,
            initial_running_count=n if running is None else running,
            migration_cost_ticks=2,
        )
        return Simulation(cfg, reqs, policy), policy

    def test_vm_stays_on_source_until_landing(self):
        sim, _ = self.make_sim({1: [RebalanceAction.migrate("vm-0", 0, 1)]})
        sim._step()  # tick 0: placed
        sim._step()  # tick 1: flight starts, lands at 3
        assert sim.vm_host("vm-0") == 0
        assert sim.vm_in_flight("vm-0")
        assert sim.has_inbound(1)
        sim._step()  # tick 2: still flying
        assert sim.vm_host("vm-0") == 0
        sim._step()  # tick 3: lands
        assert sim.vm_host("vm-0") == 1
        assert not sim.vm_in_flight("vm-0")
        assert not sim.has_inbound(1)
        assert sim.report.migration_count == 1

    def test_landing_veto_drops_the_move(self):
        sim, _ = self.make_sim(
            {1: [RebalanceAction.migrate("vm-0", 0, 1)]}, landing_ok=False
        )
        for _ in range(5):
            sim._step()
        assert sim.vm_host("vm-0") == 0
        assert sim.report.migration_count == 0
        assert sim.report.dropped_actions == 1

    def test_departure_mid_flight_cancels_cleanly(self):
        reqs = [flat_request("vm-0", 100.0, departure=2)]
        sim, _ = self.make_sim(
            {1: [RebalanceAction.migrate("vm-0", 0, 1)]}, reqs=reqs
        )
        for _ in range(5):
            sim._step()
        assert "vm-0" not in sim.vms
        assert not sim.has_inbound(1)
        assert sim.report.migration_count == 0

    def test_in_flight_vm_cannot_be_remigrated(self):
        sim, _ = self.make_sim(
            {
                1: [RebalanceAction.migrate("vm-0", 0, 1)],
                2: [RebalanceAction.migrate("vm-0", 0, 1)],
            }
        )
        for _ in range(4):
            sim._step()
        assert sim.report.migration_count == 1
        assert sim.report.dropped_actions == 1

    def test_flights_due_together_land_in_start_order(self):
        # Both VMs fly to machine 2 and land at tick 3; only one fits there.
        # vm-1 starts first, so it lands, and vm-0 is checked after it and dropped.
        class FitOnLanding(ScriptedPolicy):
            def migration_landing_ok(self, vm_id, machine_id, view):
                hosted = view.machine(machine_id).hosted_vm_ids
                used = sum(view.vm_nominal(other).cpu for other in hosted)
                return used + view.vm_nominal(vm_id).cpu <= view.machine(machine_id).capacity.cpu

        reqs = [flat_request("vm-0", 600.0), flat_request("vm-1", 600.0)]
        policy = FitOnLanding(
            {"vm-0": 0, "vm-1": 1},
            actions={
                1: [RebalanceAction.migrate("vm-1", 1, 2), RebalanceAction.migrate("vm-0", 0, 2)]
            },
        )
        cfg = SimulationConfig(
            fleet=fleet(3),
            duration_ticks=5,
            tick_length_seconds=60.0,
            initial_running_count=3,
            migration_cost_ticks=2,
        )
        sim = Simulation(cfg, reqs, policy)
        for _ in range(4):
            sim._step()
        assert sim.vm_host("vm-1") == 2
        assert sim.vm_host("vm-0") == 0
        assert sim.report.migration_count == 1
        assert sim.report.dropped_actions == 1
        assert not sim.vm_in_flight("vm-0") and not sim.has_inbound(2)

    def test_inbound_reserves_capacity_in_views(self):
        sim, _ = self.make_sim({1: [RebalanceAction.migrate("vm-0", 0, 1)]})
        sim._step()
        sim._step()
        # vm-0 is hosted on 0 but also reserved on 1 through the flight.
        assert sim.machine_rv(1)[0] > 0.0
        free = sim.nominal_free(1)
        assert free[0] == pytest.approx(1000.0 - 100.0)
        assert sim.cpu_used_abs(1) > 0.0

    def test_migrate_to_standby_target_wakes_it_and_lands_after_the_cost(self):
        sim, _ = self.make_sim({1: [RebalanceAction.migrate("vm-0", 0, 1)]}, running=1)
        sim._step()  # tick 0: placed on 0; machine 1 on standby
        assert sim.machine(1).state is MachineState.STANDBY
        sim._step()  # tick 1: machine 1 wakes and the flight starts, landing at 3
        assert sim.machine(1).state is MachineState.RUNNING
        assert sim.report.wake_count == 1
        assert sim.vm_host("vm-0") == 0 and sim.has_inbound(1)
        sim._step()  # tick 2: still flying
        assert sim.vm_host("vm-0") == 0
        sim._step()  # tick 3: lands
        assert sim.vm_host("vm-0") == 1
        assert sim.report.migration_count == 1

    def test_dropped_migrate_to_standby_target_wakes_nothing(self):
        # The second move is dropped because vm-0 is already flying to 1;
        # the engine checks the VM before it wakes machine 2.
        sim, _ = self.make_sim(
            {
                1: [
                    RebalanceAction.migrate("vm-0", 0, 1),
                    RebalanceAction.migrate("vm-0", 0, 2),
                ]
            },
            n=3,
            running=2,
        )
        sim._step()
        sim._step()
        assert sim.report.dropped_actions == 1
        assert sim.machine(2).state is MachineState.STANDBY
        assert sim.report.wake_count == 0
        assert sim._inflight == {"vm-0": (1, 3)}

    def test_machine_with_an_inbound_flight_is_not_parked(self):
        # The standby request for empty machine 1 waits while vm-0 flies to
        # it and is dropped once vm-0 lands, so every landing finds its
        # target running.
        sim, _ = self.make_sim(
            {
                1: [
                    RebalanceAction.migrate("vm-0", 0, 1),
                    RebalanceAction.standby_machine(1),
                ]
            }
        )
        for _ in range(3):
            sim._step()
        assert sim.machine(1).state is MachineState.RUNNING and sim.has_inbound(1)
        assert sim.report.dropped_actions == 0
        sim._step()  # tick 3: lands
        assert sim.vm_host("vm-0") == 1
        assert sim.machine(1).state is MachineState.RUNNING
        assert sim.report.dropped_actions == 1
        assert sim.report.standby_count == 0

    def test_deferred_standby_waits_for_outbound_flight(self):
        # Machine 0 hosts only an in-flight VM; the standby request parks it
        # as soon as the flight lands.
        sim, _ = self.make_sim(
            {
                1: [
                    RebalanceAction.migrate("vm-0", 0, 1),
                    RebalanceAction.standby_machine(0),
                ]
            }
        )
        sim._step()
        sim._step()  # flight starts; standby deferred
        assert sim.machine(0).state is MachineState.RUNNING
        sim._step()  # still flying
        sim._step()  # lands on 1; machine 0 now empty and parked
        assert sim.machine(0).state is MachineState.STANDBY


# ---------------------------------------------------------------------------
# Energy accounting
# ---------------------------------------------------------------------------


class TestEnergy:
    def test_idle_fleet_closed_form(self):
        # One running machine, no VMs: 100 W for 10 minutes = 1/60 kWh.
        sim = Simulation(config(1, duration=10), [], GreedyPolicy())
        report = sim.run()
        assert report.total_energy_kwh == pytest.approx(100.0 * 600.0 / 3.6e6, rel=1e-12)

    def test_standby_draw_counts(self):
        cfg = SimulationConfig(
            fleet=fleet(2),
            duration_ticks=10,
            tick_length_seconds=60.0,
            initial_running_count=1,
            power_model=PowerModel(idle_fraction=0.5, standby_watts=12.0),
        )
        report = Simulation(cfg, [], GreedyPolicy()).run()
        expected = (100.0 + 12.0) * 600.0 / 3.6e6
        assert report.total_energy_kwh == pytest.approx(expected, rel=1e-12)
        assert report.per_machine_energy_kwh[1] == pytest.approx(12.0 * 600.0 / 3.6e6)

    def test_loaded_machine_closed_form(self):
        # Delivered 400 of each resource on a 1000-capacity machine:
        # u = 0.4, watts = 200 * (0.5 + 0.5 * 0.4) = 140.
        reqs = [flat_request("vm-0", 400.0)]
        sim = Simulation(config(1, duration=5), reqs, ScriptedPolicy({"vm-0": 0}))
        report = sim.run()
        assert report.total_energy_kwh == pytest.approx(140.0 * 300.0 / 3.6e6, rel=1e-12)

    def test_energy_weights_are_separate_from_policy_weights(self):
        # CPU-only energy weights must price a memory-only load as idle.
        cfg = SimulationConfig(
            fleet=fleet(1),
            duration_ticks=5,
            tick_length_seconds=60.0,
            initial_running_count=1,
            energy_weights=UtilizationWeights(1.0, 0.0, 0.0, 0.0),
        )
        trace = tuple(DemandSample(t, 0.0, 800.0, 0.0, 0.0) for t in range(5))
        req = VmRequest("vm-0", MachineCapacity(1, 800, 1, 1), 0, None, trace)
        report = Simulation(cfg, [req], ScriptedPolicy({"vm-0": 0})).run()
        assert report.total_energy_kwh == pytest.approx(100.0 * 300.0 / 3.6e6, rel=1e-12)

    def test_saturated_machine_with_float_heavy_weights_bills_peak(self):
        # 0.2 + 0.4 + 0.3 + 0.1 passes validation but sums to 1.0000000000000002
        # in floating point; a machine saturated on every resource must still
        # bill exactly its peak draw.
        cfg = SimulationConfig(
            fleet=fleet(1),
            duration_ticks=5,
            tick_length_seconds=60.0,
            initial_running_count=1,
            energy_weights=UtilizationWeights(0.2, 0.4, 0.3, 0.1),
        )
        reqs = [flat_request("vm-0", 2000.0)]
        report = run_simulation(cfg, reqs, ScriptedPolicy({"vm-0": 0}))
        assert report.total_energy_kwh == pytest.approx(200.0 * 300.0 / 3.6e6, rel=1e-12)

    def test_arrival_wake_bills_loaded_from_the_wake_tick(self):
        # Arrivals run before arbitration, so a machine woken for a new VM
        # already serves (and bills) that VM's demand in the same tick.
        reqs = [flat_request("vm-0", 400.0, arrival=2)]
        sim = Simulation(config(2, running=1, duration=4), reqs, ScriptedPolicy({"vm-0": 1}))
        report = sim.run()
        expected_machine1 = (0.0 * 2 + 140.0 * 2) * 60.0 / 3.6e6
        assert report.per_machine_energy_kwh[1] == pytest.approx(expected_machine1, rel=1e-12)

    def test_rebalance_wake_bills_idle_for_the_wake_tick(self):
        # A machine woken during rebalance missed this tick's arbitration:
        # it has no delivered usage yet and bills one idle tick.
        reqs = [flat_request("vm-0", 400.0)]
        policy = ScriptedPolicy(
            {"vm-0": 0}, actions={1: [RebalanceAction.migrate("vm-0", 0, 1)]}
        )
        sim = Simulation(config(2, running=1, duration=4), reqs, policy)
        report = sim.run()
        # Machine 1: standby tick 0, idle on its wake tick 1, loaded after.
        expected_machine1 = (0.0 + 100.0 + 140.0 * 2) * 60.0 / 3.6e6
        assert report.per_machine_energy_kwh[1] == pytest.approx(expected_machine1, rel=1e-12)


# ---------------------------------------------------------------------------
# Report series and determinism
# ---------------------------------------------------------------------------


class TestReporting:
    def test_series_lengths_match_duration(self):
        report = Simulation(config(2, duration=7), [], GreedyPolicy()).run()
        assert len(report.running_machines) == 7
        assert len(report.total_power_watts) == 7
        assert len(report.violations_per_tick) == 7

    def test_sla_violations_counted_per_vm_resource_tick(self):
        reqs = [flat_request("vm-0", 600.0), flat_request("vm-1", 600.0)]
        sim = Simulation(
            config(1, duration=3), reqs, ScriptedPolicy({"vm-0": 0, "vm-1": 0})
        )
        report = sim.run()
        # 2 VMs x 4 resources shorted x 3 ticks.
        assert report.sla_violation_count == 24
        assert report.violations_per_tick == [8, 8, 8]

    def test_mean_and_peak_running(self):
        policy = ScriptedPolicy({}, actions={2: [RebalanceAction.standby_machine(1)]})
        report = Simulation(config(2, duration=4), [], policy).run()
        assert report.running_machines == [2, 2, 1, 1]
        assert report.mean_running_machines == pytest.approx(1.5)
        assert report.peak_running_machines == 2

    def test_identical_runs_produce_identical_reports(self):
        from dcsim.workload import WorkloadProfile, WorkloadSpec, generate_workload

        spec = WorkloadSpec(
            seed=5,
            vm_count=10,
            duration_ticks=60,
            profile=WorkloadProfile.SPIKY,
            spike_probability=0.05,
            arrival_spread_ticks=20,
            lifetime_ticks=30,
        )
        cfg = SimulationConfig(
            fleet=tuple(FleetMachine(MachineCapacity(4000, 8192, 1000, 1000), 200.0) for _ in range(4)),
            duration_ticks=60,
            initial_running_count=2,
        )
        a = run_simulation(cfg, generate_workload(spec), SimilarityPolicy())
        b = run_simulation(cfg, generate_workload(spec), SimilarityPolicy())
        assert a == b

    def test_policy_stats_are_copied_into_report(self):
        policy = GreedyPolicy()
        policy._count("things")
        report = Simulation(config(1, duration=1), [], policy).run()
        assert report.policy_stats == {"things": 1}


# ---------------------------------------------------------------------------
# View bookkeeping details
# ---------------------------------------------------------------------------


class TestViewSemantics:
    def test_simulation_and_fake_view_provide_every_cluster_view_member(self):
        assert isinstance(Simulation(config(1), [], GreedyPolicy()), ClusterView)
        assert isinstance(fakes.FakeView([fakes.make_machine(0)]), ClusterView)

    def test_perfbench_view_forwards_every_cluster_view_member(self):
        # perfbench's traced view forwards only the members its lists name,
        # so a view member missing there would fail only the traced benchmark.
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        members = {k: v for k, v in vars(ClusterView).items() if not k.startswith("_")}
        properties = {k for k, v in members.items() if isinstance(v, property)}
        methods = {k for k, v in members.items() if callable(v)}
        assert methods and properties and methods | properties == set(members)
        assert methods <= set(tracing.VIEW_METHODS)
        assert properties <= set(tracing.VIEW_PROPERTIES)
        assert [n for n in tracing.VIEW_METHODS if not hasattr(Simulation, n)] == []

    def test_window_size_follows_policy_request(self):
        class ShortWindow(GreedyPolicy):
            usage_window_seconds = 120.0

        sim = Simulation(config(1), [], ShortWindow())
        assert sim._window_ticks == 2

    def test_default_rv_used_before_history(self):
        sim = Simulation(config(1), [flat_request("vm-0", 100.0)], GreedyPolicy())
        assert sim.vm_rv_on("vm-0", 0) == sim.policy.default_rv.as_tuple()

    def test_machine_rv_counts_fresh_vms_at_default_footprint(self):
        reqs = [flat_request("vm-0", 100.0)]
        policy = ScriptedPolicy({"vm-0": 0})
        sim = Simulation(config(1), reqs, policy)
        sim._land_migrations(0)
        sim._process_departures(0)
        sim._process_arrivals(0)
        # Placed but not yet arbitrated: footprint is the assumed default.
        assert sim.machine_rv(0) == policy.default_rv.as_tuple()

    def test_machine_rv_uses_delivered_after_arbitration(self):
        reqs = [flat_request("vm-0", 100.0)]
        sim = Simulation(config(1), reqs, ScriptedPolicy({"vm-0": 0}))
        sim._step()
        assert sim.machine_rv(0) == pytest.approx((0.1, 0.1, 0.1, 0.1))

    def test_last_used_tick_is_the_tick_the_machine_went_to_standby(self):
        # Machine 1 parks at tick 2 and wakes for vm-0 at tick 4; machine 0 never parks.
        reqs = [flat_request("vm-0", 10.0, arrival=4)]
        policy = ScriptedPolicy({"vm-0": 1}, actions={2: [RebalanceAction.standby_machine(1)]})
        sim = Simulation(config(2, duration=6), reqs, policy)
        for _ in range(3):
            sim._step()
        assert sim.machine(1).state is MachineState.STANDBY
        assert [pm.last_used_tick for pm in sim.all_machines()] == [-1, 2]
        for _ in range(3):
            sim._step()
        assert sim.machine(1).state is MachineState.RUNNING
        assert [pm.last_used_tick for pm in sim.all_machines()] == [-1, 2]

    @pytest.mark.parametrize(
        "preset, policy_spec",
        [
            ("sweep_scale_down.json", None),
            ("compare_single_threshold.json", {"id": "single_threshold", "threshold": 0.75}),
        ],
        ids=["similarity", "single_threshold"],
    )
    def test_a_run_builds_no_resource_vector(self, monkeypatch, preset, policy_spec):
        # Shares travel as plain tuples; ResourceVector validates only what
        # enters from config or the public API.
        raw = apply_overrides(
            load_raw_config(str(CONFIG_DIR / preset)),
            [
                "workload.spec.vm_count=30",
                "workload.spec.duration_ticks=240",
                "simulation.duration_ticks=240",
            ],
        )
        exp = build_experiment(raw)
        workload = exp.materialize_workload()
        policy = build_policy(policy_spec or exp.policy_spec)
        built = []
        check = ResourceVector.__post_init__

        def counting(rv):
            built.append(rv)
            check(rv)

        monkeypatch.setattr(ResourceVector, "__post_init__", counting)
        report = run_simulation(exp.sim_config, workload, policy)
        assert report.migration_count > 0
        assert len(built) == 0
