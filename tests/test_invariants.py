"""Randomized small-instance invariant suite.

Each instance runs a full simulation under ``CheckedSimulation``, which
re-derives demand, arbitration, SLA counts and power draw through independent
brute-force implementations every tick and asserts structural invariants
(single-host conservation, standby machines host nothing, delivered usage
within capacity, coherent breach bookkeeping, report totals).
"""

from __future__ import annotations

import pytest

from _instances import (
    POLICY_KINDS,
    brute_arbitrate,
    demand_at,
    make_instance,
    run_checked_instance,
    thin_workload,
)
from dcsim.policies import POLICY_IDS

UNIT_INSTANCES = 250
SPARSE_INSTANCES = 150


@pytest.mark.parametrize("seed", range(UNIT_INSTANCES))
def test_random_instance_invariants(seed):
    run_checked_instance(seed)


@pytest.mark.parametrize("seed", range(SPARSE_INSTANCES))
def test_sparse_trace_instance_invariants(seed):
    run_checked_instance(seed, sparse=True)


def test_sparse_instances_cover_every_trace_shape():
    shapes = set()
    for seed in range(SPARSE_INSTANCES):
        _, workload, _ = make_instance(seed)
        for dense, sparse in zip(workload, thin_workload(workload, seed)):
            ticks = [s.tick for s in sparse.trace]
            if not ticks:
                shapes.add("empty")
                continue
            if ticks[0] > dense.arrival_tick:
                shapes.add("late first sample")
            if ticks[-1] < dense.trace[-1].tick:
                shapes.add("early last sample")
            if any(b - a > 1 for a, b in zip(ticks, ticks[1:])):
                shapes.add("gap")
            if ticks[-1] - ticks[0] == len(ticks) - 1:
                shapes.add("dense")
    assert shapes == {"empty", "late first sample", "early last sample", "gap", "dense"}


def test_instance_policy_kinds_cover_every_registered_policy():
    assert set(POLICY_IDS) <= set(POLICY_KINDS)


def test_instances_cover_the_policy_space():
    kinds = {make_instance(seed)[2]["id"] for seed in range(UNIT_INSTANCES)}
    assert {
        "similarity",
        "recommended",
        "round_robin",
        "greedy",
        "power_save",
        "dynamic_round_robin",
        "single_threshold",
    } <= kinds


def test_instances_cover_delayed_migrations_and_spares():
    costs = set()
    spares = set()
    for seed in range(UNIT_INSTANCES):
        config, _, _ = make_instance(seed)
        costs.add(config.migration_cost_ticks)
        spares.add(len(config.fleet) - config.initial_running_count)
    assert {0, 1, 2, 3} <= costs
    assert 0 in spares and max(spares) >= 2


def test_instance_generation_is_deterministic():
    a_config, a_load, a_policy = make_instance(77)
    b_config, b_load, b_policy = make_instance(77)
    assert a_config == b_config
    assert a_load == b_load
    assert a_policy == b_policy


def test_checked_runs_are_reproducible():
    first = run_checked_instance(33)
    second = run_checked_instance(33)
    assert first.total_energy_kwh == second.total_energy_kwh
    assert first.violations_per_tick == second.violations_per_tick
    assert first.migration_count == second.migration_count


def test_brute_arbitrate_matches_hand_computation():
    delivered, shorted = brute_arbitrate(
        [(600.0, 0.0, 0.0, 0.0), (600.0, 10.0, 0.0, 0.0)],
        (1000.0, 100.0, 100.0, 100.0),
    )
    assert delivered[0][0] == pytest.approx(500.0)
    assert delivered[1][0] == pytest.approx(500.0)
    assert delivered[1][1] == 10.0
    assert shorted == 2


def test_demand_lookup_is_a_step_function():
    class Sample:
        def __init__(self, tick, cpu):
            self.tick, self.cpu = tick, cpu
            self.mem = self.disk = self.bw = 0.0

    class Req:
        trace = [Sample(2, 100.0), Sample(5, 400.0)]

    assert demand_at(Req, 0) == (0.0, 0.0, 0.0, 0.0)
    assert demand_at(Req, 2)[0] == 100.0
    assert demand_at(Req, 4)[0] == 100.0
    assert demand_at(Req, 5)[0] == 400.0
    assert demand_at(Req, 9)[0] == 400.0
