"""Metamorphic relations: properties of a run that need no oracle.

Each test runs a random instance twice, once as generated and once changed
in a way that must not alter what the simulation reports, and compares the
two reports.

- *Causality.*  A run with a shorter horizon is an exact prefix of the
  longer one: nothing a tick reports may depend on a later tick.
- *Scale invariance.*  Every decision depends on resource amounts only
  through their ratios to capacities, so multiplying every capacity,
  nominal size and demand sample by a power of two (exact in binary
  floating point) leaves the report unchanged.  This also pins down that
  grouping machines by capacity depends on which capacities are equal, not
  on their absolute sizes.
- *Late arrivals.*  A VM whose arrival tick is at or after the horizon is
  never offered, so adding one to the workload, anywhere in the list,
  leaves the report unchanged.
- *Generator prefix.*  Each generated VM draws from streams derived from
  the seed and its own index, so a workload of n VMs is the first n
  requests of the same spec with n + 1 VMs, once ids are compared by index
  (the zero padding of ``vm-0`` against ``vm-00`` follows the count).
- *Power model.*  Only ``single_threshold`` reads the power model, so under
  every other policy a different power model changes the report's energy
  fields and nothing else.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from _instances import make_instance
from dcsim.engine import FleetMachine, Simulation
from dcsim.model import MachineCapacity, PowerModel
from dcsim.policies import POLICY_IDS, build_policy
from dcsim.workload import DemandSample, VmRequest, WorkloadProfile, WorkloadSpec, generate_workload

CAUSALITY_INSTANCES = 400
SCALE_INSTANCES = 300
SHORTER_BY = 7
LATE_INSTANCES = 150  # per policy
POWER_INSTANCES = 100  # per policy
#: The ``SimulationReport`` fields a power model may change.
ENERGY_FIELDS = ("total_energy_kwh", "total_power_watts", "per_machine_energy_kwh")
PREFIX_SPECS = 256


def _run(config, workload, spec):
    return Simulation(config, workload, build_policy(spec)).run()


def test_a_shorter_horizon_gives_a_prefix_of_the_series():
    for seed in range(CAUSALITY_INSTANCES):
        config, workload, spec = make_instance(seed)
        full = _run(config, workload, spec)
        n = config.duration_ticks - SHORTER_BY
        short = _run(dataclasses.replace(config, duration_ticks=n), workload, spec)
        assert len(short.running_machines) == n, f"seed {seed}"
        assert short.running_machines == full.running_machines[:n], f"seed {seed}"
        assert short.total_power_watts == full.total_power_watts[:n], f"seed {seed}"
        assert short.violations_per_tick == full.violations_per_tick[:n], f"seed {seed}"


def _scaled_capacity(cap, factor):
    return MachineCapacity(*(x * factor for x in cap.as_tuple()))


def _scaled(config, workload, factor):
    fleet = tuple(
        FleetMachine(_scaled_capacity(fm.capacity, factor), fm.peak_power_watts)
        for fm in config.fleet
    )
    scaled_workload = [
        dataclasses.replace(
            request,
            nominal=_scaled_capacity(request.nominal, factor),
            trace=tuple(
                DemandSample(s.tick, s.cpu * factor, s.mem * factor, s.disk * factor, s.bw * factor)
                for s in request.trace
            ),
        )
        for request in workload
    ]
    return dataclasses.replace(config, fleet=fleet), scaled_workload


@pytest.mark.parametrize("factor", [2.0, 0.5])
def test_scaling_every_resource_amount_leaves_the_report_unchanged(factor):
    policies = set()
    for seed in range(SCALE_INSTANCES):
        config, workload, spec = make_instance(seed)
        report = _run(config, workload, spec)
        assert _run(*_scaled(config, workload, factor), spec) == report, f"seed {seed}"
        policies.add(spec["id"])
    assert policies == set(POLICY_IDS)


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_a_vm_arriving_at_or_after_the_horizon_leaves_the_report_unchanged(policy_id):
    for seed in range(LATE_INSTANCES):
        config, workload, spec = make_instance(seed, policy_id)
        report = _run(config, workload, spec)
        rng = random.Random(f"late-{seed}")
        arrival = config.duration_ticks + rng.choice((0, 0, 1, 7))
        nominal = rng.choice(workload).nominal
        late = VmRequest(
            f"vm-late-{seed}",
            nominal,
            arrival,
            rng.choice((None, arrival + 3)),
            tuple(DemandSample(t, *nominal.as_tuple()) for t in range(arrival, arrival + 3)),
        )
        changed = workload[:]
        changed.insert(rng.randint(0, len(workload)), late)
        assert _run(config, changed, spec) == report, f"seed {seed}"


@pytest.mark.parametrize("policy_id", sorted(set(POLICY_IDS) - {"single_threshold"}))
def test_a_power_model_moves_only_the_energy_fields(policy_id):
    energy_moved = 0
    for seed in range(POWER_INSTANCES):
        config, workload, spec = make_instance(seed, policy_id)
        report = _run(config, workload, spec)
        rng = random.Random(f"power-{seed}")
        model = PowerModel(
            idle_fraction=round(rng.uniform(0.0, 1.0), 2), standby_watts=rng.choice((0.0, 7.0, 30.0))
        )
        changed = _run(dataclasses.replace(config, power_model=model), workload, spec)
        energy_moved += changed.total_energy_kwh != report.total_energy_kwh
        for name in ENERGY_FIELDS:
            setattr(changed, name, getattr(report, name))
        assert changed == report, f"seed {seed}"
    assert energy_moved > POWER_INSTANCES // 2


def _random_spec(rng, vm_count):
    duration = rng.randint(5, 40)
    return WorkloadSpec(
        seed=rng.randrange(2**31),
        vm_count=vm_count,
        duration_ticks=duration,
        profile=rng.choice(list(WorkloadProfile)),
        nominal_fraction=round(rng.uniform(0.1, 0.4), 2),
        nominal_fraction_spread=rng.choice([0.0, 0.0, round(rng.uniform(0.0, 0.5), 2)]),
        jitter=round(rng.uniform(0.0, 0.1), 3),
        spike_probability=round(rng.uniform(0.0, 0.2), 3),
        spike_duration_ticks=rng.randint(1, 5),
        spike_synchronized=rng.random() < 0.5,
        diurnal_period_ticks=rng.choice([None, rng.randint(2, 2 * duration)]),
        arrival_spread_ticks=rng.randint(0, duration - 1),
        lifetime_ticks=rng.choice([None, rng.randint(1, duration)]),
    )


def _by_index(requests):
    return [
        (int(r.vm_id.removeprefix("vm-")), r.nominal, r.arrival_tick, r.departure_tick, r.trace)
        for r in requests
    ]


def test_a_generated_workload_is_a_prefix_of_one_with_one_more_vm():
    rng = random.Random("prefix")
    for index in range(PREFIX_SPECS):
        spec = _random_spec(rng, (1, 9, 10, 99)[index % 4])
        more = dataclasses.replace(spec, vm_count=spec.vm_count + 1)
        longer = _by_index(generate_workload(more))
        assert _by_index(generate_workload(spec)) == longer[: spec.vm_count], spec
