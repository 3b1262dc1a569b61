"""Workload model: VM request streams with per-tick demand traces.

Demand is generated ahead of simulation time from a seeded spec, or loaded
from delimited text files, so a simulation run is a pure function of its
inputs.  Generation uses Python's ``random.Random`` (the Mersenne Twister),
whose output for a given seed is documented to be reproducible across
platforms and CPython releases; every VM draws from its own derived streams
so toggling one feature never shifts the randomness of another.

The traces depend on the fixed order of the draws within each stream and on
``random.uniform(a, b)`` being ``a + (b - a) * random()``, the formula the
Python documentation gives for it: the generator calls ``random()`` and
applies that formula itself.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import NamedTuple, Optional

from .model import MachineCapacity


class WorkloadError(ValueError):
    """Raised for invalid workload specs or malformed trace files."""


class DemandSample(NamedTuple):
    """Absolute resource demand of one VM at one tick."""

    tick: int
    cpu: float
    mem: float
    disk: float
    bw: float


@dataclass(frozen=True, slots=True)
class VmRequest:
    """One VM's request: identity, size, lifetime and its demand trace."""

    vm_id: str
    nominal: MachineCapacity
    arrival_tick: int
    departure_tick: Optional[int]
    trace: tuple[DemandSample, ...]

    def __post_init__(self) -> None:
        if self.arrival_tick < 0:
            raise WorkloadError(f"{self.vm_id}: arrival tick must be >= 0")
        if self.departure_tick is not None and self.departure_tick <= self.arrival_tick:
            raise WorkloadError(
                f"{self.vm_id}: departure {self.departure_tick} must be after "
                f"arrival {self.arrival_tick}"
            )
        last = -1
        for sample in self.trace:
            if sample.tick <= last:
                raise WorkloadError(
                    f"{self.vm_id}: trace ticks must be strictly increasing "
                    f"(saw {sample.tick} after {last})"
                )
            last = sample.tick


class WorkloadProfile(Enum):
    STEADY = "steady"
    DIURNAL = "diurnal"
    SPIKY = "spiky"
    MIXED_INTENSIVE = "mixed-intensive"


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Demand levels are fractions of each VM's nominal size; the nominal size
    itself is ``nominal_fraction`` of ``reference_capacity``.  Every sample
    is clamped to ``nominal * spike_magnitude``, so that product is a hard
    per-VM demand ceiling.
    """

    seed: int
    vm_count: int
    duration_ticks: int
    profile: WorkloadProfile = WorkloadProfile.STEADY
    reference_capacity: MachineCapacity = MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0)
    nominal_fraction: float = 0.25
    nominal_fraction_spread: float = 0.0
    mean_level: float = 0.5
    jitter: float = 0.05
    spike_probability: float = 0.0
    spike_magnitude: float = 1.5
    spike_duration_ticks: int = 5
    spike_synchronized: bool = False
    dominant_level: float = 0.7
    background_level: float = 0.15
    diurnal_amplitude: float = 0.8
    diurnal_period_ticks: Optional[int] = None
    arrival_spread_ticks: int = 0
    lifetime_ticks: Optional[int] = None

    def __post_init__(self) -> None:
        if self.vm_count < 1:
            raise WorkloadError("vm_count must be >= 1")
        if self.duration_ticks < 1:
            raise WorkloadError("duration_ticks must be >= 1")
        for name in ("nominal_fraction", "mean_level", "dominant_level", "background_level"):
            value = getattr(self, name)
            if not math.isfinite(value) or not 0.0 < value <= 1.0:
                raise WorkloadError(f"{name} must be in (0, 1], got {value!r}")
        if not 0.0 <= self.nominal_fraction_spread < 1.0:
            raise WorkloadError(
                f"nominal_fraction_spread must be in [0, 1), got {self.nominal_fraction_spread!r}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise WorkloadError(f"jitter must be in [0, 1), got {self.jitter!r}")
        if not 0.0 <= self.spike_probability <= 1.0:
            raise WorkloadError("spike_probability must be in [0, 1]")
        if self.spike_magnitude < 1.0:
            raise WorkloadError("spike_magnitude must be >= 1")
        if self.spike_duration_ticks < 1:
            raise WorkloadError("spike_duration_ticks must be >= 1")
        if not 0.0 <= self.diurnal_amplitude <= 1.0:
            raise WorkloadError("diurnal_amplitude must be in [0, 1]")
        if self.diurnal_period_ticks is not None and self.diurnal_period_ticks < 2:
            raise WorkloadError("diurnal_period_ticks must be >= 2")
        if self.arrival_spread_ticks < 0 or self.arrival_spread_ticks >= self.duration_ticks:
            raise WorkloadError("arrival_spread_ticks must be in [0, duration)")
        if self.lifetime_ticks is not None and self.lifetime_ticks < 1:
            raise WorkloadError("lifetime_ticks must be >= 1")


def _derived_rng(seed: int, vm_index: int, stream: int) -> random.Random:
    # Distinct deterministic streams per (vm, purpose); integer arithmetic only,
    # so the derivation itself is platform independent.
    return random.Random(seed * 1_000_003 + vm_index * 1_009 + stream)


def _add_spikes(
    levels: list[float], ticks: range, rng: random.Random, spec: WorkloadSpec
) -> None:
    """Multiply ``levels`` by the spike magnitude on the spike ticks among ``ticks``.

    Each tick outside a spike draws once from ``rng`` and starts a spike of
    ``spike_duration_ticks`` if the draw falls below ``spike_probability``.
    """
    draw = rng.random
    left = 0
    for tick in ticks:
        if left == 0 and draw() < spec.spike_probability:
            left = spec.spike_duration_ticks
        if left > 0:
            levels[tick] *= spec.spike_magnitude
            left -= 1


def generate_workload(spec: WorkloadSpec) -> list[VmRequest]:
    """Materialize a spec into VM requests with dense per-tick demand traces.

    Deterministic: the same spec always yields the identical request list.
    Each VM uses independent derived streams (lifetime, base demand, spikes,
    size), so e.g. a spiky spec with ``spike_probability == 0`` produces
    exactly the same traces as the steady spec with the same parameters.
    With ``spike_synchronized`` every VM follows one shared spike schedule
    instead of its private stream; ``nominal_fraction_spread`` scatters the
    per-VM nominal size uniformly around ``nominal_fraction``.
    """
    ref = spec.reference_capacity.as_tuple()
    duration = spec.duration_ticks
    period = spec.diurnal_period_ticks or duration
    magnitude = spec.spike_magnitude
    width = len(str(max(spec.vm_count - 1, 1)))

    # The time-varying level shared by every VM, one entry per tick.
    if spec.profile is WorkloadProfile.DIURNAL:
        amplitude = spec.diurnal_amplitude
        levels = [
            (1.0 - amplitude)
            + amplitude * 0.5 * (1.0 - math.cos(2.0 * math.pi * (tick % period) / period))
            for tick in range(duration)
        ]
    else:
        levels = [1.0] * duration

    spikes_enabled = (
        spec.profile in (WorkloadProfile.SPIKY, WorkloadProfile.MIXED_INTENSIVE)
        and spec.spike_probability > 0.0
    )
    private_spikes = spikes_enabled and not spec.spike_synchronized
    # Synchronized spikes model flash crowds: one global schedule, drawn from
    # its own stream (vm_index 0 / stream 3 cannot collide with any per-VM
    # stream), makes every VM surge on the same ticks.
    if spikes_enabled and spec.spike_synchronized:
        _add_spikes(levels, range(duration), _derived_rng(spec.seed, 0, 3), spec)

    # ``random.uniform(a, b)`` is documented as ``a + (b - a) * random()``;
    # calling ``random`` directly draws the same numbers.
    lo = -spec.jitter
    span = spec.jitter - lo
    # Builds a DemandSample without the namedtuple's Python-level __new__.
    new_sample = tuple.__new__

    requests = []
    for index in range(spec.vm_count):
        vm_id = f"vm-{index:0{width}d}"
        life_rng = _derived_rng(spec.seed, index, 0)
        base_rng = _derived_rng(spec.seed, index, 1)

        fraction = spec.nominal_fraction
        if spec.nominal_fraction_spread > 0.0:
            size_rng = _derived_rng(spec.seed, index, 4)
            fraction *= 1.0 + size_rng.uniform(
                -spec.nominal_fraction_spread, spec.nominal_fraction_spread
            )
        nominal = MachineCapacity(
            ref[0] * fraction, ref[1] * fraction, ref[2] * fraction, ref[3] * fraction
        )
        n0, n1, n2, n3 = nominal.as_tuple()
        c0, c1, c2, c3 = n0 * magnitude, n1 * magnitude, n2 * magnitude, n3 * magnitude

        arrival = life_rng.randint(0, spec.arrival_spread_ticks)
        departure: Optional[int] = None
        if spec.lifetime_ticks is not None:
            departure = arrival + spec.lifetime_ticks
        trace_end = duration if departure is None else min(departure, duration)

        # Per-resource mean demand for this VM, before time-varying effects.
        if spec.profile is WorkloadProfile.MIXED_INTENSIVE:
            scales = [spec.background_level] * 4
            scales[index % 4] = spec.dominant_level
        else:
            scales = [spec.mean_level] * 4
        m0, m1, m2, m3 = n0 * scales[0], n1 * scales[1], n2 * scales[2], n3 * scales[3]

        vm_levels = levels
        if private_spikes:
            # The spike stream is separate from the demand stream, so its
            # draws can all be made before the samples.
            vm_levels = levels[:]
            spike_rng = _derived_rng(spec.seed, index, 2)
            _add_spikes(vm_levels, range(arrival, trace_end), spike_rng, spec)

        # Each value is min(max(x, 0.0), ceiling) written as comparisons that
        # return the same operand as min and max, ties included.
        draw = base_rng.random
        samples = []
        append = samples.append
        for tick in range(arrival, trace_end):
            level = vm_levels[tick]
            x = m0 * (1.0 + (lo + span * draw())) * level
            v0 = 0.0 if x < 0.0 else x
            if c0 < v0:
                v0 = c0
            x = m1 * (1.0 + (lo + span * draw())) * level
            v1 = 0.0 if x < 0.0 else x
            if c1 < v1:
                v1 = c1
            x = m2 * (1.0 + (lo + span * draw())) * level
            v2 = 0.0 if x < 0.0 else x
            if c2 < v2:
                v2 = c2
            x = m3 * (1.0 + (lo + span * draw())) * level
            v3 = 0.0 if x < 0.0 else x
            if c3 < v3:
                v3 = c3
            append(new_sample(DemandSample, (tick, v0, v1, v2, v3)))

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


# ---------------------------------------------------------------------------
# Trace files
# ---------------------------------------------------------------------------

_TRACE_HEADER = ["vm_id", "tick", "cpu", "mem", "disk", "bw"]
_META_HEADER = ["vm_id", "arrival_tick", "departure_tick", "cpu", "mem", "disk", "bw"]


def save_trace_files(requests: list[VmRequest], trace_path: str, meta_path: str) -> None:
    """Write a workload as two CSV files: per-tick demand and VM metadata.

    Floats are written with ``repr`` round-trip precision, so loading the
    files back reproduces the workload exactly.
    """
    with open(trace_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TRACE_HEADER)
        for req in requests:
            for s in req.trace:
                writer.writerow([req.vm_id, s.tick, repr(s.cpu), repr(s.mem), repr(s.disk), repr(s.bw)])
    with open(meta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_META_HEADER)
        for req in requests:
            n = req.nominal
            departure = "" if req.departure_tick is None else req.departure_tick
            writer.writerow(
                [req.vm_id, req.arrival_tick, departure, repr(n.cpu), repr(n.mem), repr(n.disk), repr(n.bw)]
            )


def _parse_float(path: str, line_no: int, name: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise WorkloadError(
            f"{path}:{line_no}: field {name!r} is not a number: {raw!r}"
        ) from None
    if not math.isfinite(value) or value < 0.0:
        raise WorkloadError(f"{path}:{line_no}: field {name!r} must be >= 0, got {raw!r}")
    return value


def _parse_int(path: str, line_no: int, name: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise WorkloadError(
            f"{path}:{line_no}: field {name!r} is not an integer: {raw!r}"
        ) from None


def load_trace_files(trace_path: str, meta_path: str) -> list[VmRequest]:
    """Load a workload saved by :func:`save_trace_files`.

    Validates headers, field types, strictly increasing ticks per VM and
    arrival/departure ordering; errors name the offending file, line and
    field.
    """
    meta: dict[str, tuple[MachineCapacity, int, Optional[int]]] = {}
    with open(meta_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _META_HEADER:
            raise WorkloadError(f"{meta_path}:1: expected header {_META_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_META_HEADER):
                raise WorkloadError(f"{meta_path}:{line_no}: expected {len(_META_HEADER)} fields")
            vm_id = row[0]
            if vm_id in meta:
                raise WorkloadError(f"{meta_path}:{line_no}: duplicate vm_id {vm_id!r}")
            arrival = _parse_int(meta_path, line_no, "arrival_tick", row[1])
            departure = None if row[2] == "" else _parse_int(meta_path, line_no, "departure_tick", row[2])
            nominal = MachineCapacity(
                _parse_float(meta_path, line_no, "cpu", row[3]),
                _parse_float(meta_path, line_no, "mem", row[4]),
                _parse_float(meta_path, line_no, "disk", row[5]),
                _parse_float(meta_path, line_no, "bw", row[6]),
            )
            meta[vm_id] = (nominal, arrival, departure)

    traces: dict[str, list[DemandSample]] = {vm_id: [] for vm_id in meta}
    with open(trace_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRACE_HEADER:
            raise WorkloadError(f"{trace_path}:1: expected header {_TRACE_HEADER}, got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_TRACE_HEADER):
                raise WorkloadError(f"{trace_path}:{line_no}: expected {len(_TRACE_HEADER)} fields")
            vm_id = row[0]
            if vm_id not in meta:
                raise WorkloadError(f"{trace_path}:{line_no}: unknown vm_id {vm_id!r}")
            sample = DemandSample(
                _parse_int(trace_path, line_no, "tick", row[1]),
                _parse_float(trace_path, line_no, "cpu", row[2]),
                _parse_float(trace_path, line_no, "mem", row[3]),
                _parse_float(trace_path, line_no, "disk", row[4]),
                _parse_float(trace_path, line_no, "bw", row[5]),
            )
            prior = traces[vm_id]
            if prior and sample.tick <= prior[-1].tick:
                raise WorkloadError(
                    f"{trace_path}:{line_no}: ticks for {vm_id!r} must be strictly increasing"
                )
            prior.append(sample)

    requests = []
    for vm_id in sorted(meta):
        nominal, arrival, departure = meta[vm_id]
        requests.append(
            VmRequest(
                vm_id=vm_id,
                nominal=nominal,
                arrival_tick=arrival,
                departure_tick=departure,
                trace=tuple(traces[vm_id]),
            )
        )
    return requests
