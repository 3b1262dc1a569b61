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

A VM's trace is a ``DemandTrace``: five columns (ticks, cpu, mem, disk, bw),
which a loader fills value by value, a generator makes at their final size,
and the engine indexes directly.  The ticks are a ``range`` when they are
consecutive, as every generated trace's are, so such a trace stores no tick
column.  It reads as a sequence of ``DemandSample``.
"""

from __future__ import annotations

import csv
import math
import operator
import random
from array import array
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum
from typing import Any, NamedTuple, Optional, Union

from .model import (
    FLAG,
    FRACTION,
    NON_NEGATIVE,
    RESOURCES,
    Kind,
    MachineCapacity,
    check_fields,
    checked,
    choice,
    declare,
    declared,
    integer,
    number,
    record,
)


class WorkloadError(ValueError):
    """Raised for invalid workload specs or malformed trace files."""


class DemandSample(NamedTuple):
    """Absolute resource demand of one VM at one tick."""

    tick: int
    cpu: float
    mem: float
    disk: float
    bw: float


#: The kind each field of a trace sample is checked as.
_TRACE_KINDS = {"tick": integer(0), **dict.fromkeys(RESOURCES, NON_NEGATIVE)}

#: The ticks an ``array('q')`` holds.
_INT64 = range(-(2**63), 2**63)


class DemandTrace(Sequence):
    """A VM's demand samples as five columns, read as a sequence of ``DemandSample``.

    ``ticks`` is a ``range`` with step 1 when the ticks are consecutive (an
    empty trace's is ``range(0)``), and an ``array('q')`` otherwise: either
    type is taken and turned into that form, so equal traces hold the same
    type; a ``range`` reaching past int64 is a ``WorkloadError``.  ``cpu``,
    ``mem``, ``disk`` and ``bw`` are ``array('d')``, so a sample takes 32
    bytes with range ticks and 40 otherwise.  An int index gives a
    ``DemandSample``, a slice a ``DemandTrace``.  The value arrays are held
    as given, not copied, and nothing in the program writes to them.  Equal
    traces have equal ticks, so the hash covers the ticks only.
    """

    __slots__ = ("ticks", "cpu", "mem", "disk", "bw")

    def __init__(
        self, ticks: Union[range, array], cpu: array, mem: array, disk: array, bw: array
    ) -> None:
        if isinstance(ticks, range) and ticks and not (ticks[0] in _INT64 and ticks[-1] in _INT64):
            raise WorkloadError(
                f"trace ticks {ticks!r} overflow int64: each must lie in [-2**63, 2**63 - 1]"
            )
        if isinstance(ticks, range) or isinstance(ticks, array) and ticks.typecode == "q":
            dense = range(ticks[0], ticks[0] + len(ticks)) if ticks else range(0)
            if isinstance(ticks, range):
                ticks = dense if ticks == dense else array("q", ticks)
            elif all(map(operator.eq, ticks, dense)):
                ticks = dense
        else:
            ticks = None
        if ticks is None or any(
            not isinstance(col, array) or col.typecode != "d" or len(col) != len(ticks)
            for col in (cpu, mem, disk, bw)
        ):
            raise WorkloadError(
                "a demand trace needs a range or an array('q') of ticks and four "
                "array('d') columns of the same length"
            )
        self.ticks = ticks
        self.cpu = cpu
        self.mem = mem
        self.disk = disk
        self.bw = bw

    @classmethod
    def from_samples(cls, samples: Iterable[DemandSample]) -> DemandTrace:
        """The columns of ``samples``, in order, each field checked as a trace file's is."""
        columns = (array("q"), array("d"), array("d"), array("d"), array("d"))
        for i, sample in enumerate(samples):
            if len(sample) != len(columns):
                raise WorkloadError(f"trace[{i}] has {len(sample)} fields, not 5: {sample!r}")
            try:
                for column, (name, kind), value in zip(columns, _TRACE_KINDS.items(), sample):
                    column.append(checked(kind, f"trace[{i}].{name}", value, WorkloadError))
            except OverflowError:  # only the tick's ``array('q')`` overflows
                raise WorkloadError(f"trace[{i}].tick {sample[0]} overflows int64") from None
        return cls(*columns)

    def __len__(self) -> int:
        return len(self.ticks)

    def __getitem__(self, index: Union[int, slice]) -> Union[DemandSample, DemandTrace]:
        columns = (
            self.ticks[index], self.cpu[index], self.mem[index], self.disk[index], self.bw[index]
        )
        if isinstance(index, slice):
            return DemandTrace(*columns)
        return DemandSample(*columns)

    def __iter__(self):
        return map(DemandSample, self.ticks, self.cpu, self.mem, self.disk, self.bw)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DemandTrace):
            return NotImplemented
        return (
            self.ticks == other.ticks
            and self.cpu == other.cpu
            and self.mem == other.mem
            and self.disk == other.disk
            and self.bw == other.bw
        )

    def __hash__(self) -> int:
        ticks = self.ticks
        return hash(ticks if isinstance(ticks, range) else ticks.tobytes())

    def __repr__(self) -> str:
        # An array's repr holds each float's repr, so -0.0 stays apart from 0.0.
        return (
            f"DemandTrace(ticks={self.ticks!r}, cpu={self.cpu!r}, mem={self.mem!r}, "
            f"disk={self.disk!r}, bw={self.bw!r})"
        )

    def __reduce__(self):
        return (DemandTrace, (self.ticks, self.cpu, self.mem, self.disk, self.bw))


@dataclass(frozen=True, slots=True)
class VmRequest:
    """One VM's request: identity, size, lifetime and its demand trace.

    ``trace`` may be given as any sequence of ``DemandSample``, a tuple for
    instance; it is stored as a ``DemandTrace``.
    """

    vm_id: str
    nominal: MachineCapacity = declare(record(MachineCapacity))
    arrival_tick: int = declare(integer(0))
    departure_tick: Optional[int] = declare(integer(0, optional=True))
    trace: DemandTrace

    def __post_init__(self) -> None:
        if not isinstance(self.trace, DemandTrace):
            try:
                trace = DemandTrace.from_samples(self.trace)
            except WorkloadError as exc:
                raise WorkloadError(f"{self.vm_id}: {exc}") from None
            object.__setattr__(self, "trace", trace)
        check_fields(self, WorkloadError, f"{self.vm_id}: ")
        if self.departure_tick is not None and self.departure_tick <= self.arrival_tick:
            raise WorkloadError(
                f"{self.vm_id}: departure {self.departure_tick} must be after "
                f"arrival {self.arrival_tick}"
            )
        ticks = self.trace.ticks
        if ticks and ticks[0] < 0:
            raise WorkloadError(
                f"{self.vm_id}: trace ticks must be integers >= 0, got first tick {ticks[0]}"
            )
        # A range's ticks increase, so only an array's need checking.
        if isinstance(ticks, array):
            last = -1
            for tick in ticks:
                if tick <= last:
                    raise WorkloadError(
                        f"{self.vm_id}: trace ticks must be strictly increasing "
                        f"(saw {tick} after {last})"
                    )
                last = tick


class WorkloadProfile(Enum):
    STEADY = "steady"
    DIURNAL = "diurnal"
    SPIKY = "spiky"
    MIXED_INTENSIVE = "mixed-intensive"


_LEVEL = number(0.0, 1.0, low_open=True)  # a size or demand level: a fraction above 0
_BELOW_ONE = number(0.0, 1.0, high_open=True)


@dataclass(frozen=True, slots=True)
class WorkloadSpec:
    """Parameters of a synthetic workload.

    Demand levels are fractions of each VM's nominal size; the nominal size
    itself is ``nominal_fraction`` of ``reference_capacity``.  Every sample
    is clamped to ``nominal * spike_magnitude``, so that product is a hard
    per-VM demand ceiling.
    """

    seed: int = declare(integer(0))
    vm_count: int = declare(integer(1))
    duration_ticks: int = declare(integer(1))
    profile: WorkloadProfile = declare(choice(WorkloadProfile), WorkloadProfile.STEADY)
    reference_capacity: MachineCapacity = declare(
        record(MachineCapacity), MachineCapacity(4000.0, 8192.0, 1000.0, 1000.0)
    )
    nominal_fraction: float = declare(_LEVEL, 0.25)
    nominal_fraction_spread: float = declare(_BELOW_ONE, 0.0)
    mean_level: float = declare(_LEVEL, 0.5)
    jitter: float = declare(_BELOW_ONE, 0.05)
    spike_probability: float = declare(FRACTION, 0.0)
    spike_magnitude: float = declare(number(1.0), 1.5)
    spike_duration_ticks: int = declare(integer(1), 5)
    spike_synchronized: bool = declare(FLAG, False)
    dominant_level: float = declare(_LEVEL, 0.7)
    background_level: float = declare(_LEVEL, 0.15)
    diurnal_amplitude: float = declare(FRACTION, 0.8)
    diurnal_period_ticks: Optional[int] = declare(integer(2, optional=True), None)
    arrival_spread_ticks: int = declare(integer(0), 0)
    lifetime_ticks: Optional[int] = declare(integer(1, optional=True), None)

    def __post_init__(self) -> None:
        check_fields(self, WorkloadError)
        if self.arrival_spread_ticks >= self.duration_ticks:
            raise WorkloadError("arrival_spread_ticks must be in [0, duration)")


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

        # The columns are lists until the VM is done, so each array is made
        # once at its final size: four arrays grown side by side leave the
        # heap fragmented (about 2 MB at the peak of a 200-VM, 1,440-tick
        # workload).
        cpu, mem, disk, bw = [], [], [], []
        add0, add1, add2, add3 = cpu.append, mem.append, disk.append, bw.append
        # Each value is min(max(x, 0.0), ceiling) written as comparisons that
        # return the same operand as min and max, ties included.
        draw = base_rng.random
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
            add0(v0)
            add1(v1)
            add2(v2)
            add3(v3)

        requests.append(
            VmRequest(
                vm_id=vm_id,
                nominal=nominal,
                arrival_tick=arrival,
                departure_tick=departure,
                trace=DemandTrace(
                    range(arrival, trace_end),
                    *(array("d", column) for column in (cpu, mem, disk, bw)),
                ),
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
            tr = req.trace
            for tick, cpu, mem, disk, bw in zip(tr.ticks, tr.cpu, tr.mem, tr.disk, tr.bw):
                writer.writerow([req.vm_id, tick, repr(cpu), repr(mem), repr(disk), repr(bw)])
    with open(meta_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_META_HEADER)
        for req in requests:
            n = req.nominal
            departure = "" if req.departure_tick is None else req.departure_tick
            writer.writerow(
                [req.vm_id, req.arrival_tick, departure, repr(n.cpu), repr(n.mem), repr(n.disk), repr(n.bw)]
            )


#: The kind each numeric column is checked as.  A meta column takes the kind
#: its ``VmRequest`` or ``MachineCapacity`` field declares.
_META_KINDS = {
    "arrival_tick": declared(VmRequest)["arrival_tick"],
    "departure_tick": declared(VmRequest)["departure_tick"],
    **declared(MachineCapacity),
}


def _fields(path: str, line_no: int, kinds: dict[str, Kind], raws: list[str]) -> list[Any]:
    """The numeric fields of one line, each checked as its column's kind.

    A field is read as an int, else as a float; an empty one is None.  An
    error names the file, the line and the field.
    """
    values = []
    for (name, kind), raw in zip(kinds.items(), raws):
        value: Any = None if raw == "" else raw
        for parse in (int, float):
            try:
                value = parse(raw)
                break
            except ValueError:
                pass
        try:
            values.append(checked(kind, repr(name), value, WorkloadError))
        except WorkloadError as exc:
            raise WorkloadError(f"{path}:{line_no}: field {exc}") from None
    return values


def load_trace_files(trace_path: str, meta_path: str) -> list[VmRequest]:
    """Load a workload saved by :func:`save_trace_files`.

    Validates headers, field types, strictly increasing ticks per VM and
    arrival/departure ordering; errors are ``WorkloadError``s naming the
    offending file, line and field.
    """
    # vm_id -> (line, nominal, arrival, departure)
    meta: dict[str, tuple[int, MachineCapacity, int, Optional[int]]] = {}
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
            arrival, departure, *nominal = _fields(meta_path, line_no, _META_KINDS, row[1:])
            meta[vm_id] = (line_no, MachineCapacity(*nominal), arrival, departure)

    traces = {vm_id: (array("q"), array("d"), array("d"), array("d"), array("d")) for vm_id in meta}
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
            # A plain row (an int tick >= 0, positive finite samples) reads as _fields
            # reads it.  Any other row goes there: a zero too, as _fields reads "-0" as 0.0.
            try:
                tick, *values = int(row[1]), *map(float, row[2:])
                plain = tick >= 0 and min(values) > 0.0 and all(map(math.isfinite, values))
            except ValueError:
                plain = False
            if not plain:
                tick, *values = _fields(trace_path, line_no, _TRACE_KINDS, row[1:])
            ticks, *columns = traces[vm_id]
            if ticks and tick <= ticks[-1]:
                raise WorkloadError(
                    f"{trace_path}:{line_no}: ticks for {vm_id!r} must be strictly increasing"
                )
            try:
                ticks.append(tick)
            except OverflowError:
                raise WorkloadError(
                    f"{trace_path}:{line_no}: field 'tick' is out of range: {row[1]!r}"
                ) from None
            for column, value in zip(columns, values):
                column.append(value)

    requests = []
    for vm_id in sorted(meta):
        line_no, nominal, arrival, departure = meta[vm_id]
        try:
            request = VmRequest(vm_id, nominal, arrival, departure, DemandTrace(*traces[vm_id]))
        except WorkloadError as exc:  # the one rule left: departure after arrival
            raise WorkloadError(f"{meta_path}:{line_no}: field 'departure_tick': {exc}") from None
        requests.append(request)
    return requests
