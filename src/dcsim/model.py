"""Core domain model: resource vectors, machines, VMs, utilization and power math.

Every quantity that crosses a module boundary is either an absolute amount
(same unit as the machine capacity it is measured against) or a *fraction*
of some machine's capacity in [0, 1].  The four tracked resources are CPU,
memory, disk I/O and network bandwidth; units are arbitrary but must be
consistent across a fleet (e.g. MHz / MB / MB/s / Mbit/s).
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import cache
from typing import Any, Callable, Collection, Iterable, Optional

RESOURCES = ("cpu", "mem", "disk", "bw")

#: A share of a machine's capacity per resource, in ``RESOURCES`` order.  The
#: program passes shares as plain tuples; ``ResourceVector`` validates shares
#: that arrive from configuration or the public API.
Shares = tuple[float, float, float, float]


# ---------------------------------------------------------------------------
# Parameter kinds
# ---------------------------------------------------------------------------
# A parameter from configuration or the public API declares its kind once, on
# its dataclass field (``declare``) or in a policy's ``parameters``, and
# ``checked`` applies it.  Rules relating two fields stay in ``__post_init__``.

_BAD = object()  # what a kind's ``convert`` returns for a value it rejects


@dataclass(frozen=True, slots=True)
class Kind:
    """The values one parameter takes: ``text`` names them, ``convert`` applies them.

    ``convert(value, key, error)`` returns the value as the parameter stores
    it, or ``_BAD``.  A record kind's ``cls`` is the dataclass it builds.
    """

    text: str
    convert: Callable[[Any, str, type], Any]
    cls: Optional[type] = None


def integer(low: int, optional: bool = False) -> Kind:
    """An ``int`` (a ``bool`` is not one) of at least ``low``; also None when ``optional``."""

    def convert(value: Any, key: str, error: type) -> Any:
        if value is None and optional:
            return None
        ok = isinstance(value, int) and not isinstance(value, bool) and value >= low
        return value if ok else _BAD

    return Kind(f"an integer >= {low}" + (" or null" if optional else ""), convert)


def number(
    low: float, high: float = math.inf, low_open: bool = False, high_open: bool = False
) -> Kind:
    """A finite ``int`` or ``float`` (not a ``bool``) from ``low`` to ``high``, stored as a float.

    Each end is closed unless marked open; an infinite ``high`` is no bound.
    """

    def convert(value: Any, key: str, error: type) -> Any:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return _BAD
        try:
            value = float(value)
        except OverflowError:  # an integer too large for a float
            return _BAD
        above = low < value if low_open else low <= value
        below = value < high if high_open else value <= high
        return value if math.isfinite(value) and above and below else _BAD

    if high == math.inf:
        return Kind(f"a finite number {'>' if low_open else '>='} {low:g}", convert)
    ends = f"{'(' if low_open else '['}{low:g}, {high:g}{')' if high_open else ']'}"
    return Kind(f"a finite number in {ends}", convert)


#: ``True`` or ``False``; no other value stands in for one.
FLAG = Kind("true or false", lambda value, key, error: value if isinstance(value, bool) else _BAD)


def choice(enum: type[Enum]) -> Kind:
    """A member of ``enum``, or the string value of one."""

    def convert(value: Any, key: str, error: type) -> Any:
        for member in enum:
            if value is member or (isinstance(value, str) and value == member.value):
                return member
        return _BAD

    return Kind("one of " + ", ".join(repr(member.value) for member in enum), convert)


def record(cls: type, sequence: bool = False) -> Kind:
    """An instance of dataclass ``cls``, or a mapping of its fields, each checked as ``key.field``.

    With ``sequence``, a list or tuple of four numbers in ``RESOURCES`` order
    is one too.
    """

    def convert(value: Any, key: str, error: type) -> Any:
        if isinstance(value, cls):
            return value
        if sequence and isinstance(value, (list, tuple)) and len(value) == 4:
            value = dict(zip(RESOURCES, value))
        return build(cls, value, key, error) if isinstance(value, dict) else _BAD

    return Kind("a mapping or a list of four numbers" if sequence else "a mapping", convert, cls)


FRACTION = number(0.0, 1.0)
POSITIVE = number(0.0, low_open=True)
NON_NEGATIVE = number(0.0)


def declare(kind: Kind, default: Any = MISSING, *, default_factory: Any = MISSING) -> Any:
    """A dataclass field whose values are checked as ``kind`` (see ``check_fields``)."""
    return field(default=default, default_factory=default_factory, metadata={"kind": kind})


@cache
def declared(cls: type) -> dict[str, Kind]:
    """The kind each field of dataclass ``cls`` declares, by field name; read-only."""
    return {f.name: f.metadata["kind"] for f in fields(cls) if "kind" in f.metadata}


def checked(kind: Kind, key: str, value: Any, error: type = ValueError) -> Any:
    """``value`` as a parameter of ``kind`` stores it; raises ``error`` naming ``key`` otherwise."""
    result = kind.convert(value, key, error)
    if result is _BAD:
        raise error(f"{key} must be {kind.text}, got {value!r}")
    return result


def check_fields(obj: Any, error: type = ValueError, prefix: str = "") -> None:
    """Check each declared field of dataclass instance ``obj``, keyed ``prefix + name``.

    A field whose value its kind converts (an ``int`` to a float, a string
    to an enum member, a mapping to a record) is set to the converted value.
    """
    for name, kind in declared(type(obj)).items():
        value = getattr(obj, name)
        result = checked(kind, prefix + name, value, error)
        if result is not value:
            object.__setattr__(obj, name, result)


def check_keys(
    raw: Any, key: str, known: Collection[str], required: Iterable[str], error: type = ValueError
) -> dict:
    """``raw`` if it is a mapping of ``known`` keys holding every ``required`` one.

    Otherwise raises ``error`` naming ``key`` (the mapping's dotted path, empty
    at the top level) with the first unknown or missing key.
    """
    where = key or "config"
    if not isinstance(raw, dict):
        raise error(f"{where}: expected a mapping, got {type(raw).__name__}")
    for name in raw:
        if name not in known:
            dotted = f"{key}.{name}" if key else name
            raise error(f"unknown key {dotted}; known: {', '.join(known)}")
    for name in required:
        if name not in raw:
            raise error(f"{where}: missing required key {name!r}")
    return raw


def build(cls: type, raw: Any, key: str, error: type = ValueError) -> Any:
    """Dataclass ``cls`` from a mapping of its fields; each message names ``key`` or ``key.field``.

    The mapping's keys are checked by ``check_keys``.  A rule between fields
    that ``cls`` raises as a ``ValueError`` is re-raised as ``error``, after
    ``key: ``.
    """
    known = fields(cls)
    required = [f.name for f in known if f.default is MISSING and f.default_factory is MISSING]
    check_keys(raw, key, [f.name for f in known], required, error)
    kinds = declared(cls)
    values = {}
    for name, value in raw.items():
        kind = kinds.get(name)
        values[name] = value if kind is None else checked(kind, f"{key}.{name}", value, error)
    try:
        return cls(**values)
    except ValueError as exc:
        raise error(f"{key}: {exc}") from None


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Fractions of a machine's capacity, one component per tracked resource."""

    cpu: float = declare(FRACTION)
    mem: float = declare(FRACTION)
    disk: float = declare(FRACTION)
    bw: float = declare(FRACTION)

    def __post_init__(self) -> None:
        check_fields(self)

    def as_tuple(self) -> Shares:
        return (self.cpu, self.mem, self.disk, self.bw)

#: Assumed usage share for a VM that has no observation history yet.
DEFAULT_RV = ResourceVector(0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True, slots=True)
class MachineCapacity:
    """Absolute resource capacities of a physical machine (strictly positive)."""

    cpu: float = declare(POSITIVE)
    mem: float = declare(POSITIVE)
    disk: float = declare(POSITIVE)
    bw: float = declare(POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self)

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.mem, self.disk, self.bw)


@dataclass(frozen=True, slots=True)
class UtilizationWeights:
    """Weights of the four resources in the unified utilization score.

    Each weight lies in [0, 1] and the four must sum to 1 (within 1e-9).
    """

    cpu: float = declare(FRACTION, 0.25)
    mem: float = declare(FRACTION, 0.25)
    disk: float = declare(FRACTION, 0.25)
    bw: float = declare(FRACTION, 0.25)

    def __post_init__(self) -> None:
        check_fields(self)
        total = self.cpu + self.mem + self.disk + self.bw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"utilization weights must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.mem, self.disk, self.bw)


@dataclass(frozen=True, slots=True)
class PowerModel:
    """Affine machine power curve plus a flat standby draw.

    A running machine draws ``peak * idle_fraction`` watts when idle and
    ramps linearly to ``peak`` at full unified utilization.  Standby
    machines draw ``standby_watts`` regardless of load.
    """

    idle_fraction: float = declare(FRACTION, 0.5)
    standby_watts: float = declare(NON_NEGATIVE, 0.0)

    def __post_init__(self) -> None:
        check_fields(self)


class MachineState(Enum):
    RUNNING = "running"
    STANDBY = "standby"


class BreachSide(Enum):
    """Which utilization threshold a machine has been breaching."""

    OVER = "over"
    UNDER = "under"


@dataclass(slots=True)
class PhysicalMachine:
    """Mutable state of one physical machine in the fleet."""

    id: int
    capacity: MachineCapacity
    peak_power_watts: float = declare(POSITIVE)
    state: MachineState = MachineState.RUNNING
    hosted_vm_ids: list[str] = field(default_factory=list)
    last_used_tick: int = -1  # the last tick it ran before going to standby; -1 until then
    breach_side: Optional[BreachSide] = None
    threshold_breach_since: Optional[int] = None

    def __post_init__(self) -> None:
        check_fields(self)

    def add_vm(self, vm_id: str) -> None:
        if vm_id in self.hosted_vm_ids:
            raise ValueError(f"{vm_id} already hosted on machine {self.id}")
        self.hosted_vm_ids.append(vm_id)
        self.hosted_vm_ids.sort()

    def remove_vm(self, vm_id: str) -> None:
        self.hosted_vm_ids.remove(vm_id)

    def clear_breach(self) -> None:
        self.breach_side = None
        self.threshold_breach_since = None


@dataclass(slots=True)
class VirtualMachine:
    """Run state of one VM: identity, host, demand and its usage window's replay state.

    ``columns`` is its demand, ``(first, cpu, mem, disk, bw)`` as
    ``engine._trace_columns`` gives it.  A hosted VM's delivered usage is its
    demand, except on a tick its machine was over-committed; ``overrides``
    maps such a tick to the ``(cpu, mem, disk, bw)`` delivered then, for as
    long as the window may still need it.  ``placed_tick`` is the tick the
    VM was first hosted (None before), and ``sums`` are the window's
    per-resource sums over the ticks before ``cursor``.  The engine folds
    later ticks into ``sums`` when the window is read
    (``Simulation.vm_window_mean``).  The request (size and lifetime) is the
    workload's ``VmRequest``.
    """

    id: str
    columns: tuple = ()
    host_id: Optional[int] = None
    placed_tick: Optional[int] = None
    cursor: int = 0
    sums: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    overrides: dict[int, tuple[float, float, float, float]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Pure operations
# ---------------------------------------------------------------------------


def _column_sums(
    rows: list[tuple[float, float, float, float]],
) -> tuple[float, float, float, float]:
    """Per-resource totals of four-component rows, summed in row order."""
    t0 = t1 = t2 = t3 = 0.0
    for a, b, c, d in rows:
        t0 += a
        t1 += b
        t2 += c
        t3 += d
    return (t0, t1, t2, t3)


def shares_of(
    amounts: tuple[float, float, float, float], capacity: tuple[float, float, float, float]
) -> Shares:
    """Each absolute amount as a share of the matching capacity, clamped to [0, 1]."""
    c = amounts[0] / capacity[0]
    m = amounts[1] / capacity[1]
    d = amounts[2] / capacity[2]
    b = amounts[3] / capacity[3]
    return (
        0.0 if c < 0.0 else 1.0 if c > 1.0 else c,
        0.0 if m < 0.0 else 1.0 if m > 1.0 else m,
        0.0 if d < 0.0 else 1.0 if d > 1.0 else d,
        0.0 if b < 0.0 else 1.0 if b > 1.0 else b,
    )


def clamped_sum_of(a: Shares, b: Shares) -> Shares:
    """Componentwise sum of two share tuples, each component capped at 1.

    ``s if s < 1.0 else 1.0`` returns the operand ``min(1.0, s)`` returns,
    NaN and -0.0 included, without a builtin call.
    """
    c = a[0] + b[0]
    m = a[1] + b[1]
    d = a[2] + b[2]
    w = a[3] + b[3]
    return (
        c if c < 1.0 else 1.0,
        m if m < 1.0 else 1.0,
        d if d < 1.0 else 1.0,
        w if w < 1.0 else 1.0,
    )


def complement_of(shares: Shares) -> Shares:
    """The free share left on a machine whose used share is ``shares``."""
    return (1.0 - shares[0], 1.0 - shares[1], 1.0 - shares[2], 1.0 - shares[3])


def utilization_of(shares: Shares, weights: tuple[float, float, float, float]) -> float:
    """Weighted sum of the four resource shares, clamped to [0, 1].

    The clamp matters: weights that sum to 1 within tolerance can still sum
    to slightly more than 1 in floating point.
    """
    u = (
        weights[0] * shares[0]
        + weights[1] * shares[1]
        + weights[2] * shares[2]
        + weights[3] * shares[3]
    )
    return 0.0 if u < 0.0 else 1.0 if u > 1.0 else u


def used_shares_of(
    pm: PhysicalMachine, usages: Iterable[Optional[tuple[float, float, float, float]]]
) -> Shares:
    """Used share of a machine: the sum of its hosted VMs' latest delivered usage.

    ``usages`` gives each hosted VM's latest delivered usage in hosted
    order, or None for a VM without any yet; those contribute nothing here,
    and placement logic layers its own assumed footprint on top for them.
    """
    latest = [usage for usage in usages if usage is not None]
    return shares_of(_column_sums(latest), pm.capacity.as_tuple())


def running_power(peak_power_watts: float, u: float, model: PowerModel) -> float:
    """Watts drawn by a running machine at a unified utilization ``u`` already in [0, 1]."""
    return peak_power_watts * (model.idle_fraction + (1.0 - model.idle_fraction) * u)
