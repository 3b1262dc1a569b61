"""Core domain model: resource vectors, machines, VMs, utilization and power math.

Every quantity that crosses a module boundary is either an absolute amount
(same unit as the machine capacity it is measured against) or a *fraction*
of some machine's capacity in [0, 1].  The four tracked resources are CPU,
memory, disk I/O and network bandwidth; units are arbitrary but must be
consistent across a fleet (e.g. MHz / MB / MB/s / Mbit/s).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

RESOURCES = ("cpu", "mem", "disk", "bw")

#: A share of a machine's capacity per resource, in ``RESOURCES`` order.  The
#: program passes shares as plain tuples; ``ResourceVector`` validates shares
#: that arrive from configuration or the public API.
Shares = tuple[float, float, float, float]


class NoHistoryError(RuntimeError):
    """Raised when a usage-based quantity is requested for a VM without samples."""


def _check_fraction(name: str, value: float) -> None:
    if not math.isfinite(value) or not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a finite fraction in [0, 1], got {value!r}")


@dataclass(frozen=True, slots=True)
class ResourceVector:
    """Fractions of a machine's capacity, one component per tracked resource."""

    cpu: float
    mem: float
    disk: float
    bw: float

    def __post_init__(self) -> None:
        _check_fraction("cpu", self.cpu)
        _check_fraction("mem", self.mem)
        _check_fraction("disk", self.disk)
        _check_fraction("bw", self.bw)

    def as_tuple(self) -> Shares:
        return (self.cpu, self.mem, self.disk, self.bw)

#: Assumed usage share for a VM that has no observation history yet.
DEFAULT_RV = ResourceVector(0.25, 0.25, 0.25, 0.25)


@dataclass(frozen=True, slots=True)
class MachineCapacity:
    """Absolute resource capacities of a physical machine (strictly positive)."""

    cpu: float
    mem: float
    disk: float
    bw: float

    def __post_init__(self) -> None:
        for name in RESOURCES:
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"capacity {name} must be > 0, got {value!r}")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.cpu, self.mem, self.disk, self.bw)


@dataclass(frozen=True, slots=True)
class UtilizationWeights:
    """Weights of the four resources in the unified utilization score.

    Each weight lies in [0, 1] and the four must sum to 1 (within 1e-9).
    """

    cpu: float = 0.25
    mem: float = 0.25
    disk: float = 0.25
    bw: float = 0.25

    def __post_init__(self) -> None:
        for name in RESOURCES:
            _check_fraction(f"weight {name}", getattr(self, name))
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

    idle_fraction: float = 0.5
    standby_watts: float = 0.0

    def __post_init__(self) -> None:
        _check_fraction("idle_fraction", self.idle_fraction)
        if not math.isfinite(self.standby_watts) or self.standby_watts < 0.0:
            raise ValueError(f"standby_watts must be >= 0, got {self.standby_watts!r}")


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
    peak_power_watts: float
    state: MachineState = MachineState.RUNNING
    hosted_vm_ids: list[str] = field(default_factory=list)
    last_used_tick: int = -1  # the last tick it ran before going to standby; -1 until then
    breach_side: Optional[BreachSide] = None
    threshold_breach_since: Optional[int] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.peak_power_watts) or self.peak_power_watts <= 0.0:
            raise ValueError(f"peak power must be > 0, got {self.peak_power_watts!r}")

    @property
    def is_running(self) -> bool:
        return self.state is MachineState.RUNNING

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
    """Mutable state of one VM: identity, request size and observed usage.

    ``usage_window`` holds the last few ticks of *delivered* absolute usage
    (post-arbitration), one ``(cpu, mem, disk, bw)`` tuple per tick.  The
    window length is fixed at construction time and covers the observation
    period used to build the VM's resource vector.
    """

    id: str
    nominal: MachineCapacity
    arrival_tick: int
    departure_tick: Optional[int] = None
    window_ticks: int = 5
    host_id: Optional[int] = None
    usage_window: deque = field(init=False)
    _window_sums: tuple[float, float, float, float] = field(init=False)

    def __post_init__(self) -> None:
        if self.window_ticks < 1:
            raise ValueError("window_ticks must be >= 1")
        if self.departure_tick is not None and self.departure_tick <= self.arrival_tick:
            raise ValueError(
                f"VM {self.id}: departure {self.departure_tick} must be after "
                f"arrival {self.arrival_tick}"
            )
        self.usage_window = deque(maxlen=self.window_ticks)
        self._window_sums = (0.0, 0.0, 0.0, 0.0)

    @property
    def has_history(self) -> bool:
        return len(self.usage_window) > 0

    def record_usage(self, sample: tuple[float, float, float, float]) -> None:
        """Append one tick of delivered usage, evicting the oldest if full."""
        window = self.usage_window
        s0, s1, s2, s3 = self._window_sums
        c, m, d, b = sample
        if len(window) == self.window_ticks:
            o0, o1, o2, o3 = window[0]
            self._window_sums = ((s0 - o0) + c, (s1 - o1) + m, (s2 - o2) + d, (s3 - o3) + b)
        else:
            self._window_sums = (s0 + c, s1 + m, s2 + d, s3 + b)
        window.append(sample)

    def window_mean(self) -> tuple[float, float, float, float]:
        """Mean absolute usage over the window.  Raises if there is no history."""
        n = len(self.usage_window)
        if n == 0:
            raise NoHistoryError(f"VM {self.id} has no usage samples")
        s = self._window_sums
        return (s[0] / n, s[1] / n, s[2] / n, s[3] / n)


def parse_components(cls: type, raw: object):
    """Build a four-component value such as ``UtilizationWeights`` or ``ResourceVector``.

    ``raw`` is an instance of ``cls``, a mapping of component names, or a
    list or tuple of four numbers in ``RESOURCES`` order.
    """
    if isinstance(raw, cls):
        return raw
    if isinstance(raw, dict):
        return cls(**raw)
    if isinstance(raw, (list, tuple)) and len(raw) == 4:
        return cls(*raw)
    raise ValueError(f"cannot interpret {cls.__name__} from {raw!r}")


# ---------------------------------------------------------------------------
# Pure operations
# ---------------------------------------------------------------------------


def _clamp01(x: float) -> float:
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return x


def shares_of(
    amounts: tuple[float, float, float, float], capacity: tuple[float, float, float, float]
) -> Shares:
    """Each absolute amount as a share of the matching capacity, clamped to [0, 1].

    Each component is clamped as ``_clamp01`` clamps, written inline.
    """
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
    """Componentwise sum of two share tuples, each component capped at 1."""
    return (
        min(1.0, a[0] + b[0]),
        min(1.0, a[1] + b[1]),
        min(1.0, a[2] + b[2]),
        min(1.0, a[3] + b[3]),
    )


def complement_of(shares: Shares) -> Shares:
    """The free share left on a machine whose used share is ``shares``."""
    return (1.0 - shares[0], 1.0 - shares[1], 1.0 - shares[2], 1.0 - shares[3])


def utilization_of(shares: Shares, weights: tuple[float, float, float, float]) -> float:
    """Weighted sum of the four resource shares, clamped to [0, 1].

    The clamp matters: weights that sum to 1 within tolerance can still sum
    to slightly more than 1 in floating point.  The clamp is ``_clamp01``'s,
    written inline.
    """
    u = (
        weights[0] * shares[0]
        + weights[1] * shares[1]
        + weights[2] * shares[2]
        + weights[3] * shares[3]
    )
    return 0.0 if u < 0.0 else 1.0 if u > 1.0 else u


def rescale_rv(
    rv: ResourceVector, from_capacity: MachineCapacity, to_capacity: MachineCapacity
) -> ResourceVector:
    """Re-express a capacity-relative vector against a different machine.

    A share of a big machine is a larger share of a small one:  each
    component is multiplied by ``from/to`` capacity and clamped to [0, 1].
    """
    f = from_capacity.as_tuple()
    t = to_capacity.as_tuple()
    v = rv.as_tuple()
    return ResourceVector(
        _clamp01(v[0] * f[0] / t[0]),
        _clamp01(v[1] * f[1] / t[1]),
        _clamp01(v[2] * f[2] / t[2]),
        _clamp01(v[3] * f[3] / t[3]),
    )


def used_shares_of(pm: PhysicalMachine, vms: Iterable[VirtualMachine]) -> Shares:
    """Used share of a machine: sum of hosted VMs' latest delivered usage.

    VMs without any usage sample yet contribute nothing here; placement
    logic layers its own assumed footprint on top for those.
    """
    cpu = mem = disk = bw = 0.0
    for vm in vms:
        if vm.usage_window:
            last = vm.usage_window[-1]
            cpu += last[0]
            mem += last[1]
            disk += last[2]
            bw += last[3]
    return shares_of((cpu, mem, disk, bw), pm.capacity.as_tuple())


def unified_utilization(rv: ResourceVector, weights: UtilizationWeights) -> float:
    """Weighted linear combination of the four resource shares, in [0, 1]."""
    return utilization_of(rv.as_tuple(), weights.as_tuple())


def power_draw(pm: PhysicalMachine, u: float, model: PowerModel) -> float:
    """Instantaneous power in watts for a machine at unified utilization ``u``."""
    if pm.state is MachineState.STANDBY:
        return model.standby_watts
    if not math.isfinite(u) or not 0.0 <= u <= 1.0:
        raise ValueError(f"utilization must be in [0, 1], got {u!r}")
    return pm.peak_power_watts * (model.idle_fraction + (1.0 - model.idle_fraction) * u)
