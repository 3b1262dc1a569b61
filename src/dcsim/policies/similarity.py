"""Consolidation policy driven by resource-vector cosine similarity.

Placement scores every running machine by how a VM's resource shape relates
to the machine's current usage, and packs VMs as long as the machine's
estimated unified utilization stays a safety buffer below the scale-up
threshold.  Two scoring modes are supported:

* ``dissimilar`` — score against the machine's *used* vector and prefer the
  least similar machine, spreading complementary shapes so no single
  resource saturates first.
* ``free-fit`` — score against the machine's *free* vector and prefer the
  most similar machine, slotting each VM where the leftover capacity has
  the VM's shape.

Machines that stay above ``u_up`` for a consistency period hand off their
hottest VM; machines that stay below ``u_down`` are fully evacuated onto
running peers and put on standby.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Optional

from ..model import (
    DEFAULT_RV,
    FRACTION,
    POSITIVE,
    BreachSide,
    PhysicalMachine,
    ResourceVector,
    Shares,
    UtilizationWeights,
    check_fields,
    choice,
    clamped_sum_of,
    complement_of,
    declare,
    integer,
    record,
    utilization_of,
)
from .base import ClusterView, RebalanceAction, SchedulerPolicy

_ZERO_SHARES: Shares = (0.0, 0.0, 0.0, 0.0)

#: Smallest allowed ``u_up - u_down``; narrower bands thrash machines
#: between scale-up and scale-down.
MIN_THRESHOLD_GAP = 0.2


class SimilarityMethod(Enum):
    """How a candidate machine is scored against an incoming VM."""

    DISSIMILAR = "dissimilar"
    FREE_FIT = "free-fit"


def _norm_of(a: Shares) -> float:
    """Euclidean length of a share tuple."""
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3])


def _cosine_normed(a: Shares, norm_a: float, b: Shares, norm_b: float) -> float:
    """:func:`cosine_of` given each tuple's ``_norm_of``, so callers may reuse norms."""
    denom = norm_a * norm_b
    if denom == 0.0:
        return 0.0
    value = (a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]) / denom
    if value < 0.0:
        return 0.0
    if value > 1.0:
        return 1.0
    return value


def _fits(used: Shares, share: Shares, weights: Shares, cap: float) -> bool:
    """The packing-cap test: the unified utilization of ``used`` plus ``share`` is below ``cap``."""
    return utilization_of(clamped_sum_of(used, share), weights) < cap


def cosine_of(a: Shares, b: Shares) -> float:
    """Cosine of the angle between two share tuples, in [0, 1].

    Shares are componentwise non-negative, so the cosine is never negative.
    If either tuple has zero length the similarity is defined as 0 (nothing
    aligns with an absent shape).
    """
    return _cosine_normed(a, _norm_of(a), b, _norm_of(b))


@dataclass(frozen=True, slots=True)
class PolicyConfig:
    """Tunables of the similarity consolidation policy.

    ``u_up``/``u_down`` bound the band of acceptable machine utilization,
    ``buffer`` is the safety margin kept below ``u_up`` at placement time
    and ``consistency_ticks`` is how long a breach must persist before the
    policy reacts.  The two thresholds must be at least
    ``MIN_THRESHOLD_GAP`` apart.
    """

    u_up: float = declare(FRACTION, 0.75)
    u_down: float = declare(FRACTION, 0.15)
    buffer: float = declare(FRACTION, 0.15)
    similarity_method: SimilarityMethod = declare(
        choice(SimilarityMethod), SimilarityMethod.FREE_FIT
    )
    similarity_threshold: float = declare(FRACTION, 0.6)
    consistency_ticks: int = declare(integer(1), 3)
    weights: UtilizationWeights = declare(
        record(UtilizationWeights, sequence=True), default_factory=UtilizationWeights
    )
    default_rv: ResourceVector = declare(record(ResourceVector, sequence=True), DEFAULT_RV)
    delta_window_seconds: float = declare(POSITIVE, 300.0)

    def __post_init__(self) -> None:
        check_fields(self)
        if not self.u_down < self.u_up:
            raise ValueError(
                f"need 0 <= u_down < u_up <= 1, got u_down={self.u_down!r} u_up={self.u_up!r}"
            )
        if self.u_up - self.u_down < MIN_THRESHOLD_GAP - 1e-12:
            raise ValueError(
                f"u_up - u_down = {self.u_up - self.u_down:.4f} is below the "
                f"minimum gap {MIN_THRESHOLD_GAP}"
            )
        if not self.buffer < self.u_up:
            raise ValueError(f"need 0 <= buffer < u_up, got buffer={self.buffer!r}")


class SimilarityPolicy(SchedulerPolicy):
    """Similarity-scored packing with threshold-driven rebalancing."""

    name = "similarity"

    def __init__(self, config: Optional[PolicyConfig] = None) -> None:
        super().__init__()
        self.config = config or PolicyConfig()
        self.usage_window_seconds = self.config.delta_window_seconds
        self.default_rv = self.config.default_rv
        self.utilization_weights = self.config.weights
        # Machine id -> (used share, its utilization, the vector scored against,
        # that vector's norm); see ``_pick``.
        self._terms: dict[int, tuple[Shares, float, Shares, float]] = {}

    @property
    def breach_thresholds(self) -> tuple[float, float]:
        return (self.config.u_up, self.config.u_down)

    # -- placement ---------------------------------------------------------

    def allocate(self, vm_id: str, view: ClusterView) -> Optional[int]:
        return self._pick(vm_id, view)

    def _pick(
        self,
        vm_id: str,
        view: ClusterView,
        source: Optional[int] = None,
        extras: Optional[dict[int, Shares]] = None,
    ) -> Optional[int]:
        """The eligible running machine other than ``source`` with the best score that fits.

        Failing that, the least recently used standby machine when ``extras``
        is None, else None: a scale-down plan, which passes it, wakes none.

        Candidates rank by ``(score, machine id)``, the score negated for
        ``free-fit``.  Machine ids are unique, so the order is strict and the
        best candidate that fits is the first fit of the sorted candidates.
        Only a candidate that beats the best so far is tested against the cap.

        A machine whose own utilization is already at least the cap
        (``u_up - buffer``) is skipped before the VM's share is fetched or a
        cosine computed.  The skip is exact: shares are at least 0 and
        weights lie in [0, 1], and IEEE rounding is monotone, so neither
        ``clamped_sum_of`` nor ``utilization_of`` can decrease.  Such a
        machine fails the cap test for every VM, and the best candidate
        changes only on a fit, so skipping it changes no decision.

        ``extras`` layers hypothetical, not-yet-executed placements on top
        of the view so multi-VM plans stay internally consistent.  The VM's
        share and its norm are computed once per capacity object, keyed by
        ``id(pm.capacity)`` within this call and looked up only when that
        object changes from one candidate to the next, and only for a class
        with a machine below the cap; the view gives the same share on every
        machine of equal capacity.  Each machine's side of the cosine (its
        utilization, its used or free vector and that vector's norm) is
        cached against the tuple it was derived from and reused while
        ``view.machine_rv`` returns that same object; any other tuple, equal
        or not, and any sum with ``extras``, is scored afresh.
        """
        cfg = self.config
        cap_u = cfg.u_up - cfg.buffer
        weights = cfg.weights.as_tuple()
        dissimilar = cfg.similarity_method is SimilarityMethod.DISSIMILAR
        threshold = cfg.similarity_threshold
        terms = self._terms
        vm_terms: dict[int, tuple[Shares, float]] = {}
        last_capacity = None  # a fleet group's machines come one after another
        best = None  # the rank of the best candidate that fits so far
        for pm in view.running_machines():
            pm_id = pm.id
            if pm_id == source:
                continue
            used = view.machine_rv(pm_id)
            if extras is not None and pm_id in extras:
                used = clamped_sum_of(used, extras[pm_id])
            term = terms.get(pm_id)
            if term is None or term[0] is not used:
                vector = used if dissimilar else complement_of(used)
                u = utilization_of(used, weights)
                term = terms[pm_id] = (used, u, vector, _norm_of(vector))
            if term[1] >= cap_u:
                continue  # at the cap already, so no VM fits
            if pm.capacity is not last_capacity:
                last_capacity = pm.capacity
                vm_term = vm_terms.get(id(last_capacity))
                if vm_term is None:
                    share = view.vm_rv_on(vm_id, pm_id)
                    vm_term = vm_terms[id(last_capacity)] = (share, _norm_of(share))
                vm_share, vm_norm = vm_term
            score = _cosine_normed(vm_share, vm_norm, term[2], term[3])
            if dissimilar:
                if score > threshold:
                    continue
                rank = (score, pm_id)
            else:
                if score < threshold:
                    continue
                rank = (-score, pm_id)
            if (best is None or rank < best) and _fits(used, vm_share, weights, cap_u):
                best = rank
        if best is not None:
            return best[1]
        if extras is None:
            standby = view.standby_machines()
            if standby:
                return min(standby, key=lambda pm: (pm.last_used_tick, pm.id)).id
        return None

    # -- rebalancing -------------------------------------------------------

    def rebalance(self, view: ClusterView, tick: int) -> Iterator[RebalanceAction]:
        for pm in view.running_machines():
            if pm.breach_side is None:  # neither check acts without a breach
                continue
            action = self.scale_up_check(pm, tick, view)
            if action is not None:
                yield action
                continue
            plan = self.scale_down_check(pm, tick, view)
            if plan is not None:
                yield from plan

    def _breach_mature(self, pm: PhysicalMachine, side: BreachSide, tick: int) -> bool:
        return (
            pm.breach_side is side
            and pm.threshold_breach_since is not None
            and tick - pm.threshold_breach_since + 1 >= self.config.consistency_ticks
        )

    def scale_up_check(
        self, pm: PhysicalMachine, tick: int, view: ClusterView
    ) -> Optional[RebalanceAction]:
        """Hand off the hottest VM of a persistently overloaded machine.

        Moves at most one VM.  If no peer passes the buffer check a standby
        machine is woken for the VM; with the whole fleet running and full,
        the VM stays put and the episode is only counted.
        """
        if not self._breach_mature(pm, BreachSide.OVER, tick):
            return None
        weights = self.config.weights.as_tuple()
        hottest = None
        for vm_id in pm.hosted_vm_ids:
            if view.vm_in_flight(vm_id):
                continue
            u = utilization_of(view.vm_rv_on(vm_id, pm.id), weights)
            if hottest is None or u > hottest[0]:
                hottest = (u, vm_id)
        if hottest is None:
            return None
        vm_id = hottest[1]
        target = self._pick(vm_id, view, pm.id)
        if target is None:
            self._count("scale_up_exhausted")
            return None
        return RebalanceAction.migrate(vm_id, pm.id, target, reason="scale-up")

    def scale_down_check(
        self, pm: PhysicalMachine, tick: int, view: ClusterView
    ) -> Optional[list[RebalanceAction]]:
        """Plan a full evacuation of a persistently underloaded machine.

        All-or-nothing: either every hosted VM fits on some other *running*
        machine (waking counts as failure) and the machine goes to standby,
        or no action is taken.  Planned placements accumulate, so one peer
        absorbing several VMs is accounted correctly.
        """
        if not self._breach_mature(pm, BreachSide.UNDER, tick):
            return None
        if any(view.vm_in_flight(vm_id) for vm_id in pm.hosted_vm_ids):
            return None
        extras: dict[int, Shares] = {}
        plan = []
        for vm_id in list(pm.hosted_vm_ids):
            target = self._pick(vm_id, view, pm.id, extras)
            if target is None:
                self._count("scale_down_blocked")
                return None
            vm_share = view.vm_rv_on(vm_id, target)
            extras[target] = clamped_sum_of(extras.get(target, _ZERO_SHARES), vm_share)
            plan.append(RebalanceAction.migrate(vm_id, pm.id, target, reason="scale-down"))
        plan.append(RebalanceAction.standby_machine(pm.id, reason="scale-down"))
        return plan

    # -- delayed-migration validation ---------------------------------------

    def migration_landing_ok(self, vm_id: str, machine_id: int, view: ClusterView) -> bool:
        """A landing must still leave the running target below the packing cap."""
        cfg = self.config
        used, share = view.machine_rv(machine_id), view.vm_rv_on(vm_id, machine_id)
        return _fits(used, share, cfg.weights.as_tuple(), cfg.u_up - cfg.buffer)
