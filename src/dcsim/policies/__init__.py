"""Placement policies and the registry that builds them from config mappings."""

from __future__ import annotations

from typing import Any, Callable, Mapping

from ..model import Kind, declared
from .base import ActionKind, ClusterView, RebalanceAction, SchedulerPolicy
from .baselines import (
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    PowerSavePolicy,
    RoundRobinPolicy,
    SingleThresholdPolicy,
)
from .similarity import PolicyConfig, SimilarityMethod, SimilarityPolicy

#: Tuned similarity configuration used by the ``recommended`` preset.
RECOMMENDED_POLICY_PARAMS: dict[str, Any] = {
    "u_up": 0.75,
    "u_down": 0.25,
    "buffer": 0.15,
    "similarity_method": "free-fit",
    "similarity_threshold": 0.6,
    "consistency_ticks": 4,
}


def _build_recommended(params: dict[str, Any]) -> SimilarityPolicy:
    return SimilarityPolicy(PolicyConfig(**{**RECOMMENDED_POLICY_PARAMS, **params}))


#: id -> (the kind of each parameter the policy takes, by name; its builder).
#: A builder receives only declared parameters, and the policy checks their values.
_REGISTRY: dict[str, tuple[Mapping[str, Kind], Callable[[dict[str, Any]], SchedulerPolicy]]] = {
    "similarity": (declared(PolicyConfig), lambda params: SimilarityPolicy(PolicyConfig(**params))),
    "recommended": (declared(PolicyConfig), _build_recommended),
    "round_robin": ({}, lambda params: RoundRobinPolicy()),
    "greedy": ({}, lambda params: GreedyPolicy()),
    "power_save": ({}, lambda params: PowerSavePolicy()),
    "dynamic_round_robin": (
        DynamicRoundRobinPolicy.parameters, lambda params: DynamicRoundRobinPolicy(**params)
    ),
    "single_threshold": (
        SingleThresholdPolicy.parameters, lambda params: SingleThresholdPolicy(**params)
    ),
}

POLICY_IDS = tuple(sorted(_REGISTRY))


def build_policy(spec: dict[str, Any] | str) -> SchedulerPolicy:
    """Build a policy from a config mapping like ``{"id": "similarity", ...}``.

    A bare string is shorthand for ``{"id": <string>}``.  An unknown or
    non-string id, a parameter the policy does not declare, or a value its
    kind rejects raises ``ValueError`` naming them.
    """
    if isinstance(spec, str):
        spec = {"id": spec}
    params = dict(spec)
    policy_id = params.pop("id", None)
    if not isinstance(policy_id, str) or policy_id not in _REGISTRY:
        raise ValueError(f"unknown policy id {policy_id!r}; known: {', '.join(POLICY_IDS)}")
    parameters, build = _REGISTRY[policy_id]
    unknown = [name for name in params if name not in parameters]
    if unknown:
        raise ValueError(
            f"bad parameters for policy {policy_id!r}: unknown {', '.join(map(repr, unknown))}; "
            f"known: {', '.join(parameters) or 'none'}"
        )
    return build(params)


__all__ = [
    "ActionKind",
    "ClusterView",
    "DynamicRoundRobinPolicy",
    "GreedyPolicy",
    "POLICY_IDS",
    "PolicyConfig",
    "PowerSavePolicy",
    "RECOMMENDED_POLICY_PARAMS",
    "RebalanceAction",
    "RoundRobinPolicy",
    "SchedulerPolicy",
    "SimilarityMethod",
    "SimilarityPolicy",
    "SingleThresholdPolicy",
    "build_policy",
]
