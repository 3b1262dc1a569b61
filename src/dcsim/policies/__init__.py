"""Placement policies and the registry that builds them from config mappings."""

from __future__ import annotations

from typing import Any, Callable

from ..model import ResourceVector, UtilizationWeights, parse_components
from .base import ActionKind, ClusterView, RebalanceAction, SchedulerPolicy
from .baselines import (
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    PowerSavePolicy,
    RoundRobinPolicy,
    SingleThresholdPolicy,
)
from .similarity import (
    PolicyConfig,
    SimilarityMethod,
    SimilarityPolicy,
    cosine_similarity,
)

#: Tuned similarity configuration used by the ``recommended`` preset.
RECOMMENDED_POLICY_PARAMS: dict[str, Any] = {
    "u_up": 0.75,
    "u_down": 0.25,
    "buffer": 0.15,
    "similarity_method": "free-fit",
    "similarity_threshold": 0.6,
    "consistency_ticks": 4,
}


def _build_similarity(params: dict[str, Any]) -> SimilarityPolicy:
    kwargs = dict(params)
    if "similarity_method" in kwargs:
        kwargs["similarity_method"] = SimilarityMethod(kwargs["similarity_method"])
    if "weights" in kwargs:
        kwargs["weights"] = parse_components(UtilizationWeights, kwargs["weights"])
    if "default_rv" in kwargs:
        kwargs["default_rv"] = parse_components(ResourceVector, kwargs["default_rv"])
    return SimilarityPolicy(PolicyConfig(**kwargs))


def _build_recommended(params: dict[str, Any]) -> SimilarityPolicy:
    merged = dict(RECOMMENDED_POLICY_PARAMS)
    merged.update(params)
    return _build_similarity(merged)


def _build_single_threshold(params: dict[str, Any]) -> SingleThresholdPolicy:
    kwargs = dict(params)
    if "weights" in kwargs:
        kwargs["weights"] = parse_components(UtilizationWeights, kwargs["weights"])
    return SingleThresholdPolicy(**kwargs)


_REGISTRY: dict[str, Callable[[dict[str, Any]], SchedulerPolicy]] = {
    "similarity": _build_similarity,
    "recommended": _build_recommended,
    "round_robin": lambda params: RoundRobinPolicy(**params),
    "greedy": lambda params: GreedyPolicy(**params),
    "power_save": lambda params: PowerSavePolicy(**params),
    "dynamic_round_robin": lambda params: DynamicRoundRobinPolicy(**params),
    "single_threshold": _build_single_threshold,
}

POLICY_IDS = tuple(sorted(_REGISTRY))


def build_policy(spec: dict[str, Any] | str) -> SchedulerPolicy:
    """Build a policy from a config mapping like ``{"id": "similarity", ...}``.

    A bare string is shorthand for ``{"id": <string>}``.  An unknown or
    non-string id, or unknown parameters, raise ``ValueError`` naming them.
    """
    if isinstance(spec, str):
        spec = {"id": spec}
    params = dict(spec)
    policy_id = params.pop("id", None)
    if not isinstance(policy_id, str) or policy_id not in _REGISTRY:
        raise ValueError(f"unknown policy id {policy_id!r}; known: {', '.join(POLICY_IDS)}")
    try:
        return _REGISTRY[policy_id](params)
    except TypeError as exc:
        raise ValueError(f"bad parameters for policy {policy_id!r}: {exc}") from None


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
    "cosine_similarity",
]
