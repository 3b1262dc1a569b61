"""Tests for the policy registry and its config-mapping constructor."""

import re

import pytest

import dcsim
import dcsim.policies
from dcsim.model import ResourceVector, UtilizationWeights
from dcsim.policies import (
    POLICY_IDS,
    RECOMMENDED_POLICY_PARAMS,
    DynamicRoundRobinPolicy,
    GreedyPolicy,
    SimilarityMethod,
    SimilarityPolicy,
    SingleThresholdPolicy,
    build_policy,
)


class TestBuildPolicy:
    def test_string_shorthand(self):
        policy = build_policy("greedy")
        assert isinstance(policy, GreedyPolicy)

    def test_every_registered_id_builds(self):
        for policy_id in POLICY_IDS:
            assert build_policy(policy_id).allocate is not None

    def test_recommended_preset_parameters(self):
        policy = build_policy("recommended")
        assert isinstance(policy, SimilarityPolicy)
        cfg = policy.config
        assert cfg.u_up == RECOMMENDED_POLICY_PARAMS["u_up"]
        assert cfg.u_down == RECOMMENDED_POLICY_PARAMS["u_down"]
        assert cfg.buffer == RECOMMENDED_POLICY_PARAMS["buffer"]
        assert cfg.similarity_method is SimilarityMethod.FREE_FIT
        assert cfg.similarity_threshold == RECOMMENDED_POLICY_PARAMS["similarity_threshold"]

    def test_recommended_accepts_overrides(self):
        policy = build_policy({"id": "recommended", "u_up": 0.85})
        assert policy.config.u_up == 0.85
        assert policy.config.buffer == RECOMMENDED_POLICY_PARAMS["buffer"]

    def test_similarity_parameters_thread_through(self):
        policy = build_policy(
            {
                "id": "similarity",
                "u_up": 0.8,
                "u_down": 0.1,
                "buffer": 0.2,
                "similarity_method": "dissimilar",
                "similarity_threshold": 0.3,
                "consistency_ticks": 5,
                "weights": {"cpu": 0.4, "mem": 0.4, "disk": 0.1, "bw": 0.1},
                "default_rv": [0.3, 0.3, 0.3, 0.3],
            }
        )
        cfg = policy.config
        assert cfg.similarity_method is SimilarityMethod.DISSIMILAR
        assert cfg.weights == UtilizationWeights(0.4, 0.4, 0.1, 0.1)
        assert cfg.default_rv == ResourceVector(0.3, 0.3, 0.3, 0.3)
        assert cfg.consistency_ticks == 5

    def test_single_threshold_parameters(self):
        policy = build_policy({"id": "single_threshold", "threshold": 0.6, "epoch_ticks": 3})
        assert isinstance(policy, SingleThresholdPolicy)
        assert policy.threshold == 0.6
        assert policy.epoch_ticks == 3

    def test_dynamic_round_robin_parameters(self):
        policy = build_policy({"id": "dynamic_round_robin", "retirement_threshold": 7})
        assert isinstance(policy, DynamicRoundRobinPolicy)
        assert policy.retirement_threshold == 7

    @pytest.mark.parametrize(
        "policy_id, name",
        [
            ("single_threshold", "epoch_ticks"),
            ("similarity", "consistency_ticks"),
            ("recommended", "consistency_ticks"),
            ("dynamic_round_robin", "retirement_threshold"),
        ],
    )
    @pytest.mark.parametrize("value", [2.5, 3.0, True])
    def test_tick_parameters_must_be_integers(self, policy_id, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 1, got {value!r}$"):
            build_policy({"id": policy_id, name: value})

    def test_unknown_id_lists_known_ones(self):
        with pytest.raises(ValueError, match="unknown policy id"):
            build_policy("made-up")
        with pytest.raises(ValueError, match="similarity"):
            build_policy({"id": None})

    def test_unknown_parameter_is_an_error(self):
        with pytest.raises(ValueError, match="bad parameters"):
            build_policy({"id": "greedy", "wibble": 1})
        message = "bad parameters for policy 'greedy': unknown 'wibble', 'wobble'; known: none"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_policy({"id": "greedy", "wibble": 1, "wobble": 2})

    def test_a_type_error_inside_a_policy_is_a_fault(self, monkeypatch):
        def broken(params):
            raise TypeError("a fault inside the constructor")

        monkeypatch.setitem(dcsim.policies._REGISTRY, "broken", ({}, broken))
        with pytest.raises(TypeError, match="a fault inside the constructor"):
            build_policy("broken")

    def test_uninterpretable_vector_is_an_error(self):
        message = "default_rv must be a mapping or a list of four numbers, got [0.3, 0.3]"
        with pytest.raises(ValueError, match=re.escape(message)):
            build_policy({"id": "similarity", "default_rv": [0.3, 0.3]})

    def test_invalid_parameter_value_propagates(self):
        with pytest.raises(ValueError):
            build_policy({"id": "similarity", "u_up": 2.0})

    def test_policies_are_fresh_instances(self):
        assert build_policy("greedy") is not build_policy("greedy")


@pytest.mark.parametrize("module", [dcsim, dcsim.policies], ids=lambda m: m.__name__)
def test_every_public_export_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
