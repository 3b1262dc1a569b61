"""The benchmark's tracing wrapper runs every registered policy unchanged.

``perfbench/tracing.py`` wraps a policy and its cluster view from outside the
package, so a change to the policy interface that the wrapper does not follow
would show only when the benchmark runs.  Here every policy runs on random
instances both traced and untraced, and the two reports must be equal.
"""

from __future__ import annotations

import types
from pathlib import Path

import pytest

from _instances import make_instance
from dcsim.engine import run_simulation
from dcsim.policies import POLICY_IDS, build_policy

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
INSTANCES = 20


@pytest.fixture(scope="module")
def tracing():
    """``perfbench/tracing.py``, run from its source without writing bytecode."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("policy_id", POLICY_IDS)
def test_traced_run_reports_what_the_untraced_run_does(tracing, policy_id):
    allocations = wakes = 0
    for seed in range(INSTANCES):
        config, workload, spec = make_instance(seed, policy_id)
        untraced = run_simulation(config, workload, build_policy(spec))
        trace = tracing.Trace()
        traced = run_simulation(config, workload, tracing.TracedPolicy(build_policy(spec), trace))
        assert traced == untraced, f"seed {seed}: the traced report differs"
        allocations += trace.allocate[0]
        wakes += traced.wake_count
    assert allocations and wakes
