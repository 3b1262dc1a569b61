"""A run must not depend on the CPython version that executes it.

From CPython 3.12 on, the builtin ``sum`` of floats is compensated, so it can
return a different float than the left-to-right sum 3.10 and 3.11 take.  The
engine adds floats left to right in plain loops, and the only builtin ``sum``
calls in the package add integers.
"""

from __future__ import annotations

import ast
import math
from pathlib import Path

import pytest

import dcsim.engine
from _instances import make_instance
from dcsim.engine import run_simulation
from dcsim.policies import build_policy

PACKAGE = Path(dcsim.engine.__file__).resolve().parent

#: ``(module, enclosing function)`` of every builtin ``sum`` call allowed in
#: the package; each adds integers.
INTEGER_SUMS = [
    ("cli.py", "cmd_gen_workload"),  # trace lengths
    ("engine.py", "mean_running_machines"),  # running-machine counts
]


def _builtin_sum_calls() -> list[tuple[str, str]]:
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        module = path.relative_to(PACKAGE).as_posix()

        def visit(node: ast.AST, function: str) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                found.append((module, function))
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_integer_sums_use_the_builtin():
    assert _builtin_sum_calls() == INTEGER_SUMS


@pytest.mark.parametrize("seed", range(40))
def test_report_does_not_depend_on_compensated_sum(monkeypatch, seed):
    config, workload, spec = make_instance(seed)
    plain = run_simulation(config, workload, build_policy(spec))
    # The engine's module namespace shadows the builtin, as 3.12's sum would.
    monkeypatch.setattr(dcsim.engine, "sum", math.fsum, raising=False)
    compensated = run_simulation(config, workload, build_policy(spec))
    assert compensated == plain
    assert compensated.total_energy_kwh.hex() == plain.total_energy_kwh.hex()
