"""No loop in the package loads a ``MachineState`` or ``BreachSide`` member.

On CPython 3.11 an ``Enum`` member load such as ``MachineState.RUNNING``
goes through the enum's class-attribute descriptor and costs about 75 ns,
against about 5 ns for a local (``python3 -m timeit``, 2-core x86-64 host).
The engine's per-machine loops run on every tick, so a loop binds the member
to a local before it starts.  This test finds any member load inside a loop
body or a comprehension under ``src/dcsim``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import dcsim

PACKAGE = Path(dcsim.__file__).resolve().parent
ENUMS = {"MachineState", "BreachSide"}


def _repeated_parts(node: ast.AST) -> list[ast.AST]:
    """The parts of a loop or comprehension that run once per iteration."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.body
    if isinstance(node, ast.While):
        return [node.test, *node.body]
    if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
        elements = [node.elt]
    elif isinstance(node, ast.DictComp):
        elements = [node.key, node.value]
    else:
        return []
    # The first generator's iterable is evaluated once, before the loop.
    first, *rest = node.generators
    return [*elements, *first.ifs, *rest]


def _member_loads_in_loops(package: Path) -> list[tuple[str, int]]:
    found = set()
    for path in sorted(package.rglob("*.py")):
        module = path.relative_to(package).as_posix()
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            for part in _repeated_parts(loop):
                for node in ast.walk(part):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Load)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ENUMS
                    ):
                        found.add((module, node.lineno))
    return sorted(found)


def test_no_loop_loads_a_machine_state_or_breach_side_member():
    assert _member_loads_in_loops(PACKAGE) == []


def test_the_search_finds_member_loads_in_each_kind_of_loop(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def f(machines, queue):\n"
        "    standby = MachineState.STANDBY\n"  # outside any loop
        "    for pm in machines:\n"
        "        pm.state is MachineState.RUNNING\n"
        "    while queue.pop() is BreachSide.OVER:\n"
        "        pass\n"
        "    [pm for pm in machines if pm.state is MachineState.STANDBY]\n"
        "    {pm.id: BreachSide.UNDER for pm in machines}\n"
        "    [pm for pm in MachineState]\n"  # iterating the class is no member load
    )
    assert _member_loads_in_loops(tmp_path) == [
        ("sample.py", 4),
        ("sample.py", 5),
        ("sample.py", 7),
        ("sample.py", 8),
    ]
