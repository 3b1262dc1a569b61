"""The simulator's runtime dependencies stay standard-library only."""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "dcsim"
MODULES = sorted(SRC.rglob("*.py"))


def _absolute_imports(path):
    """The top-level name of every absolute import in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_every_absolute_import_is_from_the_standard_library(path):
    outside = sorted(set(_absolute_imports(path)) - sys.stdlib_module_names)
    assert outside == []
