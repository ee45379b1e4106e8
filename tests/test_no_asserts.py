"""The package states its invariants as raised errors, never as ``assert``.

``python -O`` strips assert statements, so an invariant written as one would
silently stop being checked in optimized runs.
"""

import ast
from pathlib import Path

import graphbalance

PACKAGE = Path(graphbalance.__file__).resolve().parent


def test_no_assert_statements_in_the_package():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
