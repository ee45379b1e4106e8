"""The regime of a solve lives in one value, ``instance.Regime``.

A class elsewhere in the package that declares its own mode, beta or
weights holds a copy of the regime that ``dataclasses.replace`` or a plain
assignment can set apart from the regime its declarations name.
"""

import ast
from pathlib import Path

import graphbalance

PACKAGE = Path(graphbalance.__file__).resolve().parent

REGIME_FIELDS = {"mode", "beta", "heavy_weight", "light_weight", "mode_fields"}


def declared_fields(cls):
    """``(name, line)`` of every field *cls* declares in its body, and of
    every attribute its methods set on ``self``."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node.lineno
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
    for node in ast.walk(cls):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            yield node.attr, node.lineno


def test_no_class_outside_instance_copies_the_regime():
    copies = [
        f"{path.relative_to(PACKAGE)}:{line} {cls.name}.{name}"
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "instance.py"
        for cls in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(cls, ast.ClassDef)
        for name, line in declared_fields(cls)
        if name in REGIME_FIELDS
    ]
    assert copies == []
