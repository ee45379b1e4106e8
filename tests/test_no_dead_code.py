"""Every name the package defines is used somewhere in the package.

A function, class or module-level name that only tests reach is code the
solver carries for nothing: a test that needs such a helper keeps it in the
tests.  A name counts as used when the package loads it by name, reads it as
an attribute, imports it, or exports it through ``__all__``.
"""

import ast
from pathlib import Path

import graphbalance

PACKAGE = Path(graphbalance.__file__).resolve().parent

# argparse calls ArgumentParser.error itself, so the override has no caller here
EXEMPT = {"cli._Parser.error"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def nested_definitions(node, qualname):
    """``(qualified name, name, line)`` of every function and class in *node*,
    nested ones included."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, _DEFINITIONS):
            name = f"{qualname}.{child.name}"
            yield name, child.name, child.lineno
            yield from nested_definitions(child, name)
        else:
            yield from nested_definitions(child, qualname)


def definitions(tree, module):
    yield from nested_definitions(tree, module)
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield f"{module}.{name.id}", name.id, name.lineno


def references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value


def test_every_defined_name_is_used_in_the_package():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert trees
    used = {name for tree in trees.values() for name in references(tree)}
    unused = [
        f"{path.relative_to(PACKAGE)}:{line} {qualname}"
        for path, tree in trees.items()
        for qualname, name, line in definitions(tree, path.stem)
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and qualname not in EXEMPT
    ]
    assert unused == []
