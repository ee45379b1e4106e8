"""Every name the package defines is used somewhere in the package.

A function, class or module-level name that only tests reach is code the
solver carries for nothing: a test that needs such a helper keeps it in the
tests.  A name counts as used when the package loads it by name, reads it as
an attribute, imports it, or exports it through ``__all__`` — except that
``__init__.py`` does not count: a name it alone imports or exports is one
only the package's users, tests among them, can reach.

Likewise every parameter and local variable of a function is read by that
function or by a function nested in it.
"""

import ast
from pathlib import Path

import graphbalance

PACKAGE = Path(graphbalance.__file__).resolve().parent

# argparse calls ArgumentParser.error itself, so the override has no caller here
EXEMPT = {"cli._Parser.error"}

# bound names never meant to be read
UNREAD_OK = {"self", "cls", "_"}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


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


def own_scope(function):
    """The nodes of *function*'s own scope: its body without the bodies of
    the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def bound_names(function):
    """``(name, line)`` of every parameter of *function* and every local it
    binds, less the names it declares ``global`` or ``nonlocal``."""
    args = function.args
    params = args.posonlyargs + args.args + args.kwonlyargs
    params += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
    bound = [(arg.arg, arg.lineno) for arg in params]
    outer = set()
    for node in own_scope(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.append((node.id, node.lineno))
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            outer.update(node.names)
    return [(name, line) for name, line in bound if name not in outer]


def unread_names(tree):
    """``(function, name, line)`` of every parameter or local variable that
    neither its function nor a function nested in it reads."""
    for function in ast.walk(tree):
        if not isinstance(function, _FUNCTIONS):
            continue
        read = {
            node.id
            for node in ast.walk(function)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for name, line in bound_names(function):
            if name not in read and name not in UNREAD_OK:
                yield getattr(function, "name", "<lambda>"), name, line


def package_trees():
    trees = {
        path: ast.parse(path.read_text(encoding="utf-8"), str(path))
        for path in sorted(PACKAGE.rglob("*.py"))
    }
    assert trees
    return trees


def test_every_defined_name_is_used_in_the_package():
    trees = package_trees()
    used = {
        name
        for path, tree in trees.items()
        if path.name != "__init__.py"
        for name in references(tree)
    }
    unused = [
        f"{path.relative_to(PACKAGE)}:{line} {qualname}"
        for path, tree in trees.items()
        for qualname, name, line in definitions(tree, path.stem)
        if name not in used
        and not (name.startswith("__") and name.endswith("__"))
        and qualname not in EXEMPT
    ]
    assert unused == []


def test_every_parameter_and_local_is_read():
    unread = [
        f"{path.relative_to(PACKAGE)}:{line} {function}: {name}"
        for path, tree in package_trees().items()
        for function, name, line in unread_names(tree)
    ]
    assert unread == []
