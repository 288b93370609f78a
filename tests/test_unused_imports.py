"""No module of the package imports a name it never uses, no private
module-level name goes unread by the package, and no named function has a
parameter it never reads.

``__init__`` is left out of the import check, since it imports the public
API to re-export it.  The one other re-export is listed:
``complexes.clear_caches``, which callers import from ``complexes``.  A name
counts as used when the package's code reads it; a doctest or a test that
reads it alone does not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "kbproj"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
REEXPORTS = {"complexes": {"clear_caches"}}


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - REEXPORTS.get(path.stem, set()))


def test_the_package_modules_are_found():
    assert {"complexes", "quadruples", "rigidity"} <= {p.stem for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path) == []


def private_definitions(tree: ast.Module) -> list[str]:
    """The module-level functions, classes and assignments named with one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def test_every_private_module_level_name_is_read_by_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    defined = [(stem, name) for stem, tree in trees.items() for name in private_definitions(tree)]
    assert len(defined) > 50
    assert [f"{stem}.{name}" for stem, name in defined if name not in read] == []


def unread_parameters(tree: ast.Module) -> list[str]:
    """``name(param)`` for each parameter of a named function that its body never reads.

    A read in a nested function or lambda counts; a lambda's own parameters
    are not checked, and neither are decorators, defaults or annotations.
    """
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if p]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            out += [f"{node.name}({p})" for p in params if p not in read]
    return out


def test_the_parameter_check_reads_bodies_and_nested_functions():
    tree = ast.parse(
        "@deco(key=lambda spec, q: q)\n"
        "def f(spec, q, *rest, flag=None, **kw):\n"
        "    def g():\n"
        "        return q\n"
        "    spec = 1\n"
        "    return g, kw, (lambda unused: 0)\n"
    )
    assert unread_parameters(tree) == ["f(spec)", "f(flag)", "f(rest)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_has_a_parameter_it_never_reads(path):
    assert unread_parameters(ast.parse(path.read_text())) == []
