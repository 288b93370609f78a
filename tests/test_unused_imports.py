"""No module of the package imports a name it never uses.

``__init__`` is left out, since it imports the public API to re-export it.
The one other re-export is listed: ``complexes.clear_caches``, which callers
import from ``complexes``.  A name counts as used when the module's code
reads it; a doctest that reads it alone does not count.
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
