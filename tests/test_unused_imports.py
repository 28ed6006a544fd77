"""Every name a module of the package imports is used in that module.

No linter is part of the toolchain, so this stdlib `ast` walk stands in for
one: deleting the last caller of an imported name must delete the import
too.  `__init__.py` imports names to re-export them, and `from __future__`
imports are compiler directives, so both are skipped.
"""

import ast
from pathlib import Path

import pytest

import expoly

MODULES = sorted(path for path in Path(expoly.__file__).parent.glob("*.py")
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """The names `source` imports but never reads, in import order."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0]
                         for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os", "b"]
    assert unused_imports("from __future__ import annotations\n") == []
