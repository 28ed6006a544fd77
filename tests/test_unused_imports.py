"""Every name a module of the package imports is used in that module, and
every private module-level function or class has a caller.

No linter is part of the toolchain, so these stdlib `ast` walks stand in for
one: deleting the last caller of an imported name must delete the import
too.  `__init__.py` imports names to re-export them, and `from __future__`
imports are compiler directives, so both are skipped.  Likewise, deleting
the last caller of a private helper must delete the helper; a reference
from inside the helper's own definition (recursion) does not count.
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


def unreferenced_private(sources: dict[str, str]) -> list[str]:
    """The "module.name" of each private module-level function or class in
    `sources` (module name -> source) that no code references, as a name,
    an attribute or an imported name, outside its own definition."""
    defined, refs = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = stmt.name
                if owner.startswith("_"):
                    defined.append((module, owner))
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name != owner:
                    refs.add(name)
    return [f"{module}.{name}" for module, name in defined
            if name not in refs]


def test_every_private_helper_has_a_caller():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in MODULES}
    assert unreferenced_private(sources) == []


def test_the_guard_sees_a_helper_that_only_calls_itself():
    assert unreferenced_private({
        "a": "def _loop(n):\n    return _loop(n - 1)\n\n"
             "class _Unused:\n    pass\n\n"
             "def _used():\n    pass\n",
        "b": "from a import _used\n",
    }) == ["a._loop", "a._Unused"]
