"""The package's public names."""

import ast
import subprocess
import sys
from pathlib import Path

import expoly


def test_all_lists_each_imported_name_once():
    """`expoly.__all__` has no duplicates, every entry resolves, and it is
    exactly the set of names `expoly/__init__.py` imports, so a deleted
    name cannot stay listed."""
    tree = ast.parse(Path(expoly.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(expoly.__all__) == len(set(expoly.__all__))
    assert [name for name in expoly.__all__ if not hasattr(expoly, name)] == []
    assert set(expoly.__all__) == imported


def test_import_loads_neither_dataclasses_nor_inspect():
    """The result records are NamedTuples, so a CLI process imports neither
    `dataclasses` nor the `inspect` module it pulls in.  `-S` keeps the
    site-packages `.pth` files from preloading either."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import expoly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"
