"""The package's public names."""

import ast
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
