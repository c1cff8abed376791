"""The package's modules share only public names."""

import ast
from pathlib import Path

import pytest

import stitprover

MODULES = sorted(Path(stitprover.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_a_private_name_of_another(path):
    """A ``from .module import _name`` couples two modules through a name
    that one of them keeps to itself; each module states its own helpers
    or uses another's public ones."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    private = [
        f"line {node.lineno}: from {'.' * node.level}{node.module or ''} import {alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").split(".")[0] == "stitprover")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []
