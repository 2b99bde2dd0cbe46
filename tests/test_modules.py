"""Every graphhomology module exports only names it defines, and only
`exactlinalg` reaches into a `LinComb`."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import graphhomology

MODULES = ["graphhomology"] + [
    f"graphhomology.{info.name}" for info in pkgutil.iter_modules(graphhomology.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry makes `from <module> import *` raise
    module = importlib.import_module(name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert not missing, missing


@pytest.mark.parametrize("path", sorted(Path(graphhomology.__file__).parent.glob("*.py")),
                         ids=lambda path: path.stem)
def test_only_exactlinalg_touches_lincomb_internals(path):
    # every other module builds a computed combination with LinComb.sum, so
    # the rule that no zero coefficient is stored is kept in one module
    if path.stem == "exactlinalg":
        return
    tree = ast.parse(path.read_text(encoding="utf-8"))
    private = {"_adopt", "_terms"}
    found = sorted({node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and node.attr in private
                    or isinstance(node, ast.Name) and node.id in private})
    assert not found, f"{path.name} reads LinComb internals on lines {found}"
