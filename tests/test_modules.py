"""Every graphhomology module exports only names it defines, `exactlinalg`
defines the one exception class, only `exactlinalg` reaches into a `LinComb`,
only `exactlinalg._assemble` builds a `SparseMatrix`, and only
`homotopy.slice_from_bases` builds a `ChainComplexSlice`."""

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


def _top_level_bindings(tree: ast.Module) -> set[str]:
    """The names a module binds by def, class or assignment, not by import."""
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return bound


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_defined_in_its_module(name):
    # a re-exported name would give one object two homes
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    foreign = sorted(set(module.__all__) - _top_level_bindings(tree))
    assert not foreign, f"{name} exports names it does not define: {foreign}"


def test_exactlinalg_defines_the_one_exception_class():
    # a refused input raises a plain ValueError; NotAComplexError reports a
    # defect of a complex, which a caller may catch by type
    found = sorted(f"{name}.{obj.__name__}"
                   for name in MODULES
                   for obj in vars(importlib.import_module(name)).values()
                   if isinstance(obj, type) and issubclass(obj, BaseException)
                   and obj.__module__ == name)
    assert found == ["graphhomology.exactlinalg.NotAComplexError"]


SOURCES = sorted(Path(graphhomology.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
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


def _calls(tree: ast.AST, name: str) -> set[int]:
    """The lines on which ``tree`` calls ``name``(...), bare or as an attribute."""
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))}


def _calls_outside(name: str, module: str, builder: str) -> list[str]:
    """The places in `src/` that call ``name``(...) outside the function
    ``builder`` of ``module``, which must call it exactly once."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _calls(tree, name)
        if path.stem == module:
            [function] = [node for node in tree.body
                          if isinstance(node, ast.FunctionDef) and node.name == builder]
            inside = _calls(function, name)
            assert len(inside) == 1
            calls -= inside
        found += [f"{path.name}:{line}" for line in sorted(calls)]
    return found


def test_every_sparse_matrix_is_laid_out_by_assemble():
    # every matrix, the zero one too, gets its compressed rows from one
    # constructor, so no second layout can disagree with it
    found = _calls_outside("SparseMatrix", "exactlinalg", "_assemble")
    assert not found, f"SparseMatrix built outside exactlinalg._assemble: {found}"


def test_every_chain_complex_slice_is_built_by_slice_from_bases():
    # a slice promises complete bases, which only the builder that takes
    # every graph of each degree can honour
    found = _calls_outside("ChainComplexSlice", "homotopy", "slice_from_bases")
    assert not found, f"ChainComplexSlice built outside homotopy.slice_from_bases: {found}"
