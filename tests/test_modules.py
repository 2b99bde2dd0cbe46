"""Every graphhomology module exports only names it defines."""

import importlib
import pkgutil

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
