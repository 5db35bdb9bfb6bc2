"""The package's public names: every `__all__` entry exists, so a name
left behind after a removal fails here rather than at a user's import.
Also the layering that keeps evaluation free of the solver and baselines."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hypercp

MODULES = ["hypercp", *(f"hypercp.{m.name}" for m in pkgutil.iter_modules(hypercp.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from hypercp import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(hypercp.__all__)


def test_profiles_imports_only_hypergraph():
    # evaluation reads the CSR arrays; it must not pull in the solver or the baselines
    path = Path(importlib.import_module("hypercp.profiles").__file__)
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            # a relative import is from the package itself, where profiles sits
            names.add(("hypercp." if node.level else "") + (node.module or ""))
        elif isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
    assert {n.rstrip(".") for n in names if n.split(".")[0] == "hypercp"} == {"hypercp.hypergraph"}
