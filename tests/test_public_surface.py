"""The package's public names: every `__all__` entry exists, so a name
left behind after a removal fails here rather than at a user's import."""

import importlib
import pkgutil

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

