"""Public names: each module's __all__ and the package's re-exports."""

import ast
import importlib
import inspect

import pytest

import prhc

MODULES = ("linsys", "costs", "solver", "policy", "bounds", "harness", "cli")


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves(module):
    # a stale __all__ entry surfaces only here, as an AttributeError
    namespace = {}
    exec(f"from prhc.{module} import *", namespace)
    assert set(importlib.import_module(f"prhc.{module}").__all__) <= set(namespace)


def test_package_reexports_are_public_names():
    imports = [node for node in ast.parse(inspect.getsource(prhc)).body
               if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"prhc.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(prhc, alias.name) is getattr(module, alias.name)
