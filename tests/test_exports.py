"""Every gvbound module exports what its __all__ lists, and nothing stale."""

import importlib
import pkgutil

import pytest

import gvbound

MODULES = ["gvbound"] + [
    f"gvbound.{info.name}" for info in pkgutil.iter_modules(gvbound.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
