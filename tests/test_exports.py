"""Every gvbound module exports what its __all__ lists, and nothing stale."""

import importlib
import pkgutil
import subprocess
import sys

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


def test_importing_the_package_loads_no_submodule():
    script = "import sys, gvbound; print(sorted(m for m in sys.modules if m.startswith('gvbound.')))"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_dir_lists_every_exported_name():
    assert set(gvbound.__all__) <= set(dir(gvbound))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        gvbound.nope
    assert not hasattr(gvbound, "nope")
