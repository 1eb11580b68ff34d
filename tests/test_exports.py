import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import revolve

MODULES = ["revolve"] + sorted(f"revolve.{info.name}"
                               for info in pkgutil.iter_modules(revolve.__path__))


@pytest.mark.parametrize("modname", MODULES)
def test_every_export_resolves(modname):
    mod = importlib.import_module(modname)
    missing = [name for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing, f"{modname}.__all__ names undefined attributes {missing}"


@pytest.mark.parametrize("modname", MODULES)
def test_every_module_imports_first_in_a_fresh_process(modname):
    # imports moved into functions can hide an import cycle that only shows
    # when a process imports this module before any other of the package
    src = os.path.dirname(os.path.dirname(os.path.abspath(revolve.__file__)))
    code = ("import importlib, json, sys\n"
            "def ours(): return sorted(m for m in sys.modules if m.split('.')[0] == 'revolve')\n"
            f"mod = importlib.import_module({modname!r})\n"
            "imported, listed = ours(), dir(mod)\n"
            "[getattr(mod, name) for name in getattr(mod, '__all__', ())]\n"
            "print(json.dumps([imported, listed, ours()]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported, listed, resolved = json.loads(proc.stdout)
    assert modname in imported
    if modname == "revolve":  # no submodule until an export is used; then all but the
        # CLI and _records, which the writers load when they run
        assert imported == ["revolve"]
        assert set(revolve.__all__) <= set(listed)
        assert set(resolved) == set(MODULES) - {"revolve.cli", "revolve._records"}


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        revolve.no_such_name
    assert not hasattr(revolve, "Revolve")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from revolve import *", namespace)
    missing = [name for name in revolve.__all__ if name not in namespace]
    assert not missing
    assert all(namespace[name] is getattr(revolve, name) for name in revolve.__all__)
    assert namespace["catalog"] is importlib.import_module("revolve.catalog")
    assert namespace["revolve"] is importlib.import_module("revolve.mesh").revolve
