import importlib
import pkgutil

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
