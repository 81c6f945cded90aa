"""Every name an export list declares resolves, so a name deleted from a
module cannot linger in `usnrt.__all__` or in its module's `__all__`."""

import importlib
import pkgutil

import pytest

import usnrt

MODULES = ["usnrt"] + [
    f"usnrt.{info.name}" for info in pkgutil.iter_modules(usnrt.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing attributes: {missing}"


def test_package_exports_come_from_modules():
    # `from usnrt import *` must bind every declared name.
    namespace = {}
    exec("from usnrt import *", namespace)
    assert set(usnrt.__all__) <= set(namespace)
