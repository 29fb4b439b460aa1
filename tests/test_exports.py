"""Every name a module exports resolves, so a deletion cannot leave a stale export."""

import importlib
import pkgutil

import pytest

import geodetect

MODULES = [info.name for info in pkgutil.iter_modules(geodetect.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"geodetect.{name}")
    exports = getattr(module, "__all__", [])
    assert [attr for attr in exports if not hasattr(module, attr)] == []
    assert len(set(exports)) == len(exports)
