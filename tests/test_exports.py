"""Every public name a module exports resolves, so ``from <module> import *``
works after a deletion."""

import importlib
import pkgutil

import pytest

import regionkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(regionkit.__path__, "regionkit."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []
