"""Every public name a module exports resolves, so ``from <module> import *``
works after a deletion, and the package root exports no dense-oracle name."""

import importlib
import pkgutil

import pytest

import regionkit

MODULES = sorted(m.name for m in pkgutil.iter_modules(regionkit.__path__, "regionkit."))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", []) if not hasattr(module, n)] == []


ORACLE_NAMES = ("FeatureMap", "Kernel", "bilinear_resize", "concat_channels", "conv2d", "deconv2d", "roi_align",
                "roi_align_pooled", "SimpleFPParams", "aux_fuse", "simple_fp", "toy_encode")


def test_package_root_holds_no_oracle_name():
    """The dense oracle is imported from its own modules, never from the package root."""
    assert [n for n in ORACLE_NAMES if hasattr(regionkit, n)] == []
