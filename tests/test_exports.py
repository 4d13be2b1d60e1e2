"""Every exported name resolves: a stale ``__all__`` entry or re-export fails
here instead of at a user's ``from dimpoly.<module> import *``."""

import importlib
import pkgutil
import types

import pytest

import dimpoly

MODULES = sorted(name for _, name, _ in pkgutil.iter_modules(dimpoly.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"dimpoly.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_reexports_resolve():
    exported = {}
    for module in MODULES:
        mod = importlib.import_module(f"dimpoly.{module}")
        exported.update((name, getattr(mod, name)) for name in mod.__all__)
    public = [
        name
        for name, value in vars(dimpoly).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert public
    stale = [name for name in public if name not in exported or exported[name] is not getattr(dimpoly, name)]
    assert stale == []
