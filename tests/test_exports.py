"""Every exported name of the package and its modules resolves."""

import importlib
import pkgutil

import semiradius


def test_every_exported_name_resolves():
    modules = [semiradius] + [
        importlib.import_module(f"semiradius.{info.name}") for info in pkgutil.iter_modules(semiradius.__path__)
    ]
    assert len(modules) > 1
    stale = [
        f"{module.__name__}.{name}"
        for module in modules
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert not stale, stale
