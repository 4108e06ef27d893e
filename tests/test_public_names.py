"""Every name a module lists in `__all__` exists: a name moved or deleted
without its `__all__` entry would otherwise fail only at a star import."""

import importlib
import pkgutil

import spinnets


def test_all_entries_resolve():
    checked = 0
    for info in pkgutil.iter_modules(spinnets.__path__):
        module = importlib.import_module(f"spinnets.{info.name}")
        names = getattr(module, "__all__", ())
        assert [n for n in names if not hasattr(module, n)] == [], info.name
        checked += len(names)
    missing = [n for n in spinnets.__all__ if not hasattr(spinnets, n)]
    assert checked and not missing
