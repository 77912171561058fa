"""Every name that econvex, or one of its modules, lists in ``__all__`` is
an attribute of that module, so ``from ... import *`` and the documented
names never point at code that has moved or gone."""

import importlib
import pkgutil

import pytest

import econvex

MODULES = ["econvex"] + [f"econvex.{m.name}" for m in pkgutil.iter_modules(econvex.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
