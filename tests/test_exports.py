"""Every name a ``trialscope`` module exports in ``__all__`` exists, once."""

import importlib
import pkgutil

import pytest

import trialscope

MODULES = [m.name for m in pkgutil.iter_modules(trialscope.__path__, "trialscope.")]


def test_every_module_is_checked():
    assert "trialscope.pz" in MODULES and len(MODULES) >= 10


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
