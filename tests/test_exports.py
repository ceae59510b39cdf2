import importlib
import pkgutil

import pytest

import busemann_lab

MODULES = sorted(m.name for m in pkgutil.iter_modules(busemann_lab.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"busemann_lab.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
