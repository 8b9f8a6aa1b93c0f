"""Every name a ``kforms`` module lists in ``__all__`` exists, so a
deleted function cannot linger in the public list."""

import importlib
import pkgutil

import pytest

import kforms

MODULES = sorted(info.name for info in pkgutil.iter_modules(kforms.__path__))


def test_the_modules_are_found():
    assert {"model", "nn", "quadrature", "simplicial"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"kforms.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"kforms.{name}.__all__ names {missing}"
