"""The package namespace re-exports every module's public names."""

import importlib
import pkgutil

import pytest

import dynachrome

MODULES = [
    m.name for m in pkgutil.iter_modules(dynachrome.__path__)
    if hasattr(importlib.import_module(f"dynachrome.{m.name}"), "__all__")
]


def test_every_library_module_declares_all():
    assert set(MODULES) == {
        "graphs", "verify", "exact", "lll", "constructions", "experiments", "formats"
    }


@pytest.mark.parametrize("name", MODULES)
def test_package_reexports_module_all_unchanged(name):
    module = importlib.import_module(f"dynachrome.{name}")
    for public in module.__all__:
        assert getattr(dynachrome, public, None) is getattr(module, public), public
