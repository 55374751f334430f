"""The package namespace re-exports every module's public names."""

import importlib
import pkgutil
import types

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
    # Look both up afresh: a test elsewhere may have re-imported the package.
    package = importlib.import_module("dynachrome")
    module = importlib.import_module(f"dynachrome.{name}")
    for public in module.__all__:
        assert getattr(package, public, None) is getattr(module, public), public


def test_package_public_names_are_exactly_the_module_alls():
    package = importlib.import_module("dynachrome")
    public = {
        n for n, v in vars(package).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    declared = set()
    for name in MODULES:
        declared.update(importlib.import_module(f"dynachrome.{name}").__all__)
    assert public == declared


def test_each_public_name_is_declared_by_the_one_module_that_defines_it():
    # Two __all__ lists naming one object pass both tests above, so count
    # the declarations, and match each to the module the object comes from.
    owners: dict[str, list[str]] = {}
    for name in MODULES:
        module = importlib.import_module(f"dynachrome.{name}")
        for public in module.__all__:
            owners.setdefault(public, []).append(name)
            assert getattr(module, public).__module__ == module.__name__, public
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}
