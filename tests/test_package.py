"""The package's exports: every public name resolves, so a deletion that
leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import exdil

MODULES = sorted(info.name for info in pkgutil.iter_modules(exdil.__path__))


def test_package_init_imports_cleanly():
    importlib.reload(exdil)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"exdil.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
