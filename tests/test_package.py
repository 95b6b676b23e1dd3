"""The package's exports: every public name resolves, so a deletion that
leaves a stale export fails here, and ``import exdil`` binds the modules
and nothing else."""

import importlib
import pkgutil

import pytest
from test_lazy_scipy import run_fresh

import exdil

MODULES = sorted(info.name for info in pkgutil.iter_modules(exdil.__path__))

#: What ``import exdil`` loads: every module but the command line.
LOADED = ("asymptotic", "collocation", "experiments", "fd_core",
          "forward_mapped", "interface", "inverse")


def test_package_init_imports_cleanly():
    importlib.reload(exdil)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"exdil.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def test_import_binds_only_the_modules():
    # a fresh interpreter: this one has imported exdil.cli through other
    # tests, which binds it on the package
    public, loaded = run_fresh("""
        import json, sys
        import exdil
        print(json.dumps([
            sorted(n for n in vars(exdil) if not n.startswith("_")),
            sorted(m for m in sys.modules
                   if m == "exdil" or m.startswith("exdil."))]))
        """)
    assert public == list(LOADED)
    assert loaded == ["exdil"] + [f"exdil.{name}" for name in LOADED]
