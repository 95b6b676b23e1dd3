"""The benchmark's tracer wraps exdil entry points by name: every one of
them must still resolve, or ``benchmarks/run.py --trace 1`` breaks."""

import importlib.util
from pathlib import Path

import pytest

import exdil

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entry_points_resolve(spans):
    assert spans.ENTRY_POINTS
    for mod_name, attr, *_ in spans.ENTRY_POINTS:
        owner = getattr(exdil, mod_name)
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"{mod_name}.{attr}"


def test_providers_resolve(spans):
    assert spans.PROVIDERS
    for name in spans.PROVIDERS:
        cls = getattr(exdil.inverse, name)
        assert callable(cls.pl) and callable(cls.pl_with_derivatives)


def test_factorization_probe_target(spans):
    # the tracer replaces fd_core.spla to count splu calls
    assert callable(exdil.fd_core.spla.splu)
