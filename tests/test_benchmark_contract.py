"""The benchmark calls exdil by name: the entry points its tracer wraps
must still resolve, or ``benchmarks/run.py --trace 1`` breaks, and the
keywords and call chains of its workloads must still bind and give the
closed form's numbers."""

import dataclasses
import importlib.util
import inspect
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


@pytest.mark.parametrize("function, kwargs", [
    (exdil.experiments.validation_study,
     ("est_cells", "x_cells_per_length")),
    (exdil.experiments.generate_synthetic_curve,
     ("rule_kind", "rule_size", "cells")),
    (exdil.inverse.MappedCollocationForward, ("deriv",)),
], ids=["validation_study", "generate_synthetic_curve",
        "MappedCollocationForward"])
def test_workload_keywords_bind(function, kwargs):
    # keywords the workloads pass (benchmarks/workloads.py) beside the
    # required arguments
    signature = inspect.signature(function)
    required = [p.name for p in signature.parameters.values()
                if p.default is p.empty
                and p.kind is not p.VAR_POSITIONAL]
    signature.bind(**dict.fromkeys(required + list(kwargs)))


@pytest.mark.parametrize("order", [0, 1, 2])
def test_adapter_chain_is_the_closed_form(order):
    # ExpectCurve.final_checks: build_basis -> assemble_approximant ->
    # expected_pl, bit for bit the one closed-form route
    asymptotic, interface = exdil.asymptotic, exdil.interface
    model = interface.InterfaceModel.with_power_spectrum(
        1.0, 4.0, 3, -1.0, interface.UniformDist(-1.0, 1.0))
    for sigma, d in ((4.9, 8.3), (5.13, 12.7), (5.0, 20.5)):
        device = exdil.inverse.DeviceFamily(period=4.0).device(sigma, d)
        basis = asymptotic.build_basis(device, model)
        value = asymptotic.expected_pl(
            asymptotic.assemble_approximant(basis),
            interface.moments(model.dist), order)
        assert value.hex() == asymptotic.expected_pl_with_derivatives(
            device, asymptotic.ExpansionModes.of(model, device.L),
            device.epsilon(model.hbar), order)[0].hex()


def test_adapter_reads_the_second_moment():
    asymptotic, interface = exdil.asymptotic, exdil.interface
    model = interface.InterfaceModel(0.5, 4.0, 2, (1.0, 0.5),
                                     interface.UniformDist(-1.0, 1.0))
    device = exdil.inverse.DeviceFamily(period=4.0).device(5.0, 10.0)
    approx = asymptotic.assemble_approximant(
        asymptotic.build_basis(device, model))
    wider = interface.moments(interface.UniformDist(0.0, 3.0))
    modes = dataclasses.replace(asymptotic.ExpansionModes.of(model, 4.0),
                                second_moment=wider)
    assert asymptotic.expected_pl(approx, wider, 2) \
        == asymptotic.expected_pl_with_derivatives(
            device, modes, device.epsilon(model.hbar), 2)[0] \
        != asymptotic.expected_pl(approx, interface.moments(model.dist), 2)
