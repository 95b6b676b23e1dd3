"""Reproduction harness, studies only: synthetic data and the studies.

Studies are plain functions with explicit keyword arguments that return
values, so they are usable as a library.  They read no config file and
write no file: :mod:`exdil.cli` maps a run's config onto them and writes
their results.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .asymptotic import ExpansionModes, expected_pl_with_derivatives, flat_pl
from .collocation import SMOLYAK, TENSOR_GL, build_rule
from .fd_core import Grid2D
from .forward_mapped import (expected_mapped_pl, solve_mapped_1d,
                             symmetry_folded_rule)
from .interface import InterfaceModel, UniformDist
from .inverse import (AsymptoticForward, DeviceFamily, EstimationTrace,
                      NewtonOptions, PLCurve, finite_floats,
                      increasing_floats, newton_estimate, positive_float)

__all__ = [
    "SlopeFit",
    "fit_slope",
    "generate_synthetic_curve",
    "convergence_study",
    "estimation_study",
    "validation_study",
    "timing_study",
    "ConvergenceResult",
    "ValidationResult",
    "TimingResult",
    "MODEL_2D",
    "MODEL_1D",
]

MODEL_2D = "model_2d"
MODEL_1D = "model_1d"

#: Default epsilon sweep of the convergence study: 2**-i, i = 2..7.
EPS_SWEEP = tuple(2.0 ** -i for i in range(2, 8))


# ---------------------------------------------------------------------------
# Slope fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlopeFit:
    """Least-squares slope of log(error) against log(x)."""

    slope: float
    residual: float


def fit_slope(xs: Sequence[float], errors: Sequence[float]) -> SlopeFit:
    xs = tuple(float(v) for v in xs)
    errors = tuple(float(v) for v in errors)
    if len(xs) < 3:
        raise ValueError("need at least three points for a slope fit")
    if any(e <= 0 for e in errors) or any(x <= 0 for x in xs):
        raise ValueError("slope fits need positive abscissae and errors")
    lx, le = np.log(xs), np.log(errors)
    coeffs = np.polyfit(lx, le, 1)
    fitted = np.polyval(coeffs, lx)
    res = float(np.sqrt(np.mean((fitted - le) ** 2)))
    return SlopeFit(slope=float(coeffs[0]), residual=res)


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

def generate_synthetic_curve(kind: str, sigma_star: float,
                             thicknesses: Sequence[float], *,
                             family: DeviceFamily,
                             model: Optional[InterfaceModel] = None,
                             rule_kind: str = TENSOR_GL,
                             rule_size: int = 3,
                             cells: tuple[int, int] = (128, 128),
                             fixed_epsilon: Optional[float] = None
                             ) -> PLCurve:
    """Forward-model data for a prescribed diffusion length.

    ``model_2d`` computes E[I] of the mapped solver with the given rule per
    thickness (with ``fixed_epsilon`` set, the roughness amplitude is
    eps * d_i; otherwise the model's hbar applies to every device).
    ``model_1d`` evaluates the flat-interface model (deterministic; the
    randomness then lives entirely in the estimator's forward model) at
    :data:`~exdil.forward_mapped.CELLS_1D` cells, the default of
    :class:`~exdil.inverse.OneDimensionalForward` too, so the data and the
    flat-model provider are the same discrete model.
    """
    thicknesses = finite_floats("thicknesses", thicknesses)
    values = []
    if kind == MODEL_1D:
        for d in thicknesses:
            values.append(solve_mapped_1d(family.device(sigma_star, d)).pl)
        return PLCurve(thicknesses, tuple(values))
    if kind != MODEL_2D:
        raise ValueError(f"unknown data kind {kind!r}")
    if model is None:
        raise ValueError("model_2d data needs an interface model")
    grid = Grid2D.unit(*cells)
    rule = build_rule(rule_kind, model.K, rule_size, model.dist.support)
    for d in thicknesses:
        model_d = model if fixed_epsilon is None else \
            dataclasses.replace(model, hbar=fixed_epsilon * d)
        values.append(expected_mapped_pl(family.device(sigma_star, d),
                                         model_d, rule, grid))
    return PLCurve(thicknesses, tuple(values))


# ---------------------------------------------------------------------------
# Convergence study
# ---------------------------------------------------------------------------

@dataclass
class ConvergenceResult:
    eps_values: tuple[float, ...]
    references: tuple[float, ...]
    approximations: dict[int, tuple[float, ...]]
    errors: dict[int, tuple[float, ...]]
    fits: dict[int, SlopeFit]


def convergence_study(*, device, model: InterfaceModel,
                      eps_values: Sequence[float] = EPS_SWEEP,
                      orders: Sequence[int] = (0, 1, 2),
                      ref_cells: tuple[int, int] = (128, 128),
                      ref_points: int = 4) -> ConvergenceResult:
    """Expected-PL error of each expansion order against a mapped reference.

    The expansion reads the model through its eps-independent
    :class:`~exdil.asymptotic.ExpansionModes`, taken once; the reference
    solves the mapped model per eps with a tensor Gauss-Legendre rule at the
    fine grid.  The slope fits need at least three eps values, each finite
    and positive: other ``eps_values`` raise ValueError before any solve.
    """
    if len(eps_values) < 3 or not all(0 < eps < np.inf for eps in eps_values):
        raise ValueError("the convergence study needs at least three eps "
                         f"values, each finite and positive; got "
                         f"{list(eps_values)}")
    modes = ExpansionModes.of(model, device.L)
    ref_grid = Grid2D.unit(*ref_cells)
    rule = build_rule(TENSOR_GL, model.K, ref_points, model.dist.support)

    references, approx = [], {n: [] for n in orders}
    for eps in eps_values:
        model_eps = dataclasses.replace(model, hbar=eps * device.d)
        references.append(expected_mapped_pl(device, model_eps, rule,
                                             ref_grid))
        for n in orders:
            approx[n].append(
                expected_pl_with_derivatives(device, modes, eps, n)[0])

    errors = {n: tuple(abs(a - r) for a, r in zip(approx[n], references))
              for n in orders}
    fits = {n: fit_slope(eps_values, errors[n]) for n in orders}
    return ConvergenceResult(
        eps_values=tuple(eps_values), references=tuple(references),
        approximations={n: tuple(v) for n, v in approx.items()},
        errors=errors, fits=fits)


# ---------------------------------------------------------------------------
# Estimation and validation studies
# ---------------------------------------------------------------------------

def estimation_study(*, sigma_star: float, eps_values: Sequence[float],
                     thicknesses: Sequence[float], model: InterfaceModel,
                     family: DeviceFamily,
                     data_cells: tuple[int, int] = (256, 128),
                     data_points: int = 3,
                     order: int = 2,
                     sigma0: Optional[float] = None,
                     newton: NewtonOptions = NewtonOptions()
                     ) -> dict[float, EstimationTrace]:
    """Newton estimation against mapped-model data, one run per eps.

    Each eps is fixed across the curve (the roughness amplitude scales with
    thickness), matching how the data was generated.  The default data
    grid resolves the interface-mode boundary layers (width set by the
    period) across the whole thickness range.  At least one eps, each
    finite, nonnegative and distinct, strictly increasing thicknesses and a
    finite positive ``sigma0`` (or None) are required: other values raise
    ValueError before any solve.
    """
    if not eps_values or not all(0 <= eps < np.inf for eps in eps_values) \
            or len(set(eps_values)) < len(eps_values):
        raise ValueError("the estimation study needs at least one eps "
                         "value, each finite, nonnegative and distinct; got "
                         f"{list(eps_values)}")
    thicknesses = increasing_floats("thicknesses", thicknesses)
    if sigma0 is not None:
        positive_float("sigma0", sigma0)
    traces = {}
    for eps in eps_values:
        curve = generate_synthetic_curve(
            MODEL_2D, sigma_star, thicknesses, family=family, model=model,
            rule_size=data_points, cells=data_cells, fixed_epsilon=eps)
        provider = AsymptoticForward(family=family, model=model, order=order,
                                     fixed_epsilon=eps)
        traces[eps] = newton_estimate(provider, curve, sigma0=sigma0,
                                      options=newton, sigma_exact=sigma_star)
    return traces


@dataclass
class ValidationResult:
    traces: dict[float, EstimationTrace]


def validation_study(*, sigma_star: float, betas: Sequence[float],
                     thicknesses: Sequence[float], family: DeviceFamily,
                     K: int = 10, hbar: float = 1.0,
                     dist: UniformDist = UniformDist(-1.0, 1.0),
                     est_cells: tuple[int, int] = (64, 64),
                     x_cells_per_length: float = 5.0,
                     order: int = 2,
                     sigma0: Optional[float] = None,
                     newton: NewtonOptions = NewtonOptions()
                     ) -> ValidationResult:
    """Fit the 2D expansion model to flat-interface data, per spectrum decay.

    The data are the flat-interface photoluminescence in closed form,
    :func:`~exdil.asymptotic.flat_pl` at each thickness: the continuum
    model, as the expansion is, not the discrete solve of
    ``generate_synthetic_curve(MODEL_1D)``.  The estimator assumes the
    rough-interface model with lambda_k = k**beta.  Agreement degrades as
    beta grows towards zero (short correlation lengths), which is the point
    of the comparison.  ``est_cells`` and ``x_cells_per_length`` are
    accepted and ignored: the expansion has no grid.  The betas must be
    distinct and ``sigma0`` None or finite and positive: other values raise
    ValueError before any solve.
    """
    if len(set(betas)) < len(betas):
        raise ValueError("the validation study needs distinct beta values; "
                         f"got {list(betas)}")
    thicknesses = finite_floats("thicknesses", thicknesses)
    if sigma0 is not None:
        positive_float("sigma0", sigma0)
    data = PLCurve(thicknesses, tuple(
        flat_pl(family.device(sigma_star, d)) for d in thicknesses))
    traces = {}
    for beta in betas:
        model = InterfaceModel.with_power_spectrum(hbar, family.period, K,
                                                   beta, dist)
        provider = AsymptoticForward(family=family, model=model, order=order)
        traces[beta] = newton_estimate(provider, data, sigma0=sigma0,
                                       options=newton, sigma_exact=sigma_star)
    return ValidationResult(traces=traces)


# ---------------------------------------------------------------------------
# Timing study
# ---------------------------------------------------------------------------

@dataclass
class TimingResult:
    asym_seconds: float
    asym_error: float
    sc_seconds: float
    sc_level: int
    sc_nodes: int
    sc_error: float
    ref_seconds: float
    speedup: float


def timing_study(*, device, model: InterfaceModel, epsilon: float = 0.0625,
                 sc_cells: tuple[int, int] = (128, 128),
                 ref_points: int = 3, max_level: int = 6) -> TimingResult:
    """Wall-time comparison of the expansion against plain collocation.

    A tensor-rule reference fixes the target value; the collocation
    contender runs at the reference spatial resolution (coarser grids
    cannot reach the expansion's accuracy once its leading spatial error
    is tuned away) with the smallest sparse level whose error matches the
    expansion's, so the timing compares methods at comparable accuracy.
    ``sc_nodes`` counts the nodes that contender solved, its rule folded
    by the interface's symmetries (:func:`symmetry_folded_rule`).  Wall
    times are indicative only.
    """
    model_eps = dataclasses.replace(model, hbar=epsilon * device.d)
    grid = Grid2D.unit(*sc_cells)

    t0 = time.perf_counter()
    ref_rule = build_rule(TENSOR_GL, model.K, ref_points, model.dist.support)
    reference = expected_mapped_pl(device, model_eps, ref_rule, grid)
    ref_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    asym_value = expected_pl_with_derivatives(
        device, ExpansionModes.of(model, device.L), epsilon, 2)[0]
    asym_seconds = time.perf_counter() - t0
    asym_error = abs(asym_value - reference)

    sc_seconds, sc_level, sc_nodes, sc_error = np.inf, 0, 0, np.inf
    for level in range(1, max_level + 1):
        rule = build_rule(SMOLYAK, model.K, level, model.dist.support)
        t0 = time.perf_counter()
        value = expected_mapped_pl(device, model_eps, rule, grid)
        elapsed = time.perf_counter() - t0
        sc_seconds, sc_level = elapsed, level
        sc_nodes = symmetry_folded_rule(rule, grid).node_count
        sc_error = abs(value - reference)
        if sc_error <= max(asym_error, 1e-12 * abs(reference)):
            break

    return TimingResult(
        asym_seconds=asym_seconds, asym_error=asym_error,
        sc_seconds=sc_seconds, sc_level=sc_level,
        sc_nodes=sc_nodes, sc_error=sc_error, ref_seconds=ref_seconds,
        speedup=sc_seconds / asym_seconds)
