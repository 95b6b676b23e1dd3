"""Diffusion-length estimation from photoluminescence curves.

Given measurements (d_i, Itilde_i), the estimate minimizes the mean-square
misfit

    J(sigma) = (1/N) sum_i (E[I(sigma, d_i)] - Itilde_i)**2

by a damped Newton iteration

    sigma_n = sigma_{n-1} - alpha_n J'(sigma_{n-1}) / J''(sigma_{n-1}),

with a backtracking line search (Armijo decrease, halving from alpha = 1)
and the stopping rule |sigma_n - sigma_{n-1}| < tol.  Every fit returns its
iterate history with one of three stop reasons: ``step_tolerance``,
``line_search_exhausted`` or ``max_iterations``.

J' and J'' need the sigma-derivatives of the forward values.  For the PDE
providers these come from the sensitivity problems obtained by
differentiating the forward equation in sigma and eliminating the operator
terms with the equation itself:

    sigma**2 L u1 - u1 = -(2/sigma)   (u - g)
    sigma**2 L u2 - u2 =  (6/sigma**2)(u - g) - (4/sigma) u1

with u's homogeneous boundary conditions, after which dI/dsigma and
d2I/dsigma2 are the same thickness-weighted integrals of u1 and u2.  The
flat and mapped providers solve them.  The expansion provider's expected
PL is a closed form in sigma, and it differentiates that closed form
analytically (:func:`exdil.asymptotic.closed_form`).
That is each provider's one derivative path.

The Newton fit computes every forward value with its derivatives (the
mapped provider's sensitivity solves reuse the node's factorization), so a
line-search trial yields the derivatives of its own point.  The fit keeps
each thickness's latest evaluation, and once a trial is accepted the next
iteration's J' and J'' need no new one: a fit costs (iterations + 1)
evaluations per thickness.  The providers keep no results.  The expansion
provider keeps the factors of its closed form that an evaluation shares
with others: those of each thickness (generation terms, G(d) and eps),
computed once per fit, and the mode table of the latest sigma, computed
once per Newton iterate.  Only the flux and the tanh and exp terms of the
modes are computed per (sigma, d).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import interface as iface
from .asymptotic import ExpansionModes, Film, ModeTable, closed_form
from .collocation import QuadratureRule
from .fd_core import Grid2D
from .forward_mapped import (CELLS_1D, DeviceConfig, GenerationProfile,
                             Solution1D, expected_mapped_pl, solve_1d_rhs,
                             solve_mapped_1d)

__all__ = [
    "SENSITIVITY_PDE",
    "PLCurve",
    "EstimationTrace",
    "NewtonOptions",
    "DeviceFamily",
    "OneDimensionalForward",
    "MappedCollocationForward",
    "AsymptoticForward",
    "objective",
    "objective_with_derivatives",
    "sensitivities_1d",
    "newton_estimate",
]

SENSITIVITY_PDE = "sensitivity_pde"


def finite_floats(name: str, values) -> tuple[float, ...]:
    """``values`` as a tuple of floats; raises ValueError naming ``name``
    unless every one is finite."""
    out = tuple(float(v) for v in values)
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{name} must be finite, got {out}")
    return out


def positive_float(name: str, value) -> float:
    """``value`` as a float; raises ValueError naming ``name`` unless it is
    finite and positive."""
    value = float(value)
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")
    return value


def increasing_floats(name: str, values) -> tuple[float, ...]:
    """:func:`finite_floats`, and ValueError naming ``name`` unless the
    values are strictly increasing."""
    out = finite_floats(name, values)
    if any(b <= a for a, b in zip(out, out[1:])):
        raise ValueError(f"{name} must be strictly increasing, got {out}")
    return out


@dataclass(frozen=True)
class PLCurve:
    """Thickness series with (expected) photoluminescence values."""

    thicknesses: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        d = increasing_floats("thicknesses", self.thicknesses)
        vals = finite_floats("photoluminescence values", self.values)
        if len(d) != len(vals) or not d:
            raise ValueError("thicknesses and values must pair up (nonempty)")
        if any(v <= 0 for v in vals):
            raise ValueError("photoluminescence values must be positive")
        object.__setattr__(self, "thicknesses", d)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.thicknesses)

    def pairs(self):
        return zip(self.thicknesses, self.values)


@dataclass
class EstimationTrace:
    """Newton iterate history; index 0 of ``sigmas`` is the start value."""

    sigma0: float
    sigmas: list[float] = field(default_factory=list)
    objectives: list[float] = field(default_factory=list)
    alphas: list[float] = field(default_factory=list)
    rel_errors: Optional[list[float]] = None
    reason: str = ""

    @property
    def final_sigma(self) -> float:
        return self.sigmas[-1] if self.sigmas else self.sigma0

    @property
    def iterations(self) -> int:
        return len(self.sigmas)

    def final_rel_error(self, sigma_exact: float) -> float:
        """Relative error of :attr:`final_sigma` against ``sigma_exact``."""
        return abs(sigma_exact - self.final_sigma) / abs(sigma_exact)


# Armijo constant and halving budget of the line search
ARMIJO_C = 1e-4
MAX_HALVINGS = 20


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-4
    max_iter: int = 50

    def __post_init__(self):
        if not (0 < self.tol < math.inf and self.max_iter >= 1):
            raise ValueError("Newton options need 0 < tol < inf and "
                             f"max_iter >= 1; got {self!r}")


@dataclass(frozen=True)
class DeviceFamily:
    """Device template over thicknesses: shared period and generation rule.

    With ``generation`` unset, each thickness gets a single-exponential
    profile whose decay length is ``decay_factor * d``.
    """

    period: float
    generation: Optional[GenerationProfile] = None
    decay_factor: float = 0.5

    def device(self, sigma: float, d: float) -> DeviceConfig:
        gen = self.generation or GenerationProfile.exponential(self.decay_factor * d)
        return DeviceConfig(sigma=sigma, d=d, L=self.period, generation=gen)


# ---------------------------------------------------------------------------
# Sensitivity solves
# ---------------------------------------------------------------------------

def sensitivities_1d(device: DeviceConfig, solution: Solution1D
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Flat-interface sensitivity solves on the solution's grid and offset."""
    sigma, xi = device.sigma, solution.xi
    cells = solution.y.size - 1
    resid = solution.values - solution.source
    u1 = solve_1d_rhs(device, xi, cells, (2.0 / sigma) * resid)
    u2 = solve_1d_rhs(device, xi, cells,
                      -(6.0 / sigma ** 2) * resid + (4.0 / sigma) * u1)
    return u1, u2


# ---------------------------------------------------------------------------
# Forward providers: sigma, d -> E[I] (with optional derivatives)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OneDimensionalForward:
    """Flat-interface forward model.

    ``cells`` defaults to :data:`exdil.forward_mapped.CELLS_1D`, as does the
    ``model_1d`` branch of :func:`exdil.experiments.generate_synthetic_curve`,
    so by default flat-model data are reproduced exactly (J(sigma*) = 0).  A
    caller that overrides ``cells`` here fits data of another resolution.
    """

    family: DeviceFamily
    cells: int = CELLS_1D

    def pl(self, sigma: float, d: float) -> float:
        return solve_mapped_1d(self.family.device(sigma, d),
                               cells=self.cells).pl

    def pl_with_derivatives(self, sigma: float, d: float):
        device = self.family.device(sigma, d)
        sol = solve_mapped_1d(device, cells=self.cells)
        u1, u2 = sensitivities_1d(device, sol)
        hy = 1.0 / self.cells
        return (sol.pl,
                device.d * float(np.trapezoid(u1, dx=hy)),
                device.d * float(np.trapezoid(u2, dx=hy)))


@dataclass(frozen=True)
class MappedCollocationForward:
    """Expectation of the mapped 2D model over a quadrature rule.

    One evaluation gives (E[I], E[I'], E[I'']), the sensitivities solved on
    each node's own factorization: ``pl`` returns its first component,
    which is bit for bit E[I] computed alone.  ``deriv`` names that
    derivative path and must be :data:`SENSITIVITY_PDE`.
    """

    family: DeviceFamily
    model: iface.InterfaceModel
    rule: QuadratureRule
    cells: tuple[int, int] = (64, 64)
    deriv: str = SENSITIVITY_PDE

    def __post_init__(self):
        if self.deriv != SENSITIVITY_PDE:
            raise ValueError(f"deriv must be {SENSITIVITY_PDE!r}, "
                             f"got {self.deriv!r}")

    def pl(self, sigma: float, d: float) -> float:
        return self.pl_with_derivatives(sigma, d)[0]

    def pl_with_derivatives(self, sigma: float, d: float):
        return expected_mapped_pl(self.family.device(sigma, d), self.model,
                                  self.rule, Grid2D.unit(*self.cells),
                                  derivatives=True)


@dataclass(frozen=True)
class AsymptoticForward:
    """Expansion-based expected photoluminescence (order 0, 1 or 2) with
    its analytic sigma-derivatives, from
    :func:`exdil.asymptotic.closed_form`.

    Each factor of the closed form is computed at the level where it
    varies.  The interface's :class:`~exdil.asymptotic.ExpansionModes` are
    taken once per provider.  A thickness's
    :class:`~exdil.asymptotic.Film` (generation terms and int G, G(d) and
    eps) is built the first time the thickness is seen and kept: once per
    fit.  The :class:`~exdil.asymptotic.ModeTable` of the latest sigma (m_k,
    dm_k/dnu and m_k**3 of every mode) is shared by every thickness: once
    per Newton iterate.  Only the flux and the tanh and exp of each mode are
    computed per (sigma, d).  The values are bit for bit those of
    :func:`exdil.asymptotic.expected_pl_with_derivatives`.

    Every evaluation gives (E[I], E[I'], E[I'']): ``pl`` returns its first
    component.  ``fixed_epsilon``, when set, is the roughness size at every
    thickness (hbar = eps * d); otherwise eps = hbar / d of the model.
    """

    family: DeviceFamily
    model: iface.InterfaceModel
    order: int = 2
    fixed_epsilon: Optional[float] = None
    _modes: ExpansionModes = field(init=False, repr=False, compare=False)
    _films: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)
    _tables: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_modes", ExpansionModes.of(
            self.model, self.family.period))

    def pl(self, sigma: float, d: float) -> float:
        return self.pl_with_derivatives(sigma, d)[0]

    def pl_with_derivatives(self, sigma: float, d: float):
        return closed_form(self._film(sigma, d), self._table(sigma),
                           self.order)

    def _film(self, sigma: float, d: float) -> Film:
        """The thickness's factors, built from its first device."""
        film = self._films.get(d)
        if film is None:
            device = self.family.device(sigma, d)
            eps = self.fixed_epsilon if self.fixed_epsilon is not None \
                else device.epsilon(self.model.hbar)
            film = self._films[d] = Film.of(device, eps)
        return film

    def _table(self, sigma: float) -> ModeTable:
        """The mode table of the latest sigma."""
        table = self._tables.get(sigma)
        if table is None:
            self._tables.clear()
            table = self._tables[sigma] = ModeTable.of(self._modes, sigma)
        return table


# ---------------------------------------------------------------------------
# Objective and Newton iteration
# ---------------------------------------------------------------------------

def _mean_square(res: list[float]) -> float:
    """J from the residuals: the one reduction of both objectives, summed
    in thickness order and divided by their count."""
    total = 0.0
    for r in res:
        total += r * r
    return total / len(res)


def objective(provider, curve: PLCurve, sigma: float) -> float:
    """Mean-square misfit J(sigma)."""
    positive_float("sigma", sigma)
    return _mean_square([provider.pl(sigma, d) - val
                         for d, val in curve.pairs()])


def objective_with_derivatives(provider, curve: PLCurve, sigma: float
                               ) -> tuple[float, float, float]:
    """J, J' and J'' assembled from per-device forward derivatives.

    J is reduced by the same helper as in :func:`objective`, so the two
    agree bit for bit for a provider whose ``pl`` is the first component of
    its ``pl_with_derivatives``.
    """
    positive_float("sigma", sigma)
    res = []
    j1 = j2 = 0.0
    n = len(curve)
    for d, val in curve.pairs():
        pl, dpl, d2pl = provider.pl_with_derivatives(sigma, d)
        r = pl - val
        res.append(r)
        j1 += 2.0 * r * dpl / n
        j2 += 2.0 * (dpl * dpl + r * d2pl) / n
    return _mean_square(res), j1, j2


def _fit_memo(provider, curve: PLCurve) -> SimpleNamespace:
    """``provider`` as one fit sees it: ``pl`` too evaluates the
    derivatives, and each thickness keeps its latest (I, I', I'').  Each
    objective visits every thickness and a fit never returns to an earlier
    sigma, so an LRU of one entry per thickness is exactly that."""
    values = functools.lru_cache(maxsize=len(curve))(
        provider.pl_with_derivatives)
    return SimpleNamespace(pl=lambda sigma, d: values(sigma, d)[0],
                           pl_with_derivatives=values)


def newton_estimate(provider, curve: PLCurve, sigma0: float | None = None,
                    options: NewtonOptions | None = None,
                    sigma_exact: float | None = None) -> EstimationTrace:
    """Damped Newton minimization of the misfit.

    Starts from ``sigma0`` (default: a quarter of the largest thickness),
    steps along -J'/|J''| (-J' where J'' = 0), accepts steps under the
    Armijo rule, clamps nonpositive trial iterates to half the current one,
    and stops when |sigma_n - sigma_{n-1}| < tol.  It calls only
    ``provider.pl_with_derivatives``, once per thickness and point.
    A full Newton step already below tol that fails the Armijo test is not
    halved: the current iterate is recorded again (alpha 0) and the
    iteration stops there on ``step_tolerance``.  If no trial meets the
    Armijo test, the last one is taken if it lowers J at all.  Each recorded
    alpha is the step's.  Returns the trace, with ``reason``
    ``step_tolerance``, ``line_search_exhausted`` (not even the last trial
    lowered the misfit: the fit ends at the current point) or
    ``max_iterations`` (``options.max_iter`` steps taken first).
    """
    opts = options or NewtonOptions()
    sigma = positive_float("sigma0", 0.25 * max(curve.thicknesses)
                           if sigma0 is None else sigma0)
    trace = EstimationTrace(sigma0=sigma,
                            rel_errors=None if sigma_exact is None else [])
    memo = _fit_memo(provider, curve)

    for _ in range(opts.max_iter):
        j_curr, j1, j2 = objective_with_derivatives(memo, curve, sigma)
        step = -j1 / (abs(j2) or 1.0)
        predicted = abs(j1 * step)

        for halvings in range(MAX_HALVINGS):
            alpha = 0.5 ** halvings
            candidate = sigma + alpha * step
            if candidate <= 0:
                warnings.warn(
                    f"Newton trial sigma {candidate:.4g} clamped to "
                    f"{0.5 * sigma:.4g}", stacklevel=2)
                candidate = 0.5 * sigma
            j_cand = objective(memo, curve, candidate)
            if j_cand <= j_curr - ARMIJO_C * alpha * predicted:
                break
            if alpha == 1.0 and abs(candidate - sigma) < opts.tol:
                # A full step below tol that J rejects lies within J's
                # rounding floor: halving it cannot make progress.  Stay at
                # the current iterate, recorded again with alpha 0.
                candidate, j_cand, alpha = sigma, j_curr, 0.0
                break
        else:
            if not j_cand < j_curr:
                trace.reason = "line_search_exhausted"
                return trace

        delta = abs(candidate - sigma)
        sigma = candidate
        trace.sigmas.append(sigma)
        trace.objectives.append(j_cand)
        trace.alphas.append(alpha)
        if sigma_exact is not None:
            trace.rel_errors.append(abs(sigma_exact - sigma) / abs(sigma_exact))
        if delta < opts.tol:
            trace.reason = "step_tolerance"
            return trace

    trace.reason = "max_iterations"
    return trace
