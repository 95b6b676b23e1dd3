"""Diffusion-length estimation from photoluminescence curves.

Given measurements (d_i, Itilde_i), the estimate minimizes the mean-square
misfit

    J(sigma) = (1/N) sum_i (E[I(sigma, d_i)] - Itilde_i)**2

by a damped Newton iteration

    sigma_n = sigma_{n-1} - alpha_n J'(sigma_{n-1}) / J''(sigma_{n-1}),

with a backtracking line search (Armijo decrease, halving from alpha = 1)
and the stopping rule |sigma_n - sigma_{n-1}| < tol.

J' and J'' need the sigma-derivatives of the forward values.  For the PDE
providers these come from the sensitivity problems obtained by
differentiating the forward equation in sigma and eliminating the operator
terms with the equation itself:

    sigma**2 L u1 - u1 = -(2/sigma)   (u - g)
    sigma**2 L u2 - u2 =  (6/sigma**2)(u - g) - (4/sigma) u1

with u's homogeneous boundary conditions, after which dI/dsigma and
d2I/dsigma2 are the same thickness-weighted integrals of u1 and u2.  The
expansion provider has no such equations and differentiates its forward
values by centred finite differences instead.

For the mapped collocation provider under ``SENSITIVITY_PDE`` every forward
value is computed with its derivatives: the two sensitivity solves reuse
the node's factorization, so a line-search trial yields the sensitivities
of its own point, and once the trial is accepted the next iteration's J'
and J'' need no new factorization.  Each provider keeps its latest
evaluation per thickness, which is all a Newton fit can reuse.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import interface as iface
from .asymptotic import assemble_approximant, build_basis, expected_pl
from .collocation import QuadratureRule
from .fd_core import Grid2D
from .forward_mapped import (CELLS_1D, DeviceConfig, GenerationProfile,
                             Solution1D, expected_mapped_pl, solve_1d_rhs,
                             solve_mapped_1d)

__all__ = [
    "SENSITIVITY_PDE",
    "CENTRAL_FD",
    "PLCurve",
    "EstimationTrace",
    "EstimationError",
    "NewtonOptions",
    "DeviceFamily",
    "OneDimensionalForward",
    "MappedCollocationForward",
    "AsymptoticForward",
    "objective",
    "objective_with_derivatives",
    "sensitivities_1d",
    "derivative_plan",
    "newton_estimate",
]

SENSITIVITY_PDE = "sensitivity_pde"
CENTRAL_FD = "central_fd"


@dataclass(frozen=True)
class PLCurve:
    """Thickness series with (expected) photoluminescence values."""

    thicknesses: tuple[float, ...]
    values: tuple[float, ...]
    provenance: str = "external"

    def __post_init__(self):
        d = tuple(float(v) for v in self.thicknesses)
        vals = tuple(float(v) for v in self.values)
        if len(d) != len(vals) or not d:
            raise ValueError("thicknesses and values must pair up (nonempty)")
        if any(b <= a for a, b in zip(d, d[1:])):
            raise ValueError("thicknesses must be strictly increasing")
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


class EstimationError(RuntimeError):
    """Newton failed to satisfy the stopping rule; carries the trace."""

    def __init__(self, message: str, trace: EstimationTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True)
class NewtonOptions:
    tol: float = 1e-4
    max_iter: int = 50
    armijo_c: float = 1e-4
    max_halvings: int = 20


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

def sensitivities_1d(device: DeviceConfig, xi: float, solution: Solution1D
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Flat-interface sensitivity solves on the solution's grid."""
    sigma = device.sigma
    cells = solution.y.size - 1
    g = device.generation((1.0 - solution.y) * (device.d - xi))
    resid = solution.values - g
    u1 = solve_1d_rhs(device, xi, cells, (2.0 / sigma) * resid)
    u2 = solve_1d_rhs(device, xi, cells,
                      -(6.0 / sigma ** 2) * resid + (4.0 / sigma) * u1)
    return u1, u2


def _central_derivatives(pl: Callable[[float], float], sigma: float,
                         rel_step: float) -> tuple[float, float, float]:
    step = rel_step * sigma
    mid = pl(sigma)     # first, while the cache holds the accepted trial
    hi = pl(sigma + step)
    lo = pl(sigma - step)
    return mid, (hi - lo) / (2.0 * step), (hi - 2.0 * mid + lo) / step ** 2


# ---------------------------------------------------------------------------
# Forward providers: sigma, d -> E[I] (with optional derivatives)
# ---------------------------------------------------------------------------

def _latest(cache: dict, sigma: float, d: float, evaluate: Callable):
    """Cached forward values at (sigma, d).  ``cache`` holds one entry per
    thickness, d -> (sigma, values), the latest evaluation: a Newton fit
    never returns to an earlier sigma."""
    hit = cache.get(d)
    if hit is not None and hit[0] == sigma:
        return hit[1]
    values = evaluate()
    cache[d] = (sigma, values)
    return values


@dataclass(frozen=True)
class OneDimensionalForward:
    """Flat-interface forward model, optionally with a fixed offset xi.

    ``cells`` defaults to :data:`exdil.forward_mapped.CELLS_1D`, as does the
    ``model_1d`` branch of :func:`exdil.experiments.generate_synthetic_curve`,
    so by default flat-model data are reproduced exactly (J(sigma*) = 0).  A
    caller that overrides ``cells`` here, or ``cells_1d`` there, must pass
    the same value on the other side.
    """

    family: DeviceFamily
    xi: float = 0.0
    cells: int = CELLS_1D
    deriv: str = SENSITIVITY_PDE
    fd_step_rel: float = 1e-4

    def pl(self, sigma: float, d: float) -> float:
        return solve_mapped_1d(self.family.device(sigma, d), self.xi, self.cells).pl

    def pl_with_derivatives(self, sigma: float, d: float):
        if self.deriv == CENTRAL_FD:
            return _central_derivatives(lambda s: self.pl(s, d), sigma,
                                        self.fd_step_rel)
        device = self.family.device(sigma, d)
        sol = solve_mapped_1d(device, self.xi, self.cells)
        u1, u2 = sensitivities_1d(device, self.xi, sol)
        width = device.d - self.xi
        hy = 1.0 / self.cells
        return (sol.pl,
                width * float(np.trapezoid(u1, dx=hy)),
                width * float(np.trapezoid(u2, dx=hy)))


@dataclass(frozen=True)
class MappedCollocationForward:
    """Expectation of the mapped 2D model over a quadrature rule.

    With ``fixed_epsilon`` set, the roughness amplitude scales with each
    thickness (hbar = eps * d); otherwise the model's hbar is used as-is.

    Under ``SENSITIVITY_PDE`` one evaluation gives (E[I], E[I'], E[I'']),
    the sensitivities solved on each node's own factorization: ``pl``
    returns its first component, which is bit for bit E[I] computed alone,
    and a following ``pl_with_derivatives`` at the same point (an accepted
    line-search trial) reads it from the cache.
    """

    family: DeviceFamily
    model: iface.InterfaceModel
    rule: QuadratureRule
    cells: tuple[int, int] = (64, 64)
    deriv: str = SENSITIVITY_PDE
    fixed_epsilon: Optional[float] = None
    fd_step_rel: float = 1e-4
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _model_for(self, d: float) -> iface.InterfaceModel:
        if self.fixed_epsilon is None:
            return self.model
        return dataclasses.replace(self.model, hbar=self.fixed_epsilon * d)

    def _values(self, sigma: float, d: float):
        """E[I], or the triple under SENSITIVITY_PDE, through the cache."""
        return _latest(self._cache, sigma, d, lambda: expected_mapped_pl(
            self.family.device(sigma, d), self._model_for(d), self.rule,
            Grid2D.unit(*self.cells),
            derivatives=self.deriv == SENSITIVITY_PDE))

    def pl(self, sigma: float, d: float) -> float:
        values = self._values(sigma, d)
        return values if self.deriv == CENTRAL_FD else values[0]

    def pl_with_derivatives(self, sigma: float, d: float):
        if self.deriv == CENTRAL_FD:
            return _central_derivatives(lambda s: self.pl(s, d), sigma,
                                        self.fd_step_rel)
        return self._values(sigma, d)


@dataclass(frozen=True)
class AsymptoticForward:
    """Expansion-based expected photoluminescence (order 0, 1 or 2).

    ``x_cells_per_length`` optionally scales the depth resolution with the
    thickness (cells = max(cells[0], ceil(d * rate))); the expansion fields
    carry interface-mode layers whose width is set by the period, so a
    thickness sweep needs constant physical spacing, not constant cell
    count.
    """

    family: DeviceFamily
    model: iface.InterfaceModel
    order: int = 2
    cells: tuple[int, int] = (64, 64)
    deriv: str = CENTRAL_FD
    fixed_epsilon: Optional[float] = None
    fd_step_rel: float = 1e-4
    x_cells_per_length: float = 0.0
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def _nx(self, d: float) -> int:
        if self.x_cells_per_length > 0:
            return max(self.cells[0], int(np.ceil(d * self.x_cells_per_length)))
        return self.cells[0]

    def _expected_pl(self, sigma: float, d: float) -> float:
        device = self.family.device(sigma, d)
        basis = build_basis(device, self.model, nx=self._nx(d),
                            nz=self.cells[1])
        eps = self.fixed_epsilon if self.fixed_epsilon is not None \
            else device.epsilon(self.model.hbar)
        approximant = assemble_approximant(basis, epsilon=eps)
        return expected_pl(approximant, iface.moments(self.model.dist),
                           self.order)

    def pl(self, sigma: float, d: float) -> float:
        return _latest(self._cache, sigma, d,
                       lambda: self._expected_pl(sigma, d))

    def pl_with_derivatives(self, sigma: float, d: float):
        if self.deriv != CENTRAL_FD:
            raise ValueError(
                "the expansion provider has no sensitivity equations; "
                "use CENTRAL_FD derivatives")
        return _central_derivatives(lambda s: self.pl(s, d), sigma,
                                    self.fd_step_rel)


def derivative_plan(provider, method: str):
    """Return a copy of ``provider`` configured for the derivative method."""
    if method not in (SENSITIVITY_PDE, CENTRAL_FD):
        raise ValueError(f"unknown derivative method {method!r}")
    if method == SENSITIVITY_PDE and isinstance(provider, AsymptoticForward):
        raise ValueError(
            "sensitivity equations are not available for the expansion "
            "provider; use CENTRAL_FD")
    return dataclasses.replace(provider, deriv=method)


# ---------------------------------------------------------------------------
# Objective and Newton iteration
# ---------------------------------------------------------------------------

def objective(provider, curve: PLCurve, sigma: float) -> float:
    """Mean-square misfit J(sigma)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    res = [provider.pl(sigma, d) - val for d, val in curve.pairs()]
    return float(np.mean(np.square(res)))


def objective_with_derivatives(provider, curve: PLCurve, sigma: float
                               ) -> tuple[float, float, float]:
    """J, J' and J'' assembled from per-device forward derivatives.

    J is reduced exactly as in :func:`objective`, so the two agree bit for
    bit for a provider whose ``pl`` is the first component of its
    ``pl_with_derivatives``.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    res = []
    j1 = j2 = 0.0
    n = len(curve)
    for d, val in curve.pairs():
        pl, dpl, d2pl = provider.pl_with_derivatives(sigma, d)
        r = pl - val
        res.append(r)
        j1 += 2.0 * r * dpl / n
        j2 += 2.0 * (dpl * dpl + r * d2pl) / n
    return float(np.mean(np.square(res))), j1, j2


def newton_estimate(provider, curve: PLCurve, sigma0: float | None = None,
                    options: NewtonOptions | None = None,
                    sigma_exact: float | None = None) -> EstimationTrace:
    """Damped Newton minimization of the misfit.

    Starts from ``sigma0`` (default: a quarter of the largest thickness),
    accepts steps under the Armijo rule, clamps nonpositive trial iterates
    to half the current one, and stops when |sigma_n - sigma_{n-1}| < tol.
    A full Newton step already below tol that fails the Armijo test is not
    halved: the current iterate is recorded again (alpha 0) and the
    iteration stops there on ``step_tolerance``.
    Raises :class:`EstimationError` carrying the trace when the iteration
    budget runs out first; an exhausted line search ends the iteration at
    the current point (the misfit cannot be decreased further).
    """
    opts = options or NewtonOptions()
    sigma = 0.25 * max(curve.thicknesses) if sigma0 is None else float(sigma0)
    if sigma <= 0:
        raise ValueError("sigma0 must be positive")
    trace = EstimationTrace(sigma0=sigma,
                            rel_errors=None if sigma_exact is None else [])

    j_curr = None
    for _ in range(opts.max_iter):
        j_curr, j1, j2 = objective_with_derivatives(provider, curve, sigma)
        if j2 > 0:
            step = -j1 / j2
            predicted = j1 * j1 / j2
        else:
            denom = abs(j2) if j2 != 0 else 1.0
            step = -j1 / denom
            predicted = abs(j1 * step)

        alpha = 1.0
        accepted = False
        candidate, j_cand = sigma, j_curr
        for _ in range(opts.max_halvings):
            candidate = sigma + alpha * step
            if candidate <= 0:
                warnings.warn(
                    f"Newton trial sigma {candidate:.4g} clamped to "
                    f"{0.5 * sigma:.4g}", stacklevel=2)
                candidate = 0.5 * sigma
            j_cand = objective(provider, curve, candidate)
            if j_cand <= j_curr - opts.armijo_c * alpha * predicted:
                accepted = True
                break
            if alpha == 1.0 and abs(candidate - sigma) < opts.tol:
                # A full step below tol that J rejects lies within J's
                # rounding floor: halving it cannot make progress.  Stay at
                # the current iterate, recorded again with alpha 0.
                candidate, j_cand, alpha, accepted = sigma, j_curr, 0.0, True
                break
            alpha *= 0.5
        if not accepted and not j_cand < j_curr:
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
    raise EstimationError(
        f"no convergence within {opts.max_iter} iterations "
        f"(last sigma {sigma:.6g})", trace)
