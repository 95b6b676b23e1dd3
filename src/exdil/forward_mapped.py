"""Per-sample forward solves of the exciton diffusion model.

The device occupies the strip between the rough absorbing interface
x = h(z) and the reflecting top surface x = d.  Flattening the strip onto
the unit square with y = (x - h) / (d - h), z -> z / L turns the constant-
coefficient problem

    sigma**2 (u_xx + u_zz) - u + G(d - x) = 0

into a variable-coefficient one,

    sigma**2 * Lh u - u + G((1 - y)(d - h)) = 0,

    Lh = ((1-y)**2 h'**2 + 1) / (d-h)**2 * d_yy  +  1/L**2 * d_zz
         - 2 (1-y) h' / (L (d-h)) * d_yz
         - (2 (1-y) h'**2 / (d-h)**2 + (1-y) h'' / (d-h)) * d_y,

with u(0, z) = 0, u_y(1, z) = 0 and periodic z.  The photoluminescence is
the thickness-weighted average

    I = integral over the unit square of u(y, z) (d - h(z)) dy dz,

where the 1/L normalization of the physical-domain definition has been
absorbed by the z rescaling.

The expected photoluminescence E[I] over the random coefficients is the
weighted sum over the nodes of a coefficient quadrature rule,
:func:`expected_mapped_pl`; its sigma-derivatives reuse each node's
factorization for the sensitivity problems derived in :mod:`exdil.inverse`.

Two maps of the sine interface leave I, dI/dsigma and d2I/dsigma2 (and
domain validity, since the profile is only moved) unchanged:

* the reflection z -> L - z sends theta to -theta; it maps the z grid onto
  itself for every nz;
* the half-period shift z -> z + L/2 sends theta_k to (-1)**k theta_k; it
  maps the z grid onto itself only when nz is even.

With their product (-1 on even k) they form a group of order 4 (order 2
at odd nz).  :func:`expected_mapped_pl` solves one node per orbit of its rule
under that group, with the orbit's summed weight
(:func:`symmetry_folded_rule`, built on :func:`exdil.collocation.fold`).
Orbits are matched exactly, so only a rule whose nodes are mirror images of
one another bit for bit folds -- tensor and Smolyak rules on a support
symmetric about zero -- and the fold is valid for any coefficient law:
two matched nodes are two descriptions of one mirrored device.  The folded
values equal the unfolded ones to rounding (1e-14 relative).

By the orbit-stabilizer rule the nodes with small orbits are the ones some
group element fixes, and such a node's interface is itself symmetric, so
part of the period determines its solution.  :func:`solve_mapped_2d` finds
the elements that fix theta bit for bit, matched as the fold matches, and
solves on the columns they leave (:mod:`exdil.fd_core`'s column map: each
column represented by the smallest of its orbit):

* the half-period shift fixes theta when every odd theta_k is 0; its
  column map is j -> j + nz/2 (even nz), and half the columns remain;
* the shift times the reflection fixes theta when every even theta_k is 0;
  its column map is j -> nz/2 - j (even nz), a mirror about z = L/4, and
  about half the columns remain;
* the reflection fixes theta only at theta = 0; its column map is j -> -j
  (any nz).  With the other two it leaves about a quarter of the columns,
  alone (odd nz) about half.

A single mode is its own mirror image about z = L/4 at every theta.  With
more modes only nodes with an exact zero coordinate have such a map:
Clenshaw-Curtis rules (Smolyak) and odd-point Gauss-Legendre rules on a
support symmetric about zero, and Smolyak rules on a support that ends at
zero.  Every other node, of even-point Gauss-Legendre, of other supports or
of Monte Carlo draws, keeps the identity map and the full-period matrix,
bit for bit.
The reduced solve agrees with the full-period one to rounding.

For a flat interface h = xi the problem drops to one dimension; the solver
for that case shares the conventions, and each of its solves, the
sensitivity solves of :mod:`exdil.inverse` included, builds and factors
the tridiagonal matrix afresh.  :func:`solve_1d_rhs` imports its banded
solver, ``scipy.linalg.solve_banded``, when it is called, as
:mod:`exdil.fd_core` imports its sparse modules at the first operator, so
importing the package loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interface as iface
from .collocation import QuadratureRule, expect, fold
from .fd_core import (EllipticOperator, Grid2D, SolverError, check_residual,
                      trapezoid_2d)

__all__ = [
    "GenerationProfile",
    "DeviceConfig",
    "MappedSolution",
    "Solution1D",
    "DomainValidityError",
    "solve_mapped_2d",
    "solve_mapped_profile",
    "solve_mapped_1d",
    "sensitivities_mapped",
    "expected_mapped_pl",
    "symmetry_folded_rule",
    "CELLS_1D",
]

# Default y-resolution of the flat-interface solve.  Synthetic flat-model
# data and the flat-model forward provider both take their default from
# here, so that by default they are one discrete model.
CELLS_1D = 2048


class DomainValidityError(ValueError):
    """The interface touches or crosses the top surface."""


@dataclass(frozen=True)
class GenerationProfile:
    """Exciton generation density G(x) = offset + sum_m a_m exp(-x / ell_m).

    Positive and non-increasing by construction.  ``terms`` holds
    (amplitude, decay length) pairs; a bare constant profile has no terms.
    Called on an array it gives G at each point, and on a scalar a float.
    """

    terms: tuple[tuple[float, float], ...] = ()
    offset: float = 0.0

    def __post_init__(self):
        terms = tuple((float(a), float(ell)) for a, ell in self.terms)
        if not 0 <= self.offset < math.inf:
            raise ValueError("constant part must be finite and nonnegative")
        for a, ell in terms:
            if not (0 < a < math.inf and 0 < ell < math.inf):
                raise ValueError("amplitudes and decay lengths must be finite "
                                 "and positive")
        if self.offset == 0 and not terms:
            raise ValueError("generation profile vanishes identically")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def exponential(cls, decay: float, amplitude: float = 1.0) -> "GenerationProfile":
        return cls(terms=((amplitude, decay),))

    @classmethod
    def constant(cls, value: float) -> "GenerationProfile":
        return cls(offset=value)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.full_like(x, self.offset)
        for a, ell in self.terms:
            out = out + a * np.exp(-x / ell)
        return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class DeviceConfig:
    """One device instance: diffusion length, thickness, period, generation."""

    sigma: float
    d: float
    L: float
    generation: GenerationProfile

    def __post_init__(self):
        if not all(0 < v < math.inf for v in (self.sigma, self.d, self.L)):
            raise ValueError("sigma, d and L must be finite and positive")

    def epsilon(self, hbar: float) -> float:
        """Perturbation size hbar / d of a roughness amplitude hbar."""
        return hbar / self.d


@dataclass
class MappedSolution:
    """Unit-square solution of one interface realization, a node array,
    plus its PL value and what its sensitivity solves reuse."""

    field: np.ndarray
    pl: float
    device: DeviceConfig
    source: np.ndarray           # generation G on the grid nodes
    weight: np.ndarray           # z-weight d - h of the PL, per z column
    operator: EllipticOperator

    def __post_init__(self):
        if not self.pl > 0:
            raise SolverError(f"nonpositive photoluminescence {self.pl}")


@dataclass
class Solution1D:
    """Flat-interface solution on the unit interval, with the generation
    its sensitivity solves reuse."""

    y: np.ndarray
    values: np.ndarray
    source: np.ndarray           # generation G on the nodes
    pl: float
    xi: float


def solve_mapped_profile(device: DeviceConfig, grid: Grid2D, h, hp, hpp, *,
                         columns: tuple[int, ...] | None = None
                         ) -> MappedSolution:
    """Solve for an explicit interface profile.

    ``h``, ``hp``, ``hpp`` are the interface height and its first two
    physical-z derivatives per grid column (scalars broadcast).  This is the
    workhorse behind :func:`solve_mapped_2d` and lets tests and callers use
    profiles outside the sine model (e.g. a constant offset).

    ``columns`` is the z column map of :class:`exdil.fd_core.EllipticOperator`,
    which the profile must be symmetric under; :func:`solve_mapped_2d`
    derives it from theta.  Without it every column carries unknowns, since
    an explicit profile proves no symmetry.
    """
    nz = grid.nz
    h = np.broadcast_to(np.asarray(h, dtype=float), (nz + 1,))
    hp = np.broadcast_to(np.asarray(hp, dtype=float), (nz + 1,))
    hpp = np.broadcast_to(np.asarray(hpp, dtype=float), (nz + 1,))

    dmh = device.d - h
    if np.any(dmh <= 0):
        raise DomainValidityError(
            f"interface reaches the top surface: max h = {h.max():.6g} "
            f">= d = {device.d:.6g}")

    sig2 = device.sigma ** 2
    one_my = (1.0 - grid.y)[:, None]
    hp_r = hp[None, :]
    hpp_r = hpp[None, :]
    dmh_r = dmh[None, :]

    op = EllipticOperator(
        grid,
        cyy=sig2 * ((one_my * hp_r) ** 2 + 1.0) / dmh_r ** 2,
        czz=sig2 / device.L ** 2,
        cyz=-2.0 * sig2 * one_my * hp_r / (device.L * dmh_r),
        cy=-sig2 * one_my * (2.0 * hp_r ** 2 / dmh_r ** 2 + hpp_r / dmh_r),
        c0=-1.0,
        columns=columns,
    )
    source = device.generation(one_my * dmh_r)
    field = op.solve_field(source)
    pl = trapezoid_2d(field, grid, z_weight=dmh)
    return MappedSolution(field=field, pl=pl, device=device, source=source,
                          weight=dmh, operator=op)


def _check_z_resolution(model: iface.InterfaceModel, grid: Grid2D) -> None:
    """Raise ValueError unless nz > 2K: at nz = 2K the top mode is sampled
    at its zeros, and below that the modes alias."""
    if not grid.nz > 2 * model.K:
        raise ValueError(f"a {model.K}-mode interface needs more than "
                         f"{2 * model.K} z intervals, got {grid.nz}")


def solve_mapped_2d(device: DeviceConfig, model: iface.InterfaceModel,
                    sample: iface.InterfaceSample, grid: Grid2D
                    ) -> MappedSolution:
    """Solve one realization of the sine-series interface.  Raises
    ValueError unless the grid resolves every mode in z (nz > 2K)."""
    iface.check_period(model, device.L)
    _check_z_resolution(model, grid)
    h, hp, hpp = iface.profile(model, sample, device.L * grid.z)
    return solve_mapped_profile(
        device, grid, h, hp, hpp,
        columns=_representative_columns(sample.thetas, grid.nz))


def _symmetries(dim: int, nz: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The elements other than the identity of the interface's symmetry
    group on ``nz`` z columns, as (sign vector on theta, image of each
    column): the reflection, j -> -j, on any grid, and when nz is even the
    half-period shift, j -> j + nz/2, and the mirror about a quarter
    period, j -> nz/2 - j, their product."""
    j = np.arange(nz)
    elements = [(-np.ones(dim), -j % nz)]
    if nz % 2 == 0:
        shift = (-1.0) ** np.arange(1, dim + 1)
        elements += [(shift, (j + nz // 2) % nz),
                     (-shift, (nz // 2 - j) % nz)]
    return elements


def _representative_columns(thetas, nz: int) -> tuple[int, ...]:
    """The smallest z column of each column's orbit under the elements of
    :func:`_symmetries` that fix ``thetas`` bit for bit (matched as in
    :func:`exdil.collocation.fold`)."""
    theta = tuple(float(t) for t in thetas)
    columns = np.arange(nz)
    for signs, image in _symmetries(len(theta), nz):
        if tuple(t * s for t, s in zip(theta, signs.tolist())) == theta:
            columns = np.minimum(columns, image)
    return tuple(columns.tolist())


def sensitivities_mapped(solution: MappedSolution):
    """Solve the sigma-sensitivity problems of a mapped solution (see
    :mod:`exdil.inverse`) on its own factorization; returns node arrays u1
    and u2, whose thickness-weighted integrals are dI/dsigma and d2I/dsigma2.
    """
    op = solution.operator
    sigma = solution.device.sigma
    resid = solution.field - solution.source
    u1 = op.solve_field((2.0 / sigma) * resid)
    u2 = op.solve_field(-(6.0 / sigma ** 2) * resid + (4.0 / sigma) * u1)
    return u1, u2


def symmetry_folded_rule(rule: QuadratureRule, grid: Grid2D
                         ) -> QuadratureRule:
    """``rule`` folded by the sine interface's symmetries on ``grid``: the
    nodes :func:`expected_mapped_pl` solves.

    The sign vectors are those of :func:`_symmetries`: the reflection's,
    theta -> -theta, on any grid and, when ``grid.nz`` is even, the
    half-period shift's, theta_k -> (-1)**k theta_k, and their product's,
    -1 on even k.
    """
    return fold(rule, [signs for signs, _ in _symmetries(rule.dim, grid.nz)])


def expected_mapped_pl(device: DeviceConfig, model: iface.InterfaceModel,
                       rule: QuadratureRule, grid: Grid2D, *,
                       derivatives: bool = False):
    """Expected photoluminescence over ``rule``: one mapped solve per node
    of :func:`symmetry_folded_rule`, reduced by
    :func:`exdil.collocation.expect`.

    With ``derivatives`` the result is (E[I], E[dI/dsigma],
    E[d2I/dsigma2]), the derivatives from :func:`sensitivities_mapped` on
    each node's factorization.  Every component is reduced by the same
    weighted sum, so E[I] is bit for bit the value returned without them.
    A grid that does not resolve every mode in z raises ValueError before
    the first node, as :func:`solve_mapped_2d` would at each.
    """
    _check_z_resolution(model, grid)

    def node(thetas):
        sol = solve_mapped_2d(device, model,
                              iface.InterfaceSample(tuple(thetas)), grid)
        if not derivatives:
            return sol.pl
        u1, u2 = sensitivities_mapped(sol)
        return (sol.pl, trapezoid_2d(u1, grid, z_weight=sol.weight),
                trapezoid_2d(u2, grid, z_weight=sol.weight))

    value = expect(symmetry_folded_rule(rule, grid), node).value
    return tuple(float(v) for v in value) if derivatives else value


def _banded_1d(device: DeviceConfig, xi: float, cells: int):
    """Tridiagonal operator of the flat-interface problem in banded form.

    Rows follow the 2D conventions: Dirichlet node eliminated at y = 0,
    ghost-closed Neumann at y = 1, unknowns i = 1..cells.
    """
    width = device.d - xi
    hy = 1.0 / cells
    c = device.sigma ** 2 / (width * hy) ** 2
    n = cells
    ab = np.zeros((3, n))
    ab[0, 1:] = c                      # superdiagonal
    ab[1, :] = -2.0 * c - 1.0          # diagonal
    ab[2, :-1] = c                     # subdiagonal
    ab[2, n - 2] = 2.0 * c             # Neumann fold on the last row
    return ab


def solve_1d_rhs(device: DeviceConfig, xi: float, cells: int,
                 source) -> np.ndarray:
    """Solve  sigma**2 u_yy / (d-xi)**2 - u + source = 0  on the unit
    interval with u(0) = 0 and u'(1) = 0; ``source`` holds node values
    (cells+1 entries, or a scalar).  Returns all node values including the
    boundary.

    The residual is checked as in :mod:`exdil.fd_core`: rows normalized by
    the diagonal, relative tolerance ``RESIDUAL_RTOL``.
    """
    from scipy.linalg import solve_banded

    ab = _banded_1d(device, xi, cells)
    b = -np.broadcast_to(np.asarray(source, dtype=float), (cells + 1,))[1:]
    x = solve_banded((1, 1), ab, b)
    if not np.all(np.isfinite(x)):
        raise SolverError("1d solve produced non-finite values")
    r = ab[1] * x - b
    r[:-1] += ab[0, 1:] * x[1:]
    r[1:] += ab[2, :-1] * x[:-1]
    scale = abs(ab[1, 0])              # the diagonal is constant
    check_residual(r / scale, b / scale)
    return np.concatenate(([0.0], x))


def solve_mapped_1d(device: DeviceConfig, offset: float = 0.0,
                    cells: int = CELLS_1D) -> Solution1D:
    """Flat-interface forward solve; PL = (d - xi) * integral of u dy.

    ``cells`` defaults to :data:`CELLS_1D`, the resolution of the
    ``model_1d`` branch of :func:`exdil.experiments.generate_synthetic_curve`
    and the default of :class:`exdil.inverse.OneDimensionalForward`.  A
    provider at another resolution differs from those data at O(h**2).
    """
    xi = float(offset)
    if xi >= device.d:
        raise DomainValidityError(f"offset {xi} is not below the top surface")
    width = device.d - xi
    hy = 1.0 / cells
    y = np.arange(cells + 1) * hy
    g = device.generation((1.0 - y) * width)
    u = solve_1d_rhs(device, xi, cells, g)
    pl = width * float(np.trapezoid(u, dx=hy))
    return Solution1D(y=y, values=u, source=g, pl=pl, xi=xi)
