"""Perturbation expansion of the forward model in the roughness size.

Writing eps = hbar / d, the solution over the unperturbed strip
D0 = (0, d) x (0, L) expands as w0 + eps*w1 + eps**2*w2 + ..., where every
term solves the same screened operator  sigma**2 Lap - 1  with reflecting
top, periodic z, and Dirichlet data at x = 0 fed by normal derivatives of
the lower orders (htilde is the unit-amplitude interface series):

    w0:   sigma**2 Lap w0 - w0 + G(d - x) = 0,        w0(0, z) = 0
    w1:   homogeneous,   w1(0, z) = -d htilde(z) dx w0(0, z)
    w2:   homogeneous,   w2(0, z) = -d htilde(z) dx w1(0, z)
                                    + (d htilde(z))**2 G(d) / (2 sigma**2)

The w2 datum uses dxx w0(0, z) = -G(d) / sigma**2, obtained by evaluating
w0's own equation on the boundary, so only first normal derivatives are
ever discretized (with the second-order one-sided scheme).  Orders n >= 3
follow the same recursion but are not implemented.

The discrete problems separate.  On the periodic grid with nz cells,
phi_k(z) = sin(2 pi k z / L) is an exact eigenvector of the z-difference,
D+D-z phi_k = -mu_k phi_k with mu_k = 2 (1 - cos(2 pi k / nz)) / hz**2.
The source of w0 depends on depth only, so w0 = w0(x); the datum of w1 is a
sum of modes, so w1 = sum_k lam_k th_k phi_k(z) f_k(x), where f_k solves the
1D problem  sigma**2 D+D-x f - (1 + sigma**2 mu_k) f = 0  with
f_k(0) = -d dx w0(0).  Every basis problem is therefore a tridiagonal
solve in depth with the conventions of :mod:`exdil.forward_mapped`.

Only strip integrals of w1 and w2 enter the photoluminescence, and the
z-mean of a solution solves the 1D problem with the z-mean of the datum.
Hence, as long as 2K < nz (so that no mode product aliases to a constant):

  * i1_k is the discrete mean of phi_k, zero: order 1 equals order 0;
  * the w2 datum of the pair (j, k) is c_k phi_j phi_k with
    c_k = -d f_k'(0) + d**2 G(d) / (2 sigma**2), whose z-mean is c_k / 2
    for j = k and zero otherwise, so i2 is diagonal:
    i2_kk = c_k / 2 * int q, with q the homogeneous solution of unit datum;
  * the boundary line integrals (d**2 / 2L) int phi_j phi_k dx w0(0) dz that
    account for the strip/true-domain mismatch are diagonal too,
    b_kk = d**2 / 4 dx w0(0).

The photoluminescence approximants are then

    I0 = I1 = i0
    I2 = i0 + eps**2 sum_k (lam_k th_k)**2 (i2_kk + b_kk)

and coefficient moments in place of the th products give the expected
photoluminescence.  A basis costs 2 + K tridiagonal solves: w0, q, and one
f_k per mode.  This is the Fourier/tridiagonal split of fast Poisson
solvers (Hockney, J. ACM 12, 1965).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import interface as iface
from .fd_core import Field2D, Grid2D, one_sided_dx_at_boundary
from .forward_mapped import DeviceConfig, solve_1d_rhs

__all__ = [
    "AsymptoticBasis",
    "PLApproximant",
    "expansion_grid",
    "build_basis",
    "assemble_approximant",
    "expected_pl",
    "sampled_pl",
    "mode_shape",
]


def expansion_grid(device: DeviceConfig, nx: int = 64, nz: int = 64) -> Grid2D:
    """Grid over the unperturbed strip; first axis is depth x in (0, d)."""
    return Grid2D.rect(nx, nz, device.d, device.L)


def mode_shape(k: int, L: float, z: np.ndarray) -> np.ndarray:
    """Interface mode phi_k(z) = sin(2 pi k z / L)."""
    return np.sin(2.0 * np.pi * k * z / L)


@dataclass
class AsymptoticBasis:
    """Depth profiles of the order-2 basis of one (device, interface-model)
    pair.

    ``w0_profile`` is w0(x); ``modes[k-1]`` is f_k(x), so that
    w1_k = phi_k(z) f_k(x); ``z_mean`` is q(x), the solution of the
    homogeneous problem with unit datum.  ``solve_count`` records the
    number of tridiagonal solves: 2 + K.  The 2D fields are built on
    request as outer products.
    """

    device: DeviceConfig
    model: iface.InterfaceModel
    grid: Grid2D
    w0_profile: np.ndarray
    modes: np.ndarray
    z_mean: np.ndarray
    solve_count: int

    def _phi(self, k: int) -> np.ndarray:
        phi = mode_shape(k, self.device.L, self.grid.z)
        phi[-1] = phi[0]               # column nz aliases column 0
        return phi

    @property
    def w0(self) -> Field2D:
        return Field2D(self.grid, np.outer(self.w0_profile,
                                           np.ones(self.grid.nz + 1)))

    @property
    def w1(self) -> list[Field2D]:
        return [Field2D(self.grid, np.outer(f, self._phi(k)))
                for k, f in enumerate(self.modes, start=1)]

    @property
    def dx_w0(self) -> np.ndarray:
        """dx w0(0, z) per z node."""
        return np.full(self.grid.nz + 1,
                       one_sided_dx_at_boundary(self.w0_profile, self.grid.hy))


def build_basis(device: DeviceConfig, model: iface.InterfaceModel,
                grid: Grid2D | None = None, nx: int = 64, nz: int = 64
                ) -> AsymptoticBasis:
    """Solve the order-2 basis: 2 + K tridiagonal solves in depth."""
    if not np.isclose(model.L, device.L, rtol=1e-12):
        raise ValueError(
            f"interface period {model.L} does not match device period {device.L}")
    grid = grid or expansion_grid(device, nx, nz)
    if not (np.isclose(grid.ny * grid.hy, device.d, rtol=1e-12)
            and np.isclose(grid.nz * grid.hz, device.L, rtol=1e-12)):
        raise ValueError("the expansion grid must span the strip (0, d) x (0, L)")
    if 2 * model.K >= grid.nz:
        raise ValueError(
            f"{model.K} modes alias on {grid.nz} z cells: the mode products "
            "of the second order need 2K < nz")

    cells = grid.ny
    w0 = solve_1d_rhs(device, 0.0, cells, device.generation(device.d - grid.y))
    z_mean = solve_1d_rhs(device, 0.0, cells, 0.0, dirichlet=1.0)
    datum = -device.d * one_sided_dx_at_boundary(w0, grid.hy)
    k = np.arange(1, model.K + 1)
    shifts = -1.0 + 2.0 * device.sigma ** 2 \
        * (np.cos(2.0 * np.pi * k / grid.nz) - 1.0) / grid.hz ** 2
    modes = np.array([solve_1d_rhs(device, 0.0, cells, 0.0, shift=s,
                                   dirichlet=datum) for s in shifts])
    return AsymptoticBasis(device=device, model=model, grid=grid,
                           w0_profile=w0, modes=modes, z_mean=z_mean,
                           solve_count=2 + model.K)


@dataclass(frozen=True)
class PLApproximant:
    """Photoluminescence expansion coefficients of one basis.

    ``i2[k-1]`` and ``boundary[k-1]`` are the diagonal entries i2_kk and
    b_kk; the off-diagonal ones vanish (see the module docstring).  The mode
    weights lam_k are kept so callers only supply coefficient draws or
    moments.
    """

    i0: float
    i2: np.ndarray
    boundary: np.ndarray
    lambdas: np.ndarray
    epsilon: float

    def __post_init__(self):
        if not self.i0 > 0:
            raise ValueError(f"leading PL term must be positive, got {self.i0}")


def assemble_approximant(basis: AsymptoticBasis,
                         epsilon: float | None = None) -> PLApproximant:
    """Integrate the basis profiles into expansion coefficients.

    ``epsilon`` defaults to hbar / d of the basis model; passing it
    explicitly lets one basis serve a whole sweep of roughness sizes (the
    profiles do not depend on eps).
    """
    device, hx = basis.device, basis.grid.hy
    if epsilon is None:
        epsilon = device.epsilon(basis.model.hbar)
    d2 = device.d ** 2
    c = (-device.d * one_sided_dx_at_boundary(basis.modes.T, hx)
         + d2 * device.generation(device.d) / (2.0 * device.sigma ** 2))
    slope0 = one_sided_dx_at_boundary(basis.w0_profile, hx)
    return PLApproximant(
        i0=float(np.trapezoid(basis.w0_profile, dx=hx)),
        i2=0.5 * c * float(np.trapezoid(basis.z_mean, dx=hx)),
        boundary=np.full(basis.model.K, d2 / 4.0 * slope0),
        lambdas=np.asarray(basis.model.lambdas), epsilon=epsilon)


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ValueError(
            f"expansion order must be 0, 1 or 2 (got {order}); higher orders "
            "are not supported")


def expected_pl(approximant: PLApproximant, moments: iface.ThetaMoments,
                order: int) -> float:
    """Expected photoluminescence at the given expansion order (order 1
    equals order 0)."""
    _check_order(order)
    total = approximant.i0
    if order == 2:
        total = total + approximant.epsilon ** 2 * moments.second * float(
            approximant.lambdas ** 2 @ (approximant.i2 + approximant.boundary))
    return float(total)


def sampled_pl(approximant: PLApproximant,
               sample: iface.InterfaceSample | np.ndarray,
               order: int) -> float:
    """Pathwise approximant for one coefficient draw (order 1 equals
    order 0)."""
    _check_order(order)
    thetas = sample.as_array() if isinstance(sample, iface.InterfaceSample) \
        else np.asarray(sample, dtype=float)
    if thetas.shape != approximant.lambdas.shape:
        raise ValueError("coefficient draw does not match the mode count")
    total = approximant.i0
    if order == 2:
        c = approximant.lambdas * thetas
        total = total + approximant.epsilon ** 2 * float(
            c ** 2 @ (approximant.i2 + approximant.boundary))
    return float(total)
