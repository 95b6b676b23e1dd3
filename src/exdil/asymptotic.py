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
w0's own equation on the boundary.  Orders n >= 3 follow the same recursion
but are not implemented.

The problems separate into 1D problems in depth, each with an elementary
solution.  The source of w0 depends on depth only, so w0 = w0(x).  The
datum of w1 is a sum of the modes phi_k(z) = sin(kappa_k z),
kappa_k = 2 pi k / L, so w1 = sum_k lam_k th_k phi_k(z) f_k(x) with

    f_k(x) = -d w0'(0) cosh(m_k (d - x)) / cosh(m_k d),
    m_k = sqrt(1 + sigma**2 kappa_k**2) / sigma,
    f_k'(0) = d w0'(0) m_k tanh(m_k d).

Only strip integrals of w1 and w2 enter the photoluminescence, and the
z-mean of a solution solves the 1D problem with the z-mean of the datum.
Hence:

  * the z-mean of phi_k is zero: order 1 equals order 0;
  * the w2 datum of the pair (j, k) is c_k phi_j phi_k with
    c_k = -d f_k'(0) + d**2 G(d) / (2 sigma**2), whose z-mean is c_k / 2
    for j = k and zero otherwise, so i2 is diagonal:
    i2_kk = c_k / 2 * int q, with q = cosh((d - x) / sigma) / cosh(d / sigma)
    the homogeneous solution of unit datum and int q = sigma tanh(d / sigma);
  * the boundary line integrals (d**2 / 2L) int phi_j phi_k dx w0(0) dz that
    account for the strip/true-domain mismatch are diagonal too,
    b_kk = d**2 / 4 w0'(0).

The photoluminescence approximants are then

    I0 = I1 = i0
    I2 = i0 + eps**2 sum_k (lam_k th_k)**2 (i2_kk + b_kk)

and coefficient moments in place of the th products give the expected
photoluminescence.

Of w0 only i0 = int w0 and w0'(0) are needed, and both are linear in G.
With s = d - x the depth below the top, Green's identity against
cosh(s / sigma) / cosh(d / sigma) and the equation integrated over the film
give

    sigma**2 w0'(0) = int_0^d G(s) cosh(s / sigma) / cosh(d / sigma) ds,
    i0 = int_0^d G(s) ds - sigma**2 w0'(0).

G is a constant plus exponentials a exp(-mu s), mu = 1 / ell (the constant
is the term with mu = 0).  With nu = 1 / sigma and
E(p) = int_0^d exp(-p s) ds = -expm1(-p d) / p  (E(0) = d), one term gives

    int_0^d exp(-mu s) cosh(nu s) ds / cosh(nu d)
        = (exp(-min(mu, nu) d) E(|mu - nu|) + exp(-nu d) E(mu + nu))
          / (1 + exp(-2 nu d)).

The particular solution a ell**2 / (ell**2 - sigma**2) exp(-s / ell) of the
textbook form has a pole at ell = sigma that the solution does not have;
here it appears only as the divided difference E(|mu - nu|), which expm1
evaluates to full precision through mu = nu.  Every exponent is nonpositive,
so nothing overflows however large d / sigma or m_k d grow.  A coefficient
that still comes out non-finite raises :class:`~exdil.fd_core.SolverError`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import interface as iface
from .fd_core import SolverError
from .forward_mapped import DeviceConfig

__all__ = [
    "AsymptoticBasis",
    "PLApproximant",
    "build_basis",
    "assemble_approximant",
    "expected_pl",
    "sampled_pl",
]


@dataclass(frozen=True)
class AsymptoticBasis:
    """The order-2 basis of one (device, interface-model) pair, reduced to
    what the photoluminescence reads: ``i0`` = int w0, ``slope`` = w0'(0),
    ``mode_slopes[k-1]`` = f_k'(0) and ``q_integral`` = int q."""

    device: DeviceConfig
    model: iface.InterfaceModel
    i0: float
    slope: float
    mode_slopes: np.ndarray
    q_integral: float


def _decay_integral(p: float, d: float) -> float:
    """int_0^d exp(-p s) ds for p >= 0, accurate as p -> 0."""
    return d if p == 0.0 else -math.expm1(-p * d) / p


def _leading_order(device: DeviceConfig) -> tuple[float, float]:
    """(i0, w0'(0)) of the leading-order problem, term by term in G."""
    d, nu = device.d, 1.0 / device.sigma
    gen = device.generation
    decay = math.exp(-nu * d)
    total = flux = 0.0
    for a, mu in ((gen.offset, 0.0),) + tuple(
            (a, 1.0 / ell) for a, ell in gen.terms):
        total += a * _decay_integral(mu, d)
        flux += a * (math.exp(-min(mu, nu) * d)
                     * _decay_integral(abs(mu - nu), d)
                     + decay * _decay_integral(mu + nu, d))
    flux /= 1.0 + decay * decay          # sigma**2 w0'(0)
    return total - flux, flux * nu * nu


def build_basis(device: DeviceConfig, model: iface.InterfaceModel
                ) -> AsymptoticBasis:
    """The order-2 basis in closed form (see the module docstring)."""
    if not np.isclose(model.L, device.L, rtol=1e-12):
        raise ValueError(
            f"interface period {model.L} does not match device period {device.L}")
    sigma, d = device.sigma, device.d
    i0, slope = _leading_order(device)
    # Python floats: an overflow gives inf, caught below, not a warning
    m = [math.hypot(1.0, sigma * kappa) / sigma
         for kappa in model.mode_angular_frequencies().tolist()]
    mode_slopes = [d * slope * mk * math.tanh(mk * d) for mk in m]
    q_integral = sigma * math.tanh(d / sigma)
    if not np.all(np.isfinite([i0, slope, q_integral, *mode_slopes])):
        raise SolverError(f"non-finite expansion coefficient at "
                          f"sigma = {sigma!r}, d = {d!r}")
    return AsymptoticBasis(device=device, model=model, i0=i0, slope=slope,
                           mode_slopes=np.array(mode_slopes),
                           q_integral=q_integral)


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
    """Expansion coefficients of the basis.

    ``epsilon`` defaults to hbar / d of the basis model; passing it
    explicitly lets one basis serve a whole sweep of roughness sizes (the
    basis does not depend on eps).
    """
    device = basis.device
    if epsilon is None:
        epsilon = device.epsilon(basis.model.hbar)
    d2 = device.d ** 2
    c = (-device.d * basis.mode_slopes
         + d2 * device.generation(device.d) / (2.0 * device.sigma ** 2))
    return PLApproximant(
        i0=basis.i0, i2=0.5 * c * basis.q_integral,
        boundary=np.full(basis.model.K, d2 / 4.0 * basis.slope),
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
