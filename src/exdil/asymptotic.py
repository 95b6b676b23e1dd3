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

Since w0 solves the flat-interface problem, i0 is also the flat-interface
photoluminescence, :func:`flat_pl`.

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

Write F = sigma**2 w0'(0) and h(m) = m tanh(m d), so that
f_k'(0) = d w0'(0) h(m_k) and int q = sigma**2 h(nu) (the mode family at
kappa = 0).  With Lam = sum_k lam_k**2, T = sum_k lam_k**2 h(m_k) and m2
the coefficients' second moment, the order-2 expected photoluminescence is

    E[I2] = int G - F + eps**2 m2 d**2 (Lam nu**2 F / 4
                                        + (Lam G(d) / 4 - F T / 2) h(nu)),

and orders 0 and 1 are int G - F.  So sigma enters only through the three
scalars F, h(nu) and T, and :func:`closed_form` differentiates them by
hand.  It takes ready-made the factors that depend on d alone (G's terms,
int G, G(d) and eps: a :class:`Film`) and on sigma alone (nu, and m_k,
dm_k/dnu and m_k**3 of every mode: a :class:`ModeTable`), so a caller that
evaluates many (sigma, d) pairs builds each once;
:func:`expected_pl_with_derivatives` builds both for one device.  It works
in nu and converts at the end,
d/dsigma = -nu**2 d/dnu and d2/dsigma2 = nu**4 d2/dnu2 + 2 nu**3 d/dnu.
With dm_k/dnu = nu / m_k and d2m_k/dnu2 = kappa_k**2 / m_k**3,

    h'(m) = tanh(m d) + m d sech(m d)**2,
    h''(m) = 2 d sech(m d)**2 (1 - m d tanh(m d)).

The two parts of a term of F are int_0^d exp(-nu (d -+ s) - mu s) ds, so
each nu-derivative brings down a factor -(d -+ s).  Their derivatives
therefore need the moments M_j(p) = int_0^d s**j exp(-p s) ds, j = 0, 1, 2, at
p = |mu - nu| and p = mu + nu.  The recurrence
M_j = (j M_{j-1} - d**j exp(-p d)) / p cancels as p d -> 0, which is the
resonance again.  Below p d = 1/2 the moments come from the series
M_j = d**(j+1) sum_n (-p d)**n / (n! (n + j + 1)), exact through p = 0.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from . import interface as iface
from .fd_core import SolverError
from .forward_mapped import DeviceConfig

__all__ = [
    "flat_pl",
    "ExpansionModes",
    "Film",
    "ModeTable",
    "closed_form",
    "expected_pl_with_derivatives",
]


def _decay_integral(p: float, d: float) -> float:
    """int_0^d exp(-p s) ds for p >= 0, accurate as p -> 0."""
    return d if p == 0.0 else -math.expm1(-p * d) / p


# Below p d = 1/2 the moment recurrence cancels; there the power series
# reaches full precision within 17 terms.
_SERIES_BELOW = 0.5
_SERIES_TERMS = 17


def _decay_moments(p: float, d: float) -> tuple[float, float, float]:
    """M_j(p) = int_0^d s**j exp(-p s) ds for j = 0, 1, 2 and p >= 0."""
    x = p * d
    m0 = _decay_integral(p, d)
    if x < _SERIES_BELOW:
        # M_j = d**(j+1) sum_n (-x)**n / (n! (n + j + 1))
        term, s1, s2 = 1.0, 0.0, 0.0
        for n in range(_SERIES_TERMS):
            s1 += term / (n + 2)
            s2 += term / (n + 3)
            term *= -x / (n + 1)
        return m0, d * d * s1, d * d * d * s2
    # M_j = (j M_{j-1} - d**j exp(-x)) / p
    e = math.exp(-x)
    m1 = (m0 - d * e) / p
    return m0, m1, (2.0 * m1 - d * d * e) / p


def _source_terms(generation, d: float
                  ) -> tuple[tuple[tuple[float, float], ...], float]:
    """The terms (a, mu = 1 / ell) of G, the offset as the term with
    mu = 0 unless it is zero, and int_0^d G: what the flux reads of the
    generation at thickness d.  A zero offset would add only zeros."""
    terms = tuple((a, 1.0 / ell) for a, ell in generation.terms)
    if generation.offset != 0.0:
        terms = ((generation.offset, 0.0),) + terms
    total = 0.0
    for a, mu in terms:
        total += a * _decay_integral(mu, d)
    return terms, total


def _flux(terms, total: float, d: float, nu: float
          ) -> tuple[float, float, float, float]:
    """(i0, F, dF/dnu, d2F/dnu2) with F = sigma**2 w0'(0), i0 = int G - F
    and nu = 1 / sigma, term by term in G (see the module docstring), from
    the :func:`_source_terms` ``terms`` and ``total`` = int G."""
    decay = math.exp(-nu * d)
    f0 = f1 = f2 = 0.0
    for a, mu in terms:
        near = math.exp(-min(mu, nu) * d)
        m0, m1, m2 = _decay_moments(abs(mu - nu), d)
        p0, p1, p2 = _decay_moments(mu + nu, d)
        f0 += a * (near * m0 + decay * p0)
        if mu >= nu:
            f1 += a * (near * (m1 - d * m0) - decay * (d * p0 + p1))
            f2 += a * (near * (d * d * m0 - 2.0 * d * m1 + m2)
                       + decay * (d * d * p0 + 2.0 * d * p1 + p2))
        else:
            f1 += a * (-near * m1 - decay * (d * p0 + p1))
            f2 += a * (near * m2 + decay * (d * d * p0 + 2.0 * d * p1 + p2))
    # F = f0 / D with D = 1 + exp(-2 nu d)
    r = decay * decay
    f0 /= 1.0 + r
    f1 = (f1 + 2.0 * d * r * f0) / (1.0 + r)
    f2 = (f2 + 4.0 * d * r * f1 - 4.0 * d * d * r * f0) / (1.0 + r)
    return total - f0, f0, f1, f2


def _mode_slope(m: float, d: float) -> tuple[float, float, float]:
    """h(m) = m tanh(m d), with dh/dm and d2h/dm2."""
    t = math.tanh(m * d)
    e = math.exp(-2.0 * m * d)
    sech2 = 4.0 * e / ((1.0 + e) * (1.0 + e))
    return m * t, t + m * d * sech2, 2.0 * d * sech2 * (1.0 - m * d * t)


def _check_finite(values, sigma: float, d: float) -> None:
    # the closed forms run on Python floats: an overflow arrives here as
    # inf, not as a numpy warning
    if not all(map(math.isfinite, values)):
        raise SolverError(f"non-finite expansion coefficient at "
                          f"sigma = {sigma!r}, d = {d!r}")


def _check_leading(i0: float) -> None:
    if not i0 > 0:
        raise ValueError(f"leading PL term must be positive, got {i0}")


def _check_order(order: int) -> None:
    if order not in (0, 1, 2):
        raise ValueError(
            f"expansion order must be 0, 1 or 2 (got {order}); higher orders "
            "are not supported")


def flat_pl(device: DeviceConfig) -> float:
    """Photoluminescence of the flat interface at offset 0 in closed form:
    the order-0 term i0 = int G - F at nu = 1 / sigma, the continuum limit
    of :func:`~exdil.forward_mapped.solve_mapped_1d`.  Raises
    :class:`~exdil.fd_core.SolverError` on a non-finite value."""
    sigma, d = device.sigma, device.d
    i0 = _flux(*_source_terms(device.generation, d), d, 1.0 / sigma)[0]
    _check_finite([i0], sigma, d)
    return i0


@dataclass(frozen=True)
class ExpansionModes:
    """What the expected photoluminescence reads of an interface model:
    the mode angular frequencies kappa_k, the weights lam_k**2, their sum
    and the coefficients' second moment."""

    kappas: tuple[float, ...]
    weights: tuple[float, ...]
    weight_sum: float
    second_moment: float

    @classmethod
    def of(cls, model: iface.InterfaceModel, period: float
           ) -> "ExpansionModes":
        """The constants of ``model`` on devices of period ``period``, which
        must be the model's own."""
        iface.check_period(model, period)
        weights = tuple(lam * lam for lam in model.lambdas)
        return cls(kappas=tuple(model.mode_angular_frequencies().tolist()),
                   weights=weights, weight_sum=math.fsum(weights),
                   second_moment=iface.moments(model.dist))


@dataclass(frozen=True)
class Film:
    """The factors of the closed form that vary with the thickness alone:
    d, the generation's terms and int_0^d G (see :func:`_source_terms`),
    G(d) and the roughness size eps."""

    d: float
    terms: tuple[tuple[float, float], ...]
    total: float
    top: float
    epsilon: float

    @classmethod
    def of(cls, device: DeviceConfig, epsilon: float) -> "Film":
        d = device.d
        terms, total = _source_terms(device.generation, d)
        top = 0.0
        for a, mu in terms:
            top += a * math.exp(-mu * d)
        return cls(d=d, terms=terms, total=total, top=top, epsilon=epsilon)


@dataclass(frozen=True)
class ModeTable:
    """The factors of the closed form that vary with sigma alone: nu and,
    per mode, (lam_k**2, m_k, dm_k/dnu = nu / m_k, kappa_k, m_k**3)."""

    sigma: float
    nu: float
    modes: ExpansionModes
    rows: tuple[tuple[float, float, float, float, float], ...]

    @classmethod
    def of(cls, modes: ExpansionModes, sigma: float) -> "ModeTable":
        """Raises ValueError unless 0 < sigma < inf."""
        if not 0 < sigma < math.inf:
            raise ValueError(f"sigma must be finite and positive, got {sigma}")
        nu = 1.0 / sigma
        rows = []
        for kappa, weight in zip(modes.kappas, modes.weights):
            m = math.hypot(nu, kappa)
            rows.append((weight, m, nu / m, kappa, m * m * m))
        return cls(sigma=sigma, nu=nu, modes=modes, rows=tuple(rows))


def closed_form(film: Film, table: ModeTable, order: int
                ) -> tuple[float, float, float]:
    """(E[I], dE[I]/dsigma, d2E[I]/dsigma2) at the given expansion order
    from the thickness's and sigma's factors: what remains per (sigma, d)
    is the flux and the tanh and exp of each mode.  Raises
    :class:`~exdil.fd_core.SolverError` on a non-finite value."""
    _check_order(order)
    d, nu = film.d, table.nu
    i0, f0, f1, f2 = _flux(film.terms, film.total, d, nu)
    # derivatives in nu until the last line
    e0, e1, e2 = i0, -f1, -f2
    if order == 2:
        modes = table.modes
        t0 = t1 = t2 = 0.0
        for weight, m, dm, kappa, m3 in table.rows:
            h0, h1, h2 = _mode_slope(m, d)
            t0 += weight * h0
            t1 += weight * h1 * dm
            t2 += weight * (h2 * dm * dm + h1 * kappa * kappa / m3)
        q0, q1, q2 = _mode_slope(nu, d)           # nu**2 int q
        lam = 0.25 * modes.weight_sum
        w0 = lam * film.top - 0.5 * f0 * t0
        w1 = -0.5 * (f1 * t0 + f0 * t1)
        w2 = -0.5 * (f2 * t0 + 2.0 * f1 * t1 + f0 * t2)
        scale = film.epsilon * film.epsilon * modes.second_moment * d * d
        e0 += scale * (lam * nu * nu * f0 + w0 * q0)
        e1 += scale * (lam * (2.0 * nu * f0 + nu * nu * f1)
                       + w1 * q0 + w0 * q1)
        e2 += scale * (lam * (2.0 * f0 + 4.0 * nu * f1 + nu * nu * f2)
                       + w2 * q0 + 2.0 * w1 * q1 + w0 * q2)
    values = (e0, -nu * nu * e1, nu * nu * (nu * nu * e2 + 2.0 * nu * e1))
    _check_finite(values, table.sigma, d)
    _check_leading(i0)
    return values


def expected_pl_with_derivatives(device: DeviceConfig, modes: ExpansionModes,
                                 epsilon: float, order: int
                                 ) -> tuple[float, float, float]:
    """(E[I], dE[I]/dsigma, d2E[I]/dsigma2) of one device at the given
    expansion order: the :func:`closed_form` of the device's :class:`Film`
    and :class:`ModeTable`.  The convergence and timing studies read it;
    the fits' :class:`~exdil.inverse.AsymptoticForward` keeps the two
    factors between evaluations and calls :func:`closed_form` itself.
    Raises :class:`~exdil.fd_core.SolverError` on a non-finite value."""
    return closed_form(Film.of(device, epsilon),
                       ModeTable.of(modes, device.sigma), order)


# build_basis -> assemble_approximant -> expected_pl is the call chain of the
# benchmark's ExpectCurve.final_checks (benchmarks/workloads.py), and
# ENTRY_POINTS in benchmarks/spans.py traces the three names.  They only
# forward to expected_pl_with_derivatives; delete them once the benchmark is
# re-pinned to it (ROADMAP item 1).

def build_basis(device: DeviceConfig, model: iface.InterfaceModel):
    """(device, modes, eps = hbar / d) of a device and interface model."""
    return (device, ExpansionModes.of(model, device.L),
            device.epsilon(model.hbar))


def assemble_approximant(basis):
    return basis


def expected_pl(approximant, second_moment: float, order: int) -> float:
    """E[I] of :func:`expected_pl_with_derivatives` at the coefficients'
    ``second_moment``."""
    device, modes, epsilon = approximant
    modes = dataclasses.replace(modes, second_moment=second_moment)
    return expected_pl_with_derivatives(device, modes, epsilon, order)[0]
