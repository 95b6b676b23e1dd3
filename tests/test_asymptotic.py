"""Expansion coefficients, the closed form, and order checks.

The closed form of :mod:`exdil.asymptotic`, ``expected_pl_with_derivatives``,
is checked against a discrete oracle that converges to it at second order:
the expansion on a strip grid, one tridiagonal solve in depth per problem,
with its coefficients in :class:`Coefficients`.  That oracle in turn is
checked against the 2D problems it separates, assembled straight from the
fd core: the full random-datum problems and the per-mode 2D basis.
"""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded

from exdil import interface as iface
from exdil.asymptotic import (ExpansionModes, Film,
                              expected_pl_with_derivatives, flat_pl)
from exdil.fd_core import EllipticOperator, Grid2D, SolverError, trapezoid_2d
from exdil.forward_mapped import (DeviceConfig, GenerationProfile,
                                  solve_1d_rhs, solve_mapped_1d,
                                  solve_mapped_2d)
from exdil.interface import InterfaceModel, InterfaceSample, UniformDist, \
    moments, sample


def device(sigma=2.0, d=10.0, L=4.0, gen=None):
    return DeviceConfig(sigma, d, L, gen or GenerationProfile.constant(1.0))


def model_of(dev, K=3, hbar=0.5, a=0.0, b=1.0, lambdas=None):
    return InterfaceModel(hbar, dev.L, K, lambdas or (1.0,) * K,
                          UniformDist(a, b))


def closed_form(dev, model, order=2, epsilon=None):
    """E[I] of the closed form, at eps = hbar / d of ``model`` unless
    ``epsilon`` is given."""
    eps = dev.epsilon(model.hbar) if epsilon is None else epsilon
    return expected_pl_with_derivatives(dev, ExpansionModes.of(model, dev.L),
                                        eps, order)[0]


def strip_grid(dev, nx, nz):
    """Grid over the unperturbed strip; first axis is depth x in (0, d)."""
    return Grid2D(nx, nz, dev.d / nx, dev.L / nz)


def mode_shape(k, L, z):
    """Interface mode phi_k(z) = sin(2 pi k z / L)."""
    return np.sin(2.0 * np.pi * k * z / L)


def one_sided_dx(values, h):
    """Second-order one-sided derivative along the first axis at its first
    row: (-3 v[0] + 4 v[1] - v[2]) / (2 h), exact for quadratics."""
    return (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)


def solve_depth(dev, cells, source, shift=-1.0, dirichlet=0.0):
    """sigma**2 u'' + shift u + source = 0 on (0, d) with u(0) = dirichlet
    and u'(d) = 0: centred differences on ``cells`` cells, the Neumann row
    closed by a ghost node.  ``source`` holds node values or a scalar."""
    c = dev.sigma ** 2 / (dev.d / cells) ** 2
    ab = np.zeros((3, cells))
    ab[0, 1:] = c
    ab[1, :] = -2.0 * c + shift
    ab[2, :-1] = c
    ab[2, -2] = 2.0 * c
    b = -np.broadcast_to(np.asarray(source, dtype=float), (cells + 1,))[1:]
    b[0] -= c * dirichlet
    return np.concatenate(([dirichlet], solve_banded((1, 1), ab, b)))


@dataclasses.dataclass(frozen=True)
class Coefficients:
    """Expansion coefficients of the oracle: i0, the diagonal entries i2_kk
    and b_kk (the off-diagonal ones vanish, see :mod:`exdil.asymptotic`), the
    mode weights lam_k and eps."""

    i0: float
    i2: np.ndarray
    boundary: np.ndarray
    lambdas: np.ndarray
    epsilon: float

    def _order2(self, weights):
        return self.epsilon ** 2 * float(weights @ (self.i2 + self.boundary))

    def pathwise(self, sample, order):
        """I of one coefficient draw (order 1 equals order 0)."""
        if order < 2:
            return self.i0
        c = self.lambdas * np.asarray(sample.thetas)
        return self.i0 + self._order2(c ** 2)

    def expected(self, second_moment, order):
        """E[I] at the coefficients' second moment (order 1 equals
        order 0)."""
        if order < 2:
            return self.i0
        return self.i0 + second_moment * self._order2(self.lambdas ** 2)


class DiscreteBasis:
    """Oracle: the expansion on a strip grid with nx x nz cells.

    phi_k is an exact eigenvector of the periodic z-difference,
    D+D-z phi_k = -mu_k phi_k with mu_k = 2 (1 - cos(2 pi k / nz)) / hz**2,
    so w0, q and each mode f_k are tridiagonal solves in depth (2 + K in
    all), and slopes at x = 0 are one-sided.  Requires 2K < nz, so that no
    mode product aliases to a constant.
    """

    def __init__(self, dev, model, nx, nz):
        self.dev, self.model = dev, model
        self.grid = grid = strip_grid(dev, nx, nz)
        self.w0_profile = solve_depth(dev, nx, dev.generation(dev.d - grid.y))
        self.z_mean = solve_depth(dev, nx, 0.0, dirichlet=1.0)
        datum = -dev.d * one_sided_dx(self.w0_profile, grid.hy)
        k = np.arange(1, model.K + 1)
        mu = 2.0 * (1.0 - np.cos(2.0 * np.pi * k / nz)) / grid.hz ** 2
        self.modes = np.array([
            solve_depth(dev, nx, 0.0, shift=-1.0 - dev.sigma ** 2 * m,
                        dirichlet=datum) for m in mu])

    def _phi(self, k):
        phi = mode_shape(k, self.dev.L, self.grid.z)
        phi[-1] = phi[0]               # column nz aliases column 0
        return phi

    @property
    def w0(self):
        return np.outer(self.w0_profile, np.ones(self.grid.nz + 1))

    @property
    def w1(self):
        return [np.outer(f, self._phi(k))
                for k, f in enumerate(self.modes, start=1)]

    @property
    def dx_w0(self):
        """dx w0(0, z) per z node."""
        return np.full(self.grid.nz + 1,
                       one_sided_dx(self.w0_profile, self.grid.hy))

    def approximant(self, epsilon=None):
        dev, hx = self.dev, self.grid.hy
        if epsilon is None:
            epsilon = dev.epsilon(self.model.hbar)
        d2 = dev.d ** 2
        c = (-dev.d * one_sided_dx(self.modes.T, hx)
             + d2 * dev.generation(dev.d) / (2.0 * dev.sigma ** 2))
        return Coefficients(
            i0=float(np.trapezoid(self.w0_profile, dx=hx)),
            i2=0.5 * c * float(np.trapezoid(self.z_mean, dx=hx)),
            boundary=np.full(self.model.K,
                             d2 / 4.0 * one_sided_dx(self.w0_profile, hx)),
            lambdas=np.asarray(self.model.lambdas), epsilon=epsilon)


def strip_operator(dev, grid):
    """The 2D screened operator sigma**2 Lap - 1 on the strip."""
    sig2 = dev.sigma ** 2
    return EllipticOperator(grid, cyy=sig2, czz=sig2, cyz=0.0, cy=0.0,
                            c0=-1.0)


def solve_w0_2d(dev, grid, op):
    return op.solve_field(dev.generation(dev.d - grid.y)[:, None])


def solve_datum(dev, op, datum):
    """Solve the strip problem with zero source and u = ``datum`` (nz + 1
    node values) on the first row.

    Exact only for ``op`` from :func:`strip_operator`: it has no cross term
    and no first-order term, so row 1 reaches the first row only through
    its southern entry sigma**2 / hx**2, and that entry times the datum
    moves into row 1's source."""
    grid = op.grid
    source = np.zeros(grid.shape)
    source[1] = dev.sigma ** 2 / grid.hy ** 2 * datum
    field = op.solve_field(source)
    field[0, :grid.nz] = datum[:grid.nz]
    field[0, grid.nz] = datum[0]
    return field


def w2_datum(dev, phi_j, phi_k, dx_j, dx_k):
    """Symmetrized second-order datum of the mode pair (j, k)."""
    return (-0.5 * dev.d * (phi_j * dx_k + phi_k * dx_j)
            + dev.d ** 2 * dev.generation(dev.d) / (2.0 * dev.sigma ** 2)
            * phi_j * phi_k)


def basis_2d(dev, K, nx, nz):
    """Coefficients of the per-mode 2D basis: one 2D solve for w0, each
    w1_k and each symmetrized w2_jk.  Returns (i0, i1, i2 + b)."""
    grid = strip_grid(dev, nx, nz)
    op = strip_operator(dev, grid)
    L = dev.L
    w0 = solve_w0_2d(dev, grid, op)
    dx_w0 = one_sided_dx(w0, grid.hy)
    phis = [mode_shape(k, L, grid.z) for k in range(1, K + 1)]
    w1 = [solve_datum(dev, op, -dev.d * phi * dx_w0) for phi in phis]
    dx_w1 = [one_sided_dx(f, grid.hy) for f in w1]
    i1 = np.array([trapezoid_2d(f, grid) / L for f in w1])
    i2b = np.empty((K, K))
    for j in range(K):
        for k in range(j, K):
            w2 = solve_datum(dev, op, w2_datum(dev, phis[j], phis[k],
                                               dx_w1[j], dx_w1[k]))
            b = dev.d ** 2 / (2.0 * L) * np.trapezoid(
                phis[j] * phis[k] * dx_w0, dx=grid.hz)
            i2b[j, k] = i2b[k, j] = trapezoid_2d(w2, grid) / L + b
    return trapezoid_2d(w0, grid) / L, i1, i2b


class TestLeadingOrder:
    def test_w0_closed_form(self):
        dev = device()
        errs = {}
        for nx in (128, 256):
            basis = DiscreteBasis(dev, model_of(dev, K=1), nx, 8)
            x = basis.grid.y
            exact = 1 - np.cosh((dev.d - x) / dev.sigma) \
                / math.cosh(dev.d / dev.sigma)
            errs[nx] = np.abs(basis.w0 - exact[:, None]).max()
        assert errs[256] < 2e-5
        assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.1)

    def test_w0_z_constant(self):
        # the 2D leading-order solve is z-constant, and equals the 1D one
        dev = device(gen=GenerationProfile.exponential(5.0))
        grid = strip_grid(dev, 32, 32)
        w0 = solve_w0_2d(dev, grid, strip_operator(dev, grid))
        spread = np.abs(w0 - w0[:, :1]).max()
        assert spread < 1e-11
        basis = DiscreteBasis(dev, model_of(dev, K=1), 32, 32)
        assert basis.w0 == pytest.approx(w0, abs=1e-12)

    def test_strip_integral_closed_form(self):
        # constant generation: w0 = 1 - cosh((d - x)/sigma) / cosh(d/sigma),
        # so w0'(0) = t / sigma and int q = sigma t with t = tanh(d/sigma);
        # the order-2 value assembled from them mode by mode, as the module
        # docstring derives it, is the closed form
        dev = device()
        model = model_of(dev, K=1)
        sigma, d = dev.sigma, dev.d
        t = math.tanh(d / sigma)
        i0 = d - sigma * t
        assert flat_pl(dev) == pytest.approx(i0, rel=1e-14)
        slope = t / sigma
        m = math.hypot(1.0 / sigma, 2.0 * math.pi / dev.L)
        c = -d * d * slope * m * math.tanh(m * d) + d * d / (2.0 * sigma ** 2)
        per_mode = 0.5 * c * sigma * t + d * d / 4.0 * slope
        want = i0 + moments(model.dist) * per_mode
        assert closed_form(dev, model, epsilon=1.0) == pytest.approx(
            want, rel=1e-14)

    def test_fine_depth_grid_second_order(self):
        # a depth resolution the 2D basis could not afford: i0 converges to
        # the closed form at second order
        dev = device()
        exact = flat_pl(dev)
        errs = {}
        for nx in (2048, 4096):
            basis = DiscreteBasis(dev, model_of(dev, K=10), nx, 64)
            errs[nx] = abs(basis.approximant().i0 - exact)
        assert errs[4096] < 1e-6 * exact
        assert math.log2(errs[2048] / errs[4096]) == pytest.approx(2.0, abs=0.1)
        # refining depth and period together, i0 and the order-2 E[I] both
        # converge at second order: for a decay length other than sigma, at
        # the resonance ell = sigma, and for a constant plus two exponentials
        for sigma, gen in (
                (2.0, GenerationProfile.exponential(3.0)),
                (5.0, GenerationProfile.exponential(5.0)),
                (2.0, GenerationProfile(terms=((1.0, 3.0), (0.5, 7.0)),
                                        offset=0.3))):
            dev = device(sigma=sigma, gen=gen)
            model = model_of(dev, K=3, hbar=1.0, a=-1.0, b=1.0,
                             lambdas=(1.0, 0.5, 1.0 / 3.0))
            second = moments(model.dist)
            exact = (flat_pl(dev), closed_form(dev, model))
            errs = []
            for nx, nz in ((512, 32), (1024, 64)):
                appr = DiscreteBasis(dev, model, nx, nz).approximant()
                errs.append((abs(appr.i0 - exact[0]),
                             abs(appr.expected(second, 2) - exact[1])))
            for coarse, fine in zip(*errs):
                assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)

    def test_zero_data_zero_solution(self):
        # the homogeneous problem with zero boundary datum is identically
        # zero (the trivial case a vanishing generation profile would hit)
        dev = device()
        grid = strip_grid(dev, 16, 16)
        op = strip_operator(dev, grid)
        assert np.abs(op.solve_field(0.0)).max() == 0.0
        assert np.abs(solve_1d_rhs(dev, 0.0, 16, 0.0)).max() == 0.0


class TestClosedForm:
    def test_smooth_through_resonance(self):
        # C = a ell**2 / (ell**2 - sigma**2) has a pole at sigma = ell that
        # the solution has not: across it (and exactly on it) i0 and E[I]
        # stay on a quadratic in sigma to rounding
        ell = 5.0
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, -1.0,
                                                   UniformDist(-1.0, 1.0))
        ks = np.arange(-10, 11)
        values = []
        for k in ks:
            dev = device(sigma=ell * (1.0 + k * 1e-7), d=10.0,
                         gen=GenerationProfile.exponential(ell))
            values.append((closed_form(dev, model, 0),
                           closed_form(dev, model, 2)))
        for column in np.array(values).T:
            fit = np.polyval(np.polyfit(ks, column, 2), ks)
            assert np.abs(fit / column - 1.0).max() < 1e-13

    @pytest.mark.parametrize("sigma, d", [(5.0, 60.0), (0.5, 100.0)])
    def test_finite_without_warnings_for_thick_films(self, sigma, d):
        # m_k d reaches 1e3 at d = 60, K = 10, L = 4, and d / sigma = 200
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, -1.0,
                                                   UniformDist(-1.0, 1.0))
        dev = device(sigma=sigma, d=d,
                     gen=GenerationProfile(terms=((1.0, d / 2),), offset=0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = expected_pl_with_derivatives(
                dev, ExpansionModes.of(model, dev.L), dev.epsilon(model.hbar),
                2)
        assert all(math.isfinite(v) for v in values)
        assert 0 < values[0] < d * dev.generation(0.0)

    def test_non_finite_coefficient_raises_solver_error(self):
        dev = device(sigma=1e-200, gen=GenerationProfile.exponential(5.0))
        with pytest.raises(SolverError, match="non-finite"):
            closed_form(dev, model_of(dev, K=2))


# expected_pl_with_derivatives as float hex, recorded before the closed form
# took its factors per thickness and per sigma (the provider's caches):
# (generation, sigma, d, order, eps) -> (E[I], dE/dsigma, d2E/dsigma2).
# "exponential" decays over d / 2, so sigma = 5, d = 10 is the resonance
# ell = sigma, the series branch of the flux moments; "offset_two_terms" is
# 0.3 + exp(-s / 5) + 0.5 exp(-s / 2), on the resonance at sigma = 5 too.
PINNED_BITS = {
    ("exponential", 5.0, 10.0, 0, 0.05): (
        "0x1.5585c72074cd9p+1", "-0x1.9c4c76698de5ap-2",
        "0x1.42e976d54b304p-5"),
    ("exponential", 5.0, 10.0, 2, 0.05): (
        "0x1.4e0c29ef55effp+1", "-0x1.9da22c9f3d003p-2",
        "0x1.5ee4e2f3537d3p-5"),
    ("exponential", 5.0, 10.0, 2, 0.25): (
        "0x1.354adaa8e251ep+0", "-0x1.bdab41a7a77dcp-2",
        "0x1.ff3b82e20d578p-4"),
    ("exponential", 2.0, 17.6, 0, 0.05): (
        "0x1.d0920df1cdb72p+2", "-0x1.ce916062c5f06p-3",
        "-0x1.025178e7fab64p-4"),
    ("exponential", 2.0, 17.6, 2, 0.05): (
        "0x1.cac6977652ab3p+2", "-0x1.f7251c4a55564p-3",
        "-0x1.ff3171dda7000p-5"),
    ("exponential", 2.0, 17.6, 2, 0.25): (
        "0x1.3fb37be2c98d2p+2", "-0x1.713fae7ff1b8ap-1",
        "-0x1.7c8d73264cd90p-5"),
    ("offset_two_terms", 5.0, 10.0, 0, 0.05): (
        "0x1.3a3e3e455b081p+2", "-0x1.7f72659ed3f61p-1",
        "0x1.4324f7f56324ep-4"),
    ("offset_two_terms", 5.0, 10.0, 2, 0.05): (
        "0x1.329d5de40b98cp+2", "-0x1.7f79e358f2d5bp-1",
        "0x1.5ab148dff3168p-4"),
    ("offset_two_terms", 5.0, 10.0, 2, 0.25): (
        "0x1.ee21531264a2cp+0", "-0x1.802daccbd7cbcp-1",
        "0x1.c7ec6f6eb8debp-3"),
    ("offset_two_terms", 2.0, 17.6, 0, 0.05): (
        "0x1.4dd389fb4c4fcp+3", "-0x1.8918de7eb5635p-2",
        "-0x1.bb751de5e5e70p-5"),
    ("offset_two_terms", 2.0, 17.6, 2, 0.05): (
        "0x1.48215d3b9b9fdp+3", "-0x1.9ff19eedc4fa5p-2",
        "-0x1.932a9c21c0ee0p-5"),
    ("offset_two_terms", 2.0, 17.6, 2, 0.25): (
        "0x1.7eda56861643ap+2", "-0x1.e221d4ab9d90cp-1",
        "0x1.19e8c720db318p-4"),
}

PINNED_GENERATIONS = {
    "exponential": lambda d: GenerationProfile.exponential(0.5 * d),
    "offset_two_terms": lambda d: GenerationProfile(((1.0, 5.0), (0.5, 2.0)),
                                                    offset=0.3),
}


# flat_pl as float hex, recorded while it still took i0 from the flux with
# its slopes: (generation, sigma, d) -> i0.  Sigma = 5, d = 10 is on the
# resonance of both generations, sigma = 2, d = 17.6 off it.
FLAT_PL_BITS = {
    ("exponential", 5.0, 10.0): "0x1.5585c72074cd9p+1",
    ("exponential", 2.0, 17.6): "0x1.d0920df1cdb72p+2",
    ("offset_two_terms", 5.0, 10.0): "0x1.3a3e3e455b081p+2",
    ("offset_two_terms", 2.0, 17.6): "0x1.4dd389fb4c4fcp+3",
}


class TestPinnedBits:
    @pytest.mark.parametrize("key", list(PINNED_BITS))
    def test_closed_form_keeps_its_bits(self, key):
        generation, sigma, d, order, eps = key
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, -1.0,
                                                   UniformDist(-1.0, 1.0))
        dev = DeviceConfig(sigma, d, 4.0, PINNED_GENERATIONS[generation](d))
        values = expected_pl_with_derivatives(
            dev, ExpansionModes.of(model, 4.0), eps, order)
        assert tuple(v.hex() for v in values) == PINNED_BITS[key]

    @pytest.mark.parametrize("key", list(FLAT_PL_BITS))
    def test_flat_pl_keeps_its_bits(self, key):
        generation, sigma, d = key
        dev = DeviceConfig(sigma, d, 4.0, PINNED_GENERATIONS[generation](d))
        assert flat_pl(dev).hex() == FLAT_PL_BITS[key]


class TestFilm:
    @pytest.mark.parametrize("generation", [
        lambda d: GenerationProfile.constant(1.7),
        *PINNED_GENERATIONS.values()], ids=["constant", *PINNED_GENERATIONS])
    def test_top_is_the_generation_at_d(self, generation):
        # G(d) from the terms (a, mu) rounds apart from exp(-d / ell)
        for d in np.linspace(0.5, 60.0, 120):
            dev = device(d=d, gen=generation(d))
            assert Film.of(dev, 0.1).top == pytest.approx(
                dev.generation(d), rel=1e-14, abs=0.0)


class TestFlatPL:
    @pytest.mark.parametrize("sigma, gen", [
        (5.0, GenerationProfile.exponential(5.0)),
        (5.0, GenerationProfile.exponential(5.0 * (1.0 + 1e-8))),
        (5.0, GenerationProfile.exponential(5.0 * (1.0 - 1e-8))),
        (2.0, GenerationProfile(terms=((1.0, 3.0),), offset=0.3))])
    def test_discrete_solve_converges_at_second_order(self, sigma, gen):
        # the flat-interface solve approaches the closed form at O(h**2),
        # on the resonance ell = sigma, either side of it, and for a
        # constant plus an exponential
        dev = device(sigma=sigma, gen=gen)
        exact = flat_pl(dev)
        errs = [abs(solve_mapped_1d(dev, 0.0, cells).pl - exact)
                for cells in (256, 512, 1024)]
        assert errs[-1] < 1e-6 * exact
        for coarse, fine in zip(errs, errs[1:]):
            assert math.log2(coarse / fine) == pytest.approx(2.0, abs=0.1)

    @pytest.mark.parametrize("sigma, d", [
        (sigma, d) for sigma in (3.1, 5.0, 7.5) for d in (8.2, 10.0, 40.0)])
    def test_is_the_expansions_leading_term(self, sigma, d):
        # one formula: flat_pl is the expansion's order-0 value, bit for bit
        dev = device(sigma=sigma, d=d,
                     gen=GenerationProfile.exponential(d / 2))
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, -2.0,
                                                   UniformDist(-1.0, 1.0))
        modes = ExpansionModes.of(model, dev.L)
        value = flat_pl(dev)
        assert value.hex() == expected_pl_with_derivatives(
            dev, modes, 0.1, 0)[0].hex()


class TestFirstOrder:
    def test_zero_boundary_slope_gives_zero_mode(self):
        dev = device()
        grid = strip_grid(dev, 16, 16)
        flat = np.ones(grid.shape)  # one-sided slope is zero
        datum = -dev.d * mode_shape(1, dev.L, grid.z) \
            * one_sided_dx(flat, grid.hy)
        w1 = solve_datum(dev, strip_operator(dev, grid), datum)
        assert np.abs(w1).max() < 1e-14
        f1 = solve_depth(dev, 16, 0.0, shift=-5.0,
                         dirichlet=-dev.d * one_sided_dx(flat, grid.hy)[0])
        assert np.abs(f1).max() < 1e-14

    def test_linearity_in_datum(self):
        # tripling the generation triples w0, hence every mode datum
        one = DiscreteBasis(device(), model_of(device(), K=3), 24, 24)
        dev3 = device(gen=GenerationProfile.constant(3.0))
        three = DiscreteBasis(dev3, model_of(dev3, K=3), 24, 24)
        assert three.modes == pytest.approx(3.0 * one.modes, abs=1e-12)
        assert three.w1[1] == pytest.approx(3.0 * one.w1[1], abs=1e-12)
        # the closed form, with its sigma-derivatives, is linear in G too
        closed = [expected_pl_with_derivatives(
            dev, ExpansionModes.of(model_of(dev, K=3), dev.L), 0.5, 2)
            for dev in (device(), dev3)]
        assert closed[1] == pytest.approx(
            tuple(3.0 * v for v in closed[0]), rel=1e-14)

    def test_mode_reconstruction_matches_direct_solve(self):
        # superposing the per-mode outer products equals the 2D solve with
        # the full random boundary datum in one shot
        dev = device(sigma=3.0, gen=GenerationProfile.exponential(5.0))
        model = model_of(dev, K=3, a=-1.0, b=1.0)
        theta = sample(model, 5)
        basis = DiscreteBasis(dev, model, 32, 32)
        grid = basis.grid
        lam_th = np.array(model.lambdas) * np.array(theta.thetas)
        combo = sum(c * w for c, w in zip(lam_th, basis.w1))

        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        htilde = sum(lam_th[k] * mode_shape(k + 1, dev.L, grid.z)
                     for k in range(3))
        direct = solve_datum(
            dev, op, -dev.d * htilde * one_sided_dx(w0, grid.hy))
        assert direct == pytest.approx(combo, abs=1e-11)


class TestSecondOrder:
    def test_symmetrized_assembly_matches_direct_solve(self):
        # pathwise: the diagonal coefficients contracted with
        # (lam_k theta_k)**2 equal the strip and boundary integrals of the
        # 2D solve with the full quadratic datum of one coefficient draw
        dev = device(sigma=3.0, gen=GenerationProfile.exponential(4.0))
        model = model_of(dev, K=3, a=-1.0, b=1.0)
        theta = sample(model, 11)
        appr = DiscreteBasis(dev, model, 32, 32).approximant(epsilon=1.0)
        second = appr.pathwise(theta, 2) - appr.i0

        grid = strip_grid(dev, 32, 32)
        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        dx_w0 = one_sided_dx(w0, grid.hy)
        lam_th = np.array(model.lambdas) * np.array(theta.thetas)
        htilde = sum(lam_th[k] * mode_shape(k + 1, dev.L, grid.z)
                     for k in range(3))
        w1 = solve_datum(dev, op, -dev.d * htilde * dx_w0)
        dx_w1 = one_sided_dx(w1, grid.hy)
        datum = (-dev.d * htilde * dx_w1
                 + (dev.d * htilde) ** 2 / (2 * dev.sigma ** 2)
                 * dev.generation(dev.d))
        direct = solve_datum(dev, op, datum)
        want = trapezoid_2d(direct, grid) / dev.L + dev.d ** 2 / (2 * dev.L) \
            * np.trapezoid(htilde ** 2 * dx_w0, dx=grid.hz)
        assert second == pytest.approx(want, rel=1e-11)

    def test_boundary_datum_vanishes_at_mode_nodes(self):
        dev = device()
        grid = strip_grid(dev, 16, 16)
        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        phi = mode_shape(1, dev.L, grid.z)
        w1 = solve_datum(dev, op, -dev.d * phi * one_sided_dx(w0, grid.hy))
        dx_w1 = one_sided_dx(w1, grid.hy)
        w2 = solve_datum(dev, op, w2_datum(dev, phi, phi, dx_w1, dx_w1))
        # phi_1 vanishes at z = 0 and z = L/2, hence so does the datum
        assert w2[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert w2[0, grid.nz // 2] == pytest.approx(0.0, abs=1e-12)
        appr = DiscreteBasis(dev, model_of(dev, K=1), 16, 16).approximant()
        assert appr.i2[0] == pytest.approx(trapezoid_2d(w2, grid) / dev.L,
                                           rel=1e-11)


class TestAgainst2DBasis:
    @pytest.mark.parametrize("sigma, d, K, nx, nz", [
        (5.0, 40.0, 5, 64, 64),
        (5.0, 100.0, 10, 201, 64),
        (2.0, 10.0, 3, 128, 128),
        (5.0, 25.0, 10, 64, 64),
    ])
    def test_coefficients_match(self, sigma, d, K, nx, nz):
        dev = DeviceConfig(sigma, d, 4.0, GenerationProfile.exponential(d / 2))
        i0, i1, i2b = basis_2d(dev, K, nx, nz)
        appr = DiscreteBasis(dev, model_of(dev, K=K), nx, nz).approximant()
        assert appr.i0 == pytest.approx(i0, rel=1e-11)
        diag = np.diag(i2b)
        assert appr.i2 + appr.boundary == pytest.approx(diag, rel=1e-11)
        # what the 1D design drops: the strip integrals of w1_k and the
        # off-diagonal second-order coefficients
        assert np.abs(i1).max() < 1e-12 * i0
        offdiag = i2b - np.diag(diag)
        assert np.abs(offdiag).max() < 1e-12 * np.abs(diag).max()


class TestApproximant:
    def test_epsilon_zero_all_orders_agree(self):
        dev = device()
        model = model_of(dev)
        assert closed_form(dev, model, 0, epsilon=0.0) \
            == closed_form(dev, model, 1, epsilon=0.0) \
            == closed_form(dev, model, 2, epsilon=0.0) == flat_pl(dev)

    def test_symmetric_order1_equals_order0_bitwise(self):
        dev = device(gen=GenerationProfile.exponential(5.0))
        modes = ExpansionModes.of(model_of(dev, K=4, a=-1.0, b=1.0), dev.L)
        assert expected_pl_with_derivatives(dev, modes, 0.05, 0) \
            == expected_pl_with_derivatives(dev, modes, 0.05, 1)

    def test_order1_moment_arithmetic(self):
        # i1 vanishes, so order 1 adds nothing even for a nonzero mean: the
        # first-order moment term built from the 2D per-mode strip integral
        # leaves i0 unchanged
        dev = device()
        model = model_of(dev, K=1, a=0.0, b=1.0)
        i0 = flat_pl(dev)
        _, i1, _ = basis_2d(dev, 1, 16, 16)
        # 0.5 is the mean of U(0, 1)
        want = i0 + 0.1 * 0.5 * model.lambdas[0] * i1[0]
        value = closed_form(dev, model, 1, epsilon=0.1)
        assert value == pytest.approx(want, rel=1e-15)
        assert value == i0

    def test_mode_integrals_vanish(self):
        # 2D strip integrals of w1_k are sine averages, zero to roundoff
        dev = device(gen=GenerationProfile.exponential(5.0))
        i0, i1, _ = basis_2d(dev, 3, 32, 32)
        assert np.abs(i1).max() < 1e-12

    def test_boundary_coefficients_diagonal(self):
        # dx w0(0, .) is z-constant, so the line integrals hit the discrete
        # sine orthogonality: (L/2) delta_jk times the slope
        dev = device()
        model = model_of(dev, K=3)
        basis = DiscreteBasis(dev, model, 64, 32)
        appr = basis.approximant()
        slope = basis.dx_w0[0]
        want_diag = dev.d ** 2 / (2 * dev.L) * (dev.L / 2) * slope
        phis = [mode_shape(k, dev.L, basis.grid.z) for k in (1, 2, 3)]
        lines = np.array([[dev.d ** 2 / (2 * dev.L) * np.trapezoid(
            pj * pk * basis.dx_w0, dx=basis.grid.hz) for pk in phis]
            for pj in phis])
        offdiag = lines - np.diag(np.diag(lines))
        assert np.abs(offdiag).max() < 1e-10 * abs(want_diag)
        assert np.diag(lines) == pytest.approx(appr.boundary, rel=1e-10)
        assert appr.boundary == pytest.approx(np.full(3, want_diag),
                                              rel=1e-10)

    def test_unsupported_order(self):
        dev = device()
        with pytest.raises(ValueError, match="order"):
            closed_form(dev, model_of(dev, K=1), 3)


class TestOrders:
    def test_pathwise_second_order_error(self):
        # against the mapped solver on a matched grid; the error of the
        # order-2 approximant is cubic in the roughness size
        L = 64.0
        dev = DeviceConfig(12.0, 10.0, L, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, L, 1, (1.0,), UniformDist(0.0, 1.0))
        th = InterfaceSample((0.8,))
        basis = DiscreteBasis(dev, model, 128, 64)
        gridf = Grid2D.unit(128, 64)
        eps_values = [2.0 ** -k for k in range(2, 6)]
        errs0, errs2 = [], []
        for eps in eps_values:
            m = dataclasses.replace(model, hbar=eps * dev.d)
            pl = solve_mapped_2d(dev, m, th, gridf).pl
            appr = basis.approximant(epsilon=eps)
            errs0.append(abs(appr.pathwise(th, 0) - pl))
            errs2.append(abs(appr.pathwise(th, 2) - pl))
        slope0 = np.polyfit(np.log(eps_values), np.log(errs0), 1)[0]
        slope2 = np.polyfit(np.log(eps_values), np.log(errs2), 1)[0]
        assert slope0 > 0.8
        assert slope2 > 2.5

    def test_first_order_field_error(self):
        # pathwise field comparison on the strip: interpolate the mapped
        # solution back to strip nodes, compare with w0 + eps*w1
        L = 64.0
        dev = DeviceConfig(12.0, 10.0, L, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, L, 1, (1.0,), UniformDist(0.0, 1.0))
        th = InterfaceSample((0.8,))
        basis = DiscreteBasis(dev, model, 128, 64)
        gridf = Grid2D.unit(128, 64)
        eps_values = [2.0 ** -k for k in range(2, 6)]
        errs = []
        for eps in eps_values:
            m = dataclasses.replace(model, hbar=eps * dev.d)
            sol = solve_mapped_2d(dev, m, th, gridf)
            h = iface.profile(m, th, L * gridf.z)[0]
            v1 = basis.w0 + eps * model.lambdas[0] * th.thetas[0] * basis.w1[0]
            worst = 0.0
            for j in range(gridf.nz + 1):
                xm = h[j] + gridf.y * (dev.d - h[j])
                spline = CubicSpline(xm, sol.field[:, j])
                mask = basis.grid.y >= max(h[j], 0.0)
                worst = max(worst, np.abs(
                    spline(basis.grid.y[mask]) - v1[mask, j]).max())
            errs.append(worst)
        slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
        assert slope > 1.8
