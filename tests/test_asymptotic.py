"""Expansion basis solves, approximant assembly, and order checks.

The mode-separated basis is checked against the 2D problems it separates,
assembled straight from the fd core (oracles that do not share the 1D code
path): the full random-datum problems and the per-mode 2D basis.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from exdil import interface as iface
from exdil.asymptotic import (assemble_approximant, build_basis,
                              expansion_grid, expected_pl, mode_shape,
                              sampled_pl)
from exdil.fd_core import (EllipticOperator, Field2D, Grid2D, PdeCoefficients,
                           one_sided_dx_at_boundary, trapezoid_2d)
from exdil.forward_mapped import (DeviceConfig, GenerationProfile,
                                  solve_1d_rhs, solve_mapped_2d)
from exdil.interface import InterfaceModel, InterfaceSample, UniformDist, \
    moments, sample


def device(sigma=2.0, d=10.0, L=4.0, gen=None):
    return DeviceConfig(sigma, d, L, gen or GenerationProfile.constant(1.0))


def model_of(dev, K=3, hbar=0.5, a=0.0, b=1.0, lambdas=None):
    return InterfaceModel(hbar, dev.L, K, lambdas or (1.0,) * K,
                          UniformDist(a, b))


def strip_operator(dev, grid):
    """The 2D screened operator sigma**2 Lap - 1 on the strip."""
    sig2 = dev.sigma ** 2
    return EllipticOperator(grid, PdeCoefficients(cyy=sig2, czz=sig2, c0=-1.0))


def solve_w0_2d(dev, grid, op):
    return op.solve_field(dev.generation(dev.d - grid.y)[:, None], 0.0)


def w2_datum(dev, phi_j, phi_k, dx_j, dx_k):
    """Symmetrized second-order datum of the mode pair (j, k)."""
    return (-0.5 * dev.d * (phi_j * dx_k + phi_k * dx_j)
            + dev.d ** 2 * dev.generation(dev.d) / (2.0 * dev.sigma ** 2)
            * phi_j * phi_k)


def basis_2d(dev, K, nx, nz):
    """Coefficients of the per-mode 2D basis: one 2D solve for w0, each
    w1_k and each symmetrized w2_jk.  Returns (i0, i1, i2 + b)."""
    grid = expansion_grid(dev, nx, nz)
    op = strip_operator(dev, grid)
    L = dev.L
    w0 = solve_w0_2d(dev, grid, op)
    dx_w0 = one_sided_dx_at_boundary(w0.values, w0.grid.hy)
    phis = [mode_shape(k, L, grid.z) for k in range(1, K + 1)]
    w1 = [op.solve_field(0.0, -dev.d * phi * dx_w0) for phi in phis]
    dx_w1 = [one_sided_dx_at_boundary(f.values, f.grid.hy) for f in w1]
    i1 = np.array([trapezoid_2d(f) / L for f in w1])
    i2b = np.empty((K, K))
    for j in range(K):
        for k in range(j, K):
            w2 = op.solve_field(0.0, w2_datum(dev, phis[j], phis[k],
                                              dx_w1[j], dx_w1[k]))
            b = dev.d ** 2 / (2.0 * L) * np.trapezoid(
                phis[j] * phis[k] * dx_w0, dx=grid.hz)
            i2b[j, k] = i2b[k, j] = trapezoid_2d(w2) / L + b
    return trapezoid_2d(w0) / L, i1, i2b


class TestLeadingOrder:
    def test_w0_closed_form(self):
        dev = device()
        errs = {}
        for nx in (128, 256):
            basis = build_basis(dev, model_of(dev, K=1), nx=nx, nz=8)
            x = basis.grid.y
            exact = 1 - np.cosh((dev.d - x) / dev.sigma) \
                / math.cosh(dev.d / dev.sigma)
            errs[nx] = np.abs(basis.w0.values - exact[:, None]).max()
        assert errs[256] < 2e-5
        assert errs[128] / errs[256] == pytest.approx(4.0, rel=0.1)

    def test_w0_z_constant(self):
        # the 2D leading-order solve is z-constant, and equals the 1D one
        dev = device(gen=GenerationProfile.exponential(5.0))
        grid = expansion_grid(dev, 32, 32)
        w0 = solve_w0_2d(dev, grid, strip_operator(dev, grid))
        spread = np.abs(w0.values - w0.values[:, :1]).max()
        assert spread < 1e-11
        basis = build_basis(dev, model_of(dev, K=1), nx=32, nz=32)
        assert basis.w0.values == pytest.approx(w0.values, abs=1e-12)

    def test_strip_integral_closed_form(self):
        dev = device()
        basis = build_basis(dev, model_of(dev, K=1), nx=512, nz=8)
        appr = assemble_approximant(basis, epsilon=0.0)
        exact = dev.d - dev.sigma * math.tanh(dev.d / dev.sigma)
        assert appr.i0 == pytest.approx(exact, rel=1e-5)

    def test_fine_depth_grid_second_order(self):
        # a depth resolution the 2D basis could not afford: i0 converges to
        # the closed form at second order
        dev = device()
        exact = dev.d - dev.sigma * math.tanh(dev.d / dev.sigma)
        errs = {}
        for nx in (2048, 4096):
            basis = build_basis(dev, model_of(dev, K=10), nx=nx, nz=64)
            errs[nx] = abs(assemble_approximant(basis).i0 - exact)
        assert errs[4096] < 1e-6 * exact
        assert math.log2(errs[2048] / errs[4096]) == pytest.approx(2.0, abs=0.1)

    def test_zero_data_zero_solution(self):
        # the homogeneous problem with zero boundary datum is identically
        # zero (the trivial case a vanishing generation profile would hit)
        dev = device()
        grid = expansion_grid(dev, 16, 16)
        op = strip_operator(dev, grid)
        assert np.abs(op.solve_field(0.0, 0.0).values).max() == 0.0
        assert np.abs(solve_1d_rhs(dev, 0.0, 16, 0.0)).max() == 0.0


class TestFirstOrder:
    def test_zero_boundary_slope_gives_zero_mode(self):
        dev = device()
        grid = expansion_grid(dev, 16, 16)
        flat = Field2D(grid, np.ones(grid.shape))  # one-sided slope is zero
        datum = -dev.d * mode_shape(1, dev.L, grid.z) \
            * one_sided_dx_at_boundary(flat.values, grid.hy)
        w1 = strip_operator(dev, grid).solve_field(0.0, datum)
        assert np.abs(w1.values).max() < 1e-14
        f1 = solve_1d_rhs(dev, 0.0, 16, 0.0, shift=-5.0,
                          dirichlet=-dev.d * one_sided_dx_at_boundary(
                              flat.values, grid.hy)[0])
        assert np.abs(f1).max() < 1e-14

    def test_linearity_in_datum(self):
        # tripling the generation triples w0, hence every mode datum
        one = build_basis(device(), model_of(device(), K=3), nx=24, nz=24)
        dev3 = device(gen=GenerationProfile.constant(3.0))
        three = build_basis(dev3, model_of(dev3, K=3), nx=24, nz=24)
        assert three.modes == pytest.approx(3.0 * one.modes, abs=1e-12)
        assert three.w1[1].values == pytest.approx(3.0 * one.w1[1].values,
                                                   abs=1e-12)

    def test_mode_reconstruction_matches_direct_solve(self):
        # superposing the per-mode outer products equals the 2D solve with
        # the full random boundary datum in one shot
        dev = device(sigma=3.0, gen=GenerationProfile.exponential(5.0))
        model = model_of(dev, K=3, a=-1.0, b=1.0)
        theta = sample(model, 5)
        basis = build_basis(dev, model, nx=32, nz=32)
        grid = basis.grid
        lam_th = np.array(model.lambdas) * np.array(theta.thetas)
        combo = sum(c * w.values for c, w in zip(lam_th, basis.w1))

        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        htilde = sum(lam_th[k] * mode_shape(k + 1, dev.L, grid.z)
                     for k in range(3))
        direct = op.solve_field(
            0.0, -dev.d * htilde * one_sided_dx_at_boundary(w0.values,
                                                            grid.hy))
        assert direct.values == pytest.approx(combo, abs=1e-11)


class TestSecondOrder:
    def test_symmetrized_assembly_matches_direct_solve(self):
        # pathwise: the diagonal coefficients contracted with
        # (lam_k theta_k)**2 equal the strip and boundary integrals of the
        # 2D solve with the full quadratic datum of one coefficient draw
        dev = device(sigma=3.0, gen=GenerationProfile.exponential(4.0))
        model = model_of(dev, K=3, a=-1.0, b=1.0)
        theta = sample(model, 11)
        appr = assemble_approximant(build_basis(dev, model, nx=32, nz=32),
                                    epsilon=1.0)
        second = sampled_pl(appr, theta, 2) - appr.i0

        grid = expansion_grid(dev, 32, 32)
        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        dx_w0 = one_sided_dx_at_boundary(w0.values, w0.grid.hy)
        lam_th = np.array(model.lambdas) * np.array(theta.thetas)
        htilde = sum(lam_th[k] * mode_shape(k + 1, dev.L, grid.z)
                     for k in range(3))
        w1 = op.solve_field(0.0, -dev.d * htilde * dx_w0)
        dx_w1 = one_sided_dx_at_boundary(w1.values, w1.grid.hy)
        datum = (-dev.d * htilde * dx_w1
                 + (dev.d * htilde) ** 2 / (2 * dev.sigma ** 2)
                 * dev.generation(dev.d))
        direct = op.solve_field(0.0, datum)
        want = trapezoid_2d(direct) / dev.L + dev.d ** 2 / (2 * dev.L) \
            * np.trapezoid(htilde ** 2 * dx_w0, dx=grid.hz)
        assert second == pytest.approx(want, rel=1e-11)

    def test_boundary_datum_vanishes_at_mode_nodes(self):
        dev = device()
        grid = expansion_grid(dev, 16, 16)
        op = strip_operator(dev, grid)
        w0 = solve_w0_2d(dev, grid, op)
        phi = mode_shape(1, dev.L, grid.z)
        w1 = op.solve_field(
            0.0, -dev.d * phi * one_sided_dx_at_boundary(w0.values, grid.hy))
        dx_w1 = one_sided_dx_at_boundary(w1.values, w1.grid.hy)
        w2 = op.solve_field(0.0, w2_datum(dev, phi, phi, dx_w1, dx_w1))
        # phi_1 vanishes at z = 0 and z = L/2, hence so does the datum
        assert w2.values[0, 0] == pytest.approx(0.0, abs=1e-13)
        assert w2.values[0, grid.nz // 2] == pytest.approx(0.0, abs=1e-12)
        appr = assemble_approximant(build_basis(dev, model_of(dev, K=1),
                                                nx=16, nz=16))
        assert appr.i2[0] == pytest.approx(trapezoid_2d(w2) / dev.L,
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
        basis = build_basis(dev, model_of(dev, K=K), nx=nx, nz=nz)
        appr = assemble_approximant(basis)
        assert basis.solve_count == 2 + K
        assert appr.i0 == pytest.approx(i0, rel=1e-11)
        diag = np.diag(i2b)
        assert appr.i2 + appr.boundary == pytest.approx(diag, rel=1e-11)
        # what the 1D design drops: the strip integrals of w1_k and the
        # off-diagonal second-order coefficients
        assert np.abs(i1).max() < 1e-12 * i0
        offdiag = i2b - np.diag(diag)
        assert np.abs(offdiag).max() < 1e-12 * np.abs(diag).max()

    def test_aliasing_guard(self):
        dev = device()
        with pytest.raises(ValueError, match="alias"):
            build_basis(dev, model_of(dev, K=8), nx=16, nz=16)
        assert build_basis(dev, model_of(dev, K=7), nx=16, nz=16) \
            .solve_count == 9

    def test_grid_must_span_strip(self):
        dev = device()
        with pytest.raises(ValueError, match="span"):
            build_basis(dev, model_of(dev, K=1), grid=Grid2D.unit(16))


class TestApproximant:
    def test_epsilon_zero_all_orders_agree(self):
        dev = device()
        basis = build_basis(dev, model_of(dev), nx=16, nz=16)
        appr = assemble_approximant(basis, epsilon=0.0)
        mom = moments(UniformDist(0.0, 1.0))
        assert expected_pl(appr, mom, 0) == expected_pl(appr, mom, 1) \
            == expected_pl(appr, mom, 2) == appr.i0

    def test_symmetric_order1_equals_order0_bitwise(self):
        dev = device(gen=GenerationProfile.exponential(5.0))
        model = model_of(dev, K=4, a=-1.0, b=1.0)
        basis = build_basis(dev, model, nx=32, nz=32)
        appr = assemble_approximant(basis, epsilon=0.05)
        mom = moments(model.dist)
        assert expected_pl(appr, mom, 0) == expected_pl(appr, mom, 1)

    def test_order1_moment_arithmetic(self):
        # i1 vanishes, so order 1 adds nothing even for a nonzero mean: the
        # first-order moment term built from the 2D per-mode strip integral
        # leaves i0 unchanged
        dev = device()
        model = model_of(dev, K=1, a=0.0, b=1.0)
        basis = build_basis(dev, model, nx=16, nz=16)
        appr = assemble_approximant(basis, epsilon=0.1)
        assert moments(model.dist).mean == 0.5
        _, i1, _ = basis_2d(dev, 1, 16, 16)
        want = appr.i0 + 0.1 * 0.5 * appr.lambdas[0] * i1[0]
        assert expected_pl(appr, moments(model.dist), 1) == pytest.approx(
            want, rel=1e-15)
        assert expected_pl(appr, moments(model.dist), 1) == appr.i0
        assert sampled_pl(appr, InterfaceSample((0.7,)), 1) == appr.i0

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
        basis = build_basis(dev, model, nx=64, nz=32)
        appr = assemble_approximant(basis)
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

    def test_sampled_at_zero_is_i0(self):
        dev = device()
        basis = build_basis(dev, model_of(dev, K=2), nx=16, nz=16)
        appr = assemble_approximant(basis, epsilon=0.2)
        assert sampled_pl(appr, InterfaceSample((0.0, 0.0)), 2) == appr.i0

    def test_unsupported_order(self):
        dev = device()
        basis = build_basis(dev, model_of(dev, K=1), nx=16, nz=16)
        appr = assemble_approximant(basis)
        with pytest.raises(ValueError, match="order"):
            expected_pl(appr, moments(UniformDist(0, 1)), 3)

    def test_solve_count_identity(self):
        dev = device()
        for K in (1, 2, 5):
            basis = build_basis(dev, model_of(dev, K=K), nx=16, nz=16)
            assert basis.solve_count == 2 + K
            assert len(basis.w1) == K
            assert basis.modes.shape == (K, 17)


class TestOrders:
    def test_pathwise_second_order_error(self):
        # against the mapped solver on a matched grid; the error of the
        # order-2 approximant is cubic in the roughness size
        L = 64.0
        dev = DeviceConfig(12.0, 10.0, L, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, L, 1, (1.0,), UniformDist(0.0, 1.0))
        th = InterfaceSample((0.8,))
        basis = build_basis(dev, model, nx=128, nz=64)
        gridf = Grid2D.unit(128, 64)
        eps_values = [2.0 ** -k for k in range(2, 6)]
        errs0, errs2 = [], []
        for eps in eps_values:
            m = dataclasses.replace(model, hbar=eps * dev.d)
            pl = solve_mapped_2d(dev, m, th, gridf).pl
            appr = assemble_approximant(basis, epsilon=eps)
            errs0.append(abs(sampled_pl(appr, th, 0) - pl))
            errs2.append(abs(sampled_pl(appr, th, 2) - pl))
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
        basis = build_basis(dev, model, nx=128, nz=64)
        gridf = Grid2D.unit(128, 64)
        eps_values = [2.0 ** -k for k in range(2, 6)]
        errs = []
        for eps in eps_values:
            m = dataclasses.replace(model, hbar=eps * dev.d)
            sol = solve_mapped_2d(dev, m, th, gridf)
            h = iface.evaluate(m, th, L * gridf.z)
            v1 = (basis.w0.values
                  + eps * model.lambdas[0] * th.thetas[0] * basis.w1[0].values)
            worst = 0.0
            for j in range(gridf.nz + 1):
                xm = h[j] + gridf.y * (dev.d - h[j])
                spline = CubicSpline(xm, sol.field.values[:, j])
                mask = basis.grid.y >= max(h[j], 0.0)
                worst = max(worst, np.abs(
                    spline(basis.grid.y[mask]) - v1[mask, j]).max())
            errs.append(worst)
        slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
        assert slope > 1.8
