"""Mapped forward solves against closed forms and reductions."""

import math

import numpy as np
import pytest
import scipy.sparse.linalg
from test_asymptotic import solve_depth

from exdil import fd_core, forward_mapped
from exdil.collocation import (MONTE_CARLO, SMOLYAK, TENSOR_GL,
                               CollocationError, build_rule, expect)
from exdil.fd_core import Grid2D, SolverError, trapezoid_2d
from exdil.forward_mapped import (DeviceConfig, DomainValidityError,
                                  GenerationProfile, expected_mapped_pl,
                                  sensitivities_mapped, solve_1d_rhs,
                                  solve_mapped_1d, solve_mapped_2d,
                                  solve_mapped_profile, symmetry_folded_rule)
from exdil.interface import InterfaceModel, InterfaceSample, UniformDist, \
    profile, sample


def closed_form_pl(sigma, d):
    # flat interface, constant unit generation:
    # u = 1 - cosh((d-x)/sigma)/cosh(d/sigma), integral d - sigma tanh(d/sigma)
    return d - sigma * math.tanh(d / sigma)


def flat_device(sigma=2.0, d=10.0, L=4.0):
    return DeviceConfig(sigma, d, L, GenerationProfile.constant(1.0))


class TestGenerationProfile:
    def test_constant(self):
        g = GenerationProfile.constant(2.0)
        assert g(0.0) == 2.0 and g(5.0) == 2.0

    def test_exponential_decreasing(self):
        g = GenerationProfile.exponential(3.0)
        xs = np.linspace(0, 10, 50)
        vals = g(xs)
        assert np.all(np.diff(vals) < 0)
        assert np.all(vals > 0)

    def test_exp_sum(self):
        g = GenerationProfile(terms=((1.0, 2.0), (0.5, 7.0)))
        assert g(0.0) == pytest.approx(1.5)
        assert g(2.0) == pytest.approx(math.exp(-1) + 0.5 * math.exp(-2 / 7))

    @pytest.mark.parametrize("g", [
        GenerationProfile.constant(2.0),
        GenerationProfile.exponential(5.0),
        GenerationProfile.exponential(0.3, amplitude=7.0),
        GenerationProfile(terms=((1.0, 3.0), (0.5, 0.7)), offset=0.25)])
    def test_float_path_matches_array_path_bitwise(self, g):
        xs = np.concatenate([np.linspace(0.0, 200.0, 801),
                             [1e-300, 5e-324, 1e300, np.inf]])
        array = g(xs)
        for x, expected in zip(xs.tolist(), array.tolist()):
            value = g(x)
            assert type(value) is float
            assert value.hex() == g(np.asarray(x)).hex() == expected.hex()

    def test_validation(self):
        with pytest.raises(ValueError):
            GenerationProfile(terms=((0.0, 1.0),))
        with pytest.raises(ValueError):
            GenerationProfile(terms=((1.0, -1.0),))
        with pytest.raises(ValueError):
            GenerationProfile()


class TestSolve1D:
    def test_closed_form(self):
        sol = solve_mapped_1d(flat_device(), 0.0, 512)
        assert sol.pl == pytest.approx(closed_form_pl(2.0, 10.0), rel=1e-5)

    def test_closed_form_fine(self):
        # criterion-grade check: 1e-6 relative at 512 cells is comfortable
        # for sigma = 2; tighten the grid for the acceptance tolerance
        sol = solve_mapped_1d(flat_device(), 0.0, 2048)
        assert sol.pl == pytest.approx(closed_form_pl(2.0, 10.0), rel=1e-6)

    def test_offset_half(self):
        d, sigma = 10.0, 2.0
        sol = solve_mapped_1d(flat_device(sigma, d), d / 2, 1024)
        assert sol.pl == pytest.approx(closed_form_pl(sigma, d / 2), rel=1e-6)

    def test_huge_sigma_limit(self):
        # d - sigma tanh(d/sigma) -> d**3/(3 sigma**2) for sigma >> d
        d, sigma = 10.0, 1e4
        sol = solve_mapped_1d(flat_device(sigma, d), 0.0, 512)
        assert sol.pl > 0
        assert sol.pl == pytest.approx(d ** 3 / (3 * sigma ** 2), rel=1e-3)

    def test_offset_above_film(self):
        with pytest.raises(DomainValidityError):
            solve_mapped_1d(flat_device(), 11.0)

    def test_solution_keeps_its_source(self):
        # the sensitivity solves read G on the nodes from the solution
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        sol = solve_mapped_1d(dev, 1.5, 64)
        assert np.array_equal(sol.source,
                              dev.generation((1.0 - sol.y) * (dev.d - 1.5)))

    def test_residual_check_rejects_bad_solution(self, monkeypatch):
        # one entry off by 1e-6 fails the relative-residual check the 2D
        # path applies as well
        exact = forward_mapped._sine_solve

        def perturbed(c, b):
            x = exact(c, b)
            x[x.size // 2] += 1e-6
            return x

        monkeypatch.setattr(forward_mapped, "_sine_solve", perturbed)
        with pytest.raises(SolverError, match="residual"):
            solve_mapped_1d(flat_device(), 0.0, 512)

    @pytest.mark.parametrize("cells", [4, 5, 16, 511, 2048])
    @pytest.mark.parametrize("sigma", [0.5, 5.0, 1e4])
    @pytest.mark.parametrize("half", [False, True])
    @pytest.mark.parametrize("generation", [
        GenerationProfile.exponential(5.0), GenerationProfile.constant(1.0)])
    def test_sine_solve_matches_banded_lu(self, cells, sigma, half,
                                          generation):
        # the oracle solves on (0, d - xi) by a banded LU; the 1e-11 covers
        # the LU's own rounding, up to 2.7e-12 at 2048 cells
        d = 10.0
        xi = d / 2 if half else 0.0
        dev = DeviceConfig(sigma, d, 4.0, generation)
        width = DeviceConfig(sigma, d - xi, 4.0, generation)
        source = generation((1.0 - np.arange(cells + 1) / cells) * (d - xi))
        got = solve_1d_rhs(dev, xi, cells, source)
        want = solve_depth(width, cells, source)
        assert got[0] == 0.0
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="long double is double on this platform")
    @pytest.mark.parametrize("sigma", [0.5, 2.0, 5.0, 1e4])
    @pytest.mark.parametrize("generation", [
        GenerationProfile.exponential(5.0), GenerationProfile.constant(1.0)])
    def test_pl_matches_extended_precision_thomas(self, sigma, generation):
        # the same discrete problem eliminated in long double; the banded
        # LU in double is off by up to 1.7e-12 here
        cells = 2048
        dev = DeviceConfig(sigma, 10.0, 4.0, generation)
        sol = solve_mapped_1d(dev, 0.0, cells)
        c = np.longdouble(sigma ** 2 / (dev.d * (1.0 / cells)) ** 2)
        b = -sol.source[1:].astype(np.longdouble)
        diag = -2 * c - 1
        upper = np.zeros(cells, dtype=np.longdouble)
        rhs = np.zeros(cells, dtype=np.longdouble)
        upper[0], rhs[0] = c / diag, b[0] / diag
        for i in range(1, cells):
            lower = 2 * c if i == cells - 1 else c
            pivot = diag - lower * upper[i - 1]
            upper[i] = c / pivot
            rhs[i] = (b[i] - lower * rhs[i - 1]) / pivot
        x = rhs.copy()
        for i in range(cells - 2, -1, -1):
            x[i] -= upper[i] * x[i + 1]
        exact = dev.d * (x.sum() - x[-1] / 2) / cells
        assert abs(sol.pl - float(exact)) <= 1e-14 * float(exact)


class TestSolve2D:
    def test_flat_equals_1d_columnwise(self):
        dev = flat_device()
        model = InterfaceModel(0.5, 4.0, 3, (1.0,) * 3, UniformDist(0, 1))
        grid = Grid2D.unit(32, 16)
        sol2 = solve_mapped_2d(dev, model, InterfaceSample((0.0,) * 3), grid)
        sol1 = solve_mapped_1d(dev, 0.0, 32)
        assert np.abs(sol2.field - sol1.values[:, None]).max() < 1e-10
        assert sol2.pl == pytest.approx(sol1.pl, rel=1e-12)

    def test_constant_profile_equals_1d(self):
        dev = flat_device()
        grid = Grid2D.unit(48, 8)
        xi = 3.0
        sol2 = solve_mapped_profile(dev, grid, xi, 0.0, 0.0)
        sol1 = solve_mapped_1d(dev, xi, 48)
        assert sol2.pl == pytest.approx(sol1.pl, rel=1e-8)

    @pytest.mark.parametrize("nz", [8, 16, 20])
    def test_unresolved_modes_rejected(self, nz):
        # at nz = 2K = 20 the top mode is sampled at its zeros, so the solve
        # would see a flat interface; below that the modes alias
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        model = InterfaceModel(0.5, 4.0, 10, (1.0,) * 10, UniformDist(-1, 1))
        theta = InterfaceSample((0.0,) * 9 + (1.0,))
        with pytest.raises(ValueError, match="more than 20 z intervals"):
            solve_mapped_2d(dev, model, theta, Grid2D.unit(16, nz))
        flat = solve_mapped_1d(dev, 0.0, 16).pl
        assert solve_mapped_2d(dev, model, theta,
                               Grid2D.unit(16, 21)).pl != flat

    def test_positivity(self):
        # roughness in the measurement regime (eps ~ 0.025); the positivity
        # guarantee of the continuum problem carries over discretely there
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        model = InterfaceModel(0.25, 4.0, 5, (1.0,) * 5, UniformDist(-1, 1))
        grid = Grid2D.unit(48, 48)
        for seed in range(5):
            sol = solve_mapped_2d(dev, model, sample(model, seed), grid)
            assert sol.field.min() >= -1e-10
            assert sol.pl > 0

    def test_undershoot_vanishes_under_refinement(self):
        # at O(1) interface slopes the cross stencil loses the M-matrix
        # property and the discrete field can dip slightly below zero near
        # the absorbing boundary; the dip is small and first-order shrinking
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        model = InterfaceModel(1.0, 4.0, 5, (1.0,) * 5, UniformDist(-1, 1))
        theta = sample(model, 17)
        mins = [solve_mapped_2d(dev, model, theta,
                                Grid2D.unit(n, n)).field.min()
                for n in (48, 96, 192)]
        assert mins[0] > -1e-3
        assert mins[-1] > mins[0]

    def test_solution_keeps_source_and_weight(self):
        # the sensitivity solves and the PL weight read these from the
        # solution: G on the mapped nodes and d - h per column
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        model = InterfaceModel(1.0, 4.0, 3, (1.0, 0.5, 0.25),
                               UniformDist(-1, 1))
        theta = sample(model, 4)
        grid = Grid2D.unit(12, 10)
        sol = solve_mapped_2d(dev, model, theta, grid)
        weight = dev.d - profile(model, theta, dev.L * grid.z)[0]
        assert np.array_equal(sol.weight, weight)
        assert np.array_equal(sol.source, dev.generation(
            (1.0 - grid.y)[:, None] * weight[None, :]))
        assert sol.pl == trapezoid_2d(sol.field, grid, z_weight=weight)

    def test_interface_above_film_rejected(self):
        dev = flat_device(d=1.0)
        model = InterfaceModel(2.0, 4.0, 1, (1.0,), UniformDist(0, 1))
        grid = Grid2D.unit(8, 8)
        with pytest.raises(DomainValidityError):
            solve_mapped_2d(dev, model, InterfaceSample((1.0,)), grid)

    def test_period_mismatch_rejected(self):
        dev = flat_device(L=4.0)
        model = InterfaceModel(0.1, 2.0, 1, (1.0,), UniformDist(0, 1))
        with pytest.raises(ValueError, match="period"):
            solve_mapped_2d(dev, model, InterfaceSample((0.5,)), Grid2D.unit(8, 8))

    def test_pl_monotone_in_thickness(self):
        model = InterfaceModel(0.2, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        theta = sample(model, 3)
        grid = Grid2D.unit(32, 16)
        pls = []
        for d in (4.0, 8.0, 16.0, 32.0):
            dev = DeviceConfig(5.0, d, 4.0, GenerationProfile.exponential(d / 2))
            pls.append(solve_mapped_2d(dev, model, theta, grid).pl)
        assert all(b > a for a, b in zip(pls, pls[1:]))

    def test_grid_convergence_second_order(self):
        dev = DeviceConfig(5.0, 10.0, 4.0, GenerationProfile.exponential(5.0))
        model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        theta = InterfaceSample((0.6, -0.4))
        pls = {n: solve_mapped_2d(dev, model, theta, Grid2D.unit(n, n)).pl
               for n in (16, 32, 64, 128, 256)}
        errs = [abs(pls[n] - pls[256]) for n in (16, 32, 64)]
        hs = [1 / 16, 1 / 32, 1 / 64]
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2

    def test_pl_of_sample_matches_solution(self):
        # a one-node rule is the PL of its one sample, bit for bit
        dev = flat_device()
        model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(0, 1))
        rule = build_rule(TENSOR_GL, 2, 1, (0.0, 1.0))
        theta = InterfaceSample(tuple(rule.nodes[0]))
        grid = Grid2D.unit(16, 16)
        assert expected_mapped_pl(dev, model, rule, grid) == \
            solve_mapped_2d(dev, model, theta, grid).pl


class TestSymmetryFold:
    """expected_mapped_pl solves one node per orbit of the interface's
    symmetries; the unfolded sum over the full rule is the oracle."""

    @pytest.mark.parametrize("kind,size,K,even,odd", [
        (TENSOR_GL, 2, 3, 2, 4),
        (SMOLYAK, 3, 3, 11, 13),
        (TENSOR_GL, 4, 3, 16, 32),
        (SMOLYAK, 3, 10, 86, 111),
    ])
    def test_orbit_counts(self, kind, size, K, even, odd):
        rule = build_rule(kind, K, size, (-1.0, 1.0))
        assert symmetry_folded_rule(rule, Grid2D.unit(8, 24)).node_count \
            == even
        assert symmetry_folded_rule(rule, Grid2D.unit(8, 25)).node_count \
            == odd

    @pytest.mark.parametrize("kind,size,support", [
        (MONTE_CARLO, 40, (-1.0, 1.0)),
        (TENSOR_GL, 3, (0.0, 1.0)),
        (SMOLYAK, 3, (0.0, 1.0)),
    ])
    def test_rules_without_mirrored_nodes_fold_nothing(self, kind, size,
                                                       support):
        rule = build_rule(kind, 3, size, support, seed=3)
        assert symmetry_folded_rule(rule, Grid2D.unit(8, 24)) is rule

    @pytest.mark.parametrize("nz", [24, 25])
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_folded_equals_unfolded_oracle(self, K, nz):
        dev = DeviceConfig(5.0, 8.3, 4.0, GenerationProfile.exponential(4.0))
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, K, -1.0,
                                                   UniformDist(-1.0, 1.0))
        grid = Grid2D.unit(6, nz)

        def node(thetas):
            sol = solve_mapped_2d(dev, model, InterfaceSample(tuple(thetas)),
                                  grid)
            u1, u2 = sensitivities_mapped(sol)
            weight = dev.d - iface_heights(model, thetas, grid)
            return (sol.pl, trapezoid_2d(u1, grid, z_weight=weight),
                    trapezoid_2d(u2, grid, z_weight=weight))

        for kind, size in [(TENSOR_GL, 2), (TENSOR_GL, 3), (TENSOR_GL, 4),
                           (SMOLYAK, 2), (SMOLYAK, 3)]:
            rule = build_rule(kind, K, size, (-1.0, 1.0))
            oracle = expect(rule, node).value
            folded = expected_mapped_pl(dev, model, rule, grid,
                                        derivatives=True)
            assert folded == pytest.approx(tuple(oracle), rel=1e-12)

    def test_node_reaching_top_surface_still_raises(self):
        # orbit members are one mirrored profile, so they share one max
        # height: a folded rule keeps every invalid node's representative
        dev = flat_device(d=1.0)
        model = InterfaceModel(1.5, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        rule = build_rule(TENSOR_GL, 2, 3, (-1.0, 1.0))
        grid = Grid2D.unit(8, 8)
        folded = symmetry_folded_rule(rule, grid)
        assert folded.node_count < rule.node_count
        heights = [iface_heights(model, t, grid).max() for t in rule.nodes]
        assert min(heights) < dev.d <= max(heights)
        with pytest.raises(CollocationError, match="node") as err:
            expected_mapped_pl(dev, model, rule, grid)
        assert isinstance(err.value.__cause__, DomainValidityError)


class TestQuotientSolve:
    """solve_mapped_2d solves a node that a symmetry of the interface fixes
    on the columns that symmetry leaves; the full-period solve of the same
    profile, solve_mapped_profile without a column map, is the oracle."""

    MODEL = InterfaceModel.with_power_spectrum(1.0, 4.0, 3, -1.0,
                                               UniformDist(-1.0, 1.0))
    DEVICE = DeviceConfig(5.0, 8.0, 4.0, GenerationProfile.exponential(4.0))

    def solve_both(self, theta, grid):
        sample = InterfaceSample(theta)
        h, hp, hpp = profile(self.MODEL, sample, self.DEVICE.L * grid.z)
        return (solve_mapped_2d(self.DEVICE, self.MODEL, sample, grid),
                solve_mapped_profile(self.DEVICE, grid, h, hp, hpp))

    @staticmethod
    def integrals(sol):
        u1, u2 = sensitivities_mapped(sol)
        grid = sol.operator.grid
        return [sol.pl, trapezoid_2d(u1, grid, z_weight=sol.weight),
                trapezoid_2d(u2, grid, z_weight=sol.weight)]

    @pytest.mark.parametrize("nz", [24, 25, 26, 32])
    @pytest.mark.parametrize("theta, kept", [
        ((0.0, 0.0, 0.0), {24: 7, 25: 13, 26: 7, 32: 9}),
        ((0.0, 0.8, 0.0), {24: 12, 26: 13, 32: 16}),       # half period
        ((0.7, 0.0, -0.4), {24: 13, 26: 13, 32: 17}),      # mirror
        ((0.0, 0.0, 1.0), {24: 13, 26: 13, 32: 17}),       # mirror
    ])
    def test_symmetric_node_matches_full_period_solve(self, theta, kept, nz):
        grid = Grid2D.unit(nz)
        reduced, full = self.solve_both(theta, grid)
        # at odd nz only the reflection is a symmetry of the grid
        assert reduced.operator.matrix.shape[0] == nz * kept.get(nz, nz)
        assert full.operator.matrix.shape[0] == nz * nz
        assert self.integrals(reduced) == pytest.approx(
            self.integrals(full), rel=1e-12, abs=0.0)
        for a, b in [(reduced.field, full.field),
                     *zip(sensitivities_mapped(reduced),
                          sensitivities_mapped(full))]:
            assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("theta", [(0.5, -0.3, 0.2), (-1.0, 1.0, 0.25)])
    def test_node_without_a_zero_coordinate_solves_the_full_period(self,
                                                                    theta):
        reduced, full = self.solve_both(theta, Grid2D.unit(24))
        a, b = reduced.operator.matrix, full.operator.matrix
        for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                     (a.data, b.data)):
            assert x.tobytes() == y.tobytes()
        assert [v.hex() for v in self.integrals(reduced)] == \
            [v.hex() for v in self.integrals(full)]

    @pytest.mark.parametrize("theta, unknowns", [
        ((0.0, 0.8, 0.0), 8192), ((0.5, 0.0, 0.2), 8320),
        ((0.0, 0.0, 0.0), 4224), ((0.5, -0.3, 0.2), 16384)])
    def test_unknowns_at_128(self, theta, unknowns):
        sol = solve_mapped_2d(self.DEVICE, self.MODEL, InterfaceSample(theta),
                              Grid2D.unit(128))
        assert sol.operator.matrix.shape == (unknowns, unknowns)
        assert sol.field.shape == (129, 129)

    def test_workers_building_patterns_give_the_serial_bits(self):
        # Smolyak level 3 solves 25 nodes of four column maps; two workers
        # build the patterns at the same time from an empty cache
        rule = build_rule(SMOLYAK, 3, 3, (-1.0, 1.0))
        grid = Grid2D.unit(32)

        def node(thetas):
            return solve_mapped_2d(self.DEVICE, self.MODEL,
                                   InterfaceSample(tuple(thetas)), grid).pl

        values = []
        for jobs in (1, 2, 2):
            fd_core._stencil_pattern.cache_clear()
            values.append(expect(rule, node, jobs=jobs).value.hex())
        assert values[0] == values[1] == values[2]


class TestSuperLUOptions:
    """fd_core's supernode relaxation and panel width against SuperLU's
    defaults: the same ordering, pivots and fill, solutions equal to
    rounding."""

    MODEL = InterfaceModel.with_power_spectrum(1.0, 4.0, 3, -1.0,
                                               UniformDist(-1.0, 1.0))

    @staticmethod
    def rel(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))

    @pytest.mark.parametrize("n", [32, 128])
    @pytest.mark.parametrize("theta, d", [((0.5, -0.3, 0.2), 12.0),
                                          ((1.0, 1.0, 1.0), 8.0)])
    def test_node_matches_default_superlu(self, n, theta, d):
        dev = DeviceConfig(5.0, d, 4.0, GenerationProfile.exponential(d / 2))
        grid = Grid2D.unit(n)
        sol = solve_mapped_2d(dev, self.MODEL, InterfaceSample(theta), grid)
        tuned = sol.operator.factorize()
        default = scipy.sparse.linalg.splu(sol.operator.matrix,
                                           permc_spec=fd_core._PERMC_SPEC)
        assert np.array_equal(tuned.perm_c, default.perm_c)
        assert np.array_equal(tuned.perm_r, default.perm_r)
        assert tuned.L.nnz + tuned.U.nnz == default.L.nnz + default.U.nnz
        b = sol.operator.rhs(sol.source)
        assert self.rel(tuned.solve(b), default.solve(b)) < 1e-12

    @pytest.mark.parametrize("n", [32, 128])
    def test_expected_triple_matches_default_superlu(self, n, monkeypatch):
        dev = DeviceConfig(5.0, 12.0, 4.0, GenerationProfile.exponential(6.0))
        rule = build_rule(TENSOR_GL, 3, 2, (-1.0, 1.0))
        grid = Grid2D.unit(n)
        tuned = expected_mapped_pl(dev, self.MODEL, rule, grid,
                                   derivatives=True)
        monkeypatch.setattr(fd_core, "_SUPERNODES", {})
        default = expected_mapped_pl(dev, self.MODEL, rule, grid,
                                     derivatives=True)
        for a, b in zip(tuned, default):
            assert self.rel(a, b) < 1e-12


def iface_heights(model, thetas, grid):
    return profile(model, InterfaceSample(tuple(thetas)),
                   model.L * grid.z)[0]


class TestDeviceConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DeviceConfig(0.0, 1.0, 1.0, GenerationProfile.constant(1.0))
        with pytest.raises(ValueError):
            DeviceConfig(1.0, -1.0, 1.0, GenerationProfile.constant(1.0))

    def test_epsilon(self):
        dev = flat_device(d=20.0)
        assert dev.epsilon(1.0) == pytest.approx(0.05)
