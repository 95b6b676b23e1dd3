"""Misfit, sensitivities, and the Newton estimation loop."""

import dataclasses
import math
import random
import warnings

import numpy as np
import pytest

from exdil import fd_core, inverse
from exdil.asymptotic import (ExpansionModes, closed_form,
                              expected_pl_with_derivatives)
from exdil.collocation import TENSOR_GL, QuadratureRule, build_rule
from exdil.cli import write_csv
from exdil.experiments import MODEL_2D, generate_synthetic_curve
from exdil.fd_core import Grid2D
from exdil.forward_mapped import (DeviceConfig, GenerationProfile,
                                  expected_mapped_pl, sensitivities_mapped,
                                  solve_mapped_1d, solve_mapped_2d,
                                  symmetry_folded_rule)
from exdil.interface import InterfaceModel, UniformDist, sample
from exdil.inverse import (SENSITIVITY_PDE, AsymptoticForward, DeviceFamily,
                           EstimationTrace, MappedCollocationForward,
                           NewtonOptions, OneDimensionalForward, PLCurve,
                           newton_estimate, objective,
                           objective_with_derivatives, sensitivities_1d)

FAMILY = DeviceFamily(period=4.0)
THICKNESSES = tuple(10.0 * i for i in range(1, 11))


class CentralDifferences:
    """Oracle: a provider's ``pl`` with sigma-derivatives by centred
    differences of relative step 1e-4."""

    def __init__(self, provider):
        self.pl = provider.pl

    def pl_with_derivatives(self, sigma, d):
        step = 1e-4 * sigma
        mid = self.pl(sigma, d)
        hi = self.pl(sigma + step, d)
        lo = self.pl(sigma - step, d)
        return mid, (hi - lo) / (2.0 * step), (hi - 2.0 * mid + lo) / step ** 2


@pytest.fixture(scope="module")
def curve_1d():
    return generate_synthetic_curve("model_1d", 5.0, THICKNESSES, family=FAMILY)


class TestPLCurve:
    def test_validation(self):
        with pytest.raises(ValueError):
            PLCurve((10.0, 10.0), (1.0, 1.0))
        with pytest.raises(ValueError):
            PLCurve((10.0, 20.0), (1.0, -1.0))
        with pytest.raises(ValueError):
            PLCurve((), ())

    @pytest.mark.parametrize("d, values, name", [
        ((10.0, float("nan"), 30.0), (1.0, 2.0, 3.0), "thicknesses"),
        ((10.0, float("inf")), (1.0, 2.0), "thicknesses"),
        ((10.0, 20.0), (1.0, float("nan")), "photoluminescence values"),
    ])
    def test_rejects_non_finite(self, d, values, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            PLCurve(d, values)

    def test_pairs(self):
        c = PLCurve((1.0, 2.0), (3.0, 4.0))
        assert list(c.pairs()) == [(1.0, 3.0), (2.0, 4.0)]
        assert len(c) == 2


class TestObjective:
    def test_self_consistency(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        j = objective(prov, curve_1d, 5.0)
        assert j <= 1e-16 * max(curve_1d.values) ** 2

    def test_unit_offset(self):
        prov = OneDimensionalForward(FAMILY)
        base = prov.pl(5.0, 20.0)
        curve = PLCurve((20.0,), (base + 1.0,))
        assert objective(prov, curve, 5.0) == pytest.approx(1.0, rel=1e-10)

    def test_unimodal_scan(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        sigmas = np.linspace(2.0, 12.0, 21)
        js = [objective(prov, curve_1d, s) for s in sigmas]
        k = int(np.argmin(js))
        assert sigmas[k] == pytest.approx(5.0, abs=0.5)
        assert all(b < a for a, b in zip(js[:k], js[1:k + 1]))
        assert all(b > a for a, b in zip(js[k:], js[k + 1:]))

    def test_derivative_call_reduces_j_alike(self, curve_1d):
        # the Newton line search compares J from both calls, so they must
        # agree bit for bit when the forward values do
        prov = OneDimensionalForward(FAMILY)
        for sigma in (3.0, 4.7, 5.3, 9.0):
            assert objective_with_derivatives(prov, curve_1d, sigma)[0] == \
                objective(prov, curve_1d, sigma)

    @pytest.mark.parametrize("n", range(1, 65))
    def test_mean_square_is_numpys_mean(self, n):
        # J sums the squares in thickness order; numpy's mean sums pairwise
        # from 8 terms on, so there the two may round a few ulp apart
        rng = np.random.default_rng(n)
        res = (rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 1, n)).tolist()
        oracle = float(np.mean(np.square(res)))
        if n < 8:
            assert inverse._mean_square(res) == oracle
        else:
            assert abs(inverse._mean_square(res) - oracle) \
                <= 8 * math.ulp(oracle)

    def test_nonpositive_sigma(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        with pytest.raises(ValueError):
            objective(prov, curve_1d, 0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    @pytest.mark.parametrize("function", [objective,
                                          objective_with_derivatives])
    @pytest.mark.parametrize("kind", ["expansion", "mapped"])
    def test_non_finite_sigma(self, curve_1d, kind, function, sigma):
        # rejected by the objective itself, before the provider sees it
        if kind == "expansion":
            prov = expansion_provider(-1.0)
        else:
            model = InterfaceModel(0.3, 4.0, 2, (1.0, 0.5),
                                   UniformDist(-1, 1))
            prov = MappedCollocationForward(
                FAMILY, model, build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0)),
                cells=(16, 16))
        with pytest.raises(ValueError,
                           match="sigma must be finite and positive, got"):
            function(prov, curve_1d, sigma)


class TestSensitivities1D:
    def test_first_derivative_matches_fd(self):
        prov = OneDimensionalForward(FAMILY)
        fd = CentralDifferences(prov)
        for sigma in (3.0, 5.0, 10.0, 20.0):
            _, d_sens, _ = prov.pl_with_derivatives(sigma, 30.0)
            _, d_fd, _ = fd.pl_with_derivatives(sigma, 30.0)
            assert d_sens == pytest.approx(d_fd, rel=1e-6)

    def test_second_derivative_matches_fd(self):
        prov = OneDimensionalForward(FAMILY)
        fd = CentralDifferences(prov)
        for sigma in (3.0, 10.0):
            _, _, d2_sens = prov.pl_with_derivatives(sigma, 30.0)
            _, _, d2_fd = fd.pl_with_derivatives(sigma, 30.0)
            assert d2_sens == pytest.approx(d2_fd, rel=1e-3)

    def test_gradient_consistency(self, curve_1d):
        # analytic J' against central differences across the sigma range
        prov = OneDimensionalForward(FAMILY)
        fd = CentralDifferences(prov)
        for sigma in (3.0, 5.0, 10.0, 20.0):
            _, j1, _ = objective_with_derivatives(prov, curve_1d, sigma)
            _, j1_fd, _ = objective_with_derivatives(fd, curve_1d, sigma)
            assert j1 == pytest.approx(j1_fd, rel=1e-4, abs=1e-12)

    def test_zero_residual_forcing(self):
        # with u == g the sensitivity right-hand side vanishes identically
        dev = FAMILY.device(5.0, 20.0)
        sol = solve_mapped_1d(dev, 0.0, 128)
        sol.values[:] = dev.generation((1.0 - sol.y) * dev.d)
        u1, u2 = sensitivities_1d(dev, sol)
        assert np.abs(u1).max() < 1e-14
        assert np.abs(u2).max() < 1e-14


class TestSensitivities2D:
    def setup_method(self):
        self.dev = DeviceConfig(5.0, 20.0, 4.0, GenerationProfile.exponential(10.0))
        self.model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        self.theta = sample(self.model, 9)
        self.grid = Grid2D.unit(32, 32)

    def pl_derivatives(self):
        """(I, dI/dsigma, d2I/dsigma2) of the one sample: the expectation
        over a one-node rule at it."""
        rule = QuadratureRule(2, np.array([self.theta.thetas]), np.ones(1),
                              "point mass")
        return expected_mapped_pl(self.dev, self.model, rule, self.grid,
                                  derivatives=True)

    def pl_of_sample(self, sigma):
        return solve_mapped_2d(dataclasses.replace(self.dev, sigma=sigma),
                               self.model, self.theta, self.grid).pl

    def test_first_derivative_slope(self):
        _, d_sens, _ = self.pl_derivatives()
        deltas = np.array([0.2, 0.1, 0.05])
        errs = []
        for delta in deltas:
            hi = self.pl_of_sample(5.0 + delta)
            lo = self.pl_of_sample(5.0 - delta)
            errs.append(abs((hi - lo) / (2 * delta) - d_sens))
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2

    def test_second_derivative_slope(self):
        base, _, d2_sens = self.pl_derivatives()
        assert base == self.pl_of_sample(5.0)
        deltas = np.array([0.4, 0.2, 0.1])
        errs = []
        for delta in deltas:
            hi = self.pl_of_sample(5.0 + delta)
            lo = self.pl_of_sample(5.0 - delta)
            errs.append(abs((hi - 2 * base + lo) / delta ** 2 - d2_sens))
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert 1.7 < slope < 2.3

    def test_fields_share_boundary_conditions(self):
        sol = solve_mapped_2d(self.dev, self.model, self.theta, self.grid)
        u1, u2 = sensitivities_mapped(sol)
        for f in (u1, u2):
            assert np.abs(f[0]).max() == 0.0  # Dirichlet
            assert f[:, -1] == pytest.approx(f[:, 0])


class TestCollocationProvider:
    def test_sensitivity_matches_fd(self):
        model = InterfaceModel(0.3, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        rule = build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0))
        prov = MappedCollocationForward(FAMILY, model, rule, cells=(24, 24))
        fd = CentralDifferences(prov)
        pl_s, d_s, d2_s = prov.pl_with_derivatives(6.0, 30.0)
        pl_f, d_f, d2_f = fd.pl_with_derivatives(6.0, 30.0)
        assert pl_s == pytest.approx(pl_f, rel=1e-12)
        assert d_s == pytest.approx(d_f, rel=1e-5)
        assert d2_s == pytest.approx(d2_f, rel=1e-3)

    @pytest.mark.parametrize("points,cells", [(2, 24), (2, 32), (3, 24),
                                              (3, 32)])
    def test_pl_is_first_component_of_derivatives(self, points, cells):
        # pl and pl_with_derivatives reduce E[I] by one weighted sum, so the
        # line search and the derivative call of a Newton fit see one J
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 3, -1.0,
                                                   UniformDist(-1.0, 1.0))
        rule = build_rule(TENSOR_GL, 3, points, (-1.0, 1.0))
        for sigma in (4.9, 5.0, 5.13, 7.4):
            for d in (8.3, 12.7, 16.1):
                plain, deriv = (MappedCollocationForward(
                    FAMILY, model, rule, cells=(cells, cells))
                    for _ in range(2))
                assert plain.pl(sigma, d) == \
                    deriv.pl_with_derivatives(sigma, d)[0]

    def test_fit_folds_its_rule_once(self, monkeypatch):
        # the 8-node rule is folded when the provider is built, and each
        # evaluation refolds only the 2-node folded rule, which gives the
        # values over the unfolded rule bit for bit
        from exdil import forward_mapped
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 3, -1.0,
                                                   UniformDist(-1.0, 1.0))
        rule = build_rule(TENSOR_GL, 3, 2, (-1.0, 1.0))
        cells = (16, 16)
        curve = generate_synthetic_curve(
            MODEL_2D, 5.0, (8.0, 12.0, 16.0), family=FAMILY, model=model,
            rule_kind=TENSOR_GL, rule_size=2, cells=cells)
        folded = []
        fold = forward_mapped.fold

        def counting_fold(r, flips):
            folded.append(r.node_count)
            return fold(r, flips)

        monkeypatch.setattr(forward_mapped, "fold", counting_fold)
        prov = MappedCollocationForward(FAMILY, model, rule, cells=cells)
        trace = newton_estimate(prov, curve, sigma0=7.5,
                                options=NewtonOptions(tol=2.5e-5))
        evaluations = 3 * (len(trace.sigmas) + 1)
        assert folded == [8] + [2] * evaluations
        for sigma in trace.sigmas[:3]:
            for d in curve.thicknesses:
                got = prov.pl_with_derivatives(sigma, d)
                want = expected_mapped_pl(FAMILY.device(sigma, d), model,
                                          rule, Grid2D.unit(*cells),
                                          derivatives=True)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    @pytest.mark.parametrize("deriv", ["central_fd", "", None])
    def test_deriv_other_than_sensitivity_pde_raises(self, deriv):
        rule = build_rule(TENSOR_GL, 1, 2, (0.0, 1.0))
        model = InterfaceModel(0.3, 4.0, 1, (1.0,), UniformDist(0, 1))
        with pytest.raises(ValueError, match="deriv"):
            MappedCollocationForward(FAMILY, model, rule, cells=(8, 8),
                                     deriv=deriv)
        assert MappedCollocationForward(
            FAMILY, model, rule, cells=(8, 8),
            deriv=SENSITIVITY_PDE).deriv == SENSITIVITY_PDE

    def test_fixed_epsilon_scales_amplitude(self):
        # The expansion provider of the estimate study: with fixed_epsilon
        # the model's hbar is ignored, and each thickness gets the value of
        # a model with hbar = eps * d.
        model = InterfaceModel(1.0, 4.0, 1, (1.0,), UniformDist(0, 1))
        prov = AsymptoticForward(FAMILY, model, fixed_epsilon=0.02)
        other_hbar = AsymptoticForward(
            FAMILY, dataclasses.replace(model, hbar=7.0), fixed_epsilon=0.02)
        for d in (10.0, 50.0):
            scaled = AsymptoticForward(
                FAMILY, dataclasses.replace(model, hbar=0.02 * d))
            assert prov.pl(5.0, d) == other_hbar.pl(5.0, d) \
                == scaled.pl(5.0, d)


def richardson_derivatives(pl, sigma, rel_step=1e-2):
    """Oracle: (I', I'') of ``pl`` at ``sigma`` by centred differences at
    steps h and h/2, Richardson-extrapolated to O(h**4)."""
    mid = pl(sigma)

    def centred(h):
        hi, lo = pl(sigma + h), pl(sigma - h)
        return (hi - lo) / (2.0 * h), (hi - 2.0 * mid + lo) / h ** 2

    wide, narrow = centred(rel_step * sigma), centred(0.5 * rel_step * sigma)
    return tuple((4.0 * n - w) / 3.0 for w, n in zip(wide, narrow))


@pytest.fixture
def closed_form_calls(monkeypatch):
    """One entry per closed-form evaluation of an expansion provider."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(None)
        return closed_form(*args, **kwargs)

    monkeypatch.setattr(inverse, "closed_form", counting)
    return calls


def expansion_provider(beta, order=2, fixed_epsilon=None, K=10):
    model = InterfaceModel.with_power_spectrum(1.0, 4.0, K, beta,
                                               UniformDist(-1.0, 1.0))
    return AsymptoticForward(FAMILY, model, order=order,
                             fixed_epsilon=fixed_epsilon)


class TestAsymptoticProvider:
    @pytest.mark.parametrize("fixed_epsilon", [None, 0.05])
    @pytest.mark.parametrize("beta", [-2.0, -1.0])
    @pytest.mark.parametrize("order", [0, 2])
    def test_derivatives_match_richardson(self, order, beta, fixed_epsilon):
        prov = expansion_provider(beta, order, fixed_epsilon)
        oracle = expansion_provider(beta, order, fixed_epsilon)
        for sigma in (3.1, 5.0, 7.5):
            for d in (8.2, 10.0, 40.0):
                _, d1, d2 = prov.pl_with_derivatives(sigma, d)
                r1, r2 = richardson_derivatives(
                    lambda s: oracle.pl(s, d), sigma)
                assert d1 == pytest.approx(r1, rel=1e-8), (sigma, d)
                assert d2 == pytest.approx(r2, rel=1e-6), (sigma, d)

    def test_smooth_through_resonance(self):
        # d = 10 gives decay length ell = 5: sigma = ell exactly and either
        # side of it, where the flux moments change branch
        prov = expansion_provider(-2.0)
        step = 5.0 * 1e-8
        lo, mid, hi = (prov.pl_with_derivatives(5.0 + k * step, 10.0)
                       for k in (-1, 0, 1))
        assert all(math.isfinite(v) for v in lo + mid + hi)
        for a, b, c in zip(lo, mid, hi):
            assert 0.5 * (a + c) == pytest.approx(b, rel=1e-12)
        for n in (0, 1):
            assert (hi[n] - lo[n]) / (2.0 * step) == \
                pytest.approx(mid[n + 1], rel=1e-6)

    def test_finite_without_warnings_for_thick_films(self):
        prov = expansion_provider(-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = prov.pl_with_derivatives(0.3, 60.0)    # d / sigma = 200
        assert all(math.isfinite(v) for v in values)

    def test_period_mismatch_raises_on_construction(self):
        model = InterfaceModel.with_power_spectrum(1.0, 5.0, 3, -1.0,
                                                   UniformDist(-1.0, 1.0))
        with pytest.raises(ValueError, match="does not match"):
            AsymptoticForward(FAMILY, model)

    def test_pl_is_first_component_of_derivatives(self):
        for fixed_epsilon in (None, 0.05):
            for sigma in (3.1, 5.0, 5.13, 7.4):
                for d in (8.2, 10.0, 16.1, 40.0):
                    plain, deriv = (expansion_provider(-1.0, 2, fixed_epsilon)
                                    for _ in range(2))
                    assert plain.pl(sigma, d) == \
                        deriv.pl_with_derivatives(sigma, d)[0]

    def test_objective_is_first_component(self, curve_1d):
        for sigma in (3.0, 4.7, 5.3, 9.0):
            plain, deriv = (expansion_provider(-2.0) for _ in range(2))
            assert objective(plain, curve_1d, sigma) == \
                objective_with_derivatives(deriv, curve_1d, sigma)[0]

    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("fixed_epsilon", [None, 0.05])
    @pytest.mark.parametrize("family", [FAMILY, DeviceFamily(
        4.0, GenerationProfile(((1.0, 5.0), (0.5, 2.0)), offset=0.3))])
    def test_shuffled_calls_match_one_device_calls(self, family,
                                                   fixed_epsilon, order):
        # the provider's per-thickness and per-sigma factors give the bits
        # of the one-device closed form, in whatever order they are asked
        model = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, -1.0,
                                                   UniformDist(-1.0, 1.0))
        modes = ExpansionModes.of(model, 4.0)
        prov = AsymptoticForward(family, model, order=order,
                                 fixed_epsilon=fixed_epsilon)
        points = [(s, d) for s in (3.1, 5.0, 6.2)
                  for d in (10.0, 12.5, 30.5)] * 2
        random.Random(7).shuffle(points)
        for n, (sigma, d) in enumerate(points):
            dev = family.device(sigma, d)
            eps = fixed_epsilon or dev.epsilon(model.hbar)
            want = expected_pl_with_derivatives(dev, modes, eps, order)
            if n % 2:
                assert prov.pl(sigma, d).hex() == want[0].hex()
            got = prov.pl_with_derivatives(sigma, d)
            assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_one_evaluation_per_newton_point(self, closed_form_calls):
        # the fit-expansion benchmark inputs of seed 1: each iterate is
        # evaluated once, with its derivatives, plus the start point
        rng = np.random.default_rng(1)
        sigma_star = float(rng.uniform(4.8, 5.2))
        thicknesses = tuple(s + float(rng.uniform(0.0, 0.2))
                            for s in (10.0, 17.5, 25.0, 32.5, 40.0))
        curve = generate_synthetic_curve("model_1d", sigma_star, thicknesses,
                                         family=FAMILY)
        calls = closed_form_calls
        for beta in (-2.0, -1.0):
            calls.clear()
            trace = newton_estimate(expansion_provider(beta), curve,
                                    sigma0=1.5 * sigma_star,
                                    options=NewtonOptions(tol=1e-2))
            assert trace.reason == "step_tolerance"
            assert trace.alphas == [1.0] * 3
            assert len(calls) == (trace.iterations + 1) * len(curve) == 20


class UncachedMappedForward:
    """Oracle for MappedCollocationForward: E[I] alone in ``pl`` and a
    fresh solve with derivatives in ``pl_with_derivatives``, no cache."""

    def __init__(self, family, model, rule, cells):
        self.family, self.model, self.rule = family, model, rule
        self.grid = Grid2D.unit(*cells)

    def pl(self, sigma, d):
        return expected_mapped_pl(self.family.device(sigma, d), self.model,
                                  self.rule, self.grid)

    def pl_with_derivatives(self, sigma, d):
        return expected_mapped_pl(self.family.device(sigma, d), self.model,
                                  self.rule, self.grid, derivatives=True)


@pytest.fixture(scope="module")
def mapped_fit():
    """Rule, model and curve of a small mapped fit to its own data."""
    model = InterfaceModel.with_power_spectrum(1.0, 4.0, 2, -1.0,
                                               UniformDist(-1.0, 1.0))
    rule = build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0))
    curve = generate_synthetic_curve(MODEL_2D, 5.0, (8.0, 12.0, 16.0),
                                     family=FAMILY, model=model,
                                     rule_kind=TENSOR_GL, rule_size=2,
                                     cells=(24, 24))
    return model, rule, curve


def count_fit_factorizations(monkeypatch, model, rule, curve, cells):
    """Newton trace of a mapped fit from 7.5 and the splu calls it made."""
    splu = fd_core.spla.splu
    calls = []

    def counting_splu(*args, **kwargs):
        calls.append(None)
        return splu(*args, **kwargs)

    monkeypatch.setattr(fd_core.spla, "splu", counting_splu)
    prov = MappedCollocationForward(FAMILY, model, rule, cells=cells)
    trace = newton_estimate(prov, curve, sigma0=7.5, sigma_exact=5.0)
    assert trace.reason == "step_tolerance"
    assert set(trace.alphas) == {1.0}
    return trace, len(calls)


class TestMappedNewtonReuse:
    def test_one_factorization_per_point(self, mapped_fit, monkeypatch):
        # Each accepted trial is solved once, with its derivatives, and only
        # at one node per symmetry orbit; only the start point adds a set
        # of factorizations.  At 24² the four nodes form one orbit.
        model, rule, curve = mapped_fit
        grid = Grid2D.unit(24, 24)
        trace, calls = count_fit_factorizations(monkeypatch, model, rule,
                                                curve, (24, 24))
        solved = symmetry_folded_rule(rule, grid).node_count
        assert solved == 1
        assert calls == (len(trace.sigmas) + 1) * len(curve) * solved

    @pytest.mark.parametrize("cells,support,per_point", [
        ((25, 25), (-1.0, 1.0), 2),   # odd nz: theta -> -theta only
        ((24, 24), (0.0, 1.0), 4),    # no mirrored nodes: nothing folds
    ])
    def test_factorizations_per_point_follow_the_fold(
            self, monkeypatch, cells, support, per_point):
        model = InterfaceModel.with_power_spectrum(
            1.0, 4.0, 2, -1.0, UniformDist(*support))
        rule = build_rule(TENSOR_GL, 2, 2, support)
        curve = generate_synthetic_curve(MODEL_2D, 5.0, (8.0, 12.0, 16.0),
                                         family=FAMILY, model=model,
                                         rule_kind=TENSOR_GL, rule_size=2,
                                         cells=cells)
        trace, calls = count_fit_factorizations(monkeypatch, model, rule,
                                                curve, cells)
        assert calls == (len(trace.sigmas) + 1) * len(curve) * per_point

    @pytest.mark.parametrize("sigma0", [7.5, 2.0])
    def test_trace_matches_uncached_oracle(self, mapped_fit, sigma0):
        # from 2.0 the first step is halved six times: rejected trials
        # computed with derivatives must not change the iterates
        model, rule, curve = mapped_fit
        new = newton_estimate(
            MappedCollocationForward(FAMILY, model, rule, cells=(24, 24)),
            curve, sigma0=sigma0, sigma_exact=5.0)
        old = newton_estimate(
            UncachedMappedForward(FAMILY, model, rule, (24, 24)),
            curve, sigma0=sigma0, sigma_exact=5.0)
        assert new.sigmas == old.sigmas
        assert new.objectives == old.objectives
        assert new.alphas == old.alphas
        assert new.rel_errors == old.rel_errors
        assert new.reason == old.reason == "step_tolerance"


class TestProviderCopies:
    """A dataclasses.replace copy computes from its own fields: it never
    returns the values of the provider it was copied from."""

    def test_mapped_copy_with_other_cells_or_deriv(self):
        model = InterfaceModel(0.3, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        rule = build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0))
        prov = MappedCollocationForward(FAMILY, model, rule, cells=(16, 16))
        first = prov.pl(6.0, 30.0)
        finer = dataclasses.replace(prov, cells=(24, 24))
        fresh = MappedCollocationForward(FAMILY, model, rule, cells=(24, 24))
        assert finer.pl(6.0, 30.0) == fresh.pl(6.0, 30.0) != first
        # the sensitivity solves are the one derivative path
        with pytest.raises(ValueError, match="deriv"):
            dataclasses.replace(prov, deriv="central_fd")

    def test_asymptotic_copy_with_other_order(self):
        model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(0, 1))
        prov = AsymptoticForward(FAMILY, model, order=2)
        second = prov.pl(6.0, 30.0)
        zeroth = dataclasses.replace(prov, order=0)
        assert zeroth.pl(6.0, 30.0) == AsymptoticForward(
            FAMILY, model, order=0).pl(6.0, 30.0) != second

    def test_provider_keeps_no_results(self, closed_form_calls):
        # reusing an accepted trial is the fit's business (see
        # test_one_evaluation_per_newton_point): every call evaluates
        model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(0, 1))
        prov = AsymptoticForward(FAMILY, model)
        first = prov.pl_with_derivatives(6.0, 20.0)
        assert prov.pl_with_derivatives(6.0, 20.0) == first
        assert prov.pl(6.0, 20.0) == first[0]
        assert len(closed_form_calls) == 3


class TestNewtonOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": float("nan")}, {"tol": float("inf")}, {"tol": 0.0},
        {"tol": -1.0}, {"max_iter": 0},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match="Newton"):
            NewtonOptions(**kwargs)


class FakeQuadraticProvider:
    """J is an exact quadratic in sigma: pl(sigma, d) = sigma per device."""

    def pl(self, sigma, d):
        return sigma

    def pl_with_derivatives(self, sigma, d):
        return sigma, 1.0, 0.0


class Scripted:
    """A fake provider given by its ``pl_with_derivatives``; ``sigmas``
    records the points it is asked for."""

    def __init__(self):
        self.sigmas = []

    def pl(self, sigma, d):
        return self.pl_with_derivatives(sigma, d)[0]

    def pl_with_derivatives(self, sigma, d):
        self.sigmas.append(sigma)
        return self.values(sigma)


class RoundingFloorProvider(Scripted):
    """pl(sigma) = sigma + 0.01 (sigma - 7)**2 for each device, with exact
    derivatives but the value rounded to an odd multiple of Q / 2.  7.0 is
    a multiple of Q, so for data 7.0 no sigma brings J below (Q / 2)**2:
    J's rounding floor."""

    Q = 2.0 ** -20

    def values(self, sigma):
        exact = sigma + 0.01 * (sigma - 7.0) ** 2
        return (self.Q * (math.floor(exact / self.Q) + 0.5),
                1.0 + 0.02 * (sigma - 7.0), 0.02)


class ShallowDescent(Scripted):
    """At sigma = 10, for data 7.0: J = 1, J' = 2 and J'' = 4, a step of
    -0.5 predicted to lower J by 1.  Everywhere else the misfit is
    1 - 1e-12 and flat: every trial lowers J, each by less than the Armijo
    test asks."""

    def values(self, sigma):
        return (8.0, 1.0, 1.0) if sigma == 10.0 else (8.0 - 1e-12, 0.0, 0.0)


class WrongSignSlope(Scripted):
    """pl(sigma) = sigma, with dpl/dsigma reported as -1: the Newton step
    climbs J, so no trial lowers it."""

    def values(self, sigma):
        return sigma, -1.0, 0.0


class TestNewton:
    def test_sub_tolerance_step_on_rounding_floor_stops(self):
        # The last Newton step is far below tol but J's floor rejects it:
        # the fit stops at the current iterate after one trial instead of
        # halving the step MAX_HALVINGS times.
        provider = RoundingFloorProvider()
        curve = PLCurve((10.0,), (7.0,))
        trace = newton_estimate(provider, curve, sigma0=3.0, sigma_exact=7.0,
                                options=NewtonOptions(tol=1e-6))
        assert trace.reason == "step_tolerance"
        assert abs(trace.final_sigma - 7.0) < 1e-6
        # one trial evaluation after the last iterate's, and one per
        # iterate before it: no step was halved
        assert provider.sigmas[-2] == trace.final_sigma != provider.sigmas[-1]
        assert len(provider.sigmas) == trace.iterations + 1
        # the stop is recorded as a zero step, so the stopping rule holds
        assert trace.alphas[-1] == 0.0 and set(trace.alphas[:-1]) == {1.0}
        assert trace.sigmas[-1] == trace.sigmas[-2]
        assert len(trace.rel_errors) == trace.iterations

    def test_last_trial_lowering_j_is_taken(self):
        # no trial meets the Armijo test; the last lowers J, so it is the
        # step taken, and the recorded alpha is the one it was taken with
        provider = ShallowDescent()
        trace = newton_estimate(provider, PLCurve((10.0,), (7.0,)),
                                sigma0=10.0)
        assert len(provider.sigmas) == 1 + inverse.MAX_HALVINGS
        assert trace.alphas[0] == 0.5 ** (inverse.MAX_HALVINGS - 1)
        assert trace.alphas[0] * 0.5 == 10.0 - trace.sigmas[0]
        assert trace.objectives[0] < 1.0
        assert trace.reason == "step_tolerance"

    def test_line_search_exhausted_stays_at_start(self):
        provider = WrongSignSlope()
        trace = newton_estimate(provider, PLCurve((10.0,), (7.0,)),
                                sigma0=10.0)
        assert trace.reason == "line_search_exhausted"
        assert trace.sigmas == [] and trace.final_sigma == 10.0
        assert len(provider.sigmas) == 1 + inverse.MAX_HALVINGS
        assert min(provider.sigmas[1:]) > 10.0

    @pytest.mark.parametrize("sigma0", [float("nan"), float("inf"), -1.0])
    def test_rejects_bad_start(self, sigma0):
        with pytest.raises(ValueError, match="sigma0"):
            newton_estimate(FakeQuadraticProvider(), PLCurve((10.0,), (7.0,)),
                            sigma0=sigma0)

    def test_starts_at_optimum(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma0=5.0, sigma_exact=5.0)
        assert trace.iterations <= 1
        assert trace.reason == "step_tolerance"

    def test_self_consistency_run(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma0=25.0, sigma_exact=5.0)
        assert trace.rel_errors[-1] < 1e-3
        assert trace.reason == "step_tolerance"

    def test_descent(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma0=25.0)
        assert all(b <= a for a, b in zip(trace.objectives,
                                          trace.objectives[1:]))

    def test_default_start(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma_exact=5.0)
        assert trace.sigma0 == pytest.approx(25.0)  # quarter of max thickness
        assert trace.rel_errors[-1] < 1e-3

    def test_termination_tolerance_is_strict(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma0=25.0)
        assert abs(trace.sigmas[-1] - trace.sigmas[-2]) < 1e-4

    def test_exact_quadratic_one_step(self):
        curve = PLCurve((10.0, 20.0), (7.0, 7.0))
        trace = newton_estimate(FakeQuadraticProvider(), curve, sigma0=3.0,
                                sigma_exact=7.0)
        # Newton on an exact quadratic lands on the minimizer in one step
        assert trace.sigmas[0] == pytest.approx(7.0)
        assert trace.iterations <= 2

    def test_zero_curvature_takes_the_gradient_step(self):
        class Flat:
            # J(10) = 1, J'(10) = 2 and J''(10) = 2 (1 + 1 * -1) = 0; the
            # data are met everywhere else
            def pl(self, sigma, d):
                return 8.0 if sigma == 10.0 else 7.0

            def pl_with_derivatives(self, sigma, d):
                if sigma == 10.0:
                    return 8.0, 1.0, -1.0
                return 7.0, 1.0, 0.0

        trace = newton_estimate(Flat(), PLCurve((10.0,), (7.0,)),
                                sigma0=10.0)
        assert trace.sigmas[0] == 8.0 and trace.alphas[0] == 1.0
        assert trace.reason == "step_tolerance"

    def test_clamp_warning(self):
        class Diverging:
            def pl(self, sigma, d):
                return sigma

            def pl_with_derivatives(self, sigma, d):
                # strong negative forward curvature deflates J'' so the
                # Newton step overshoots past zero
                return sigma, 100.0, -19990.0

        curve = PLCurve((10.0,), (0.5,))
        with pytest.warns(UserWarning, match="clamped"):
            newton_estimate(Diverging(), curve, sigma0=1.0,
                            options=NewtonOptions(max_iter=3))

    def test_max_iterations_returns_the_trace(self):
        class Wobble:
            def pl(self, sigma, d):
                return 1.0 + (np.sin(50 * sigma) + 2) * 0.1

            def pl_with_derivatives(self, sigma, d):
                pl = self.pl(sigma, d)
                return pl, 5 * np.cos(50 * sigma), -250 * np.sin(50 * sigma)

        curve = PLCurve((10.0,), (1.05,))
        trace = newton_estimate(Wobble(), curve, sigma0=1.0,
                                options=NewtonOptions(max_iter=2, tol=1e-16))
        assert isinstance(trace, EstimationTrace)
        assert trace.reason == "max_iterations"
        assert trace.iterations == 2

    def test_reproducible(self, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        t1 = newton_estimate(prov, curve_1d, sigma0=25.0)
        t2 = newton_estimate(prov, curve_1d, sigma0=25.0)
        assert t1.sigmas == t2.sigmas
        assert t1.objectives == t2.objectives

    def test_trace_csv(self, tmp_path, curve_1d):
        prov = OneDimensionalForward(FAMILY)
        trace = newton_estimate(prov, curve_1d, sigma0=25.0, sigma_exact=5.0)
        path = tmp_path / "trace.csv"
        write_csv(path, ["n", "sigma", "J", "alpha", "rel_error"],
                  [[n + 1, f"{s:.17g}", f"{j:.17g}", f"{a:.17g}", f"{e:.17g}"]
                   for n, (s, j, a, e) in enumerate(zip(
                       trace.sigmas, trace.objectives, trace.alphas,
                       trace.rel_errors))], "deadbeef")
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1] == "n,sigma,J,alpha,rel_error"
        assert lines[-1] == "" and "\r" not in text
        assert len(lines) == 2 + trace.iterations + 1
