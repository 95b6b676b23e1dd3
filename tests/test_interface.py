"""Interface model: series evaluation, derivatives, period check,
sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdil.interface import (InterfaceModel, InterfaceSample, UniformDist,
                             check_period, moments, profile, sample)


def model_of(hbar=1.0, L=1.0, K=1, lambdas=None, a=-1.0, b=1.0):
    return InterfaceModel(hbar, L, K, lambdas or (1.0,) * K, UniformDist(a, b))


def evaluate(model, s, z):
    """Height h(z) alone."""
    return profile(model, s, z)[0]


class TestEvaluate:
    def test_zero_coefficient(self):
        m = model_of()
        assert evaluate(m, InterfaceSample((0.0,)), 0.37) == 0.0

    def test_single_mode_peak(self):
        # sin(2 pi z / L) at z = L/4 is 1
        m = model_of(L=4.0)
        assert evaluate(m, InterfaceSample((1.0,)), 1.0) == pytest.approx(1.0)

    def test_two_mode_sum(self):
        # oracle: direct evaluation of the finite sum
        m = model_of(hbar=2.0, K=2, lambdas=(1.0, 0.5))
        s = InterfaceSample((1.0, -1.0))
        expected = 2.0 * (math.sin(math.pi / 4) - 0.5 * math.sin(math.pi / 2))
        assert evaluate(m, s, 0.125) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(math.sqrt(2) - 1)

    def test_dimension_mismatch(self):
        m = model_of(K=3)
        with pytest.raises(ValueError, match="modes"):
            evaluate(m, InterfaceSample((1.0,)), 0.0)

    def test_vectorized(self):
        m = model_of(K=2, lambdas=(1.0, 0.3))
        s = InterfaceSample((0.4, -0.2))
        z = np.linspace(0, 1, 7)
        vals = evaluate(m, s, z)
        assert vals.shape == z.shape
        assert vals[0] == pytest.approx(evaluate(m, s, 0.0))

    @given(st.floats(-10, 10), st.integers(0, 3))
    @settings(max_examples=40, deadline=None)
    def test_periodicity(self, z, shift):
        m = model_of(hbar=0.8, L=2.5, K=3, lambdas=(1.0, 0.5, 0.25))
        s = sample(m, 7)
        assert evaluate(m, s, z + shift * 2.5) == pytest.approx(
            evaluate(m, s, z), abs=1e-12 * m.hbar)

    def test_vanishes_at_half_period(self):
        m = model_of(hbar=2.0, L=3.0, K=4, lambdas=(1.0,) * 4)
        s = sample(m, 11)
        assert evaluate(m, s, 0.0) == pytest.approx(0.0, abs=1e-13)
        assert evaluate(m, s, 1.5) == pytest.approx(0.0, abs=1e-13)


class TestDerivatives:
    def test_slope_at_origin(self):
        m = model_of()
        assert profile(m, InterfaceSample((1.0,)), 0.0)[1] == pytest.approx(
            2 * math.pi)

    def test_curvature_at_quarter(self):
        # sin(2 pi z) has zero curvature where it crosses zero
        m = model_of()
        assert profile(m, InterfaceSample((1.0,)), 0.5)[2] == pytest.approx(
            0.0, abs=1e-12)

    def test_two_mode_slope(self):
        m = model_of(hbar=2.0, K=2, lambdas=(1.0, 0.5))
        s = InterfaceSample((1.0, -1.0))
        expected = 2.0 * (2 * math.pi * math.cos(0.0)
                          - 0.5 * 4 * math.pi * math.cos(0.0))
        assert profile(m, s, 0.0)[1] == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("order", [1, 2])
    def test_matches_finite_differences(self, order):
        m = model_of(hbar=1.3, L=2.0, K=3, lambdas=(1.0, 0.7, 0.2))
        s = sample(m, 3)
        z = 0.31
        deltas = np.array([1e-2, 5e-3, 2.5e-3])
        errs = []
        for delta in deltas:
            if order == 1:
                fd = (evaluate(m, s, z + delta) - evaluate(m, s, z - delta)) / (2 * delta)
            else:
                fd = (evaluate(m, s, z + delta) - 2 * evaluate(m, s, z)
                      + evaluate(m, s, z - delta)) / delta ** 2
            errs.append(abs(fd - profile(m, s, z)[order]))
        slope = np.polyfit(np.log(deltas), np.log(errs), 1)[0]
        assert 1.8 < slope < 2.2


class TestSampling:
    def test_deterministic(self):
        m = model_of(K=4, lambdas=(1.0,) * 4)
        assert sample(m, 99).thetas == sample(m, 99).thetas

    def test_symmetric_second_moment(self):
        m = model_of(K=1)
        draws = np.array([sample(m, s).thetas[0] for s in range(2000)])
        # E[theta^2] = 1/3 for U(-1,1); 3 standard errors of the mean
        se = np.std(draws ** 2) / np.sqrt(draws.size)
        assert abs(np.mean(draws ** 2) - 1 / 3) < 3 * se

    def test_positive_mean(self):
        m = model_of(K=1, a=0.0, b=1.0)
        draws = np.array([sample(m, s).thetas[0] for s in range(20000)])
        se = np.std(draws) / np.sqrt(draws.size)
        assert abs(np.mean(draws) - 0.5) < 3 * se

    def test_support(self):
        m = model_of(K=8, lambdas=(1.0,) * 8, a=0.25, b=0.75)
        s = sample(m, 1)
        assert all(0.25 <= t <= 0.75 for t in s.thetas)


class TestCheckPeriod:
    def test_accepts_the_period_within_tolerance(self):
        m = model_of(L=4.0)
        check_period(m, 4.0)
        check_period(m, 4.0 * (1.0 + 1e-13))

    @pytest.mark.parametrize("period", [2.0, 4.0 + 1e-6, 4.0 + 1e-9,
                                        math.inf, math.nan])
    def test_rejects_another_period(self, period):
        with pytest.raises(ValueError, match="does not match"):
            check_period(model_of(L=4.0), period)

    def test_tolerance_is_relative_for_small_periods(self):
        # an absolute slack of 1e-8 would match any two periods this small
        with pytest.raises(ValueError, match="does not match"):
            check_period(model_of(L=1e-9), 1.5e-9)


class TestMoments:
    # moments returns E[theta**2], the one moment the expansion reads
    def test_symmetric(self):
        assert moments(UniformDist(-1.0, 1.0)) == pytest.approx(1 / 3)

    def test_positive(self):
        # U(0, 1) has the second moment of U(-1, 1), not its mean
        assert moments(UniformDist(0.0, 1.0)) == pytest.approx(1 / 3)
        assert moments(UniformDist(0.0, 3.0)) == pytest.approx(3.0)

    def test_point_mass(self):
        assert moments(UniformDist(0.7, 0.7)) == pytest.approx(0.49)

    @given(st.floats(-5, 5), st.floats(0.01, 5))
    @settings(max_examples=50, deadline=None)
    def test_against_quadrature(self, a, width):
        b = a + width
        xs = np.linspace(a, b, 20001)
        # trapezoid of x^2 against the closed form
        assert moments(UniformDist(a, b)) == pytest.approx(
            np.trapezoid(xs ** 2, xs) / width, rel=1e-6, abs=1e-9)


class TestValidation:
    def test_bad_lambda_count(self):
        with pytest.raises(ValueError):
            InterfaceModel(1.0, 1.0, 3, (1.0,), UniformDist(0, 1))

    def test_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            InterfaceModel(1.0, 1.0, 1, (0.0,), UniformDist(0, 1))

    def test_reversed_support(self):
        with pytest.raises(ValueError):
            UniformDist(1.0, -1.0)

    def test_power_spectrum(self):
        m = InterfaceModel.with_power_spectrum(1.0, 4.0, 3, -2.0,
                                               UniformDist(-1, 1))
        assert m.lambdas == pytest.approx((1.0, 0.25, 1.0 / 9.0))
