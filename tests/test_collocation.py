"""Quadrature rules: exactness, normalization, sparse consistency, MC decay."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exdil.collocation import (MONTE_CARLO, SMOLYAK, TENSOR_GL,
                               CollocationError, _clenshaw_curtis_1d,
                               build_rule, expect, fold)
from exdil.fd_core import Grid2D


def uniform_moment(p, a, b):
    # E[theta^p] over U(a, b), independent closed form
    return (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a))


class TestBuildRule:
    def test_gl_two_point(self):
        rule = build_rule(TENSOR_GL, 1, 2, (-1.0, 1.0))
        assert sorted(rule.nodes[:, 0]) == pytest.approx(
            [-1 / np.sqrt(3), 1 / np.sqrt(3)])
        assert rule.weights == pytest.approx([0.5, 0.5])

    @pytest.mark.parametrize("kind,size", [(TENSOR_GL, 3), (SMOLYAK, 4),
                                           (MONTE_CARLO, 100)])
    def test_weights_normalized(self, kind, size):
        rule = build_rule(kind, 3, size, (0.0, 1.0), seed=1)
        assert abs(rule.weights.sum() - 1.0) < 1e-12

    def test_nodes_inside_support(self):
        for kind, size in [(TENSOR_GL, 4), (SMOLYAK, 5), (MONTE_CARLO, 64)]:
            rule = build_rule(kind, 2, size, (0.25, 0.75), seed=2)
            assert rule.nodes.min() >= 0.25 - 1e-12
            assert rule.nodes.max() <= 0.75 + 1e-12

    def test_smolyak_level6_reported(self):
        rule = build_rule(SMOLYAK, 5, 6, (0.0, 1.0))
        assert rule.node_count > 0
        assert f"Q={rule.node_count}" in rule.descriptor

    def test_tensor_count(self):
        rule = build_rule(TENSOR_GL, 5, 4, (0.0, 1.0))
        assert rule.node_count == 4 ** 5

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_rule("magic", 2, 3)

    def test_monte_carlo_seeded(self):
        r1 = build_rule(MONTE_CARLO, 3, 50, (-1, 1), seed=42)
        r2 = build_rule(MONTE_CARLO, 3, 50, (-1, 1), seed=42)
        assert np.array_equal(r1.nodes, r2.nodes)

    def test_monte_carlo_needs_a_seed(self):
        # unseeded draws would differ from call to call
        with pytest.raises(ValueError, match="seed"):
            build_rule(MONTE_CARLO, 3, 50, (-1, 1))


class TestExactness:
    @given(st.integers(0, 7), st.integers(0, 7))
    @settings(max_examples=30, deadline=None)
    def test_gl_polynomial_exactness(self, p1, p2):
        # n-point Gauss-Legendre is exact through degree 2n-1 per dimension
        rule = build_rule(TENSOR_GL, 2, 4, (-1.0, 1.0))
        got = expect(rule, lambda t: t[0] ** p1 * t[1] ** p2).value
        want = uniform_moment(p1, -1, 1) * uniform_moment(p2, -1, 1)
        assert got == pytest.approx(want, abs=1e-12)

    def test_constant(self):
        rule = build_rule(TENSOR_GL, 3, 2, (0.0, 1.0))
        assert expect(rule, lambda t: 1.0).value == pytest.approx(1.0)

    def test_odd_vanishes(self):
        rule = build_rule(TENSOR_GL, 2, 3, (-1.0, 1.0))
        assert expect(rule, lambda t: t[0]).value == pytest.approx(0.0, abs=1e-14)

    def test_theta_squared(self):
        rule = build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0))
        assert expect(rule, lambda t: t[0] ** 2).value == pytest.approx(
            1 / 3, abs=1e-14)

    def test_smolyak_exact_low_degree(self):
        rule = build_rule(SMOLYAK, 3, 3, (-1.0, 1.0))
        assert expect(rule, lambda t: t[0] ** 2).value == pytest.approx(
            1 / 3, abs=1e-12)
        assert expect(rule, lambda t: t[0] * t[1]).value == pytest.approx(
            0.0, abs=1e-12)


class TestSmolyakConsistency:
    def test_against_tensor_oracle(self):
        # smooth functional: sparse levels converge monotonically to the
        # dense Gauss-Legendre answer
        K = 3
        oracle = expect(build_rule(TENSOR_GL, K, 8, (-1, 1)),
                        lambda t: np.exp(np.sum(t) / K)).value
        errs = []
        for level in (1, 2, 3, 4, 5, 6):
            rule = build_rule(SMOLYAK, K, level, (-1, 1))
            errs.append(abs(expect(rule, lambda t: np.exp(np.sum(t) / K)).value
                            - oracle))
        assert all(b < a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-10


class TestMonteCarlo:
    def test_inverse_sqrt_decay(self):
        # seeded run: errors on E[theta^2] stay within 3 sigma-hat of the
        # q^-1/2 law and shrink over the decades
        sd = np.sqrt(1 / 5 - 1 / 9)
        errs = {}
        for q in (100, 1000, 10000):
            rule = build_rule(MONTE_CARLO, 1, q, (-1.0, 1.0), seed=2024)
            errs[q] = abs(expect(rule, lambda t: t[0] ** 2).value - 1 / 3)
            assert errs[q] <= 3 * sd / np.sqrt(q)
        assert errs[10000] < errs[100]


class TestExpect:
    def test_error_names_node(self):
        rule = build_rule(TENSOR_GL, 1, 3, (0.0, 1.0))

        def bad(t):
            if t[0] > 0.5:
                raise RuntimeError("boom")
            return 1.0

        with pytest.raises(CollocationError, match="node") as err:
            expect(rule, bad)
        # a folded rule's indices are not the caller's: name the point too
        point = (float(rule.nodes[2, 0]),)
        assert f"coefficients {point!r}" in str(err.value)

    def test_threaded_matches_serial(self):
        rule = build_rule(TENSOR_GL, 2, 4, (0.0, 1.0))
        f = lambda t: float(np.exp(t[0]) * (1 + t[1]))
        serial = expect(rule, f, jobs=1).value
        threaded = expect(rule, f, jobs=4).value
        assert serial == threaded

    def test_components_match_scalar_expectations(self):
        # each component of an array-valued functional is reduced exactly
        # as the scalar expectation of that component alone
        rule = build_rule(SMOLYAK, 3, 4, (-1, 1))
        parts = [lambda t: float(np.exp(t[0]) * (1 + t[1] ** 2)),
                 lambda t: float(np.cos(t @ np.array([1.0, 2.0, 3.0]))),
                 lambda t: float(t[2] / 3 + 0.1)]
        vector = expect(rule, lambda t: [f(t) for f in parts]).value
        assert vector.shape == (3,)
        for f, got in zip(parts, vector):
            assert got == expect(rule, f).value

    def test_deterministic_across_runs(self):
        rule = build_rule(SMOLYAK, 3, 4, (-1, 1))
        f = lambda t: float(np.cos(t @ np.array([1.0, 2.0, 3.0])))
        assert expect(rule, f).value == expect(rule, f).value


class TestExpectField:
    """A field-valued functional: the node-wise weighted sum of fields."""

    def make_field(self, grid, c):
        return np.full(grid.shape, c)

    def test_constant_field(self):
        grid = Grid2D.unit(4, 4)
        rule = build_rule(TENSOR_GL, 1, 2, (-1, 1))
        out = expect(rule, lambda t: self.make_field(grid, 2.5)).value
        assert out == pytest.approx(np.full(grid.shape, 2.5))

    def test_linear_field_mean(self):
        grid = Grid2D.unit(4, 4)
        rule = build_rule(TENSOR_GL, 1, 2, (0.0, 1.0))
        out = expect(rule, lambda t: self.make_field(grid, t[0])).value
        assert out == pytest.approx(np.full(grid.shape, 0.5))

    def test_odd_field_vanishes(self):
        grid = Grid2D.unit(4, 4)
        rule = build_rule(TENSOR_GL, 1, 3, (-1.0, 1.0))
        out = expect(rule, lambda t: self.make_field(grid, t[0] ** 3)).value
        assert np.abs(out).max() < 1e-14


def even_functional(t):
    # invariant under flipping t[1] alone and t[0], t[2] together
    t = np.asarray(t)
    return float(np.exp(np.cos(t[0] + 2 * t[2]) + t[1] ** 2)
                 + np.cos(t[0] * t[2]) * (1 + t[1] ** 2))


class TestFold:
    @pytest.mark.parametrize("m", [3, 5, 9, 17])
    def test_clenshaw_curtis_nodes_antisymmetric(self, m):
        x, _ = _clenshaw_curtis_1d(m)
        assert np.array_equal(x, -x[::-1])
        assert x[m // 2] == 0.0 and not np.signbit(x[m // 2])

    def test_gauss_legendre_nodes_antisymmetric(self):
        for n in range(1, 12):
            x = build_rule(TENSOR_GL, 1, n, (-1.0, 1.0)).nodes[:, 0]
            assert np.array_equal(x, -x[::-1])

    @pytest.mark.parametrize("kind,size,kept", [(TENSOR_GL, 2, 2),
                                                (TENSOR_GL, 3, 10),
                                                (SMOLYAK, 3, 11)])
    def test_folded_expectation_matches_full_rule(self, kind, size, kept):
        rule = build_rule(kind, 3, size, (-1.0, 1.0))
        folded = fold(rule, [(-1, -1, -1), (-1, 1, -1)])
        assert folded.node_count == kept
        assert expect(folded, even_functional).value == pytest.approx(
            expect(rule, even_functional).value, rel=1e-14)

    def test_lowest_index_representatives_and_index_order_sums(self):
        rule = build_rule(SMOLYAK, 2, 3, (-0.5, 0.5))
        flips = [(-1, -1)]
        folded = fold(rule, flips)
        keys = [tuple(n.tolist()) for n in rule.nodes]
        rep = [min(qi, keys.index(tuple(-c for c in key)))
               for qi, key in enumerate(keys)]
        kept = sorted(set(rep))
        assert np.array_equal(folded.nodes, rule.nodes[kept])
        for r, w in zip(kept, folded.weights):
            total = 0.0
            for qi in range(rule.node_count):
                if rep[qi] == r:
                    total += rule.weights[qi]
            assert w == total
        # the flips' products join the group: two generators, four maps
        both = fold(rule, [(-1, 1), (1, -1)])
        assert both.node_count == fold(both, [(-1, -1)]).node_count < len(kept)

    @pytest.mark.parametrize("kind,size,support", [
        (MONTE_CARLO, 64, (-1.0, 1.0)),
        (TENSOR_GL, 3, (0.0, 1.0)),
        (SMOLYAK, 3, (0.0, 1.0)),
    ])
    def test_rules_without_mirrored_nodes_fold_nothing(self, kind, size,
                                                       support):
        rule = build_rule(kind, 3, size, support, seed=5)
        assert fold(rule, [(-1, -1, -1), (-1, 1, -1), (1, -1, 1)]) is rule

    def test_threaded_matches_serial(self):
        folded = fold(build_rule(SMOLYAK, 3, 4, (-1, 1)), [(-1, -1, -1)])
        assert expect(folded, even_functional, jobs=1).value == \
            expect(folded, even_functional, jobs=4).value

    def test_rejects_non_sign_vectors(self):
        rule = build_rule(TENSOR_GL, 2, 2, (-1.0, 1.0))
        for flip in [(-1,), (-1, 1, 1), (0.5, -1)]:
            with pytest.raises(ValueError, match="sign vector"):
                fold(rule, [flip])
