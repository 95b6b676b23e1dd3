"""Finite-difference core: stencils, assembly, solves, quadrature."""

import types

import numpy as np
import pytest
import scipy.sparse as sp

from exdil import fd_core
from exdil.cli import write_csv
from exdil.fd_core import EllipticOperator, Grid2D, SolverError, trapezoid_2d


def one_sided_dx_at_boundary(values, h):
    """Second-order one-sided derivative along the first axis at its first
    row: (-3 v[0] + 4 v[1] - v[2]) / (2 h), exact for quadratics (the
    scheme of the discrete expansion oracle in test_asymptotic)."""
    return (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)


def sample_field(grid, fn):
    """The node array of fn(y, z) on ``grid``."""
    Y, Z = np.meshgrid(grid.y, grid.z, indexing="ij")
    return fn(Y, Z)


def stencil_values(v, grid, i, j):
    """The centred difference quotients of the module docstring of the node
    array ``v`` at interior node (i, j) of ``grid``: the oracle the
    assembled rows are checked against."""
    ny, nz = grid.ny, grid.nz
    if not (1 <= i <= ny - 1 and 1 <= j <= nz - 1):
        raise ValueError(f"node ({i}, {j}) is not interior for centred forms")
    hy, hz = grid.hy, grid.hz
    return {
        "d0y": (v[i + 1, j] - v[i - 1, j]) / (2 * hy),
        "dpdmy": (v[i + 1, j] - 2 * v[i, j] + v[i - 1, j]) / hy ** 2,
        "dpdmz": (v[i, j + 1] - 2 * v[i, j] + v[i, j - 1]) / hz ** 2,
        "d0yd0z": (v[i + 1, j + 1] - v[i + 1, j - 1] - v[i - 1, j + 1]
                   + v[i - 1, j - 1]) / (4 * hy * hz),
    }


class TestStencils:
    def test_linear_exact(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y)
        assert stencil_values(f, g, 3, 4)["d0y"] == pytest.approx(1.0,
                                                                  rel=1e-13)

    def test_quadratic_second_difference(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y ** 2)
        assert stencil_values(f, g, 2, 5)["dpdmy"] == pytest.approx(2.0,
                                                                 rel=1e-12)

    def test_bilinear_cross(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y * z)
        assert stencil_values(f, g, 4, 4)["d0yd0z"] == pytest.approx(1.0,
                                                                  rel=1e-12)

    def test_out_of_range(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y)
        with pytest.raises(ValueError):
            stencil_values(f, g, 0, 4)
        with pytest.raises(ValueError):
            stencil_values(f, g, 8, 4)


class TestTrapezoid:
    def test_constant(self):
        g = Grid2D.unit(8, 8)
        assert trapezoid_2d(sample_field(g, lambda y, z: 1 + 0 * y), g) == \
            pytest.approx(1.0, rel=1e-14)

    def test_linear_exact(self):
        g = Grid2D.unit(16, 8)
        assert trapezoid_2d(sample_field(g, lambda y, z: y), g) == \
            pytest.approx(0.5, rel=1e-14)

    def test_periodic_sine_vanishes(self):
        g = Grid2D.unit(8, 10)
        f = sample_field(g, lambda y, z: np.sin(2 * np.pi * z))
        assert trapezoid_2d(f, g) == pytest.approx(0.0, abs=1e-15)

    def test_z_weight(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: 1 + 0 * y)
        assert trapezoid_2d(f, g, z_weight=np.full(9, 3.0)) == \
            pytest.approx(3.0, rel=1e-14)

    def test_1d(self):
        assert np.trapezoid(np.full(11, 2.5), dx=0.1) == pytest.approx(2.5)
        xs = np.linspace(0, 1, 11)
        assert np.trapezoid(3 * xs, dx=0.1) == pytest.approx(1.5, rel=1e-14)
        zs = np.sin(2 * np.pi * np.linspace(0, 1, 33))
        assert np.trapezoid(zs, dx=1 / 32) == pytest.approx(0.0, abs=1e-15)


class TestOneSided:
    def test_linear(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y)
        dx = one_sided_dx_at_boundary(f, g.hy)
        assert dx == pytest.approx(np.ones(9))

    def test_quadratic_exact(self):
        g = Grid2D.unit(8, 8)
        f = sample_field(g, lambda y, z: y ** 2)
        dx = one_sided_dx_at_boundary(f, g.hy)
        assert dx == pytest.approx(np.zeros(9), abs=1e-13)

    def test_convergence_order(self):
        errs, hs = [], []
        for n in (16, 32, 64, 128):
            g = Grid2D.unit(n, 4)
            f = sample_field(g, lambda y, z: np.sin(y) + 0 * z)
            errs.append(abs(one_sided_dx_at_boundary(f, g.hy)[0] - 1.0))
            hs.append(g.hy)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1


def screened_coeffs(sig2=1.0, cyz=0.0, cy=0.0):
    return dict(cyy=sig2, czz=sig2, cyz=cyz, cy=cy, c0=-1.0)


def manufactured(grid, sig2=0.8, cyz=0.25, cy=0.4):
    """u* satisfying the zero bottom row / top Neumann / periodic contract,
    with the matching source derived analytically."""
    Y, Z = np.meshgrid(grid.y, grid.z, indexing="ij")
    u = np.sin(np.pi * Y / 2) * (2.0 + np.cos(2 * np.pi * Z))
    u_y = (np.pi / 2) * np.cos(np.pi * Y / 2) * (2.0 + np.cos(2 * np.pi * Z))
    u_yy = -(np.pi / 2) ** 2 * u
    u_zz = -(2 * np.pi) ** 2 * np.sin(np.pi * Y / 2) * np.cos(2 * np.pi * Z)
    u_yz = -(np.pi / 2) * np.cos(np.pi * Y / 2) * 2 * np.pi * np.sin(2 * np.pi * Z)
    source = -(sig2 * u_yy + sig2 * u_zz + cyz * u_yz + cy * u_y - u)
    return u, source


def coo_matrix_oracle(grid, coeffs):
    """The stencil matrix assembled entry by entry as COO triplets and
    converted by scipy, which sums the ghost fold's duplicates."""
    ny, nz = grid.ny, grid.nz

    def node(c):
        return np.broadcast_to(np.asarray(c, dtype=float),
                               grid.shape)[1:, :nz]

    A = node(coeffs["cyy"]) / grid.hy ** 2
    B = node(coeffs["czz"]) / grid.hz ** 2
    C = node(coeffs["cyz"]) / (4.0 * grid.hy * grid.hz)
    E = node(coeffs["cy"]) / (2.0 * grid.hy)
    c0 = node(coeffs["c0"])
    I, J = np.meshgrid(np.arange(1, ny + 1), np.arange(nz), indexing="ij")
    jp, jm = (J + 1) % nz, (J - 1) % nz
    base = (I - 1) * nz + J
    up = np.where(I < ny, I + 1, ny - 1)
    south = I > 1
    triplets = [
        (base, base, -2.0 * A - 2.0 * B + c0),
        (base, (I - 1) * nz + jp, B), (base, (I - 1) * nz + jm, B),
        (base, (up - 1) * nz + J, A + E), (base, (up - 1) * nz + jp, C),
        (base, (up - 1) * nz + jm, -C),
        (base[south], ((I - 2) * nz + J)[south], (A - E)[south]),
        (base[south], ((I - 2) * nz + jp)[south], -C[south]),
        (base[south], ((I - 2) * nz + jm)[south], C[south])]
    rows = np.concatenate([r.ravel() for r, _, _ in triplets])
    cols = np.concatenate([c.ravel() for _, c, _ in triplets])
    vals = np.concatenate([np.broadcast_to(v, r.shape).ravel()
                           for r, _, v in triplets])
    diag = np.abs(-2.0 * A - 2.0 * B + c0).ravel()
    scale = 1.0 / np.where(diag > 0, diag, 1.0)
    n = ny * nz
    return sp.coo_matrix((vals * scale[rows], (rows, cols)),
                         shape=(n, n)).tocsc()


def random_coeffs(grid, seed):
    """Node coefficients with every stencil weight distinct, and the cross
    term zero on some nodes (so the matrix stores signed zeros)."""
    rng = np.random.default_rng(seed)
    cyz = rng.uniform(-0.5, 0.5, grid.shape)
    cyz[rng.uniform(size=grid.shape) < 0.3] = 0.0
    return dict(cyy=rng.uniform(0.5, 2.0, grid.shape),
                czz=rng.uniform(0.5, 2.0, grid.shape), cyz=cyz,
                cy=rng.uniform(-1.0, 1.0, grid.shape), c0=-1.0)


def column_map(nz, *images):
    """The smallest column of each z column's orbit under ``images``, the
    column maps j -> f(j) of a group's elements other than the identity."""
    j = np.arange(nz)
    return tuple(np.minimum.reduce([j] + [f(j) % nz for f in images])
                 .tolist())


def quotient_oracle(full, columns):
    """``full``, an ny*nz stencil matrix, times the expansion that copies
    each representative column onto its orbit, restricted to the
    representative rows: each reduced entry sums the full row's entries
    over an orbit, in column order, starting from the first, so a lone
    -0.0 keeps its sign."""
    nz = len(columns)
    columns = np.asarray(columns)
    position = np.cumsum(columns == np.arange(nz)) - 1
    nr = position[-1] + 1
    sums = {}
    coo = full.tocoo()
    for row, col, value in zip(coo.row, coo.col, coo.data):
        i, j = divmod(int(row), nz)
        if columns[j] == j:
            k, l = divmod(int(col), nz)
            key = (k * nr + position[columns[l]], i * nr + position[j])
            sums[key] = sums[key] + value if key in sums else value
    keys = sorted(sums)
    n = full.shape[0] // nz * nr
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount([c for c, _ in keys], minlength=n), out=indptr[1:])
    return sp.csc_matrix((np.array([sums[k] for k in keys]),
                          np.array([r for _, r in keys], dtype=np.int32),
                          indptr), shape=(n, n))


def same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.indptr, b.indptr), (a.indices, b.indices),
                            (a.data, b.data)))


class TestAssembleSolve:
    @pytest.mark.parametrize("ny, nz", [(4, 4), (4, 9), (7, 5), (32, 32),
                                        (128, 128)])
    def test_cached_pattern_matches_coo_oracle(self, ny, nz):
        # bit for bit, on the first call for a grid shape and on a second
        # call, with other coefficients, that reuses the cached pattern
        g = Grid2D.unit(ny, nz)
        for seed in (0, 1):
            coeffs = random_coeffs(g, seed)
            assert same_bits(EllipticOperator(g, **coeffs).matrix,
                             coo_matrix_oracle(g, coeffs))

    @pytest.mark.parametrize("ny, nz", [(4, 4), (5, 5), (5, 6), (6, 24),
                                        (6, 25), (5, 26), (7, 32)])
    def test_reduced_matrix_sums_the_full_one_over_orbits(self, ny, nz):
        # bit for bit, for every column map of the sine interface's group:
        # the reflection on any grid, and on even grids the half-period
        # shift, the mirror about a quarter period, and all three; the
        # coefficients need not be symmetric, since the reduced rows read
        # the representative columns only
        g = Grid2D.unit(ny, nz)
        half = nz // 2
        maps = [column_map(nz, lambda j: -j)]
        if nz % 2 == 0:
            maps += [column_map(nz, lambda j: j + half),
                     column_map(nz, lambda j: half - j),
                     column_map(nz, lambda j: -j, lambda j: j + half,
                                lambda j: half - j)]
        for columns in maps:
            for seed in (0, 1):
                coeffs = random_coeffs(g, seed)
                reduced = EllipticOperator(g, columns=columns,
                                           **coeffs).matrix
                assert reduced.shape[0] == ny * len(set(columns))
                assert same_bits(reduced, quotient_oracle(
                    coo_matrix_oracle(g, coeffs), columns))

    def test_reduced_solve_expands_to_the_full_solution(self):
        # coefficients and source with the mirror symmetry j -> nz/2 - j,
        # under which the mixed-derivative coefficient changes sign
        g = Grid2D.unit(12, 16)
        z = g.z
        even = 1.0 + 0.3 * np.sin(2 * np.pi * z)
        odd = 0.2 * np.cos(2 * np.pi * z)
        coeffs = dict(cyy=even, czz=0.8, cyz=odd, cy=0.1 * even, c0=-1.0)
        source = 1.0 + 0.5 * np.sin(2 * np.pi * z)[None, :] * g.y[:, None]
        full = EllipticOperator(g, **coeffs).solve_field(source)
        columns = column_map(g.nz, lambda j: g.nz // 2 - j)
        op = EllipticOperator(g, columns=columns, **coeffs)
        reduced = op.solve_field(source)
        assert op.matrix.shape == (12 * 9, 12 * 9)
        assert np.abs(reduced - full).max() <= 1e-12 * np.abs(full).max()
        assert np.array_equal(reduced[:, columns], reduced[:, :g.nz])

    def test_checks_the_residual_of_the_returned_solution(self, monkeypatch):
        # an LU whose first `bad` solves are off by 1e-3 in one entry: two
        # bad solves are repaired by the second refinement sweep, three are
        # not, and the residual check must see the difference
        g = Grid2D.unit(16, 16)
        _, source = manufactured(g)
        exact = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        b = exact.rhs(source)
        expected = exact.solve_vector(b)
        splu = fd_core.spla.splu

        def perturbed_splu(bad):
            def factor(matrix, **options):
                lu, calls = splu(matrix, **options), []

                def solve(rhs):
                    calls.append(None)
                    x = lu.solve(rhs)
                    if len(calls) <= bad:
                        x[x.size // 2] += 1e-3
                    return x
                return types.SimpleNamespace(solve=solve)
            return types.SimpleNamespace(splu=factor)

        monkeypatch.setattr(fd_core, "spla", perturbed_splu(2))
        op = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        assert op.solve_vector(b) == pytest.approx(expected, abs=1e-12)
        monkeypatch.setattr(fd_core, "spla", perturbed_splu(3))
        op = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        with pytest.raises(SolverError, match="residual"):
            op.solve_vector(b)


    def test_zero_source_zero_solution(self):
        g = Grid2D.unit(8, 8)
        op = EllipticOperator(g, **screened_coeffs())
        x = op.solve_vector(op.rhs(0.0))
        assert np.abs(x).max() < 1e-14

    def test_manufactured_convergence(self):
        errs, hs = [], []
        for n in (16, 32, 64):
            g = Grid2D.unit(n, n)
            u, source = manufactured(g)
            op = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
            got = op.solve_field(source)
            errs.append(np.abs(got - u).max())
            hs.append(g.hy)
        slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert 1.9 < slope < 2.1

    def test_matches_dense_lu_oracle(self):
        g = Grid2D.unit(8, 8)
        _, source = manufactured(g)
        op = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        b = op.rhs(source)
        dense = np.linalg.solve(op.matrix.toarray(), b)
        assert op.solve_vector(b) == pytest.approx(dense, abs=1e-10)

    def test_row_reproduces_stencil(self):
        # applying an assembled interior row to a smooth sample equals the
        # stencil formula built from the difference quotients
        g = Grid2D.unit(12, 10)
        coeffs = screened_coeffs(0.8, 0.25, 0.4)
        matrix = EllipticOperator(g, **coeffs).matrix.tocsr()
        # Rows are normalized by the magnitude of their diagonal weight.
        row_scale = 2 * 0.8 / g.hy ** 2 + 2 * 0.8 / g.hz ** 2 + 1.0
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(g.shape)
        vals[:, -1] = vals[:, 0]
        u_flat = vals[1:, :g.nz].ravel()
        for (i, j) in [(2, 3), (5, 7), (g.ny - 1, 1)]:
            idx = (i - 1) * g.nz + j
            row_action = matrix[idx] @ u_flat * row_scale
            q = stencil_values(vals, g, i, j)
            expected = (0.8 * q["dpdmy"] + 0.8 * q["dpdmz"]
                        + 0.25 * q["d0yd0z"] + 0.4 * q["d0y"] - vals[i, j])
            assert row_action == pytest.approx(float(expected), rel=1e-12)

    def test_periodic_translation_equivariance(self):
        # rolling the coefficient columns and source rolls the solution
        g = Grid2D.unit(8, 16)
        rng = np.random.default_rng(1)
        src_profile = rng.uniform(0.5, 1.5, g.nz)
        src_profile = np.concatenate([src_profile, src_profile[:1]])
        source = np.broadcast_to(src_profile, g.shape)
        op = EllipticOperator(g, **screened_coeffs())
        base = op.solve_field(source)

        rolled = np.concatenate([np.roll(src_profile[:-1], 3),
                                 [np.roll(src_profile[:-1], 3)[0]]])
        got = EllipticOperator(g, **screened_coeffs()).solve_field(
            np.broadcast_to(rolled, g.shape))
        assert got[:, :g.nz] == pytest.approx(np.roll(base[:, :g.nz], 3, axis=1),
                                              abs=1e-12)

    def test_deterministic(self):
        g = Grid2D.unit(16, 16)
        _, source = manufactured(g)
        op1 = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        op2 = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4))
        a = op1.solve_field(source)
        b = op2.solve_field(source)
        assert np.array_equal(a, b)

    def test_nonnegative_source_nonnegative_solution(self):
        g = Grid2D.unit(16, 16)
        Y, Z = np.meshgrid(g.y, g.z, indexing="ij")
        op = EllipticOperator(g, **screened_coeffs())
        got = op.solve_field(1.0 + 0.5 * np.sin(2 * np.pi * Z))
        assert got.min() >= -1e-10

    def test_singular_detected(self):
        g = Grid2D.unit(4, 4)
        op = EllipticOperator(g, cyy=0.0, czz=0.0, cyz=0.0, cy=0.0,
                              c0=0.0)
        with pytest.raises(SolverError):
            op.solve_field(1.0)

    @pytest.mark.parametrize("missing", ["cyy", "czz", "cyz", "cy", "c0"])
    def test_every_coefficient_is_a_required_keyword(self, missing):
        coeffs = screened_coeffs()
        del coeffs[missing]
        with pytest.raises(TypeError, match=missing):
            EllipticOperator(Grid2D.unit(4, 4), **coeffs)


class TestGridAndField:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            Grid2D.unit(3, 8)
        with pytest.raises(ValueError):
            Grid2D(8, 8, -0.1, 0.1)

    def test_rect(self):
        g = Grid2D(10, 20, 5.0 / 10, 8.0 / 20)
        assert g.hy == pytest.approx(0.5)
        assert g.hz == pytest.approx(0.4)
        assert g.y[-1] == pytest.approx(5.0)
        assert g.z[-1] == pytest.approx(8.0)

    @pytest.mark.parametrize("shape", [(3, 3), (9, 8), (8, 9), (9,)])
    def test_trapezoid_checks_the_shape(self, shape):
        g = Grid2D.unit(8, 8)
        with pytest.raises(ValueError, match="does not match grid shape"):
            trapezoid_2d(np.zeros(shape), g)

    def test_field_csv(self, tmp_path):
        g = Grid2D.unit(4, 4)
        f = sample_field(g, lambda y, z: y + z)
        path = tmp_path / "field.csv"
        write_csv(path, ["y", "z", "value"],
                  [[f"{y:.17g}", f"{z:.17g}", f"{v:.17g}"]
                   for y, row in zip(g.y, f) for z, v in zip(g.z, row)],
                  "deadbeef")
        text = path.read_bytes().decode()
        lines = text.split("\n")
        assert lines[0] == "# config_hash=deadbeef"
        assert lines[1] == "y,z,value"
        assert lines[-1] == "" and "\r" not in text
        assert len(lines) == 2 + 25 + 1

    def test_solution_is_a_periodic_node_array(self):
        g = Grid2D.unit(8, 10)
        _, source = manufactured(g)
        f = EllipticOperator(g, **screened_coeffs(0.8, 0.25, 0.4)).solve_field(
            source)
        assert isinstance(f, np.ndarray) and f.dtype == np.float64
        assert f.shape == g.shape
        assert np.array_equal(f[0], np.zeros(g.nz + 1))
        assert np.array_equal(f[:, g.nz], f[:, 0])
