"""Structured-grid finite differences shared by every solver in the package.

Grids are tensor products over a rectangle.  The first coordinate (called y
here, the film-depth coordinate in the physical solvers) carries u = 0 on
its first row, the quenching interface, and a reflecting homogeneous
Neumann condition on its last row; the second coordinate z is periodic.
Everything is built from the centred second-order difference quotients

    D+D-y u = (u[i+1,j] - 2 u[i,j] + u[i-1,j]) / hy**2
    D0y   u = (u[i+1,j] - u[i-1,j]) / (2 hy)
    D0yD0z u = (u[i+1,j+1] - u[i+1,j-1] - u[i-1,j+1] + u[i-1,j-1]) / (4 hy hz)

and their z analogues.  The Neumann row is closed with a ghost row: the
centred boundary derivative D0y u = 0 identifies the ghost values with the
row below, so the top row's northern stencil weights are added to its
southern ones.  That cancels the D0y and mixed-derivative contributions
there exactly.  The cancelled mixed-derivative slots stay in the matrix as
explicit zeros (C + (-C) = +0.0): the sparsity structure fixes SuperLU's
fill-reducing ordering, and with it every bit of the factors.  The periodic
direction keeps a single copy of the seam column (the last column aliases
the first) so the assembled system has full rank; the duplicate column is
reconstructed on output.  Unknowns are therefore the ny*nz node values with
row index i = 1..ny and column index j = 0..nz-1.

The assembled matrix has at most nine entries per row and is factorized by
a sparse direct LU (SuperLU with minimum-degree ordering on A^T + A, which
is markedly faster than the default ordering on this nearly symmetric
pattern).  One :class:`EllipticOperator` can solve many right-hand sides
against a single factorization, which the sensitivity solvers rely on.

SuperLU also gets a supernode relaxation of 1 and a panel width of 1, in
place of scipy's 10 and 20, which are sized for larger supernodes than a
nine-point stencil makes.  The ordering, the pivots and the fill of L + U
are the same either way; only rounding moves (solutions agree to 1e-13
relative).  On mapped operators (2 vCPUs of a shared AMD EPYC, scipy
1.17.1) a factorization takes 0.61 of the default's time at 32 x 32 and
0.76-0.80 of it at 64 x 64 to 256 x 128, with a third to a half fewer
minor page faults.

scipy is loaded on first use, not on import: the first
:class:`EllipticOperator` imports ``scipy.sparse`` and
``scipy.sparse.linalg``, so the closed-form studies, which build no
operator, never load them.  Until then the module attributes ``sp`` and
``spla`` resolve through the module ``__getattr__`` (PEP 562), which loads
them on the spot.  A value bound to either attribute from outside before
that wins over the first load, and :meth:`EllipticOperator.factorize`
looks ``spla`` up at call time, so a stand-in ``spla`` installed before any
operator exists sees every ``splu`` call.
"""

from __future__ import annotations

import functools
import importlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid2D",
    "Field2D",
    "PdeCoefficients",
    "EllipticOperator",
    "SolverError",
    "check_residual",
    "trapezoid_2d",
]

#: Relative residual accepted from the direct solver.  Fixed once so that
#: downstream tolerances do not depend on the backend.
RESIDUAL_RTOL = 1e-10

_PERMC_SPEC = "MMD_AT_PLUS_A"
#: SuperLU's supernode relaxation and panel width (see the module docstring)
_SUPERNODES = {"relax": 1, "panel_size": 1}


def _load_scipy() -> None:
    # setdefault keeps a value that an outside caller or another thread
    # bound first (see the module docstring)
    globals().setdefault("sp", importlib.import_module("scipy.sparse"))
    globals().setdefault("spla", importlib.import_module("scipy.sparse.linalg"))


def __getattr__(name):
    # Called only while ``name`` is unbound.
    if name in ("sp", "spla"):
        _load_scipy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SolverError(RuntimeError):
    """Linear solve failed or produced an unacceptable residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Grid2D:
    """Uniform tensor grid with ny x nz cells ((ny+1) x (nz+1) nodes)."""

    ny: int
    nz: int
    hy: float
    hz: float

    def __post_init__(self):
        if self.ny < 4 or self.nz < 4:
            raise ValueError("need at least 4 cells in each direction")
        if self.hy <= 0 or self.hz <= 0:
            raise ValueError("grid spacings must be positive")

    @classmethod
    def unit(cls, ny: int, nz: int | None = None) -> "Grid2D":
        nz = ny if nz is None else nz
        return cls(ny, nz, 1.0 / ny, 1.0 / nz)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.ny + 1, self.nz + 1)

    @property
    def y(self) -> np.ndarray:
        return np.arange(self.ny + 1) * self.hy

    @property
    def z(self) -> np.ndarray:
        return np.arange(self.nz + 1) * self.hz


@dataclass
class Field2D:
    """Node values on a :class:`Grid2D`; column nz aliases column 0 when the
    field is periodic in z (all solver output satisfies this by
    construction)."""

    grid: Grid2D
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid "
                f"shape {self.grid.shape}")


@dataclass(frozen=True)
class PdeCoefficients:
    """Node coefficients of  cyy u_yy + czz u_zz + cyz u_yz + cy u_y + c0 u.

    Each entry may be a scalar or an array broadcastable to the node shape
    (ny+1, nz+1); z-only profiles are passed as shape (nz+1,), y-only ones
    as (ny+1, 1).
    """

    cyy: object
    czz: object
    cyz: object = 0.0
    cy: object = 0.0
    c0: object = 0.0


def _broadcast(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


@dataclass(frozen=True)
class _StencilPattern:
    """CSC structure of the stencil matrix of one grid shape.

    The nine stencil emits of :class:`EllipticOperator`, concatenated,
    give one value per matrix slot, and ``data = values[order]`` fills the
    matrix: the ghost fold has already added the top row's northern weights
    to its southern ones, so no two emits share a slot.  The top row's
    mixed-derivative slots hold the fold's +0.0 and stay in the pattern:
    dropping them would change SuperLU's ordering.
    """

    indptr: np.ndarray
    indices: np.ndarray
    order: np.ndarray


@functools.lru_cache(maxsize=8)
def _stencil_pattern(ny: int, nz: int) -> _StencilPattern:
    I, J = np.meshgrid(np.arange(ny), np.arange(nz), indexing="ij")
    base = I * nz + J
    # A node and its z neighbours; its y neighbours lie a row (nz) away.
    # The top row has no northern emits (the ghost fold moved them onto its
    # southern ones), and row 1 has no southern ones: they lie on the first
    # row, where u = 0.
    level = (base, I * nz + (J + 1) % nz, I * nz + (J - 1) % nz)
    cols = (level + tuple(c[:-1] + nz for c in level)
            + tuple(c[1:] - nz for c in level))
    row = np.concatenate([base.ravel()] * 3 + [base[:-1].ravel()] * 3
                         + [base[1:].ravel()] * 3)
    col = np.concatenate([c.ravel() for c in cols])
    n = ny * nz
    order = np.argsort(col * n + row)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(col, minlength=n), out=indptr[1:])
    pattern = _StencilPattern(indptr=indptr,
                              indices=row[order].astype(np.int32), order=order)
    for array in vars(pattern).values():
        array.flags.writeable = False
    return pattern


class EllipticOperator:
    """Stencil matrix for fixed coefficients, reusable across right-hand
    sides; the solution is 0 on the first row.

    The matrix depends only on the coefficients, so it is assembled and
    factorized once; :meth:`solve_field` then costs two triangular solves.
    Its sparsity pattern depends only on the grid shape and is built once
    per shape (a small cache keeps the latest few).
    Its rows follow the unknown layout idx = (i-1)*nz + j, and each equation
    is divided by the magnitude of its diagonal stencil weight, which keeps
    the residual tolerance meaningful when the mapped geometry stretches
    coefficient magnitudes across many orders.
    """

    def __init__(self, grid: Grid2D, coeffs: PdeCoefficients):
        _load_scipy()
        self.grid = grid
        ny, nz = grid.ny, grid.nz
        shape = grid.shape

        cyy = _broadcast(coeffs.cyy, shape)[1:, :nz]
        czz = _broadcast(coeffs.czz, shape)[1:, :nz]
        cyz = _broadcast(coeffs.cyz, shape)[1:, :nz]
        cy = _broadcast(coeffs.cy, shape)[1:, :nz]
        c0 = _broadcast(coeffs.c0, shape)[1:, :nz]

        A = cyy / grid.hy ** 2
        B = czz / grid.hz ** 2
        C = cyz / (4.0 * grid.hy * grid.hz)
        E = cy / (2.0 * grid.hy)

        diag = -2.0 * A - 2.0 * B + c0
        magnitude = np.abs(diag).ravel()
        self._row_scale = np.where(magnitude > 0, magnitude, 1.0)
        scale = (1.0 / self._row_scale).reshape(ny, nz)
        # The emits in the order of _stencil_pattern, each equation scaled
        # before the ghost fold adds the top row's northern weights to its
        # southern ones.
        north = [v * scale for v in (A + E, C, -C)]
        south = [v * scale for v in (A - E, -C, C)]
        for n_w, s_w in zip(north, south):
            s_w[-1] += n_w[-1]
        values = np.concatenate([(v * scale).ravel() for v in (diag, B, B)]
                                + [v[:-1].ravel() for v in north]
                                + [v[1:].ravel() for v in south])
        pattern = _stencil_pattern(ny, nz)
        n = ny * nz
        self._matrix = sp.csc_matrix(
            (values[pattern.order], pattern.indices, pattern.indptr),
            shape=(n, n))
        self._lu = None

    @property
    def matrix(self) -> sp.csc_matrix:
        return self._matrix

    def rhs(self, source) -> np.ndarray:
        """Right-hand side of  L u + source = 0."""
        src = _broadcast(source, self.grid.shape)[1:, :self.grid.nz]
        return -src.ravel() / self._row_scale

    def factorize(self):
        # spla is looked up at call time, so a stand-in bound from outside
        # sees this call
        if self._lu is None:
            try:
                self._lu = spla.splu(self._matrix, permc_spec=_PERMC_SPEC,
                                     **_SUPERNODES)
            except RuntimeError as exc:
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        return self._lu

    def solve_vector(self, b: np.ndarray) -> np.ndarray:
        """Direct solve against the stored factorization; deterministic,
        residual-checked.

        Strongly stretched interface geometries produce badly scaled rows;
        up to two sweeps of iterative refinement push the residual back to
        the fixed tolerance without touching the factorization.
        """
        lu = self.factorize()
        x = lu.solve(b)
        tol = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(b)))
        for sweep in range(3):
            # r is always the residual of the returned x
            r = b - self._matrix @ x
            if sweep == 2 or float(np.linalg.norm(r)) <= tol:
                break
            x = x + lu.solve(r)
        if not np.all(np.isfinite(x)):
            raise SolverError("solver produced non-finite values",
                              residual=np.inf)
        check_residual(r, b)
        return x

    def solve_field(self, source) -> Field2D:
        """Solve  L u + source = 0  and reattach the zero first row and the
        aliased periodic column."""
        ny, nz = self.grid.ny, self.grid.nz
        x = self.solve_vector(self.rhs(source))
        values = np.zeros(self.grid.shape)
        values[1:, :nz] = x.reshape(ny, nz)
        values[:, nz] = values[:, 0]
        return Field2D(self.grid, values)


def check_residual(residual: np.ndarray, b: np.ndarray) -> None:
    """Raise :class:`SolverError` unless the residual of a row-normalized
    system with right-hand side ``b`` is within ``RESIDUAL_RTOL``."""
    norm = float(np.linalg.norm(residual))
    if norm > RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(b))):
        raise SolverError(f"residual {norm:.3e} exceeds tolerance",
                          residual=norm)


def trapezoid_2d(field: Field2D, z_weight=None) -> float:
    """Composite trapezoid of the field over its rectangle.

    ``z_weight`` is an optional per-column factor (an array of nz+1 values);
    it multiplies the integrand before the z integration.
    """
    v = field.values
    if z_weight is not None:
        v = v * np.asarray(z_weight, dtype=float)[None, :]
    inner = np.trapezoid(v, dx=field.grid.hz, axis=1)
    return float(np.trapezoid(inner, dx=field.grid.hy))

