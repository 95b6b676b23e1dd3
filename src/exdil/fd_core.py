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
row index i = 1..ny and column index j = 0..nz-1.  A solution is returned,
like every per-node quantity, as a plain (ny+1, nz+1) node array.

A solution known to be symmetric in z needs only part of the period.  A
column map sends each z column to the representative of its orbit under
the symmetry, the smallest column of the orbit.  The unknowns are then the
node values on the representative columns, the equations are theirs, and
each neighbour is replaced by its representative.  Assembly is one slot
summation for this and for the ghost fold: every stencil weight names the
matrix slot of its neighbour, and the weights of a slot are added.  The
top row's mixed weights are emitted as the zeros they cancel to, so a slot
adds at most two other weights, and each sum is a single rounding, the
same in either order.  The reduced matrix is therefore, bit for bit, the
full matrix with each row's entries summed over every orbit, restricted to
the representative rows; the identity map, the default, gives the full
matrix itself.

:class:`EllipticOperator` discretizes
cyy u_yy + czz u_zz + cyz u_yz + cy u_y + c0 u, and takes the five node
coefficients as the keywords ``cyy``, ``czz``, ``cyz``, ``cy`` and ``c0``,
and an optional column map as ``columns``.

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


def _broadcast(value, shape) -> np.ndarray:
    return np.broadcast_to(np.asarray(value, dtype=float), shape)


@dataclass(frozen=True)
class _StencilPattern:
    """CSC structure of the stencil matrix of one grid shape and column map.

    ``reps`` are the representative z columns, the ones that carry
    unknowns, and ``target[j]`` is the reduced column of z column j (the
    position of its representative in ``reps``).  The nine stencil emits of
    :class:`EllipticOperator` at the representative columns, concatenated,
    give one weight per emit.  ``values[take]`` fills each matrix slot with
    its first emit, so a slot of one emit keeps its bits, and
    ``np.add.at(data, fold_into, values[fold_take])`` adds the others, slot
    by slot in emit order.  Those are the top row's northern emits, which
    land in its southern slots (the ghost fold), and the emits whose
    neighbour column lands in its representative's slot.  The top row's
    mixed-derivative slots hold the fold's +0.0 and stay in the pattern:
    dropping them would change SuperLU's ordering.
    """

    reps: np.ndarray
    target: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    take: np.ndarray
    fold_into: np.ndarray
    fold_take: np.ndarray


# 8 grid shapes, with at most 4 column maps each (see forward_mapped)
@functools.lru_cache(maxsize=32)
def _stencil_pattern(ny: int, nz: int, columns: tuple[int, ...]
                     ) -> _StencilPattern:
    columns = np.array(columns)
    is_rep = columns == np.arange(nz)
    reps = np.flatnonzero(is_rep)
    target = (np.cumsum(is_rep) - 1)[columns]
    nr = reps.size
    n = ny * nr
    rows = np.arange(ny)[:, None]
    here = rows * nr + np.arange(nr)
    # Each emit's slot, (matrix column) * n + (matrix row), for a node and
    # its z neighbours on its own row, the row above and the row below.
    # The top row's northern emits land on the row below it (the ghost
    # fold), and row 1 has no southern ones: they lie on the first row,
    # where u = 0.
    column = [target[(reps + step) % nz] for step in (0, 1, -1)]
    north = np.where(rows < ny - 1, rows + 1, ny - 2)
    slot = np.concatenate(
        [(r * nr + c) * n + here for r in (rows, north) for c in column]
        + [(rows[:-1] * nr + c) * n + here[1:] for c in column]).ravel()
    order = np.argsort(slot, kind="stable")
    slot = slot[order]
    first = np.diff(slot, prepend=-1) != 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(slot[first] // n, minlength=n), out=indptr[1:])
    # take keeps numpy's index type: a gather through int32 indices took
    # twice as long, as they are converted on every call
    pattern = _StencilPattern(
        reps=reps, target=target, indptr=indptr,
        indices=(slot[first] % n).astype(np.int32),
        take=order[first],
        fold_into=(np.cumsum(first) - 1)[~first].astype(np.int32),
        fold_take=order[~first].astype(np.int32))
    for array in vars(pattern).values():
        array.flags.writeable = False
    return pattern


class EllipticOperator:
    """Stencil matrix of  L u = cyy u_yy + czz u_zz + cyz u_yz + cy u_y + c0 u
    for fixed coefficients, reusable across right-hand sides; the solution
    is 0 on the first row.

    The five coefficients are required keywords at the nodes.  Each may be
    a scalar or an array broadcastable to the node shape (ny+1, nz+1);
    z-only profiles are passed as shape (nz+1,), y-only ones as (ny+1, 1).

    ``columns`` is a column map (see the module docstring): the
    representative of each of the nz z columns, with representatives
    mapped to themselves.  The coefficients and sources are read at the
    representative columns only, so they must have the map's symmetry;
    the default maps every column to itself.

    The matrix depends only on the coefficients, so it is assembled and
    factorized once; :meth:`solve_field` then costs two triangular solves.
    Its sparsity pattern depends only on the grid shape and the column map
    and is built once per pair (a small cache keeps the latest few).
    Its rows follow the unknown layout idx = (i-1)*nr + r, with r the
    position of column j among the nr representatives, and each equation
    is divided by the magnitude of its diagonal stencil weight, which keeps
    the residual tolerance meaningful when the mapped geometry stretches
    coefficient magnitudes across many orders.
    """

    def __init__(self, grid: Grid2D, *, cyy, czz, cyz, cy, c0,
                 columns: tuple[int, ...] | None = None):
        _load_scipy()
        self.grid = grid
        ny, nz = grid.ny, grid.nz
        self._pattern = pattern = _stencil_pattern(
            ny, nz, tuple(range(nz)) if columns is None else tuple(columns))
        cyy, czz, cyz, cy, c0 = (
            _broadcast(c, grid.shape)[1:].take(pattern.reps, axis=1)
            for c in (cyy, czz, cyz, cy, c0))

        A = cyy / grid.hy ** 2
        B = czz / grid.hz ** 2
        C = cyz / (4.0 * grid.hy * grid.hz)
        # The ghost fold cancels the top row's mixed weights, north against
        # south, to +0.0 (see the module docstring); they are emitted as
        # the zeros they sum to.
        C[-1] = 0.0
        E = cy / (2.0 * grid.hy)

        diag = -2.0 * A - 2.0 * B + c0
        magnitude = np.abs(diag).ravel()
        self._row_scale = np.where(magnitude > 0, magnitude, 1.0)
        scale = 1.0 / self._row_scale.reshape(diag.shape)
        # The emits in the order of _stencil_pattern, each equation scaled;
        # the pattern's slot sums add the top row's northern weights to its
        # southern ones.
        values = np.concatenate([(v * scale).ravel() for v in
                                 (diag, B, B, A + E, C, -C)]
                                + [(v * scale)[1:].ravel()
                                   for v in (A - E, -C, C)])
        data = values[pattern.take]
        np.add.at(data, pattern.fold_into, values[pattern.fold_take])
        n = self._row_scale.size
        self.matrix = sp.csc_matrix((data, pattern.indices, pattern.indptr),
                                    shape=(n, n))
        self._lu = None

    def rhs(self, source) -> np.ndarray:
        """Right-hand side of  L u + source = 0."""
        src = _broadcast(source, self.grid.shape)[1:].take(
            self._pattern.reps, axis=1)
        return -src.ravel() / self._row_scale

    def factorize(self):
        # spla is looked up at call time, so a stand-in bound from outside
        # sees this call
        if self._lu is None:
            try:
                self._lu = spla.splu(self.matrix, permc_spec=_PERMC_SPEC,
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
            r = b - self.matrix @ x
            if sweep == 2 or float(np.linalg.norm(r)) <= tol:
                break
            x = x + lu.solve(r)
        if not np.all(np.isfinite(x)):
            raise SolverError("solver produced non-finite values")
        check_residual(r, b)
        return x

    def solve_field(self, source) -> np.ndarray:
        """Solve  L u + source = 0  and return the node array: the zero
        first row, the columns the column map leaves out and column nz,
        which aliases column 0, reattached."""
        ny, nz = self.grid.ny, self.grid.nz
        x = self.solve_vector(self.rhs(source))
        values = np.zeros(self.grid.shape)
        values[1:, :nz] = x.reshape(ny, -1).take(self._pattern.target, axis=1)
        values[:, nz] = values[:, 0]
        return values


def check_residual(residual: np.ndarray, b: np.ndarray) -> None:
    """Raise :class:`SolverError` unless the residual of a row-normalized
    system with right-hand side ``b`` is within ``RESIDUAL_RTOL``."""
    norm = float(np.linalg.norm(residual))
    if norm > RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(b))):
        raise SolverError(f"residual {norm:.3e} exceeds tolerance")


def trapezoid_2d(values, grid: Grid2D, z_weight=None) -> float:
    """Composite trapezoid over the rectangle of ``grid`` of its node array
    ``values``, which must have the grid's shape.

    ``z_weight`` is an optional per-column factor (an array of nz+1 values);
    it multiplies the integrand before the z integration.
    """
    if np.shape(values) != grid.shape:
        raise ValueError(f"values shape {np.shape(values)} does not match "
                         f"grid shape {grid.shape}")
    if z_weight is not None:
        values = values * np.asarray(z_weight, dtype=float)[None, :]
    inner = np.trapezoid(values, dx=grid.hz, axis=1)
    return float(np.trapezoid(inner, dx=grid.hy))

