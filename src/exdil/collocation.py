"""Quadrature over the coefficient space of the random interface.

Three rule families produce nodes s_q in [a, b]^K and probability weights
w_q (summing to one), so an expectation is the weighted sum

    E[f] = sum_q w_q f(s_q).

* ``tensor_gl`` — Gauss-Legendre per dimension, tensorized.  Exact for
  per-dimension polynomial degree <= 2n-1; the acceptance oracle.
* ``smolyak`` — the sparse combination of nested Clenshaw-Curtis rules.
  With 1D levels m(1) = 1, m(l) = 2**(l-1) + 1, the level-q rule in K
  dimensions sums the tensor products of all 1D levels i with
  q <= |i| <= q + K - 1, weighted by the usual alternating binomial
  combination coefficients.  Nested points are merged exactly by indexing
  them on the finest level's grid (integers, no float keying).
* ``monte_carlo`` — i.i.d. uniform draws with equal weights; seeded.

Node evaluation may fan out over worker threads, but the reduction is
always the fixed node-order weighted sum, so results are bit-identical
regardless of the worker count.  A functional may return an array (say a
value and its derivatives); each component is then reduced on its own by
that same sum.

Every rule on a support symmetric about zero has bitwise antisymmetric 1D
nodes (Gauss-Legendre by construction, Clenshaw-Curtis by explicit
antisymmetrization), so a node's mirror image under sign flips of its
coordinates is again a node, bit for bit.  :func:`fold` uses this: given
sign vectors under which a functional is known to be invariant, it merges
each orbit of nodes into its lowest-index member with the orbit's summed
weight.  Matching is exact, so a rule without such mirror images (Monte
Carlo draws, a support such as [0, 1]) folds to itself; no tolerance and no
support check is involved.  Whether a functional has the symmetry is the
caller's knowledge, so :func:`expect` never folds on its own.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable

import numpy as np

__all__ = [
    "TENSOR_GL",
    "SMOLYAK",
    "MONTE_CARLO",
    "QuadratureRule",
    "ExpectationResult",
    "CollocationError",
    "build_rule",
    "expect",
    "fold",
]

TENSOR_GL = "tensor_gl"
SMOLYAK = "smolyak"
MONTE_CARLO = "monte_carlo"


class CollocationError(RuntimeError):
    """A node functional failed; the message names the offending node."""


@dataclass(frozen=True)
class QuadratureRule:
    dim: int
    nodes: np.ndarray     # (Q, dim)
    weights: np.ndarray   # (Q,)
    descriptor: str

    def __post_init__(self):
        nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != (weights.size, self.dim):
            raise ValueError("nodes and weights are inconsistent")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {weights.sum()!r}, not 1")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def node_count(self) -> int:
        return self.weights.size


@dataclass
class ExpectationResult:
    value: float | np.ndarray    # an array when the functional returns one


def _gauss_legendre_1d(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, w / 2.0


def _cc_size(level: int) -> int:
    return 1 if level == 1 else 2 ** (level - 1) + 1


def _clenshaw_curtis_1d(npts: int):
    """Clenshaw-Curtis nodes (ascending, on [-1, 1]) and probability weights."""
    if npts == 1:
        return np.array([0.0]), np.array([1.0])
    N = npts - 1
    k = np.arange(npts)
    x = -np.cos(np.pi * k / N)
    # Antisymmetric bit for bit (the middle node exactly 0.0), so that
    # mirrored nodes match exactly in fold().
    x = (x - x[::-1]) / 2.0
    w = np.zeros(npts)
    js = np.arange(1, N // 2 + 1)
    bj = np.where(2 * js == N, 1.0, 2.0)
    for idx in range(npts):
        s = np.sum(bj * np.cos(2.0 * js * idx * np.pi / N) / (4.0 * js ** 2 - 1.0))
        ck = 1.0 if idx in (0, N) else 2.0
        w[idx] = (ck / N) * (1.0 - s)
    return x, w / 2.0


def _smolyak(dim: int, level: int, a: float, b: float):
    """Combination-technique sparse rule on [a, b]^dim."""
    if level < 1:
        raise ValueError("level must be >= 1")
    q = level + dim - 1
    finest = _cc_size(level) - 1 if level > 1 else 2  # key scale, arbitrary >0 for level 1

    # 1D nodes keyed by their index on the finest level's grid (nested).
    keys1d, nodes1d, weights1d = {}, {}, {}
    for lev in range(1, level + 1):
        m = _cc_size(lev)
        x, w = _clenshaw_curtis_1d(m)
        if m == 1:
            key = np.array([finest // 2])
        else:
            key = np.arange(m) * (finest // (m - 1))
        keys1d[lev], nodes1d[lev], weights1d[lev] = key, x, w

    acc: dict[tuple[int, ...], float] = {}
    pos: dict[tuple[int, ...], tuple[float, ...]] = {}
    for ii in itertools.product(range(1, level + 1), repeat=dim):
        total = sum(ii)
        if not (level <= total <= q):
            continue
        coeff = (-1.0) ** (q - total) * comb(dim - 1, q - total)
        grids = [keys1d[l] for l in ii]
        for combo in itertools.product(*(range(k.size) for k in grids)):
            key = tuple(int(grids[d][combo[d]]) for d in range(dim))
            wgt = coeff
            for d in range(dim):
                wgt *= weights1d[ii[d]][combo[d]]
            acc[key] = acc.get(key, 0.0) + wgt
            if key not in pos:
                pos[key] = tuple(nodes1d[ii[d]][combo[d]] for d in range(dim))

    ordered = sorted(acc)
    nodes = np.array([pos[k] for k in ordered])
    weights = np.array([acc[k] for k in ordered])
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * nodes, weights


def build_rule(kind: str, dim: int, size: int, support=(-1.0, 1.0),
               seed: int | None = None) -> QuadratureRule:
    """Build a quadrature rule over [a, b]^dim.

    ``size`` means points per dimension for ``tensor_gl``, the sparse level
    for ``smolyak``, and the sample count for ``monte_carlo``, which needs
    an integer ``seed`` so that its nodes are reproducible.
    """
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    if size < 1:
        raise ValueError("size must be >= 1")
    a, b = float(support[0]), float(support[1])
    if a > b:
        raise ValueError("support bounds are reversed")
    kind = kind.lower()
    if kind == TENSOR_GL:
        x, w = _gauss_legendre_1d(size, a, b)
        idx = np.stack(np.meshgrid(*([np.arange(size)] * dim), indexing="ij"),
                       axis=-1).reshape(-1, dim)
        nodes = x[idx]
        weights = np.prod(w[idx], axis=1)
        desc = f"tensor_gl(n={size}, dim={dim}, support=({a:g},{b:g}))"
    elif kind == SMOLYAK:
        nodes, weights = _smolyak(dim, size, a, b)
        desc = (f"smolyak(level={size}, dim={dim}, support=({a:g},{b:g}), "
                f"Q={weights.size})")
    elif kind == MONTE_CARLO:
        if seed is None:
            raise ValueError("a monte_carlo rule needs a seed")
        rng = np.random.default_rng(seed)
        nodes = rng.uniform(a, b, size=(size, dim))
        weights = np.full(size, 1.0 / size)
        desc = f"monte_carlo(q={size}, dim={dim}, seed={seed})"
    else:
        raise ValueError(f"unknown rule kind {kind!r}")
    return QuadratureRule(dim=dim, nodes=nodes, weights=weights,
                          descriptor=desc)


def expect(rule: QuadratureRule, functional: Callable[[np.ndarray], float],
           jobs: int = 1) -> ExpectationResult:
    """Weighted sum of ``functional`` over the rule's nodes.

    The functional returns a float, or an array of one shape at every node.
    Each component is reduced as ``np.sum(rule.weights * values)`` in
    node-index order whatever ``jobs`` is, so the result does not depend on
    the worker count, and a component equals, bit for bit, the expectation
    of a functional that returns that component alone.
    """
    if jobs <= 1:
        results = [_eval_node(functional, rule, qi)
                   for qi in range(rule.node_count)]
    else:
        # imported here: concurrent.futures (with logging and queue) would
        # otherwise load on every `import exdil`, and no CLI study passes jobs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(_eval_node, functional, rule, qi)
                    for qi in range(rule.node_count)]
            results = [fut.result() for fut in futs]
    values = np.array(results)
    columns = values.reshape(rule.node_count, -1).T
    total = np.array([np.sum(rule.weights * column) for column in columns])
    value = float(total[0]) if values.ndim == 1 \
        else total.reshape(values.shape[1:])
    return ExpectationResult(value=value)


def fold(rule: QuadratureRule, flips) -> QuadratureRule:
    """Merge the nodes of ``rule`` that sign flips map onto one another.

    ``flips`` are sign vectors of length ``rule.dim`` under which the
    functional to be integrated is invariant, f(s * t) = f(t); with their
    products they form a group.  A node's orbit is every node equal, bit for
    bit, to the node with one of the group's sign vectors applied (compared
    as tuples of Python floats, so -0.0 matches 0.0).  Each orbit is kept as
    its lowest-index node, carrying the orbit's weights summed in node-index
    order, and the kept nodes stay in index order, so the folded rule, and
    any expectation over it, is one fixed function of ``rule``.  A rule in
    which no node matches another is returned unchanged.
    """
    group = {(1.0,) * rule.dim}
    for flip in flips:
        signs = tuple(float(s) for s in flip)
        if len(signs) != rule.dim or not set(signs) <= {1.0, -1.0}:
            raise ValueError(f"{flip!r} is not a sign vector of length "
                             f"{rule.dim}")
        group |= {tuple(g * s for g, s in zip(member, signs))
                  for member in group}
    keys = [tuple(node.tolist()) for node in rule.nodes]
    index = {}
    for qi, key in enumerate(keys):
        index.setdefault(key, qi)
    rep = []
    for qi, key in enumerate(keys):
        images = (tuple(c * s for c, s in zip(key, signs)) for signs in group)
        rep.append(min([qi] + [index[im] for im in images if im in index]))
    kept = sorted(set(rep))
    if len(kept) == rule.node_count:
        return rule
    weight = dict.fromkeys(kept, 0.0)
    for qi, r in enumerate(rep):
        weight[r] += float(rule.weights[qi])
    return QuadratureRule(
        dim=rule.dim, nodes=rule.nodes[kept],
        weights=np.array([weight[r] for r in kept]),
        descriptor=f"{rule.descriptor} folded to {len(kept)} orbits")


def _eval_node(functional, rule, qi):
    try:
        return np.asarray(functional(rule.nodes[qi]), dtype=float)
    except Exception as exc:
        raise CollocationError(
            f"functional failed at node {qi} of {rule.node_count} "
            f"({rule.descriptor}), coefficients "
            f"{tuple(rule.nodes[qi].tolist())}: {exc}") from exc
