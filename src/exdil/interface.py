"""Random donor-acceptor interface: a periodic sine series with random weights.

The interface height over the flat reference plane is

    h(z) = hbar * sum_{k=1..K} lambda_k * theta_k * sin(2 pi k z / L)

with i.i.d. uniform coefficients theta_k.  ``hbar`` sets the physical
roughness amplitude, the spectrum ``lambda_k`` weights the modes, and L is
the in-plane period.  Derivatives in z are summed term by term; nothing in
this module is ever finite-differenced.

Only the sine basis is supported (the model vanishes at z = 0 and z = L/2),
and only uniform coefficient families.  A degenerate Uniform(c, c) is
allowed and behaves as a point mass, which is occasionally handy in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformDist",
    "ThetaMoments",
    "InterfaceModel",
    "InterfaceSample",
    "evaluate",
    "evaluate_dz",
    "evaluate_dzz",
    "covariance",
    "sample",
    "moments",
]


@dataclass(frozen=True)
class UniformDist:
    """Uniform(a, b) coefficient distribution; a == b is a point mass."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("distribution bounds must be finite")
        if self.a > self.b:
            raise ValueError(f"need a <= b, got ({self.a}, {self.b})")

    @property
    def support(self) -> tuple[float, float]:
        return (self.a, self.b)


@dataclass(frozen=True)
class ThetaMoments:
    """First and second moments of the coefficient family.

    ``cross`` is E[theta_j theta_k] for j != k, which equals mean**2 by
    independence.
    """

    mean: float
    second: float
    cross: float


@dataclass(frozen=True)
class InterfaceModel:
    """Finite sine-series model of the rough interface.

    Parameters
    ----------
    hbar : float
        Roughness amplitude, same unit as the film thickness (e.g. nm).
    L : float
        In-plane period of the interface.
    K : int
        Number of sine modes.
    lambdas : tuple of float
        Positive mode weights lambda_1..lambda_K.
    dist : UniformDist
        Common distribution of the i.i.d. coefficients theta_k.
    """

    hbar: float
    L: float
    K: int
    lambdas: tuple[float, ...]
    dist: UniformDist

    def __post_init__(self):
        if self.hbar < 0:
            raise ValueError("hbar must be nonnegative")
        if self.L <= 0:
            raise ValueError("period L must be positive")
        if self.K < 1:
            raise ValueError("need at least one mode")
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) != self.K:
            raise ValueError(f"expected {self.K} mode weights, got {len(lam)}")
        if any(v <= 0 for v in lam):
            raise ValueError("mode weights must be positive")
        object.__setattr__(self, "lambdas", lam)

    @classmethod
    def with_power_spectrum(cls, hbar: float, L: float, K: int, beta: float,
                            dist: UniformDist) -> "InterfaceModel":
        """Model with lambda_k = k**beta; beta <= 0 gives decaying weights."""
        return cls(hbar, L, K, tuple(float(k) ** beta for k in range(1, K + 1)), dist)

    def mode_angular_frequencies(self) -> np.ndarray:
        """2 pi k / L for k = 1..K."""
        return 2.0 * np.pi * np.arange(1, self.K + 1) / self.L


@dataclass(frozen=True)
class InterfaceSample:
    """One realization of the coefficients theta_1..theta_K."""

    thetas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(float(t) for t in self.thetas))

    def as_array(self) -> np.ndarray:
        return np.asarray(self.thetas, dtype=float)


def _mode_weights(model: InterfaceModel, sample: InterfaceSample) -> np.ndarray:
    thetas = sample.as_array()
    if thetas.shape != (model.K,):
        raise ValueError(
            f"sample has {thetas.size} coefficients, model has {model.K} modes")
    return model.hbar * np.asarray(model.lambdas) * thetas


def evaluate(model: InterfaceModel, sample: InterfaceSample, z):
    """Interface height h(z) for one coefficient draw.

    ``z`` may be a scalar or an ndarray; the return matches its shape.
    """
    w = _mode_weights(model, sample)
    zz = np.asarray(z, dtype=float)
    phases = np.multiply.outer(zz, model.mode_angular_frequencies())
    out = np.sin(phases) @ w
    return float(out) if zz.ndim == 0 else out


def evaluate_dz(model: InterfaceModel, sample: InterfaceSample, z):
    """Slope h'(z), dimensionless; term-by-term derivative of the series."""
    w = _mode_weights(model, sample)
    freq = model.mode_angular_frequencies()
    zz = np.asarray(z, dtype=float)
    out = np.cos(np.multiply.outer(zz, freq)) @ (w * freq)
    return float(out) if zz.ndim == 0 else out


def evaluate_dzz(model: InterfaceModel, sample: InterfaceSample, z):
    """Curvature h''(z), unit 1/length."""
    w = _mode_weights(model, sample)
    freq = model.mode_angular_frequencies()
    zz = np.asarray(z, dtype=float)
    out = -np.sin(np.multiply.outer(zz, freq)) @ (w * freq * freq)
    return float(out) if zz.ndim == 0 else out


def covariance(model: InterfaceModel, z1, z2):
    """Cov(h(z1), h(z2)).

    With independent coefficients the cross-mode terms cancel and the
    covariance reduces to

        hbar**2 * Var(theta) * sum_k lambda_k**2 phi_k(z1) phi_k(z2).
    """
    a, b = model.dist.a, model.dist.b
    var = (b - a) ** 2 / 12.0
    lam2 = np.asarray(model.lambdas) ** 2
    freq = model.mode_angular_frequencies()
    s1 = np.sin(np.multiply.outer(np.asarray(z1, dtype=float), freq))
    s2 = np.sin(np.multiply.outer(np.asarray(z2, dtype=float), freq))
    out = model.hbar ** 2 * var * ((s1 * lam2) * s2).sum(axis=-1)
    return float(out) if np.ndim(out) == 0 else out


def sample(model: InterfaceModel, rng_seed) -> InterfaceSample:
    """Draw one i.i.d. coefficient vector; deterministic for a given seed.

    ``rng_seed`` may be an integer seed or a ``numpy.random.Generator``
    (callers that need streams pass spawned generators explicitly; there is
    no hidden global state).
    """
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) \
        else np.random.default_rng(rng_seed)
    thetas = rng.uniform(model.dist.a, model.dist.b, size=model.K)
    return InterfaceSample(tuple(thetas))


def moments(dist: UniformDist) -> ThetaMoments:
    """Closed-form moments of Uniform(a, b)."""
    a, b = dist.a, dist.b
    mean = 0.5 * (a + b)
    second = (a * a + a * b + b * b) / 3.0
    return ThetaMoments(mean=mean, second=second, cross=mean * mean)
