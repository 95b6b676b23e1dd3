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
    "InterfaceModel",
    "InterfaceSample",
    "profile",
    "check_period",
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
        if not 0 <= self.hbar < math.inf:
            raise ValueError("hbar must be finite and nonnegative")
        if not 0 < self.L < math.inf:
            raise ValueError("period L must be finite and positive")
        if self.K < 1:
            raise ValueError("need at least one mode")
        lam = tuple(float(v) for v in self.lambdas)
        if len(lam) != self.K:
            raise ValueError(f"expected {self.K} mode weights, got {len(lam)}")
        if not all(0 < v < math.inf for v in lam):
            raise ValueError("mode weights must be finite and positive")
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


def profile(model: InterfaceModel, sample: InterfaceSample, z):
    """Interface height h(z), slope h'(z) (dimensionless) and curvature
    h''(z) (unit 1/length) for one coefficient draw, from one phase table.

    ``z`` may be a scalar or an ndarray; each returned value matches its
    shape.
    """
    thetas = np.asarray(sample.thetas)
    if thetas.shape != (model.K,):
        raise ValueError(
            f"sample has {thetas.size} coefficients, model has {model.K} modes")
    w = model.hbar * np.asarray(model.lambdas) * thetas
    freq = model.mode_angular_frequencies()
    zz = np.asarray(z, dtype=float)
    phases = np.multiply.outer(zz, freq)
    sines = np.sin(phases)
    out = (sines @ w, np.cos(phases) @ (w * freq),
           -sines @ (w * freq * freq))
    return tuple(float(v) for v in out) if zz.ndim == 0 else out


def check_period(model: InterfaceModel, period: float) -> None:
    """Raise ValueError unless ``period``, a device's, is the model's own
    period up to rounding: within 1e-12 of the model's period, relative,
    with no absolute slack."""
    if not abs(model.L - period) <= 1e-12 * model.L:
        raise ValueError(
            f"interface period {model.L} does not match device period {period}")


def sample(model: InterfaceModel, seed: int) -> InterfaceSample:
    """Draw one i.i.d. coefficient vector; deterministic for a given
    integer seed."""
    thetas = np.random.default_rng(seed).uniform(model.dist.a, model.dist.b,
                                                 size=model.K)
    return InterfaceSample(tuple(thetas))


def moments(dist: UniformDist) -> float:
    """E[theta**2] = (a**2 + a b + b**2) / 3 of Uniform(a, b): the one
    moment of the law that the expansion reads (:mod:`exdil.asymptotic`)."""
    a, b = dist.a, dist.b
    return (a * a + a * b + b * b) / 3.0
