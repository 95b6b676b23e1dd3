"""The three workloads: inputs drawn from the seed, set-up, the operations
of one round, and the checks on their outputs.

Every call into ``exdil`` is looked up as a module attribute at call time,
so that the traced run sees it through the wrappers of :mod:`spans`.
"""

from __future__ import annotations

import math
import os

import numpy as np

from exdil import (asymptotic, collocation, experiments, fd_core,
                   forward_mapped, interface, inverse)

NPROC = len(os.sched_getaffinity(0))
PERIOD = 4.0
# Narrow enough that every seed's Newton fits take the same number of steps
# (see FitMapped.newton), so a run's work does not depend on its seed.
SIGMA_RANGE = (4.8, 5.2)
# The rough interface of the two mapped workloads.
MODEL = interface.InterfaceModel.with_power_spectrum(
    1.0, PERIOD, 3, -1.0, interface.UniformDist(-1.0, 1.0))


def _draw(seed: int, starts, spacing: float):
    """sigma* in SIGMA_RANGE and one thickness per start, jittered upwards
    by at most ``spacing``."""
    rng = np.random.default_rng(seed)
    sigma = float(rng.uniform(*SIGMA_RANGE))
    return sigma, tuple(float(s + rng.uniform(0.0, spacing)) for s in starts)


def _family():
    return inverse.DeviceFamily(period=PERIOD)


def _newton_problems(trace, curve, label) -> list[str]:
    """Checks every Newton fit must pass: the objective never increases
    between iterates (Armijo) and the fit stops on the step tolerance."""
    problems = []
    if trace.reason != "step_tolerance":
        problems.append(f"{label}: stopped on {trace.reason!r}")
    # The line search compares against J recomputed on another code path,
    # so near a zero misfit iterates may differ by rounding: the floor is
    # the misfit of residuals at 1e-12 of the largest datum.
    floor = (1e-12 * max(curve.values)) ** 2
    for n, (a, b) in enumerate(zip(trace.objectives, trace.objectives[1:])):
        if b > a + floor:
            problems.append(f"{label}: objective rose at iterate {n + 2}: "
                            f"{a!r} -> {b!r}")
    return problems


def flat_pl_exact(device, xi: float = 0.0) -> float:
    """Closed-form PL of the flat problem sigma**2 u'' - u + G(d - x) = 0
    on (xi, d), u(xi) = 0, u'(d) = 0: the integral of u over the film."""
    sigma, w = device.sigma, device.d - xi
    gen = device.generation
    # Particular solution in t = x - xi: offset plus one exponential per
    # term, c_m exp(t / ell_m) with c_m = a_m e^{-w/ell_m} / (1 - s^2/ell^2).
    coef = [(a * math.exp(-w / ell) / (1.0 - (sigma / ell) ** 2), ell)
            for a, ell in gen.terms]
    up0 = gen.offset + sum(c for c, _ in coef)
    dup_w = sum(c / ell * math.exp(w / ell) for c, ell in coef)
    int_up = gen.offset * w + sum(c * ell * math.expm1(w / ell)
                                  for c, ell in coef)
    b2 = -up0
    b1 = -(sigma * dup_w + b2 * math.sinh(w / sigma)) / math.cosh(w / sigma)
    return (int_up + b1 * sigma * (math.cosh(w / sigma) - 1.0)
            + b2 * sigma * math.sinh(w / sigma))


class Workload:
    """A workload's steps.  ``setup`` returns the state the operations
    use; each operation returns a result that compares equal when the
    operation is repeated.  The checks return a list of problems."""

    def check_setup(self, state) -> list[str]:
        return []

    def check_round(self, state, results) -> list[str]:
        return []

    def final_checks(self, state, results) -> list[str]:
        return []


class FitExpansion(Workload):
    """The validate study: flat-interface data, fitted with the order-2
    expansion model, one Newton fit per spectrum decay beta."""

    name = "fit-expansion"
    betas = (-2.0, -1.0)
    # From 1.5 sigma* Newton takes steps of about 2.5, 0.1 and 1e-3: with
    # this tolerance every fit stops after the third, within 1e-6 of the
    # minimum.  At the default 1e-4 a fourth step of 1e-8 to 1e-6 is taken
    # on the misfit's rounding floor, where the line search halves at
    # random and may give up.
    newton = inverse.NewtonOptions(tol=1e-2)

    def __init__(self, seed: int):
        # Jitter of at most 0.2 moves each fit grid's ceil(5 d) depth cells
        # by at most one.
        self.sigma, self.thicknesses = _draw(seed, (10.0, 17.5, 25.0, 32.5,
                                                    40.0), 0.2)
        self.sigma0 = 1.5 * self.sigma

    def setup(self):
        return experiments.generate_synthetic_curve(
            experiments.MODEL_1D, self.sigma, self.thicknesses,
            family=_family())

    def check_setup(self, curve) -> list[str]:
        """The data are the flat problem's closed form to O(h**2): within
        (d h / sigma)**2 relative, and the error falls fourfold as h
        halves."""
        problems = []
        cells = forward_mapped.CELLS_1D
        for d, value in curve.pairs():
            device = _family().device(self.sigma, d)
            exact = flat_pl_exact(device)
            bound = (d / cells / self.sigma) ** 2
            if not abs(value - exact) <= bound * abs(exact):
                problems.append(
                    f"flat data at d={d!r}: {value!r} vs closed form "
                    f"{exact!r} (bound {bound:.3g} relative)")
            coarse = forward_mapped.solve_mapped_1d(device, 0.0, cells // 2)
            order = math.log2(abs(coarse.pl - exact) / abs(value - exact))
            if not 1.9 < order < 2.1:
                problems.append(f"flat data at d={d!r}: observed order "
                                f"{order:.3f}, not 2")
        return problems

    def operations(self, curve):
        return [lambda beta=beta: self._fit(beta) for beta in self.betas]

    def _fit(self, beta):
        result = experiments.validation_study(
            sigma_star=self.sigma, betas=(beta,),
            thicknesses=self.thicknesses, family=_family(), K=10, hbar=1.0,
            dist=interface.UniformDist(-1.0, 1.0), est_cells=(64, 64),
            x_cells_per_length=5.0, order=2, sigma0=self.sigma0,
            newton=self.newton)
        return result.traces[beta]

    def check_round(self, curve, traces) -> list[str]:
        problems = []
        for beta, trace in zip(self.betas, traces):
            problems += _newton_problems(trace, curve, f"beta={beta:g}")
        errors = [t.rel_errors[-1] for t in traces]
        # The paper's trend: agreement degrades as beta grows towards zero.
        if not errors[1] > errors[0]:
            problems.append(f"final relative errors {errors} do not grow "
                            "from beta=-2 to beta=-1")
        return problems


class FitMapped(Workload):
    """Newton fit of the mapped collocation model to its own data."""

    name = "fit-mapped"
    # At 32² a factorization's LU factors (0.5 MB; 2.8 MB at 64²) stay
    # within a core's own 2 MiB L2 cache.  On a 2-vCPU share of an AMD EPYC host the fit time drifted
    # over five minutes by 15% between quartiles of 30 s medians at 64²,
    # against 10% at 32², with factorization 60% of the time at 32².
    cells = (32, 32)
    rule_points = 2      # tensor Gauss-Legendre, 2**3 = 8 nodes
    # From 1.5 sigma* the fourth step is 2e-4 to 7e-3 and the fifth at most
    # 4e-6 for every sigma* in SIGMA_RANGE: this tolerance, a factor of
    # seven from either, stops every fit after five steps.
    newton = inverse.NewtonOptions(tol=2.5e-5)

    def __init__(self, seed: int):
        self.sigma, self.thicknesses = _draw(seed, (8.0, 12.0, 16.0), 1.0)
        # Away from sigma*, so the fit takes five Newton steps.
        self.sigma0 = 1.5 * self.sigma

    def setup(self):
        rule = collocation.build_rule(collocation.TENSOR_GL, MODEL.K,
                                      self.rule_points, MODEL.dist.support)
        curve = experiments.generate_synthetic_curve(
            experiments.MODEL_2D, self.sigma, self.thicknesses,
            family=_family(), model=MODEL,
            rule_kind=collocation.TENSOR_GL, rule_size=self.rule_points,
            cells=self.cells)
        return rule, curve

    def operations(self, state):
        return [lambda: self._fit(*state)]

    def _fit(self, rule, curve):
        provider = inverse.MappedCollocationForward(
            family=_family(), model=MODEL, rule=rule, cells=self.cells,
            deriv=inverse.SENSITIVITY_PDE)
        return inverse.newton_estimate(provider, curve, sigma0=self.sigma0,
                                       options=self.newton,
                                       sigma_exact=self.sigma)

    def check_round(self, state, traces) -> list[str]:
        trace, = traces
        problems = _newton_problems(trace, state[1], "mapped fit")
        # Data and fit are one discrete model, so sigma* is a root of J.
        if not abs(trace.final_sigma - self.sigma) < self.newton.tol:
            problems.append(f"sigma* = {self.sigma!r} not recovered: "
                            f"{trace.final_sigma!r}")
        return problems


class ExpectCurve(Workload):
    """Expected mapped PL over a Smolyak rule at several thicknesses, on the
    collocation worker pool."""

    name = "expect-curve"
    cells = (128, 128)
    level = 3            # Smolyak, K = 3: 25 nodes

    def __init__(self, seed: int):
        self.sigma, self.thicknesses = _draw(seed, (8.0, 12.0, 16.0, 20.0),
                                             1.0)

    def setup(self):
        return collocation.build_rule(collocation.SMOLYAK, MODEL.K,
                                      self.level, MODEL.dist.support)

    def operations(self, rule):
        return [lambda d=d: self._expect(rule, d, NPROC)
                for d in self.thicknesses]

    def _expect(self, rule, d, jobs):
        device = _family().device(self.sigma, d)
        grid = fd_core.Grid2D.unit(*self.cells)

        def node_pl(thetas):
            sample = interface.InterfaceSample(tuple(thetas))
            return forward_mapped.solve_mapped_2d(device, MODEL, sample,
                                                  grid).pl

        return collocation.expect(rule, node_pl, jobs=jobs).value

    def final_checks(self, rule, values) -> list[str]:
        problems = []
        # expect documents a fixed node-order reduction: the worker count
        # cannot change a bit of the result.
        serial = [self._expect(rule, d, 1) for d in self.thicknesses]
        if serial != list(values):
            problems.append(f"jobs={NPROC} gave {values}, jobs=1 {serial}")
        moments = interface.moments(MODEL.dist)
        gaps = []
        for d, value in zip(self.thicknesses, values):
            device = _family().device(self.sigma, d)
            basis = asymptotic.build_basis(device, MODEL)
            approx = asymptotic.assemble_approximant(basis)
            err0 = abs(asymptotic.expected_pl(approx, moments, 0) - value)
            err2 = abs(asymptotic.expected_pl(approx, moments, 2) - value)
            if not err2 < err0:
                problems.append(f"d={d!r}: order 2 is {err2!r} from the "
                                f"collocation value, order 0 {err0!r}")
            gaps.append(err2 / value)
        # eps = hbar / d falls as d grows, and the expansion error with it.
        if any(b >= a for a, b in zip(gaps, gaps[1:])):
            problems.append(f"order-2 relative gaps {gaps} do not shrink "
                            "as d grows")
        return problems


WORKLOADS = {w.name: w for w in (FitExpansion, FitMapped, ExpectCurve)}
