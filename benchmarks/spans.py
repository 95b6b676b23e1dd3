"""Spans around the public calls into each exdil module, and the layer
metrics derived from them.

Nothing in ``src/`` is traced.  :func:`instrument` replaces the entry points
listed in :data:`ENTRY_POINTS` with wrappers, in every ``exdil`` module
namespace that holds them, so calls between modules go through the wrapper
too.  Each call records one span (id, parent, name, thread, phase, start,
end, attribute) in memory; :func:`layer_metrics` turns them into counts and
times when the run ends, and :func:`write_csv` writes them out.

Parent links follow the calling thread.  A span opened on a collocation
worker thread has no caller on that thread, so it is adopted by the
``collocation.expect`` call whose pool runs it.
"""

from __future__ import annotations

import csv
import functools
import itertools
import sys
import threading
import time
from collections import defaultdict


def _expect_call(args, kwargs):
    """(jobs, node count) of a ``collocation.expect(rule, functional,
    jobs=1, ...)`` call."""
    rule = kwargs["rule"] if "rule" in kwargs else args[0]
    jobs = kwargs["jobs"] if "jobs" in kwargs else \
        (args[2] if len(args) > 2 else 1)
    return (max(1, int(jobs)), rule.node_count)


# (module, attribute, span name, attribute extractor, fans out to workers).
# An attribute extractor maps the call's (args, kwargs) to a value kept with
# the span.
ENTRY_POINTS = [
    ("fd_core", "EllipticOperator.__init__", "fd_core.assemble", None, False),
    ("fd_core", "EllipticOperator.solve_vector", "fd_core.solve", None, False),
    ("forward_mapped", "solve_mapped_2d", "forward_mapped.solve_mapped_2d",
     None, False),
    ("forward_mapped", "solve_mapped_profile",
     "forward_mapped.solve_mapped_profile", None, False),
    ("forward_mapped", "solve_mapped_1d", "forward_mapped.solve_mapped_1d",
     None, False),
    ("forward_mapped", "solve_1d_rhs", "forward_mapped.solve_1d_rhs",
     None, False),
    ("asymptotic", "build_basis", "asymptotic.build_basis", None, False),
    ("asymptotic", "assemble_approximant", "asymptotic.assemble_approximant",
     None, False),
    ("asymptotic", "expected_pl", "asymptotic.expected_pl", None, False),
    ("collocation", "build_rule", "collocation.build_rule", None, False),
    ("collocation", "expect", "collocation.expect", _expect_call, True),
    ("inverse", "newton_estimate", "inverse.newton_estimate", None, False),
    ("inverse", "objective", "inverse.objective", None, False),
    ("inverse", "objective_with_derivatives",
     "inverse.objective_with_derivatives", None, False),
    ("experiments", "generate_synthetic_curve",
     "experiments.generate_synthetic_curve", None, False),
    ("experiments", "validation_study", "experiments.validation_study",
     None, False),
]

# Forward providers of the Newton fit; their pl calls are the cache users.
PROVIDERS = ("OneDimensionalForward", "MappedCollocationForward",
             "AsymptoticForward")

# name -> (unit, how, span names).  "count" counts spans, "nodes" sums the
# node counts of expect calls, "total" sums span durations, and "self" sums
# durations minus the time that child spans cover.
LAYER_METRICS = {
    "fd_core.operators": ("count", "count", {"fd_core.assemble"}),
    "fd_core.assemble_s": ("s", "total", {"fd_core.assemble"}),
    "fd_core.factorizations": ("count", "count", {"fd_core.factorize"}),
    "fd_core.factorize_s": ("s", "total", {"fd_core.factorize"}),
    "fd_core.solves": ("count", "count", {"fd_core.solve"}),
    "fd_core.solve_s": ("s", "self", {"fd_core.solve"}),
    "forward_mapped.solves_2d": ("count", "count",
                                 {"forward_mapped.solve_mapped_profile"}),
    "forward_mapped.solve_2d_s": ("s", "self",
                                  {"forward_mapped.solve_mapped_2d",
                                   "forward_mapped.solve_mapped_profile"}),
    "forward_mapped.solves_1d": ("count", "count",
                                 {"forward_mapped.solve_1d_rhs"}),
    "forward_mapped.solve_1d_s": ("s", "self",
                                  {"forward_mapped.solve_mapped_1d",
                                   "forward_mapped.solve_1d_rhs"}),
    "asymptotic.bases": ("count", "count", {"asymptotic.build_basis"}),
    "asymptotic.basis_s": ("s", "self", {"asymptotic.build_basis"}),
    "asymptotic.approximant_s": ("s", "total",
                                 {"asymptotic.assemble_approximant",
                                  "asymptotic.expected_pl"}),
    "collocation.nodes": ("count", "nodes", {"collocation.expect"}),
    "collocation.expect_s": ("s", "total", {"collocation.expect"}),
    "collocation.rule_build_s": ("s", "total", {"collocation.build_rule"}),
    "inverse.newton_iterations": ("count", "count",
                                  {"inverse.objective_with_derivatives"}),
    "inverse.line_search_trials": ("count", "count", {"inverse.objective"}),
    "inverse.pl_calls": ("count", "count", {"inverse.pl"}),
    "inverse.pl_deriv_calls": ("count", "count",
                               {"inverse.pl_with_derivatives"}),
    "experiments.data_curve_s": ("s", "total",
                                 {"experiments.generate_synthetic_curve"}),
}


class Tracer:
    """In-memory span recorder.  ``phase`` labels the spans opened while it
    is set ("setup" or "round"); spans opened with it unset count towards
    no metric."""

    def __init__(self):
        self.spans = []
        self.phase = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._pools = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, attribute=None, fans_out=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._pools[-1] if tracer._pools else None
            value = attribute(args, kwargs) if attribute else None
            phase = tracer.phase
            stack.append(sid)
            if fans_out:
                tracer._pools.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if fans_out:
                    tracer._pools.pop()
                stack.pop()
                tracer.spans.append((sid, parent, name, threading.get_ident(),
                                     phase, start, end, value))

        return traced


class _FactorizationProbe:
    """Stand-in for ``scipy.sparse.linalg`` inside ``exdil.fd_core`` whose
    ``splu`` records a span; every other attribute is the real module's."""

    def __init__(self, module, splu):
        self._module = module
        self.splu = splu

    def __getattr__(self, name):
        return getattr(self._module, name)


def instrument(tracer: Tracer) -> None:
    """Route the entry points of the imported ``exdil`` package through
    ``tracer``.  Callers must look the entry points up as module attributes
    at call time to see the wrappers."""
    import exdil
    from exdil import fd_core, inverse

    modules = [m for n, m in sorted(sys.modules.items())
               if n == "exdil" or n.startswith("exdil.")]

    def replace_everywhere(original, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    for mod_name, attr, name, attribute, fans_out in ENTRY_POINTS:
        owner = getattr(exdil, mod_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapper = tracer.wrap(original, name, attribute, fans_out)
        if path:
            setattr(owner, leaf, wrapper)
        else:
            replace_everywhere(original, wrapper)

    for cls_name in PROVIDERS:
        cls = getattr(inverse, cls_name)
        cls.pl = tracer.wrap(cls.pl, "inverse.pl")
        cls.pl_with_derivatives = tracer.wrap(cls.pl_with_derivatives,
                                              "inverse.pl_with_derivatives")

    fd_core.spla = _FactorizationProbe(
        fd_core.spla, tracer.wrap(fd_core.spla.splu, "fd_core.factorize"))


def _covered(start, end, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    covered, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_metrics(spans, setups: int, rounds: int) -> dict:
    """Per-layer values for one set-up plus one round of operations.

    Counts and times are the set-up phase's total divided by ``setups``
    plus the round phase's total divided by ``rounds``; every set-up and
    every round does the same work, so counts come out as whole numbers.
    """
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append(span)

    out = {}
    for metric, (unit, how, names) in LAYER_METRICS.items():
        total = {"setup": 0.0, "round": 0.0}
        for sid, _p, name, _t, phase, start, end, value in spans:
            if name not in names or phase not in total:
                continue
            if how == "count":
                amount = 1.0
            elif how == "nodes":
                amount = float(value[1])
            elif how == "total":
                amount = end - start
            else:
                kids = [(c[5], c[6]) for c in children.get(sid, ())]
                amount = end - start - _covered(start, end, kids)
            total[phase] += amount
        out[metric] = {"value": total["setup"] / setups
                       + total["round"] / rounds, "unit": unit}

    # The two ratios cover the timed rounds only; 0.0 when the base is empty.
    timed = [s for s in spans if s[4] == "round"]
    node_time = pool_time = 0.0
    hits = calls = 0
    for sid, _p, name, _t, _ph, start, end, value in timed:
        if name == "collocation.expect":
            node_time += sum(c[6] - c[5] for c in children.get(sid, ()))
            pool_time += value[0] * (end - start)
        elif name == "inverse.pl":
            calls += 1
            hits += sid not in children
    out["collocation.parallel_efficiency"] = {
        "value": node_time / pool_time if pool_time else 0.0, "unit": "ratio"}
    out["inverse.cache_hit_ratio"] = {
        "value": hits / calls if calls else 0.0, "unit": "ratio"}
    return out


def write_csv(spans, path) -> None:
    """One row per span, in the order the spans closed."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "parent", "name", "thread", "phase", "start",
                         "end"])
        for sid, parent, name, thread, phase, start, end, _value in spans:
            writer.writerow([sid, "" if parent is None else parent, name,
                             thread, phase or "", repr(start), repr(end)])
