"""Command-line entry point, and the one module that knows a run's config
keys, output file names, CSV layout and manifest.

Each subcommand reads a flat key=value config file (INI sections), runs one
study of :mod:`exdil.experiments` and writes its tables into the ``[run]
output`` directory (or ``--output``): ``forward.csv``, plus ``field.csv``
with ``[run] dump_field = 1``; ``expect.csv``, whose ``nodes`` are the
rule's nodes left after the symmetry fold; ``convergence.csv`` and
``slopes.csv``; ``estimate_eps<eps>.csv`` per eps and
``estimate_summary.csv``; ``validate_beta<beta>.csv`` per beta and
``validate_summary.csv``; ``timing.csv``.  A CSV is the config hash in a
comment line, the header and the rows, each line ending in a bare LF.
``manifest.json`` records the hash, the subcommand as ``kind``, seed,
library versions and the files written, so a run can be replayed byte for
byte (``timing.csv``'s wall times excepted); ``[run] kind`` is not read.
``[interface] modes`` defaults to 10 for ``validate`` and to 5 elsewhere.
Exit codes: 0 success, 2 usage, config or output directory error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from . import experiments as exp
from .collocation import TENSOR_GL, CollocationError, build_rule
from .fd_core import Grid2D, SolverError
from .forward_mapped import (DeviceConfig, DomainValidityError,
                             GenerationProfile,
                             expected_mapped_pl, solve_mapped_2d,
                             symmetry_folded_rule)
from .interface import InterfaceModel, UniformDist
from .interface import sample as draw_sample
from .inverse import DeviceFamily, NewtonOptions

#: Default of a config key that must be given; a default of None makes a
#: key optional.
REQUIRED = object()

#: Default ``[converge] eps`` sweep: 2**-i, i = 2..7.
EPS_SWEEP = tuple(2.0 ** -i for i in range(2, 8))


@dataclass
class RunConfig:
    """Parsed run configuration and the hash of the text it came from."""

    seed: int
    output: Path
    parser: configparser.ConfigParser
    sha: str

    def value(self, section: str, key: str, cast=str, default=REQUIRED):
        """The key through ``cast``; ``default`` when it is absent, or
        KeyError when it is :data:`REQUIRED`."""
        if self.parser.has_option(section, key):
            return cast(self.parser.get(section, key))
        if default is REQUIRED:
            raise KeyError(f"missing config key [{section}] {key}")
        return default

    def floats(self, section: str, key: str, default=REQUIRED):
        """The key as floats separated by commas or blanks."""
        return self.value(section, key, lambda raw: [
            float(tok) for tok in raw.replace(",", " ").split()], default)


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_config(path) -> RunConfig:
    text = Path(path).read_text()
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    parser.read_string(text)
    if not parser.has_section("run"):
        raise ValueError("config needs a [run] section")
    seed = parser.getint("run", "seed", fallback=0)
    output = Path(parser.get("run", "output", fallback="out"))
    return RunConfig(seed=seed, output=output, parser=parser,
                     sha=config_hash(text))


def interface_from_config(cfg: RunConfig, L: float,
                          default_K: int) -> InterfaceModel:
    sec = "interface"
    K = cfg.value(sec, "modes", int, default_K)
    hbar = cfg.value(sec, "hbar", float, 1.0)
    dist = UniformDist(cfg.value(sec, "a", float, 0.0),
                       cfg.value(sec, "b", float, 1.0))
    if cfg.parser.has_option(sec, "beta"):
        return InterfaceModel.with_power_spectrum(
            hbar, L, K, cfg.value(sec, "beta", float), dist)
    lambdas = cfg.floats(sec, "lambdas", default=[1.0] * K)
    return InterfaceModel(hbar, L, K, tuple(lambdas), dist)


def family_from_config(cfg: RunConfig) -> DeviceFamily:
    period = cfg.value("device", "period", float, 4.0)
    kind = cfg.value("generation", "kind", str, "exponential")
    if kind == "constant":
        gen = GenerationProfile.constant(
            cfg.value("generation", "value", float, 1.0))
        return DeviceFamily(period=period, generation=gen)
    if kind != "exponential":
        raise ValueError("[generation] kind must be exponential or constant, "
                         f"got {kind!r}")
    if cfg.parser.has_option("generation", "decay"):
        gen = GenerationProfile.exponential(
            cfg.value("generation", "decay", float),
            cfg.value("generation", "amplitude", float, 1.0))
        return DeviceFamily(period=period, generation=gen)
    return DeviceFamily(period=period, decay_factor=cfg.value(
        "generation", "decay_factor", float, DeviceFamily.decay_factor))


def write_csv(path: Path, header: list[str], rows, conf_hash: str) -> None:
    """Write ``# config_hash=<hash>``, the header and the rows, each line
    ending in a bare LF on every platform; fields are joined by commas
    unquoted."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# config_hash={conf_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def write_manifest(outdir: Path, cfg: RunConfig, command: str,
                   outputs: list[str]) -> None:
    # scipy's version from its installed metadata: importing scipy for it
    # would load the package in runs that never use it
    from importlib.metadata import version

    manifest = {
        "config_hash": cfg.sha,
        "kind": command,
        "seed": cfg.seed,
        "outputs": sorted(outputs),
        "versions": {
            "exdil": __version__,
            "numpy": np.__version__,
            "scipy": version("scipy"),
        },
    }
    with open(outdir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _add_common(sub):
    sub.add_argument("--config", required=True, help="path to the run config")
    sub.add_argument("--output", default=None,
                     help="override the [run] output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exdil",
        description="forward solves, convergence and estimation studies")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("forward", "expect", "converge", "estimate", "validate",
                 "timing"):
        _add_common(subs.add_parser(name))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        print(f"exdil: bad config: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output) if args.output else cfg.output
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"exdil: bad output directory: {exc}", file=sys.stderr)
        return 2
    try:
        tables = _dispatch(args.command, cfg)
    # DomainValidityError subclasses ValueError: this clause must come first
    except (SolverError, DomainValidityError, CollocationError) as exc:
        print(f"exdil: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, configparser.Error) as exc:
        print(f"exdil: bad config: {exc}", file=sys.stderr)
        return 2
    # A directory holds a manifest that lists every CSV this run wrote, or
    # no manifest and none of them: a stale manifest goes first, and a
    # failed write takes back every file this run opened.
    opened = []
    try:
        (outdir / "manifest.json").unlink(missing_ok=True)
        for name, (header, rows) in tables.items():
            opened.append(outdir / name)
            write_csv(outdir / name, header, rows, cfg.sha)
        opened.append(outdir / "manifest.json")
        write_manifest(outdir, cfg, args.command, list(tables))
    except OSError as exc:
        for path in opened:
            with contextlib.suppress(OSError):
                path.unlink(missing_ok=True)
        print(f"exdil: bad output directory: {exc}", file=sys.stderr)
        return 2
    return 0


def _newton(cfg: RunConfig) -> dict:
    """The ``[newton]`` section as the fits' ``sigma0`` and ``newton``."""
    return dict(sigma0=cfg.value("newton", "sigma0", float, None),
                newton=NewtonOptions(
                    tol=cfg.value("newton", "tol", float, NewtonOptions.tol),
                    max_iter=cfg.value("newton", "max_iter", int,
                                       NewtonOptions.max_iter)))


def _trace_names(key: str, stem: str, values) -> list[str]:
    """``<stem><value>.csv`` per value; ValueError naming ``key`` when two
    values would write one file."""
    names = [f"{stem}{v:g}.csv" for v in values]
    if len(set(names)) < len(names):
        raise ValueError(f"{key} values {list(values)} must write distinct "
                         f"files, got {names}")
    return names


def _trace_table(trace):
    """Newton iterates, one row each: n, sigma, J, alpha, rel_error.  Both
    fitting studies pass ``sigma_exact``, so ``rel_errors`` is a list."""
    return ["n", "sigma", "J", "alpha", "rel_error"], [
        [n, f"{s:.17g}", f"{j:.17g}", f"{a:.17g}", f"{e:.17g}"]
        for n, (s, j, a, e) in enumerate(zip(
            trace.sigmas, trace.objectives, trace.alphas, trace.rel_errors), 1)]


def _device(cfg: RunConfig, family: DeviceFamily) -> DeviceConfig:
    """The device of ``[device] sigma`` and ``d``, which only the commands
    that solve one device read."""
    return family.device(cfg.value("device", "sigma", float, 5.0),
                         cfg.value("device", "d", float, 10.0))


def _dispatch(command: str, cfg: RunConfig) -> dict[str, tuple[list, list]]:
    """Run ``command``'s study and return its tables, (header, rows) by
    output file name; writes nothing."""
    family = family_from_config(cfg)
    model = interface_from_config(cfg, family.period,
                                  10 if command == "validate" else 5)

    if command == "forward":
        device = _device(cfg, family)
        grid = Grid2D.unit(cfg.value("grid", "reference", int, 128))
        theta = draw_sample(model, cfg.seed)
        sol = solve_mapped_2d(device, model, theta, grid)
        tables = {"forward.csv": (
            ["sigma", "d", "pl", "seed"],
            [[f"{device.sigma:.17g}", f"{device.d:.17g}", f"{sol.pl:.17g}",
              cfg.seed]])}
        if cfg.value("run", "dump_field", int, 0):
            tables["field.csv"] = (
                ["y", "z", "value"],
                [[f"{y:.17g}", f"{z:.17g}", f"{v:.17g}"]
                 for y, row in zip(grid.y, sol.field)
                 for z, v in zip(grid.z, row)])
        return tables

    if command == "expect":
        device = _device(cfg, family)
        grid = Grid2D.unit(cfg.value("grid", "reference", int, 128))
        rule = build_rule(cfg.value("rule", "kind", str, TENSOR_GL), model.K,
                          cfg.value("rule", "size", int, 4),
                          model.dist.support, seed=cfg.seed)
        value = expected_mapped_pl(device, model, rule, grid)
        return {"expect.csv": (
            ["sigma", "d", "expected_pl", "nodes", "rule"],
            [[f"{device.sigma:.17g}", f"{device.d:.17g}", f"{value:.17g}",
              symmetry_folded_rule(rule, grid).node_count, rule.descriptor]])}

    if command == "converge":
        device = _device(cfg, family)
        result = exp.convergence_study(
            device=device, model=model,
            eps_values=cfg.floats("converge", "eps", EPS_SWEEP),
            ref_cells=(cfg.value("grid", "reference", int, 128),) * 2,
            ref_points=cfg.value("rule", "size", int, 4))
        header = ["eps", "reference"]
        columns = [result.eps_values, result.references]
        for n in sorted(result.approximations):
            header += [f"ei{n}", f"err{n}"]
            columns += [result.approximations[n], result.errors[n]]
        return {"convergence.csv": (header, [[f"{v:.17g}" for v in row]
                                             for row in zip(*columns)]),
                "slopes.csv": (["order", "slope", "residual"],
                               [[str(n), f"{f.slope:.17g}",
                                 f"{f.residual:.17g}"]
                                for n, f in sorted(result.fits.items())])}

    if command == "estimate":
        sigma_star = cfg.value("estimate", "sigma_star", float)
        eps_values = cfg.floats("estimate", "eps")
        names = _trace_names("[estimate] eps", "estimate_eps", eps_values)
        traces = exp.estimation_study(
            sigma_star=sigma_star, eps_values=eps_values,
            thicknesses=cfg.floats("estimate", "thicknesses"),
            model=model, family=family,
            data_cells=(cfg.value("grid", "data_x", int, 256),
                        cfg.value("grid", "data_z", int, 128)),
            data_points=cfg.value("rule", "data_size", int, 3),
            **_newton(cfg))
        tables = {name: _trace_table(trace)
                  for name, trace in zip(names, traces.values())}
        tables["estimate_summary.csv"] = (
            ["eps", "final_rel_error", "iterations", "reason"],
            [[f"{eps:g}", f"{trace.final_rel_error(sigma_star):.17g}",
              trace.iterations, trace.reason]
             for eps, trace in traces.items()])
        return tables

    if command == "validate":
        sigma_star = cfg.value("validate", "sigma_star", float)
        betas = cfg.floats("validate", "betas")
        names = _trace_names("[validate] betas", "validate_beta", betas)
        result = exp.validation_study(
            sigma_star=sigma_star, betas=betas,
            thicknesses=cfg.floats("validate", "thicknesses"),
            family=family, K=model.K,
            hbar=model.hbar, dist=model.dist, **_newton(cfg))
        tables = {name: _trace_table(trace)
                  for name, trace in zip(names, result.traces.values())}
        rows = []
        for beta, trace in result.traces.items():
            error = trace.final_rel_error(sigma_star)
            rows.append([f"{beta:g}", f"{error:.17g}", int(error < 0.01),
                         trace.iterations, trace.reason])
        tables["validate_summary.csv"] = (
            ["beta", "final_rel_error", "within_1pct", "iterations",
             "reason"], rows)
        return tables

    if command == "timing":
        device = _device(cfg, family)
        result = exp.timing_study(
            device=device, model=model,
            epsilon=cfg.value("timing", "eps", float, 0.1),
            sc_cells=(cfg.value("grid", "reference", int, 64),) * 2)
        return {"timing.csv": (
            ["method", "seconds", "nodes_or_solves", "error"],
            [["asymptotic_order2", f"{result.asym_seconds:.6g}", "",
              f"{result.asym_error:.6g}"],
             ["collocation", f"{result.sc_seconds:.6g}", result.sc_nodes,
              f"{result.sc_error:.6g}"],
             ["reference", f"{result.ref_seconds:.6g}", "", ""],
             ["speedup", f"{result.speedup:.6g}", "", ""]])}

    raise ValueError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
