"""Command-line entry point.

Subcommands map onto the studies in :mod:`exdil.experiments`; each reads a
flat key=value config file (INI sections) and writes CSV outputs plus a
manifest into the configured output directory.  Exit codes: 0 success,
2 usage/config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
from pathlib import Path

from . import experiments as exp
from .collocation import TENSOR_GL, CollocationError, build_rule
from .fd_core import Grid2D, SolverError
from .forward_mapped import (DomainValidityError, expected_mapped_pl,
                             solve_mapped_2d)
from .interface import sample as draw_sample
from .inverse import NewtonOptions


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
        cfg = exp.load_config(args.config)
    except (OSError, ValueError, KeyError, configparser.Error) as exc:
        print(f"exdil: bad config: {exc}", file=sys.stderr)
        return 2
    outdir = Path(args.output) if args.output else cfg.output
    try:
        outputs = _dispatch(args.command, cfg, outdir)
    # DomainValidityError subclasses ValueError: this clause must come first
    except (SolverError, DomainValidityError, CollocationError) as exc:
        print(f"exdil: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (KeyError, ValueError, configparser.Error) as exc:
        print(f"exdil: bad config: {exc}", file=sys.stderr)
        return 2
    exp.write_manifest(outdir, cfg, outputs)
    return 0


def _newton_options(cfg) -> NewtonOptions:
    return NewtonOptions(
        tol=cfg.value("newton", "tol", float, 1e-4),
        max_iter=cfg.value("newton", "max_iter", int, 50))


def _write_trace(path: Path, trace, conf_hash: str) -> None:
    """Newton iterates, one row each: n, sigma, J, alpha, rel_error."""
    rows = []
    for n in range(trace.iterations):
        rel = "" if trace.rel_errors is None else f"{trace.rel_errors[n]:.17g}"
        rows.append([n + 1, f"{trace.sigmas[n]:.17g}",
                     f"{trace.objectives[n]:.17g}", f"{trace.alphas[n]:.17g}",
                     rel])
    exp.write_csv(path, ["n", "sigma", "J", "alpha", "rel_error"], rows,
                  conf_hash)


def _dispatch(command: str, cfg, outdir: Path) -> list[str]:
    outdir.mkdir(parents=True, exist_ok=True)
    family = exp.family_from_config(cfg)
    model = exp.interface_from_config(cfg)
    sigma = cfg.value("device", "sigma", float, 5.0)
    d = cfg.value("device", "d", float, 10.0)

    if command == "forward":
        device = family.device(sigma, d)
        grid = Grid2D.unit(cfg.value("grid", "reference", int, 128))
        theta = draw_sample(model, cfg.seed)
        sol = solve_mapped_2d(device, model, theta, grid)
        exp.write_csv(outdir / "forward.csv",
                      ["sigma", "d", "pl", "seed"],
                      [[f"{sigma:.17g}", f"{d:.17g}", f"{sol.pl:.17g}",
                        cfg.seed]], cfg.sha)
        if cfg.value("run", "dump_field", int, 0):
            exp.write_csv(outdir / "field.csv", ["y", "z", "value"],
                          [[f"{y:.17g}", f"{z:.17g}", f"{v:.17g}"]
                           for y, row in zip(grid.y, sol.field.values)
                           for z, v in zip(grid.z, row)], cfg.sha)
            return ["forward.csv", "field.csv"]
        return ["forward.csv"]

    if command == "expect":
        device = family.device(sigma, d)
        grid = Grid2D.unit(cfg.value("grid", "reference", int, 128))
        rule = build_rule(cfg.value("rule", "kind", str, TENSOR_GL), model.K,
                          cfg.value("rule", "size", int, 4),
                          model.dist.support, seed=cfg.seed)
        value = expected_mapped_pl(device, model, rule, grid)
        exp.write_csv(outdir / "expect.csv",
                      ["sigma", "d", "expected_pl", "nodes", "rule"],
                      [[f"{sigma:.17g}", f"{d:.17g}", f"{value:.17g}",
                        rule.node_count, rule.descriptor]], cfg.sha)
        return ["expect.csv"]

    if command == "converge":
        device = family.device(sigma, d)
        result = exp.convergence_study(
            device=device, model=model,
            eps_values=cfg.floats("converge", "eps", exp.EPS_SWEEP),
            ref_cells=(cfg.value("grid", "reference", int, 128),) * 2,
            ref_points=cfg.value("rule", "size", int, 4))
        return result.write(outdir, cfg.sha)

    if command == "estimate":
        sigma_star = cfg.value("estimate", "sigma_star", float)
        eps_values = cfg.floats("estimate", "eps")
        names = [f"estimate_eps{eps:g}.csv" for eps in eps_values]
        if len(set(names)) < len(names):
            raise ValueError(f"[estimate] eps values {eps_values} must write "
                             f"distinct files, got {names}")
        traces = exp.estimation_study(
            sigma_star=sigma_star, eps_values=eps_values,
            thicknesses=cfg.floats("estimate", "thicknesses"),
            model=model, family=family,
            data_cells=(cfg.value("grid", "data_x", int, 256),
                        cfg.value("grid", "data_z", int, 128)),
            data_points=cfg.value("rule", "data_size", int, 3),
            sigma0=cfg.value("newton", "sigma0", float, 0.0) or None,
            newton=_newton_options(cfg))
        rows = []
        for name, (eps, trace) in zip(names, traces.items()):
            _write_trace(outdir / name, trace, cfg.sha)
            rows.append([f"{eps:g}",
                         f"{trace.final_rel_error(sigma_star):.17g}",
                         trace.iterations, trace.reason])
        exp.write_csv(outdir / "estimate_summary.csv",
                      ["eps", "final_rel_error", "iterations", "reason"], rows,
                      cfg.sha)
        return names + ["estimate_summary.csv"]

    if command == "validate":
        result = exp.validation_study(
            sigma_star=cfg.value("validate", "sigma_star", float),
            betas=cfg.floats("validate", "betas"),
            thicknesses=cfg.floats("validate", "thicknesses"),
            family=family,
            K=cfg.value("interface", "modes", int, 10),
            hbar=cfg.value("interface", "hbar", float, 1.0),
            dist=model.dist,
            sigma0=cfg.value("newton", "sigma0", float, 0.0) or None,
            newton=_newton_options(cfg))
        outputs = []
        rows = []
        for beta, trace in result.traces.items():
            name = f"validate_beta{beta:g}.csv"
            _write_trace(outdir / name, trace, cfg.sha)
            outputs.append(name)
            rows.append([f"{beta:g}", f"{result.final_errors[beta]:.17g}",
                         int(result.within_one_percent[beta]),
                         trace.iterations, trace.reason])
        exp.write_csv(outdir / "validate_summary.csv",
                      ["beta", "final_rel_error", "within_1pct", "iterations",
                       "reason"], rows, cfg.sha)
        return outputs + ["validate_summary.csv"]

    if command == "timing":
        device = family.device(sigma, d)
        result = exp.timing_study(
            device=device, model=model,
            epsilon=cfg.value("timing", "eps", float, 0.1),
            sc_cells=(cfg.value("grid", "reference", int, 64),) * 2)
        exp.write_csv(outdir / "timing.csv",
                      ["method", "seconds", "nodes_or_solves", "error"],
                      [["asymptotic_order2", f"{result.asym_seconds:.6g}",
                        "", f"{result.asym_error:.6g}"],
                       ["collocation", f"{result.sc_seconds:.6g}",
                        result.sc_nodes, f"{result.sc_error:.6g}"],
                       ["reference", f"{result.ref_seconds:.6g}",
                        "", ""],
                       ["speedup", f"{result.speedup:.6g}", "", ""]],
                      cfg.sha)
        return ["timing.csv"]

    raise ValueError(f"unknown command {command!r}")


if __name__ == "__main__":
    sys.exit(main())
