"""Studies, synthetic data, config plumbing, CLI contract."""

import json

import numpy as np
import pytest

from exdil import cli, experiments
from exdil.collocation import SMOLYAK, build_rule
from exdil.experiments import (MODEL_1D, MODEL_2D, config_hash,
                               convergence_study, fit_slope,
                               generate_synthetic_curve, load_config,
                               timing_study, validation_study)
from exdil.fd_core import Grid2D
from exdil.forward_mapped import DeviceConfig, GenerationProfile, \
    solve_mapped_1d, symmetry_folded_rule
from exdil.interface import InterfaceModel, UniformDist, covariance
from exdil.inverse import DeviceFamily, EstimationTrace

FAMILY = DeviceFamily(period=4.0)


class TestSlopeFit:
    def test_exact_power_law(self):
        eps = [2.0 ** -i for i in range(2, 8)]
        errs = [3.7 * e ** 2 for e in eps]
        fit = fit_slope(eps, errs)
        assert fit.slope == pytest.approx(2.0, abs=1e-2)
        assert fit.residual < 1e-12

    def test_cubic(self):
        eps = [0.5, 0.25, 0.125, 0.0625]
        fit = fit_slope(eps, [e ** 3 for e in eps])
        assert fit.slope == pytest.approx(3.0, abs=1e-2)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_slope([0.1, 0.2], [1.0, 2.0])
        with pytest.raises(ValueError):
            fit_slope([0.1, 0.2, 0.3], [1.0, -1.0, 2.0])


class TestSyntheticCurves:
    def test_1d_deterministic(self):
        curve = generate_synthetic_curve(MODEL_1D, 5.0, (10.0, 20.0),
                                         family=FAMILY, cells_1d=256)
        dev = FAMILY.device(5.0, 10.0)
        assert curve.values[0] == pytest.approx(
            solve_mapped_1d(dev, 0.0, 256).pl)
        assert curve.provenance == "synthetic-1d"

    def test_vanishing_roughness_matches_deterministic(self):
        model = InterfaceModel(1e-9, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        curve = generate_synthetic_curve(MODEL_2D, 5.0, (10.0, 20.0),
                                         family=FAMILY, model=model,
                                         rule_size=2, cells=(32, 32))
        for (d, val) in curve.pairs():
            flat = solve_mapped_1d(FAMILY.device(5.0, d), 0.0, 32).pl
            assert val == pytest.approx(flat, rel=1e-8)

    def test_monotone_in_thickness(self):
        curve = generate_synthetic_curve(MODEL_1D, 5.0,
                                         tuple(10.0 * i for i in range(1, 11)),
                                         family=FAMILY, cells_1d=256)
        vals = curve.values
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_height_ensemble_offsets(self):
        # averaging over the pointwise height ensemble shifts the value
        # relative to the flat model by a second-order amount
        model = InterfaceModel(0.5, 4.0, 2, (1.0, 0.5), UniformDist(-1, 1))
        flat = generate_synthetic_curve(MODEL_1D, 5.0, (20.0,), family=FAMILY,
                                        cells_1d=256)
        spread = generate_synthetic_curve(MODEL_1D, 5.0, (20.0,),
                                          family=FAMILY, cells_1d=256,
                                          xi_model=model, xi_level=2)
        assert spread.values[0] != pytest.approx(flat.values[0], rel=1e-8)
        assert spread.values[0] == pytest.approx(flat.values[0], rel=1e-2)

    def test_model_2d_needs_model(self):
        with pytest.raises(ValueError):
            generate_synthetic_curve(MODEL_2D, 5.0, (10.0,), family=FAMILY)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_synthetic_curve("model_3d", 5.0, (10.0,), family=FAMILY)


class TestCovarianceLength:
    def test_spectrum_decay_lengthens_correlation(self):
        # the paper-facing property behind the validation study: slower
        # mode-weight decay means shorter correlation length
        def half_width(beta):
            m = InterfaceModel.with_power_spectrum(1.0, 4.0, 10, beta,
                                                   UniformDist(-1, 1))
            taus = np.linspace(0, 2.0, 2001)
            c = covariance(m, 0.5, 0.5 + taus) / covariance(m, 0.5, 0.5)
            return taus[np.argmax(c < 0.5)]

        assert half_width(-2.0) > 5.0 * half_width(0.0)


def tiny_convergence():
    dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
    model = InterfaceModel(1.0, 64.0, 1, (1.0,), UniformDist(0.0, 1.0))
    return convergence_study(device=dev, model=model,
                             eps_values=(0.25, 0.125, 0.0625),
                             asym_cells=(16, 16), ref_cells=(32, 32),
                             ref_points=2)


class TestConvergenceStudy:
    def test_small_run_shape(self):
        res = tiny_convergence()
        assert len(res.references) == 3
        assert set(res.fits) == {0, 1, 2}
        assert all(len(v) == 3 for v in res.errors.values())

    def test_csv_emission(self, tmp_path):
        res = tiny_convergence()
        outputs = res.write(tmp_path, "cafe")
        assert sorted(outputs) == ["convergence.csv", "slopes.csv"]
        text = (tmp_path / "slopes.csv").read_text()
        assert text.startswith("# config_hash=cafe")


CONFIG = """
[run]
kind = converge
seed = 7
output = {out}

[device]
sigma = 12.0
d = 10.0
period = 64.0

[generation]
kind = exponential
decay = 10.0

[interface]
modes = 1
hbar = 1.0
a = 0.0
b = 1.0
lambdas = 1.0

[grid]
asymptotic = 16
reference = 32

[rule]
kind = tensor_gl
size = 2

[converge]
eps = 0.25, 0.125, 0.0625
"""


class TestConfigAndCli:
    def test_load_config(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out"))
        cfg = load_config(path)
        assert cfg.kind == "converge"
        assert cfg.seed == 7
        assert cfg.floats("converge", "eps") == [0.25, 0.125, 0.0625]
        assert cfg.sha == config_hash(path.read_text())

    def test_missing_config_exits_2(self, capsys):
        assert cli.main(["converge", "--config", "/nonexistent.cfg"]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_bad_section_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("[demo]\nkey = 1\n")
        assert cli.main(["converge", "--config", str(path)]) == 2

    def test_missing_section_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bare.cfg"
        path.write_text("kind = forward\n")
        assert cli.main(["forward", "--config", str(path)]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_bad_interpolation_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("sigma = 12.0", "sigma = 12%"))
        assert cli.main(["converge", "--config", str(path)]) == 2
        assert "bad config" in capsys.readouterr().err

    def test_aliased_modes_exit_2(self, tmp_path, capsys):
        # 2K >= nz: the expansion's mode products alias on 16 z cells
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("modes = 1", "modes = 8")
                        .replace("lambdas = 1.0", "lambdas = " + ", ".join(
                            ["1.0"] * 8)))
        assert cli.main(["converge", "--config", str(path)]) == 2
        assert "alias" in capsys.readouterr().err

    def test_quadrature_node_failure_exits_3(self, tmp_path, capsys):
        # hbar > d: the interface reaches the top surface at a rule node
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("d = 10.0", "d = 0.5")
                        .replace("hbar = 1.0", "hbar = 2.0")
                        .replace("reference = 32", "reference = 16"))
        assert cli.main(["expect", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err
        assert "Traceback" not in err

    def test_quadrature_node_failure_under_fold_exits_3(self, tmp_path,
                                                         capsys):
        # a symmetric law folds the rule; the invalid nodes still get solved
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("d = 10.0", "d = 0.5")
                        .replace("hbar = 1.0", "hbar = 2.0")
                        .replace("a = 0.0", "a = -1.0")
                        .replace("reference = 32", "reference = 16"))
        assert cli.main(["expect", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "folded" in err
        assert "Traceback" not in err

    def test_unknown_command_exits_2(self):
        assert cli.main(["frobnicate", "--config", "x"]) == 2

    def test_converge_writes_outputs_and_manifest(self, tmp_path):
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(CONFIG.format(out=out))
        assert cli.main(["converge", "--config", str(path)]) == 0
        assert (out / "convergence.csv").exists()
        assert (out / "slopes.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["kind"] == "converge"
        assert manifest["seed"] == 7
        assert "numpy" in manifest["versions"]
        assert sorted(manifest["outputs"]) == ["convergence.csv", "slopes.csv"]

    def test_replay_byte_identical(self, tmp_path):
        path = tmp_path / "run.cfg"
        out1, out2 = tmp_path / "a", tmp_path / "b"
        path.write_text(CONFIG.format(out=out1))
        assert cli.main(["converge", "--config", str(path)]) == 0
        assert cli.main(["converge", "--config", str(path),
                         "--output", str(out2)]) == 0
        for name in ("convergence.csv", "slopes.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_forward_and_expect(self, tmp_path):
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        text = CONFIG.format(out=out).replace("reference = 32",
                                              "reference = 16")
        path.write_text(text)
        assert cli.main(["forward", "--config", str(path)]) == 0
        assert (out / "forward.csv").exists()
        assert cli.main(["expect", "--config", str(path)]) == 0
        line = (out / "expect.csv").read_text().splitlines()[2]
        assert float(line.split(",")[2]) > 0

    def test_every_csv_has_hash_line_and_lf_rows(self, tmp_path):
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        text = (CONFIG.format(out=out)
                .replace("seed = 7", "seed = 7\ndump_field = 1")
                .replace("reference = 32", "reference = 16\nestimator_x = 32"
                         "\nestimator_z = 32")
                + "\n[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                "thicknesses = 10, 20, 30\n")
        path.write_text(text)
        for command in ("forward", "expect", "converge", "validate"):
            assert cli.main([command, "--config", str(path)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["convergence.csv", "expect.csv", "field.csv",
                         "forward.csv", "slopes.csv", "validate_beta-1.csv",
                         "validate_beta-2.csv", "validate_summary.csv"]
        head = f"# config_hash={config_hash(text)}\n".encode()
        for name in names:
            data = (out / name).read_bytes()
            assert data.startswith(head), name
            assert b"\r" not in data, name
            assert data.endswith(b"\n"), name


def exhausted_newton(provider, curve, sigma0=None, options=None,
                     sigma_exact=None):
    """A fit whose first line search gives up: no iterate is recorded."""
    return EstimationTrace(sigma0=sigma0, rel_errors=[],
                           reason="line_search_exhausted")


class TestValidationStudy:
    def test_empty_trace_reports_start_error(self, monkeypatch):
        monkeypatch.setattr(experiments, "newton_estimate", exhausted_newton)
        res = validation_study(sigma_star=5.0, betas=(-2.0,),
                               thicknesses=(10.0, 20.0), family=FAMILY, K=3,
                               est_cells=(16, 16), sigma0=7.5)
        assert res.traces[-2.0].iterations == 0
        assert res.final_errors == {-2.0: 0.5}
        assert res.within_one_percent == {-2.0: False}

    def test_cli_validate_with_empty_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "newton_estimate", exhausted_newton)
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(CONFIG.format(out=out)
                        + "\n[validate]\nsigma_star = 5.0\nbetas = -2\n"
                        "thicknesses = 10, 20\n\n[newton]\nsigma0 = 7.5\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        rows = (out / "validate_summary.csv").read_text().splitlines()
        assert rows[2:] == ["-2,0.5,0,0"]
        assert (out / "validate_beta-2.csv").read_text().splitlines()[2:] \
            == []


class TestTimingStudy:
    def test_counts_and_report(self):
        dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, 64.0, 2, (1.0, 1.0), UniformDist(0.0, 1.0))
        res = timing_study(device=dev, model=model, epsilon=0.0625,
                           asym_cells=(32, 32), sc_cells=(48, 48),
                           ref_points=2, max_level=3)
        assert res.asym_solve_count == 2 + 2
        assert res.sc_nodes > 0
        assert res.speedup > 0

    def test_collocation_count_is_nodes_solved(self):
        # with a symmetric law the contender solves its folded rule
        dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, 64.0, 2, (1.0, 1.0), UniformDist(-1.0, 1.0))
        res = timing_study(device=dev, model=model, epsilon=0.0625,
                           asym_cells=(32, 32), sc_cells=(48, 48),
                           ref_points=2, max_level=3)
        rule = build_rule(SMOLYAK, 2, res.sc_level, (-1.0, 1.0))
        assert res.sc_level > 1
        assert res.sc_nodes == symmetry_folded_rule(
            rule, Grid2D.unit(48, 48)).node_count < rule.node_count
