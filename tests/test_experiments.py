"""Studies, synthetic data, config plumbing, CLI contract."""

import json

import numpy as np
import pytest

from exdil import cli, experiments
from exdil.asymptotic import flat_pl
from exdil.collocation import SMOLYAK, build_rule
from exdil.cli import config_hash, load_config
from exdil.experiments import (MODEL_1D, MODEL_2D, convergence_study,
                               estimation_study, fit_slope,
                               generate_synthetic_curve, timing_study,
                               validation_study)
from exdil.fd_core import Grid2D
from exdil.forward_mapped import DeviceConfig, GenerationProfile, \
    solve_mapped_1d, symmetry_folded_rule
from exdil.interface import InterfaceModel, UniformDist
from exdil.inverse import DeviceFamily, EstimationTrace, OneDimensionalForward

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
        # the flat data are the flat provider's default discrete model
        curve = generate_synthetic_curve(MODEL_1D, 5.0, (10.0, 20.0),
                                         family=FAMILY)
        dev = FAMILY.device(5.0, 10.0)
        assert curve.values[0] == solve_mapped_1d(dev).pl
        assert curve.values == tuple(OneDimensionalForward(FAMILY).pl(5.0, d)
                                     for d in (10.0, 20.0))

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
                                         family=FAMILY)
        vals = curve.values
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_model_2d_needs_model(self):
        with pytest.raises(ValueError):
            generate_synthetic_curve(MODEL_2D, 5.0, (10.0,), family=FAMILY)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_synthetic_curve("model_3d", 5.0, (10.0,), family=FAMILY)


def tiny_convergence():
    dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
    model = InterfaceModel(1.0, 64.0, 1, (1.0,), UniformDist(0.0, 1.0))
    return convergence_study(device=dev, model=model,
                             eps_values=(0.25, 0.125, 0.0625),
                             ref_cells=(32, 32),
                             ref_points=2)


class TestConvergenceStudy:
    def test_small_run_shape(self):
        res = tiny_convergence()
        assert len(res.references) == 3
        assert set(res.fits) == {0, 1, 2}
        assert all(len(v) == 3 for v in res.errors.values())


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
reference = 32

[rule]
kind = tensor_gl
size = 2

[converge]
eps = 0.25, 0.125, 0.0625
"""


RESONANCE_CONFIG = """
[run]
kind = resonance
output = {out}

[interface]
modes = 2
lambdas = 1.0, 0.5

[grid]
reference = 16

[rule]
size = 2

[converge]
eps = 0.25, 0.125, 0.0625

[validate]
sigma_star = 5.0
betas = -2, -1
thicknesses = 10, 20, 30

[newton]
sigma0 = 5.0
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

    def test_unresolved_modes_exit_2(self, tmp_path, capsys):
        # five modes need more than 10 z intervals: the grid is rejected
        # before the first node, not reported as a node failure
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("modes = 1", "modes = 5")
                        .replace("lambdas = 1.0", "lambdas = 1, 1, 1, 1, 1")
                        .replace("reference = 32", "reference = 8"))
        assert cli.main(["expect", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad config" in err and "z intervals" in err

    @pytest.mark.parametrize("eps", ["0.25, 0.125", "0.25, 0.125, 0",
                                     "0.25, -0.125, 0.0625"])
    def test_converge_checks_eps_before_solving(self, tmp_path, capsys,
                                                monkeypatch, eps):
        def no_solve(*args, **kwargs):
            raise AssertionError("a mapped solve ran before the eps check")

        monkeypatch.setattr(experiments, "expected_mapped_pl", no_solve)
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("eps = 0.25, 0.125, 0.0625", f"eps = {eps}"))
        assert cli.main(["converge", "--config", str(path)]) == 2
        assert "at least three eps values" in capsys.readouterr().err

    @pytest.mark.parametrize("old, new, message", [
        ("eps = 0.1, 0.05", "eps = 0.1, -0.05", "eps value"),
        ("eps = 0.1, 0.05", "eps = 0.1, nan", "eps value"),
        ("eps = 0.1, 0.05", "eps =", "eps value"),
        ("thicknesses = 10, 20, 30", "thicknesses = 30, 20, 10",
         "thicknesses must be strictly increasing"),
        ("eps = 0.1, 0.05", "eps = 0.1, 0.1", "[estimate] eps"),
        # distinct values that print alike would write one file
        ("eps = 0.1, 0.05", "eps = 0.1, 0.1000001", "[estimate] eps"),
        ("thicknesses = 10, 20, 30",
         "thicknesses = 10, 20, 30\n\n[newton]\nsigma0 = -1",
         "sigma0 must be finite and positive"),
        # 0 is no start, not "the default start"
        ("thicknesses = 10, 20, 30",
         "thicknesses = 10, 20, 30\n\n[newton]\nsigma0 = 0",
         "sigma0 must be finite and positive"),
    ], ids=["negative-eps", "nan-eps", "no-eps", "decreasing-thicknesses",
            "repeated-eps", "colliding-eps-names", "negative-sigma0",
            "zero-sigma0"])
    def test_estimate_checks_config_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, old, new,
                                                   message):
        calls = []

        def counting_solve(*args, **kwargs):
            calls.append(None)
            return 1.0

        monkeypatch.setattr(experiments, "expected_mapped_pl", counting_solve)
        path = tmp_path / "run.cfg"
        estimate = ("[estimate]\nsigma_star = 5.0\neps = 0.1, 0.05\n"
                    "thicknesses = 10, 20, 30\n")
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("reference = 32", "data_x = 32\ndata_z = 16")
                        + "\n" + estimate.replace(old, new))
        assert cli.main(["estimate", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert calls == []

    def test_estimation_study_rejects_repeated_eps(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "expected_mapped_pl",
                            lambda *args, **kwargs: calls.append(None))
        model = InterfaceModel(1.0, 4.0, 1, (1.0,), UniformDist(0.0, 1.0))
        with pytest.raises(ValueError, match="distinct"):
            estimation_study(sigma_star=5.0, eps_values=(0.1, 0.05, 0.1),
                             thicknesses=(10.0, 20.0), model=model,
                             family=FAMILY)
        assert calls == []

    @pytest.mark.parametrize("sigma0", ["-1", "inf", "0"])
    def test_validate_checks_sigma0_before_solving(self, tmp_path, capsys,
                                                   monkeypatch, sigma0):
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return 1.0

        monkeypatch.setattr(experiments, "flat_pl", counting)
        monkeypatch.setattr(experiments, "newton_estimate", counting)
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        + "\n[validate]\nsigma_star = 5.0\nbetas = -2\n"
                        "thicknesses = 10, 20\n\n[newton]\n"
                        f"sigma0 = {sigma0}\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "sigma0 must be finite and positive" in capsys.readouterr().err
        assert calls == []

    # distinct values that print alike would write one file
    @pytest.mark.parametrize("betas", ["-2, -2", "-2, -2.0000001"],
                             ids=["repeated", "colliding-names"])
    def test_validate_checks_betas_before_solving(self, tmp_path, capsys,
                                                  monkeypatch, betas):
        calls = []

        def counting(*args, **kwargs):
            calls.append(None)
            return 1.0

        monkeypatch.setattr(experiments, "flat_pl", counting)
        monkeypatch.setattr(experiments, "newton_estimate", counting)
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        + f"\n[validate]\nsigma_star = 5.0\nbetas = {betas}\n"
                        "thicknesses = 10, 20\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "[validate] betas" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["estimate", "validate"])
    def test_missing_required_key_exits_2(self, tmp_path, capsys, command):
        # sigma_star has no default; [newton] sigma0 may be absent
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        + f"\n[{command}]\neps = 0.1\nbetas = -2\n"
                        "thicknesses = 10, 20\n")
        assert cli.main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"missing config key [{command}] sigma_star" in err

    def test_validation_study_rejects_repeated_beta(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "flat_pl",
                            lambda *args, **kwargs: calls.append(None))
        with pytest.raises(ValueError, match="distinct"):
            validation_study(sigma_star=5.0, betas=(-2.0, -1.0, -2.0),
                             thicknesses=(10.0, 20.0), family=FAMILY)
        assert calls == []

    def test_output_path_that_is_a_file_exits_2(self, tmp_path, capsys,
                                                monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve ran before the output check")

        monkeypatch.setattr(cli, "solve_mapped_2d", no_solve)
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out"))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert cli.main(["forward", "--config", str(path),
                         "--output", str(taken)]) == 2
        err = capsys.readouterr().err
        assert "bad output directory" in err and "Traceback" not in err

    def test_failed_table_write_exits_2_and_leaves_no_partial_run(
            self, tmp_path, capsys):
        # the summary cannot be written after both trace tables were: the
        # run takes them back, and the old manifest, which would list
        # files of another run, is gone too
        path = tmp_path / "run.cfg"
        path.write_text("[run]\nkind = validate\n\n[interface]\nmodes = 3\n\n"
                        "[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                        "thicknesses = 10, 20, 30\n")
        out = tmp_path / "d"
        (out / "validate_summary.csv").mkdir(parents=True)
        (out / "manifest.json").write_text('{"outputs": []}\n')
        assert cli.main(["validate", "--config", str(path),
                         "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "bad output directory" in err and "Traceback" not in err
        assert sorted(p.name for p in out.iterdir()) == [
            "validate_summary.csv"]
        assert (out / "validate_summary.csv").is_dir()

    def test_forward_domain_failure_exits_3(self, tmp_path, capsys):
        # the interface of the one sample reaches the top surface; the
        # error is a ValueError too, but a numerical failure, not a config
        # error
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("d = 10.0", "d = 0.5")
                        .replace("hbar = 1.0", "hbar = 2.0")
                        .replace("reference = 32", "reference = 16"))
        assert cli.main(["forward", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "top surface" in err
        assert "Traceback" not in err

    def test_unknown_generation_kind_exits_2(self, tmp_path, capsys):
        # an unknown kind used to fall back to the decay-factor default
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        .replace("kind = exponential", "kind = gaussian")
                        .replace("reference = 32", "reference = 16"))
        assert cli.main(["forward", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad config" in err and "[generation] kind" in err
        assert "exponential" in err and "constant" in err
        assert not (tmp_path / "out" / "forward.csv").exists()

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

    @pytest.mark.parametrize("command,old,new", [
        ("forward", "sigma = 12.0", "sigma = nan"),
        ("forward", "d = 10.0", "d = nan"),
        ("forward", "d = 10.0", "d = inf"),
        ("forward", "period = 64.0", "period = inf"),
        ("forward", "decay = 10.0", "decay = nan"),
        ("expect", "hbar = 1.0", "hbar = nan"),
        ("expect", "lambdas = 1.0", "lambdas = inf"),
    ])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command, old,
                                      new):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out").replace(old, new)
                        .replace("reference = 32", "reference = 16"))
        assert cli.main([command, "--config", str(path)]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_newton_tolerance_exits_2(self, tmp_path, capsys, tol):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        + "\n[validate]\nsigma_star = 5.0\nbetas = -2\n"
                        f"thicknesses = 10, 20\n\n[newton]\ntol = {tol}\n")
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "Newton options" in capsys.readouterr().err

    @pytest.mark.parametrize("extra, key", [
        ("[validate]\nthicknesses = 10, nan, 30\n", "thicknesses"),
        ("[validate]\nthicknesses = 10, 20, 30\n\n[newton]\nsigma0 = nan\n",
         "sigma0"),
    ], ids=["thicknesses", "sigma0"])
    def test_non_finite_validate_input_named(self, tmp_path, capsys, extra,
                                             key):
        path = tmp_path / "run.cfg"
        path.write_text(CONFIG.format(out=tmp_path / "out")
                        + "\n" + extra.replace(
                            "[validate]\n",
                            "[validate]\nsigma_star = 5.0\nbetas = -2\n"))
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert key in err and "finite" in err

    def test_default_device_sits_on_the_resonance(self, tmp_path):
        # [device] and [generation] at their defaults give sigma = 5, d = 10
        # and decay length 0.5 d = 5: exactly the pole of the particular
        # solution's coefficient, which the expansion must not see
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(RESONANCE_CONFIG.format(out=out))
        for command in ("converge", "validate", "timing"):
            assert cli.main([command, "--config", str(path)]) == 0, command
        for name in ("convergence.csv", "slopes.csv", "timing.csv",
                     "validate_summary.csv", "validate_beta-2.csv"):
            rows = (out / name).read_text().splitlines()[2:]
            assert rows, name
            if name == "validate_summary.csv":
                # the trailing stop reason is the one text column
                assert all(row.endswith(",step_tolerance") for row in rows)
                rows = [row.rsplit(",", 1)[0] for row in rows]
            fields = [v for row in rows for v in row.split(",")[1:] if v]
            assert all(np.isfinite(float(v)) for v in fields), name

    def test_timing_grid_is_the_reference_key(self, tmp_path, monkeypatch):
        # timing's reference and contender run on [grid] reference, the
        # mapped grid of forward, expect and converge; [grid] asymptotic
        # sets nothing
        seen = {}

        def recording_timing_study(**kwargs):
            seen.update(kwargs)
            return experiments.TimingResult(
                asym_seconds=1.0, asym_error=0.0, sc_seconds=1.0, sc_level=1,
                sc_nodes=1, sc_error=0.0, ref_seconds=1.0, speedup=1.0)

        monkeypatch.setattr(experiments, "timing_study",
                            recording_timing_study)
        path = tmp_path / "run.cfg"
        path.write_text(RESONANCE_CONFIG.format(out=tmp_path / "out").replace(
            "reference = 16\n", "reference = 16\nasymptotic = 32\n"))
        assert cli.main(["timing", "--config", str(path)]) == 0
        assert seen["sc_cells"] == (16, 16)

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
        # every command, run twice from one config, writes the same bytes;
        # the one exception is timing.csv's wall-time column
        path = tmp_path / "run.cfg"
        path.write_text(
            CONFIG.format(out=tmp_path / "out")
            .replace("seed = 7", "seed = 7\ndump_field = 1")
            .replace("reference = 32", "reference = 16\ndata_x = 16\n"
                     "data_z = 16")
            .replace("kind = tensor_gl\nsize = 2",
                     "kind = monte_carlo\nsize = 4\ndata_size = 2")
            + "\n[estimate]\nsigma_star = 5.0\neps = 0.1, 0.05\n"
            "thicknesses = 10, 20, 30\n"
            "\n[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
            "thicknesses = 10, 20, 30\n")

        def without_seconds(data):
            rows = [row.split(",") for row in data.decode().splitlines()]
            return [row[:1] + row[2:] for row in rows]

        for command, expected in (("forward", "field.csv"),
                                  ("expect", "expect.csv"),
                                  ("converge", "slopes.csv"),
                                  ("estimate", "estimate_eps0.05.csv"),
                                  ("validate", "validate_summary.csv"),
                                  ("timing", "timing.csv")):
            runs = [tmp_path / run / command for run in ("a", "b")]
            for out in runs:
                assert cli.main([command, "--config", str(path),
                                 "--output", str(out)]) == 0, command
            names = sorted(p.name for p in runs[0].iterdir())
            assert expected in names and "manifest.json" in names, command
            assert names == sorted(p.name for p in runs[1].iterdir())
            # the manifest lists every file written, and only those
            manifest = json.loads((runs[0] / "manifest.json").read_text())
            assert manifest["outputs"] == [n for n in names
                                           if n != "manifest.json"], command
            for name in names:
                a, b = ((out / name).read_bytes() for out in runs)
                if name == "timing.csv":
                    a, b = without_seconds(a), without_seconds(b)
                assert a == b, name

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
                .replace("reference = 32", "reference = 16\ndata_x = 16"
                         "\ndata_z = 16")
                .replace("size = 2", "size = 2\ndata_size = 2")
                + "\n[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                "thicknesses = 10, 20, 30\n"
                "\n[estimate]\nsigma_star = 5.0\neps = 0.1, 0.05\n"
                "thicknesses = 10, 20, 30\n")
        path.write_text(text)
        for command in ("forward", "expect", "converge", "estimate",
                        "validate"):
            assert cli.main([command, "--config", str(path)]) == 0
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == ["convergence.csv", "estimate_eps0.05.csv",
                         "estimate_eps0.1.csv", "estimate_summary.csv",
                         "expect.csv", "field.csv",
                         "forward.csv", "slopes.csv", "validate_beta-1.csv",
                         "validate_beta-2.csv", "validate_summary.csv"]
        head = f"# config_hash={config_hash(text)}\n".encode()
        for name in names:
            data = (out / name).read_bytes()
            assert data.startswith(head), name
            assert b"\r" not in data, name
            assert data.endswith(b"\n"), name


class TestEstimationStudy:
    def test_cli_estimate_summary_reports_the_stop_reason(self, tmp_path):
        # a fit cut by max_iter reports it in estimate_summary.csv, one row
        # per eps in the config's order
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(CONFIG.format(out=out)
                        .replace("reference = 32", "data_x = 16\ndata_z = 16")
                        .replace("size = 2", "size = 2\ndata_size = 2")
                        + "\n[estimate]\nsigma_star = 5.0\neps = 0.1, 0.05\n"
                        "thicknesses = 10, 20, 30\n\n[newton]\nsigma0 = 7.5\n"
                        "max_iter = 1\n")
        assert cli.main(["estimate", "--config", str(path)]) == 0
        rows = (out / "estimate_summary.csv").read_text().splitlines()[1:]
        assert rows[0] == "eps,final_rel_error,iterations,reason"
        fields = [row.split(",") for row in rows[1:]]
        assert [row[:1] + row[2:] for row in fields] == [
            ["0.1", "1", "max_iterations"], ["0.05", "1", "max_iterations"]]
        for row in fields:
            trace = (out / f"estimate_eps{row[0]}.csv").read_text() \
                .splitlines()[2:]
            assert len(trace) == 1
            # the summary's error is the trace's last rel_error
            assert row[1] == trace[0].split(",")[4]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == ["estimate_eps0.05.csv",
                                       "estimate_eps0.1.csv",
                                       "estimate_summary.csv"]


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
                               sigma0=7.5)
        assert res.traces[-2.0].iterations == 0
        assert res.traces[-2.0].final_rel_error(5.0) == 0.5

    def test_cli_validate_with_empty_trace(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "newton_estimate", exhausted_newton)
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(CONFIG.format(out=out)
                        + "\n[validate]\nsigma_star = 5.0\nbetas = -2\n"
                        "thicknesses = 10, 20\n\n[newton]\nsigma0 = 7.5\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        rows = (out / "validate_summary.csv").read_text().splitlines()
        assert rows[1:] == ["beta,final_rel_error,within_1pct,iterations,reason",
                            "-2,0.5,0,0,line_search_exhausted"]
        assert (out / "validate_beta-2.csv").read_text().splitlines()[2:] \
            == []

    def test_cli_validate_stops_on_max_iterations(self, tmp_path):
        # a fit that runs out of iterations returns its trace, which the
        # study reports like any other
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(CONFIG.format(out=out)
                        + "\n[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                        "thicknesses = 10, 20, 30\n\n[newton]\nsigma0 = 7.5\n"
                        "max_iter = 1\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        for beta in ("-2", "-1"):
            rows = (out / f"validate_beta{beta}.csv").read_text() \
                .splitlines()[2:]
            assert len(rows) == 1 and rows[0].startswith("1,")
        rows = (out / "validate_summary.csv").read_text().splitlines()[2:]
        assert [row.split(",")[3:] for row in rows] == [
            ["1", "max_iterations"]] * 2

    def test_data_are_the_flat_closed_form(self, monkeypatch):
        seen = []

        def capturing_newton(provider, curve, **kwargs):
            seen.append(curve)
            return exhausted_newton(provider, curve, **kwargs)

        monkeypatch.setattr(experiments, "newton_estimate", capturing_newton)
        thicknesses = (10.0, 17.5, 25.0, 32.5, 40.0)
        validation_study(sigma_star=4.9, betas=(-2.0, -1.0),
                         thicknesses=thicknesses, family=FAMILY, K=3,
                         sigma0=7.5)
        assert len(seen) == 2
        for curve in seen:
            assert curve.thicknesses == thicknesses
            assert [v.hex() for v in curve.values] == [
                flat_pl(FAMILY.device(4.9, d)).hex() for d in thicknesses]

    def test_cli_validate_reads_the_coefficient_law(self, tmp_path):
        # the expansion reads the law through its second moment: U(0, 3)
        # has 3, U(0, 1) (the default) and U(-1, 1) both have 1/3
        def run(law):
            path = tmp_path / "run.cfg"
            out = tmp_path / f"out{len(law)}"
            path.write_text(f"[run]\nkind = validate\noutput = {out}\n\n"
                            f"[interface]\nmodes = 3\n{law}\n"
                            "[validate]\nsigma_star = 5.0\nbetas = -2, -1\n"
                            "thicknesses = 10, 20, 30\n")
            assert cli.main(["validate", "--config", str(path)]) == 0
            # every line but the leading config hash
            return [(out / name).read_text().splitlines()[1:] for name in
                    ("validate_summary.csv", "validate_beta-2.csv",
                     "validate_beta-1.csv")]

        default = run("")
        assert run("a = -1\nb = 1\n") == default
        assert run("a = 0\nb = 3\n")[0] != default[0]

    def test_cli_error_grows_as_beta_rises(self, tmp_path):
        # the paper's trend: the flat data agree less with the rough model
        # as the spectrum decays more slowly
        path = tmp_path / "run.cfg"
        out = tmp_path / "out"
        path.write_text(f"[run]\nkind = validate\noutput = {out}\n\n"
                        "[interface]\nmodes = 10\n\n"
                        "[validate]\nsigma_star = 5.0\n"
                        "betas = -3, -2, -1, -0.5\n"
                        "thicknesses = 10, 17.5, 25, 32.5, 40\n")
        assert cli.main(["validate", "--config", str(path)]) == 0
        rows = [row.split(",") for row in
                (out / "validate_summary.csv").read_text().splitlines()[2:]]
        assert [row[0] for row in rows] == ["-3", "-2", "-1", "-0.5"]
        assert all(row[3] != "0" for row in rows)
        errors = [float(row[1]) for row in rows]
        assert all(a < b for a, b in zip(errors, errors[1:]))


class TestTimingStudy:
    def test_counts_and_report(self):
        dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, 64.0, 2, (1.0, 1.0), UniformDist(0.0, 1.0))
        res = timing_study(device=dev, model=model, epsilon=0.0625,
                           sc_cells=(48, 48), ref_points=2, max_level=3)
        assert res.sc_nodes > 0
        assert res.speedup > 0

    def test_collocation_count_is_nodes_solved(self):
        # with a symmetric law the contender solves its folded rule
        dev = DeviceConfig(12.0, 10.0, 64.0, GenerationProfile.exponential(10.0))
        model = InterfaceModel(1.0, 64.0, 2, (1.0, 1.0), UniformDist(-1.0, 1.0))
        res = timing_study(device=dev, model=model, epsilon=0.0625,
                           sc_cells=(48, 48), ref_points=2, max_level=3)
        rule = build_rule(SMOLYAK, 2, res.sc_level, (-1.0, 1.0))
        assert res.sc_level > 1
        assert res.sc_nodes == symmetry_folded_rule(
            rule, Grid2D.unit(48, 48)).node_count < rule.node_count
