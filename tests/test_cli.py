"""The command-line front end: solve, verify, phantom."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import egmin.cli
from egmin import (
    BATTERY_SIZE,
    ArmijoParams,
    Method,
    Objective,
    SolverConfig,
    build_instance,
    default_x0,
    make_objective,
    make_phantom,
    read_trace_csv,
    solve,
)
from egmin.cli import RunSpec, cmd_solve, load_config, main
from egmin.imgio import quantize
from test_check_run import check_run
from test_imgio import pgm_bytes, read_csv


def small_spec(outdir, **overrides):
    defaults = dict(
        n_side=8,
        methods=("eg",),
        max_iterations=40,
        output_dir=str(outdir),
        seed=3,
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestSolveCommand:
    def test_smoke_run_produces_outputs(self, tmp_path):
        spec = small_spec(tmp_path / "run")
        assert cmd_solve(spec) == 0
        outdir = tmp_path / "run"
        assert (outdir / "trace_eg.csv").exists()
        assert (outdir / "recon_eg.pgm").exists()
        assert (outdir / "relative_values.csv").exists()
        records = read_trace_csv(outdir / "trace_eg.csv")
        values = [rec.f for rec in records]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_summary_contents(self, tmp_path):
        spec = small_spec(tmp_path / "run", methods=("eg", "ipemd"))
        cmd_solve(spec)
        assert check_run(tmp_path / "run") == []
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["spec"]["n_side"] == 8
        assert summary["spec"]["seed"] == 3
        assert summary["spec"]["methods"] == ["eg", "ipemd"]
        assert summary["version"]
        assert set(summary["methods"]) == {"eg", "ipemd"}
        operator = summary["operator"]
        assert operator["shape"][1] == 64 and operator["nnz"] > 0
        assert operator["split_products"] is False and operator["helper_thread"] is False
        for stats in summary["methods"].values():
            assert stats["terminal_status"] in {"max_iter", "grad_tol", "step_tol", "step_infeasible"}
            assert stats["search_status"] in {None, "hit_tau_min", "clamped"}
            assert stats["iterations"] >= 0
            assert stats["total_matvecs"] > 0
            assert set(stats["screened_by"]) == {"kl", "kl_tv", "curve"}
            assert set(stats["rejected_by"]) == {"kl_term", "value", "unusable"}
        # n_side 8 is below the curve screen's gate, and ipemd makes no trial.
        assert summary["methods"]["eg"]["screened_by"]["curve"] == 0
        assert summary["methods"]["ipemd"]["screened_by"] == {"kl": 0, "kl_tv": 0, "curve": 0}
        assert summary["methods"]["ipemd"]["rejected_by"] == {"kl_term": 0, "value": 0, "unusable": 0}

    def test_summary_reports_the_reconstruction_error(self, tmp_path):
        # Each method's final point against the phantom, recomputed here
        # with the library from the run's seed.
        spec = small_spec(tmp_path / "run", methods=("eg", "poicg", "ipemd"))
        assert cmd_solve(spec) == 0
        methods = json.loads((tmp_path / "run" / "summary.json").read_text())["methods"]
        data_seed, x0_seed = np.random.SeedSequence(spec.seed).spawn(2)
        instance, x_true = build_instance(
            spec.n_side, undersampling=spec.undersampling, lam=spec.lam, delta=spec.delta,
            noisy=spec.noisy, seed=data_seed,
        )
        x0 = default_x0(instance.A.cols, seed=x0_seed)
        for name in spec.methods:
            config = egmin.cli._solver_config(spec, Method(name), instance.b)
            x = solve(config, make_objective(instance), x0).final_point
            want = float(np.linalg.norm(x - x_true) / np.linalg.norm(x_true))
            assert methods[name]["recon_rel_error"] == want
            assert 0.0 < want < float(np.linalg.norm(x0 - x_true) / np.linalg.norm(x_true))

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            cmd_solve(small_spec(tmp_path / name, methods=("eg", "poicg")))
        for fname in ("trace_eg.csv", "trace_poicg.csv", "relative_values.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_relative_values_normalized(self, tmp_path):
        spec = small_spec(tmp_path / "run", methods=("eg", "poicg"))
        cmd_solve(spec)
        lines = (tmp_path / "run" / "relative_values.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "k"
        assert header[1].startswith("eg:") and header[2].startswith("poicg:")
        assert "(f_k-f_best)/(f_0-f_best)" in header[1]  # normalization documented
        first = lines[1].split(",")
        for cell in first[1:]:
            assert 0.0 <= float(cell) <= 1.0
        for col in (1, 2):
            vals = [float(row.split(",")[col]) for row in lines[1:] if row.split(",")[col]]
            assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
            assert all(v >= 0.0 for v in vals)

    def test_cli_entry_point(self, tmp_path):
        runner = CliRunner()
        result = runner.invoke(
            main,
            [
                "solve",
                "--n-side", "8",
                "--methods", "eg",
                "--max-iterations", "20",
                "--output-dir", str(tmp_path / "run"),
            ],
        )
        assert result.exit_code == 0, result.output
        assert (tmp_path / "run" / "summary.json").exists()

    def test_non_finite_run_exits_nonzero(self, tmp_path, monkeypatch):
        def nan_gradient(instance):
            return Objective(value_and_grad=lambda x: (float(x.sum()), np.full_like(x, np.nan)))

        monkeypatch.setattr(egmin.cli, "make_objective", nan_gradient)
        assert cmd_solve(small_spec(tmp_path / "run", methods=("eg", "ipemd"))) == 1

        def reject(constant):
            raise ValueError(f"summary.json is not strict JSON: {constant}")

        text = (tmp_path / "run" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject)
        for stats in summary["methods"].values():
            assert stats["terminal_status"] == "non_finite"
            assert stats["iterations"] == 0
            assert stats["final_grad_norm"] is None
        # The status is the one problem the run checker finds.
        assert check_run(tmp_path / "run") == ["eg: ended non_finite", "ipemd: ended non_finite"]

    @pytest.mark.parametrize("methods", ["eg,foo", "", " , "])
    def test_bad_methods_flag_is_a_usage_error_before_any_work(self, tmp_path, methods):
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--n-side", "8", "--methods", methods,
                                           "--output-dir", str(outdir)])
        assert result.exit_code == 2, result.output
        assert "eg,ipgrgd,ipemd,poicg" in result.output
        assert not outdir.exists()

    @pytest.mark.parametrize("methods", ["eg,foo", ""])
    def test_bad_methods_in_a_config_file_is_a_usage_error(self, tmp_path, methods):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"n_side = 8\nmethods = {methods}\n")
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg), "--output-dir", str(outdir)])
        assert result.exit_code == 2, result.output
        assert "eg,ipgrgd,ipemd,poicg" in result.output
        assert not outdir.exists()

    # A repeated method, Armijo and termination values that ArmijoParams or
    # SolverConfig reject, instance values that the projector or the problem
    # reject, a negative seed, and a value that is not of its option's type:
    # (flag, config key, value, words of the message).
    BAD_VALUES = [
        ("--methods", "methods", "eg,eg", "eg,ipgrgd,ipemd,poicg"),
        ("--sigma", "sigma", "2", "sigma"),
        ("--max-iterations", "max_iterations", "0", "max_iterations"),
        ("--tau-min", "tau_min", "2", "tau_min"),
        ("--n-side", "n_side", "2", "n_side"),
        ("--undersampling", "undersampling", "0", "undersampling"),
        ("--lam", "lam", "-1", "lam"),
        ("--lam", "lam", "inf", "lam"),
        ("--delta", "delta", "0", "delta"),
        ("--grad-norm-tol", "grad_norm_tol", "nan", "grad_norm_tol"),
        ("--seed", "seed", "-1", "seed"),
        ("--n-side", "n_side", "8.5", "--n-side"),
    ]

    # Removed options, which must stay unknown: a step-size stop and a halving cap.
    REMOVED = [("--step-size-tol", "step_size_tol", "1e-10"), ("--max-halvings", "max_halvings", "60")]

    @pytest.mark.parametrize("flag, key, value, message",
                             BAD_VALUES + [(*row, "No such option") for row in REMOVED])
    def test_bad_value_flag_is_a_usage_error_before_any_work(self, tmp_path, flag, key, value, message):
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--n-side", "8", flag, value,
                                           "--output-dir", str(outdir)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not outdir.exists()

    @pytest.mark.parametrize("flag, key, value, message",
                             BAD_VALUES + [(*row, f"unknown key {row[1]!r}") for row in REMOVED])
    def test_bad_value_in_a_config_file_is_a_usage_error(self, tmp_path, flag, key, value, message):
        cfg = tmp_path / "run.cfg"
        # A key is set once: a bad n_side replaces the 8.
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in {"n_side": 8, key: value}.items()))
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg), "--output-dir", str(outdir)])
        assert result.exit_code == 2, result.output
        assert message in result.output
        assert not outdir.exists()

    def test_run_spec_takes_the_solver_defaults(self):
        spec = RunSpec()
        assert spec.config == SolverConfig(Method.EG, ArmijoParams())
        assert dataclasses.replace(spec, sigma=0.25).config.linesearch == ArmijoParams(sigma=0.25)

    def test_run_spec_rejects_unknown_methods(self):
        with pytest.raises(ValueError, match="eg,ipgrgd,ipemd,poicg"):
            RunSpec(methods=("eg", "foo"))
        with pytest.raises(ValueError):
            RunSpec(methods=())
        with pytest.raises(ValueError, match="each once"):
            RunSpec(methods=("eg", "poicg", "eg"))


class TestConfigResolution:
    def test_file_then_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# desk-scale test\n"
            "n_side = 8\n"
            "lam = 0.5\n"
            "methods = eg,poicg\n"
            "noisy = true\n"
        )
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg), "--lam", "0.25",
                                           "--max-iterations", "5", "--output-dir", str(outdir)])
        assert result.exit_code == 0, result.output
        spec = json.loads((outdir / "summary.json").read_text())["spec"]
        assert spec["n_side"] == 8
        assert spec["lam"] == 0.25  # flag overrides file
        assert spec["methods"] == ["eg", "poicg"]
        assert spec["noisy"] is True

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for key in ("sidelength", "step_size_tol", "max_halvings"):
            cfg.write_text(f"n_side = 8\n{key} = 1\n")
            with pytest.raises(ValueError, match=f"bad.cfg:2: unknown key '{key}'"):
                load_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_side 8\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_repeated_key_is_a_usage_error_naming_both_lines(self, tmp_path):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("lam = 0\nn_side = 8\n# the second value would win\nlam = 0.5\n")
        with pytest.raises(ValueError, match=r"twice\.cfg:4: key 'lam' is already set on line 1"):
            load_config(cfg)
        outdir = tmp_path / "run"
        result = CliRunner().invoke(main, ["solve", "--config", str(cfg), "--output-dir", str(outdir)])
        assert result.exit_code == 2, result.output
        assert "already set on line 1" in result.output
        assert not outdir.exists()


class TestVerifyCommand:
    def test_passes_and_counts(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify"])
        assert result.exit_code == 0, result.output
        lines = [l for l in result.output.splitlines() if l.startswith("{")]
        assert len(lines) == BATTERY_SIZE
        for line in lines:
            assert json.loads(line)["passed"] is True

    def test_fault_injection_exits_nonzero(self):
        runner = CliRunner()
        result = runner.invoke(main, ["verify", "--inject-fault"])
        assert result.exit_code == 1
        lines = [l for l in result.output.splitlines() if l.startswith("{")]
        assert len(lines) == BATTERY_SIZE + 1
        assert json.loads(lines[-1])["passed"] is False


class TestPhantomCommand:
    def test_writes_both_formats(self, tmp_path):
        runner = CliRunner()
        prefix = tmp_path / "walnutish"
        result = runner.invoke(main, ["phantom", "--n-side", "16", "--output", str(prefix)])
        assert result.exit_code == 0
        csv_img = read_csv(f"{prefix}.csv")
        np.testing.assert_array_equal(csv_img, make_phantom(16))
        assert Path(f"{prefix}.pgm").read_bytes() == pgm_bytes(quantize(csv_img))

    def test_creates_the_prefix_directory(self, tmp_path):
        prefix = tmp_path / "missing" / "deeper" / "p"
        result = CliRunner().invoke(main, ["phantom", "--n-side", "8", "--output", str(prefix)])
        assert result.exit_code == 0, result.output
        assert read_csv(f"{prefix}.csv").shape == (8, 8)
        assert Path(f"{prefix}.pgm").read_bytes() == pgm_bytes(quantize(make_phantom(8)))

    def test_too_small_is_a_usage_error_before_any_work(self, tmp_path):
        prefix = tmp_path / "tiny"
        result = CliRunner().invoke(main, ["phantom", "--n-side", "2", "--output", str(prefix)])
        assert result.exit_code == 2, result.output
        assert "n_side" in result.output
        assert not Path(f"{prefix}.pgm").exists()
        assert not Path(f"{prefix}.csv").exists()

    def test_deterministic(self, tmp_path):
        runner = CliRunner()
        for name in ("p1", "p2"):
            runner.invoke(main, ["phantom", "--n-side", "12", "--output", str(tmp_path / name)])
        assert (tmp_path / "p1.pgm").read_bytes() == (tmp_path / "p2.pgm").read_bytes()
        assert (tmp_path / "p1.csv").read_bytes() == (tmp_path / "p2.csv").read_bytes()

    def test_runs_as_a_module(self, tmp_path):
        src = str(Path(egmin.cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        prefix = tmp_path / "p"
        subprocess.run(
            [sys.executable, "-m", "egmin.cli", "phantom", "--n-side", "8", "--output", str(prefix)],
            env=dict(os.environ, PYTHONPATH=pythonpath), check=True, timeout=120,
        )
        assert Path(f"{prefix}.pgm").read_bytes() == pgm_bytes(quantize(make_phantom(8)))
        assert read_csv(f"{prefix}.csv").shape == (8, 8)
