"""The command-line front end: solve, verify, phantom."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import egmin.cli
from egmin import BATTERY_SIZE, Objective, read_trace_csv
from egmin.cli import RunSpec, cmd_solve, load_config, main, resolve_spec
from egmin.imgio import quantize, read_image_csv, read_pgm


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
            assert stats["search_status"] is None or stats["terminal_status"] == "step_tol"
            assert stats["iterations"] >= 0
            assert stats["total_matvecs"] > 0

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
        spec = resolve_spec(cfg, lam=0.25, output_dir=str(tmp_path))
        assert spec.n_side == 8
        assert spec.lam == 0.25  # flag overrides file
        assert spec.methods == ("eg", "poicg")
        assert spec.noisy is True

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("sidelength = 8\n")
        with pytest.raises(ValueError):
            load_config(cfg)

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("n_side 8\n")
        with pytest.raises(ValueError):
            load_config(cfg)


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
        pgm = read_pgm(f"{prefix}.pgm")
        csv_img = read_image_csv(f"{prefix}.csv")
        assert pgm.shape == (16, 16)
        assert csv_img.shape == (16, 16)
        np.testing.assert_array_equal(quantize(csv_img), pgm)

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
        assert read_pgm(f"{prefix}.pgm").shape == (8, 8)
        assert read_image_csv(f"{prefix}.csv").shape == (8, 8)
