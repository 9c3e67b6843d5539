"""``tools/check_run.py``: the run-directory checker CI runs on each smoke run.

Each invariant it states has a mutation of a clean run directory here,
one edit to ``summary.json`` or to a trace, that it must report, alone.
"""

import csv
import importlib.util
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import egmin
from egmin.cli import RunSpec, cmd_solve

TOOL = Path(__file__).resolve().parents[1] / "tools" / "check_run.py"
_SPEC = importlib.util.spec_from_file_location("check_run", TOOL)
check_run_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_run_module)
check_run = check_run_module.check_run


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    # n_side 8 is below the curve screen's gate, so no search probes.
    run = tmp_path_factory.mktemp("clean")
    spec = RunSpec(n_side=8, methods=("eg", "ipemd"), max_iterations=30, seed=3, output_dir=str(run))
    assert cmd_solve(spec) == 0
    return run


def _bump(record: dict, key: str) -> None:
    record[key] = type(record[key])(int(record[key]) + 1)


def _set_halvings(stats: dict, row: dict, halvings: int) -> None:
    # Sets a record's halvings, with the trials rejected on their value
    # changed to match, so that every trial is still counted once.
    stats["rejected_by"]["value"] += halvings - int(row["halvings"])
    row["halvings"] = str(halvings)


def _end_in_a_failed_search(stats: dict, rows: list, search_status) -> None:
    # A failed search, and only one, makes TRIAL_STEPS = 34 halvings: the
    # last record of a step_tol run.
    stats.update(terminal_status="step_tol", search_status=search_status)
    _set_halvings(stats, rows[-1], 34)


# Each edits eg's summary entry and the rows of trace_eg.csv (str cells).
MUTATIONS = {
    "not strict JSON": lambda stats, rows: stats.update(wall_seconds=math.nan),
    "forward + adjoint": lambda stats, rows: _bump(stats, "forward_applications"),
    "screened_by": lambda stats, rows: _bump(stats["screened_by"], "kl"),
    "halvings": lambda stats, rows: _bump(rows[1], "halvings"),
    "trace_eg.csv has no records": lambda stats, rows: rows.clear(),
    "34 halvings at k = 1, not below 34": lambda stats, rows: _set_halvings(stats, rows[1], 34),
    "34 halvings at k = 30, not below 34": lambda stats, rows: _set_halvings(stats, rows[-1], 34),
    "the step_tol run ends at": lambda stats, rows: stats.update(terminal_status="step_tol",
                                                                search_status="hit_tau_min"),
    "ended non_finite": lambda stats, rows: stats.update(terminal_status="non_finite"),
    "search_status clamped on a max_iter run": lambda stats, rows: stats.update(search_status="clamped"),
    "search_status None on a step_tol run": lambda stats, rows: _end_in_a_failed_search(stats, rows, None),
    "probes 0 are not nested": lambda stats, rows: stats.update(probes_wasted=1, probes_met=1),
    "probes below the curve screen's gate": lambda stats, rows: stats.update(probes=1),
    "iterations = 31": lambda stats, rows: _bump(stats, "iterations"),
    "total_matvecs": lambda stats, rows: _bump(rows[-1], "matvec_count"),
    "final_f = None": lambda stats, rows: stats.update(final_f=None),
    "final_f": lambda stats, rows: stats.update(final_f=math.nextafter(stats["final_f"], math.inf)),
}


def mutated_copy(clean_run, tmp_path, mutation) -> Path:
    run = tmp_path / "run"
    shutil.copytree(clean_run, run)
    summary = json.loads((run / "summary.json").read_text())
    with open(run / "trace_eg.csv", newline="") as f:
        reader = csv.DictReader(f)
        rows = list(reader)
    mutation(summary["methods"]["eg"], rows)
    (run / "summary.json").write_text(json.dumps(summary))  # NaN as NaN
    with open(run / "trace_eg.csv", "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=reader.fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    return run


def test_a_clean_run_has_no_problem(clean_run):
    summary = json.loads((clean_run / "summary.json").read_text())
    # The mutations below rely on these facts of the clean run.
    assert summary["methods"]["eg"]["terminal_status"] == "max_iter"
    assert summary["methods"]["eg"]["iterations"] == 30
    assert check_run(clean_run) == []


@pytest.mark.parametrize("words, mutation", MUTATIONS.items(), ids=list(MUTATIONS))
def test_each_invariant_reports_its_mutation(clean_run, tmp_path, words, mutation):
    problems = check_run(mutated_copy(clean_run, tmp_path, mutation))
    assert len(problems) == 1, problems
    where = "summary.json" if words == "not strict JSON" else "eg"
    assert problems[0].startswith(f"{where}: ") and words in problems[0]


@pytest.mark.parametrize("f", ["nan", "inf", "-inf"])
def test_a_null_final_f_matches_a_non_finite_f(clean_run, tmp_path, f):
    def non_finite_end(stats, rows):
        stats["final_f"] = None
        rows[-1]["f"] = f

    assert check_run(mutated_copy(clean_run, tmp_path, non_finite_end)) == []


@pytest.mark.parametrize("search_status", ["hit_tau_min", "clamped"])
def test_a_step_tol_run_ends_at_a_failed_search(clean_run, tmp_path, search_status):
    def failed(stats, rows):
        _end_in_a_failed_search(stats, rows, search_status)

    assert check_run(mutated_copy(clean_run, tmp_path, failed)) == []


def test_a_missing_trace_is_a_problem(clean_run, tmp_path):
    run = tmp_path / "run"
    shutil.copytree(clean_run, run)
    (run / "trace_ipemd.csv").unlink()
    [problem] = check_run(run)
    assert problem.startswith("ipemd: trace_ipemd.csv: FileNotFoundError")


def test_expect_and_require(clean_run):
    assert check_run(clean_run, expect={"spec.n_side": 8, "operator.split_products": False,
                                        "methods.eg.search_status": None},
                     require=["methods.eg.total_matvecs", "methods.ipemd.iterations"]) == []
    assert check_run(clean_run, expect=[("spec.methods", ["eg", "ipemd"])]) == []
    assert check_run(clean_run, expect={"spec.n_side": 16}) == ["spec.n_side = 8, not 16"]
    assert check_run(clean_run, require=["methods.eg.probes"]) == ["methods.eg.probes = 0, not > 0"]
    assert check_run(clean_run, require=["spec.methods"]) == ['spec.methods = ["eg", "ipemd"], not > 0']
    assert check_run(clean_run, expect={"spec.nside": 8}, require=["methods.eg.probes.curve"]) == [
        "spec.nside: no such entry in summary.json",
        "methods.eg.probes.curve: no such entry in summary.json",
    ]


def test_every_run_names_its_libraries(clean_run, tmp_path):
    # No flag asks for these: an environment entry that is missing, empty
    # or not a string is a problem of any run.
    run = tmp_path / "run"
    shutil.copytree(clean_run, run)
    clean = json.loads((run / "summary.json").read_text())
    for key in ("numpy", "scipy", "arithmetic_fingerprint"):
        assert isinstance(clean["environment"][key], str) and clean["environment"][key]
        for value in ("", None, 2, "missing"):
            summary = json.loads(json.dumps(clean))
            if value == "missing":
                del summary["environment"][key]
            else:
                summary["environment"][key] = value
            (run / "summary.json").write_text(json.dumps(summary))
            assert check_run(run) == [f"environment.{key} is not a non-empty string"], (key, value)


def test_main_exits_1_on_a_problem(clean_run, tmp_path, capsys):
    assert check_run_module.main([str(clean_run), "--expect", "spec.noisy=false"]) == 0
    assert capsys.readouterr().out == ""
    run = mutated_copy(clean_run, tmp_path, MUTATIONS["forward + adjoint"])
    assert check_run_module.main([str(run)]) == 1
    assert capsys.readouterr().out.startswith(f"{run}: eg: forward + adjoint applications")


@pytest.mark.parametrize("argument", ["spec.n_side", "=8", "spec.n_side=eight"])
def test_a_malformed_expectation_is_a_usage_error(clean_run, argument, capsys):
    with pytest.raises(SystemExit) as stop:
        check_run_module.main([str(clean_run), "--expect", argument])
    assert stop.value.code == 2
    assert "argument --expect" in capsys.readouterr().err


def test_the_script_runs_and_fails_cleanly_on_an_unknown_path(clean_run):
    src = str(Path(egmin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

    def run(*args):
        return subprocess.run([sys.executable, str(TOOL), str(clean_run), *args],
                              env=env, capture_output=True, text=True, timeout=120)

    clean = run("--expect", "operator.split_products=false", "--require", "methods.eg.total_matvecs")
    assert (clean.returncode, clean.stdout, clean.stderr) == (0, "", "")
    unknown = run("--expect", "operator.nnz_per_row=1")
    assert unknown.returncode == 1 and unknown.stderr == ""
    assert unknown.stdout == f"{clean_run}: operator.nnz_per_row: no such entry in summary.json\n"
