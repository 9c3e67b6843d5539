"""``tools/check_bench.py``: the check CI runs on a traced benchmark run.

Each check it makes has a mutation of a clean output here, one edit to
the run's standard output or error, that it must report, alone.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "check_bench.py"
_SPEC = importlib.util.spec_from_file_location("check_bench", TOOL)
check_bench_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_bench_module)
check_bench = check_bench_module.check_bench

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def clean_output() -> tuple[str, str]:
    """Standard output and error of a traced run, in the form that
    ``perfbench/run.py`` prints them, with every declared metric at 1."""
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in declared}
    result = {"correct": True, "attempted": 8, "failed": 0, "metrics": metrics}
    lines = [f"{name} = 1.0 {entry['unit']}" for name, entry in metrics.items()]
    lines += ["record: perfbench/out/desk64-seed0-trace1.json", json.dumps(result)]
    return "\n".join(lines) + "\n", ""


def _with_result(edit):
    def mutate(out, err):
        *head, last = out.splitlines()
        result = json.loads(last)
        edit(result)
        return "\n".join([*head, json.dumps(result)]) + "\n", err
    return mutate


MUTATIONS = {
    "not the run's JSON result": lambda out, err: ("", "error: the run failed\n"),
    '"correct": false': _with_result(lambda result: result.update(correct=False)),
    "missing patch point": lambda out, err: (out, "warning: patch points not found: egmin.solvers:exp_map\n"),
    **{
        f"{name} reads": _with_result(lambda result, name=name: result["metrics"][name].update(value=0.0))
        for name in check_bench_module.TRACED
    },
}


def test_the_traced_metrics_are_declared_per_layer_metrics():
    assert set(check_bench_module.TRACED) <= {m["name"] for m in BENCHMARK["per_layer"]}


def test_a_clean_output_has_no_problem():
    assert check_bench(*clean_output()) == []


@pytest.mark.parametrize("words, mutation", MUTATIONS.items(), ids=list(MUTATIONS))
def test_each_check_reports_its_mutation(words, mutation):
    problems = check_bench(*mutation(*clean_output()))
    assert len(problems) == 1, problems
    assert words in problems[0]


def test_a_metric_missing_from_the_result_is_a_problem():
    out, err = _with_result(lambda result: result["metrics"].pop("linesearch.trials"))(*clean_output())
    assert check_bench(out, err) == [
        "linesearch.trials reads None: the trials no longer call through the patch point"
    ]


def test_the_script_passes_the_error_output_through_and_exits_1_on_a_problem(tmp_path):
    def run(out, err):
        (tmp_path / "out").write_text(out)
        (tmp_path / "err").write_text(err)
        return subprocess.run([sys.executable, str(TOOL), str(tmp_path / "out"), str(tmp_path / "err")],
                              capture_output=True, text=True, timeout=60)

    clean = run(*clean_output())
    assert (clean.returncode, clean.stdout, clean.stderr) == (0, "", "")
    out, err = MUTATIONS["missing patch point"](*clean_output())
    failed = run(out, err)
    assert failed.returncode == 1 and failed.stderr == err
    assert failed.stdout == "the traced run names a missing patch point\n"
