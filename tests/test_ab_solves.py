"""``tools/ab_solves.py``: the in-process A/B of the solves of two egmin trees."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_solves.py"
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("ab_solves", TOOL)
ab_solves = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_solves)


def _ab(a_src, b_src) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(a_src), str(b_src), "--n-side", "8", "--rounds", "2", "--iterations", "20"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_against_itself():
    result = _ab(SRC, SRC)
    assert result.returncode == 0, result.stdout + result.stderr
    header, *rows, verdict = result.stdout.splitlines()
    assert header.split()[0] == "method" and header.endswith("A IQR")
    assert [row.split()[0] for row in rows] == ["eg", "poicg", "ipgrgd", "ipemd"]
    assert all(row.split()[4].endswith("/2") and float(row.split()[5]) >= 0.0 for row in rows)
    assert verdict.startswith("verdict: B faster in ")
    assert all(method in verdict for method in ("eg", "poicg", "ipgrgd", "ipemd"))


def test_a_tree_whose_solves_differ(tmp_path):
    shutil.copytree(SRC / "egmin", tmp_path / "egmin", ignore=shutil.ignore_patterns("__pycache__"))
    problems = tmp_path / "egmin" / "problems.py"
    text = problems.read_text()
    assert text.count("PHANTOM_BACKGROUND = 1e-3") == 1
    problems.write_text(text.replace("PHANTOM_BACKGROUND = 1e-3", "PHANTOM_BACKGROUND = 2e-3"))
    result = _ab(SRC, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("eg: round 0:")


@pytest.mark.parametrize("a, b, met", [
    ([10.0] * 9 + [11.0], [9.0] * 10, True),  # faster in 10 of 10, gap 1 > IQR 0
    ([10.0] * 10, [9.0] * 9 + [11.0], True),  # 9 of 10 is enough
    ([10.0] * 10, [9.0] * 8 + [11.0] * 2, False),  # 8 of 10 is not
    ([8.0, 9.0, 10.0, 11.0, 12.0] * 2, [7.5, 8.5, 9.5, 10.5, 11.5] * 2, False),  # 10 of 10, gap 0.5 < IQR 2
    ([10.0] * 10, [10.0] * 10, False),  # ties are not wins
    ([10.0], [9.0], True),  # one round: its IQR is 0
])
def test_claim_rule(a, b, met):
    assert ab_solves.claim_met(a, b) is met


def test_interquartile_range():
    assert ab_solves.interquartile_range([5.0]) == 0.0
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    q1, q3 = np.percentile(values, [25, 75])
    assert ab_solves.interquartile_range(values) == q3 - q1 == 3.5
