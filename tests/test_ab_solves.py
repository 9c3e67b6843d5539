"""``tools/ab_solves.py``: the in-process A/B of the solves of two egmin trees."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ab_solves.py"
SRC = ROOT / "src"


def _ab(a_src, b_src) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), str(a_src), str(b_src), "--n-side", "8", "--rounds", "2", "--iterations", "20"],
        capture_output=True, text=True, timeout=300,
    )


def test_a_tree_against_itself():
    result = _ab(SRC, SRC)
    assert result.returncode == 0, result.stdout + result.stderr
    header, *rows = result.stdout.splitlines()
    assert header.split()[0] == "method"
    assert [row.split()[0] for row in rows] == ["eg", "poicg", "ipgrgd", "ipemd"]
    assert all(row.endswith("/2") for row in rows)


def test_a_tree_whose_solves_differ(tmp_path):
    shutil.copytree(SRC / "egmin", tmp_path / "egmin", ignore=shutil.ignore_patterns("__pycache__"))
    problems = tmp_path / "egmin" / "problems.py"
    text = problems.read_text()
    assert text.count("PHANTOM_BACKGROUND = 1e-3") == 1
    problems.write_text(text.replace("PHANTOM_BACKGROUND = 1e-3", "PHANTOM_BACKGROUND = 2e-3"))
    result = _ab(SRC, tmp_path)
    assert result.returncode == 1, result.stdout + result.stderr
    assert result.stdout.startswith("eg: round 0:")
