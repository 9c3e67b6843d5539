"""Golden traces of ``egmin solve`` with the default settings (n_side 64, seed 0).

Screening Armijo trials with the log-sum bound skips the forward projection
of most rejected trials and changes nothing else a trace records.  So each
CSV pins two hashes: the trace without its ``matvec_count`` column, which
is the same as before the screen, and the whole file.  A run with the
screen taken out reproduces the traces from before it byte for byte, and
no record of the screened run counts more operator applications than the
same record of that run.
"""

import csv
import hashlib
import io
import json

import pytest

import egmin.cli
from egmin import Objective, make_objective
from egmin.cli import RunSpec, cmd_solve

METHODS = ("eg", "poicg", "ipgrgd", "ipemd")

# sha256 of each trace CSV without its matvec_count column, with or without the screen.
WITHOUT_MATVECS = {
    "eg": "0a360172aa20614229f3b9d1e93a378322f6dd7a6651a8ff45d50567d8046e67",
    "poicg": "241ec1a82a8d180ac5c9c313f089533c99b46f852db9ec4abee6f31c6b5162be",
    "ipgrgd": "606f958694e94d9a41034fb542b348be9a918b2513afbd1a301ee2a73da07efb",
    "ipemd": "c10366df246f498eeb9cec3f706efb0a933f0b14147b54bb225582fd81dcb610",
}
# sha256 of each whole trace CSV without the screen (every trial projected).
UNSCREENED = {
    "eg": "868d348896e4418f3a2aa80faf9fa1e8449017fd31dba849ce1b9b1379e5e23d",
    "poicg": "25d132e979e940f474f7641a5fa7f5c5e1ef227467a635b0ea46f21a73bbffdd",
    "ipgrgd": "cbc225feb46e0fba042e6f4f743bc48cbf8be17435b83ebf377eb8fd9bca2b4e",
    "ipemd": "1db9f43fe766d214f0f294a3f28266e6d804ce941fb32d817273f0a0a6c83816",
}
# sha256 of each whole trace CSV as `egmin solve` writes it.
SCREENED = {
    "eg": "6452f0207fe22009e66b2dc644aae4a187dbc946f610fea31da0ded9711131d9",
    "poicg": "8beef64e437c6d55bc44b4b445859392da1ec2783c65b31d69f3051177e31b52",
    "ipgrgd": "c8d75e635a8c4dc25232cce86666f9e144787f77ca9d007a03955d0251c269b6",
    "ipemd": "1db9f43fe766d214f0f294a3f28266e6d804ce941fb32d817273f0a0a6c83816",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _rows(path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _without_column(rows: list[list[str]], name: str) -> bytes:
    col = rows[0].index(name)
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row[:col] + row[col + 1:])
    return buf.getvalue().encode()


def _unscreened_objective(instance) -> Objective:
    # Objective.value without a limit always evaluates f, so every trial is projected.
    obj = make_objective(instance)
    return Objective(value_and_grad=obj.value_and_grad, value=obj.value, matvecs=obj.matvec_count)


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    assert cmd_solve(RunSpec(output_dir=str(root / "screened"))) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(egmin.cli, "make_objective", _unscreened_objective)
        assert cmd_solve(RunSpec(output_dir=str(root / "unscreened"))) == 0
    return root / "screened", root / "unscreened"


@pytest.mark.parametrize("method", METHODS)
def test_trace_hashes(golden_runs, method):
    screened, unscreened = (d / f"trace_{method}.csv" for d in golden_runs)
    assert _sha256(screened.read_bytes()) == SCREENED[method]
    assert _sha256(unscreened.read_bytes()) == UNSCREENED[method]
    assert _sha256(_without_column(_rows(screened), "matvec_count")) == WITHOUT_MATVECS[method]


@pytest.mark.parametrize("method", METHODS)
def test_screen_never_adds_operator_applications(golden_runs, method):
    screened, unscreened = (_rows(d / f"trace_{method}.csv") for d in golden_runs)
    col = screened[0].index("matvec_count")
    assert len(screened) == len(unscreened)
    for got, before in zip(screened[1:], unscreened[1:]):
        assert int(got[col]) <= int(before[col])


def test_summary_counts_add_up(golden_runs):
    screened, unscreened = golden_runs
    methods = json.loads((screened / "summary.json").read_text())["methods"]
    reference = json.loads((unscreened / "summary.json").read_text())["methods"]
    for name, stats in methods.items():
        assert stats["forward_applications"] + stats["adjoint_applications"] == stats["total_matvecs"]
        # A screened trial is exactly one forward projection saved; the adjoints are unchanged.
        assert stats["adjoint_applications"] == reference[name]["adjoint_applications"]
        assert stats["forward_applications"] + stats["screened_trials"] == reference[name]["forward_applications"]
        assert reference[name]["screened_trials"] == 0
    assert methods["eg"]["screened_trials"] >= 1
    assert methods["ipemd"]["screened_trials"] == 0  # a constant step makes no trial
