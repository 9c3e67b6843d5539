"""Golden traces of ``egmin solve`` with the default settings (n_side 64, seed 0).

Screening Armijo trials with the log-sum bound skips the forward projection
of most rejected trials and changes nothing else a trace records.  So each
CSV pins two hashes: the trace without its ``matvec_count`` column, which
is the same as before the screen, and the whole file.  A run with the
screen taken out reproduces the traces from before it byte for byte, and
no record of the screened run counts more operator applications than the
same record of that run.

The solve loop takes every inner product with the Riemannian gradient as
``<grad, v>`` instead of ``<rgrad, G(x) v>``: the same number in exact
arithmetic, summed in another order.  For ``eg``, ``ipgrgd`` and ``ipemd``
that moves only the last bit of some ``riem_grad_norm`` entries, so each
trace without that column is the same with either form, and is pinned too;
``poicg`` feeds the inner products into its steps and drifts at rounding
level.

The default runs are below the curve screen's gate, so only the log-sum
screen acts there, and no search probes.  Poisson counts at n_side 128 are
above it: there, with and without every screen, and with and without the
probe-first order of the line searches, the traces without
``matvec_count`` are the same bytes too.  Each trial a screen rejects is
one forward projection saved, and each wasted probe (a probe below the
step its search accepts) is one trial the search from ``tau_bar`` never
makes.
"""

import csv
import hashlib
import io
import json

import pytest

import egmin.cli
from egmin import Objective, make_objective
from egmin.cli import RunSpec, cmd_solve
from test_check_run import check_run

METHODS = ("eg", "poicg", "ipgrgd", "ipemd")

# sha256 of each trace CSV without its matvec_count column, with or without the screen.
WITHOUT_MATVECS = {
    "eg": "11f166c5e3ee48a9c2bd95323b93b94a1fd76bfe56c351e383a58126f63e80fd",
    "poicg": "72833afc15c9c59123b90d1a8e7ef5a943a0cb91bf25023759db4218afbb7acb",
    "ipgrgd": "9a6c99ee2a7f9a7794831f7581c9fcefa12a91ded6d9cb30913108098d2a74a5",
    "ipemd": "c3e5e152cd4f12377641712d730c0b542bfbe9a9ac930f9ef1a662760a2bc7d2",
}
# sha256 of each whole trace CSV without the screen (every trial projected).
UNSCREENED = {
    "eg": "a024546e598ae7f0e78be3dc49c0955591485e560214337f0be7e8934ec34ad7",
    "poicg": "1ec66728aca336f38147460ad3f29ef7e6d5c789677f83ceac884e96c5ed9e40",
    "ipgrgd": "655c73be7bdfe47248d413647867006dda1275a4564267d776925fcbcc89e8da",
    "ipemd": "c696ef6f7e9c0f37bc413326e472b4746efa20a5049ecc56f94fc32f4382e93e",
}
# sha256 of each whole trace CSV as `egmin solve` writes it.
SCREENED = {
    "eg": "ee5ff4d484367685ad27896b3ef75760fbdf5594c4450c7146913f7c5a0bad6d",
    "poicg": "c8f154ebd7f7502d9e74d92a70c81d341dee7f5a326a2288f7bda3342b505eb6",
    "ipgrgd": "23da1e30ab322035da8c209c85353fa8a34ff2708d2dccdb6ca080651466c91f",
    "ipemd": "c696ef6f7e9c0f37bc413326e472b4746efa20a5049ecc56f94fc32f4382e93e",
}
# sha256 of each trace CSV as `egmin solve` writes it, without its
# riem_grad_norm column.  eg, ipgrgd and ipemd: unchanged by the <grad, v> form.
WITHOUT_GRAD_NORM = {
    "eg": "223fc4bd895934e45826812844d71d22e62fd34984fae5b1874d44b97f0ee140",
    "poicg": "8daa44fdf6ad917f679d8f522fdece1fb98ad1bb4f067cd85976e1ef7cf222fd",
    "ipgrgd": "862e1353b869082db0bdedfcb84169a1f5bd1086126c5a23bc4d8ce3a8c98a99",
    "ipemd": "c7aa9a75234d7c3fb06abf4303319ab5b1e6ba21649883e0f0bfa1d082fd8a16",
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
    return Objective(
        value_and_grad=obj.value_and_grad,
        value=obj.value,
        matvecs=obj.matvec_count,
    )


def _runs(root, **spec):
    assert cmd_solve(RunSpec(output_dir=str(root / "screened"), **spec)) == 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(egmin.cli, "make_objective", _unscreened_objective)
        assert cmd_solve(RunSpec(output_dir=str(root / "unscreened"), **spec)) == 0
    return root / "screened", root / "unscreened"


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("golden"))


# Poisson counts at n_side 128 (153 entries per row): above the curve screen's gate.
ABOVE_THE_GATE = dict(n_side=128, noisy=True, lam=0.0, max_iterations=60, methods=("eg", "poicg", "ipgrgd"))


@pytest.fixture(scope="module")
def counts_runs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("counts"), **ABOVE_THE_GATE)


@pytest.mark.parametrize("method", METHODS)
def test_trace_hashes(golden_runs, method):
    screened, unscreened = (d / f"trace_{method}.csv" for d in golden_runs)
    assert _sha256(screened.read_bytes()) == SCREENED[method]
    assert _sha256(unscreened.read_bytes()) == UNSCREENED[method]
    assert _sha256(_without_column(_rows(screened), "matvec_count")) == WITHOUT_MATVECS[method]
    assert _sha256(_without_column(_rows(screened), "riem_grad_norm")) == WITHOUT_GRAD_NORM[method]


@pytest.mark.parametrize("method", METHODS)
def test_screen_never_adds_operator_applications(golden_runs, method):
    screened, unscreened = (_rows(d / f"trace_{method}.csv") for d in golden_runs)
    col = screened[0].index("matvec_count")
    assert len(screened) == len(unscreened)
    for got, before in zip(screened[1:], unscreened[1:]):
        assert int(got[col]) <= int(before[col])


def test_summary_counts_add_up(golden_runs):
    screened, unscreened = golden_runs
    assert check_run(screened) == check_run(unscreened) == []
    methods = json.loads((screened / "summary.json").read_text())["methods"]
    reference = json.loads((unscreened / "summary.json").read_text())["methods"]
    for name, stats in methods.items():
        # A screened trial is exactly one forward projection saved; the adjoints are unchanged.
        assert stats["adjoint_applications"] == reference[name]["adjoint_applications"]
        assert stats["forward_applications"] + stats["screened_trials"] == reference[name]["forward_applications"]
        assert reference[name]["screened_trials"] == 0
    assert methods["eg"]["screened_trials"] >= 1
    assert methods["ipemd"]["screened_trials"] == 0  # a constant step makes no trial


@pytest.mark.parametrize("method", ABOVE_THE_GATE["methods"])
def test_curve_screen_changes_only_matvec_count(counts_runs, method):
    screened, unscreened = (_rows(d / f"trace_{method}.csv") for d in counts_runs)
    assert _without_column(screened, "matvec_count") == _without_column(unscreened, "matvec_count")
    col = screened[0].index("matvec_count")
    for got, before in zip(screened[1:], unscreened[1:]):
        assert int(got[col]) <= int(before[col])
    stats, reference = (json.loads((d / "summary.json").read_text())["methods"][method] for d in counts_runs)
    assert stats["adjoint_applications"] == reference["adjoint_applications"]
    # A wasted probe is the one trial, screened or projected, that the
    # unscreened search from tau_bar does not make.
    assert (stats["forward_applications"] + stats["screened_trials"] - stats["probes_wasted"]
            == reference["forward_applications"])
    assert reference["screened_trials"] == reference["probes"] == 0
    if method == "eg":
        assert stats["screened_by"]["curve"] >= 1
        assert stats["probes"] >= 1


def _stats(run, method) -> dict:
    return json.loads((run / "summary.json").read_text())["methods"][method]


@pytest.mark.parametrize("method", ("eg", "poicg", "ipgrgd"))
def test_every_trial_is_counted_once(golden_runs, counts_runs, method):
    # Each Armijo trial is accepted, screened or rejected (on its KL term,
    # its value, or as unusable); check_run holds every run to that count,
    # with and without probes.  Every search of these runs accepted a step.
    for run in (*golden_runs, *counts_runs):
        assert check_run(run, expect={f"methods.{method}.search_status": None}) == []
    screened, unscreened = golden_runs
    if method == "ipgrgd":
        assert _stats(screened, method)["rejected_by"]["kl_term"] > 0
    # Without a limit the objective the unscreened run wraps computes every f.
    assert _stats(unscreened, method)["rejected_by"]["kl_term"] == 0
    for run in counts_runs:
        assert _stats(run, method)["rejected_by"]["kl_term"] == 0  # lam = 0: f is the KL term
