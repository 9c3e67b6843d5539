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

numpy picks its ``exp`` and ``log`` loops by CPU at run time, and its
AVX512 loops round differently from the others (each within an ulp of
libm), so the traces' bits follow the host.  Each set of hashes is pinned
under an arithmetic fingerprint, the sha256 of ``np.exp`` and ``np.log``
over a fixed probe.  On a host whose fingerprint has no set the hash tests
fail, naming it; ``PYTHONPATH=src python tests/test_golden_traces.py``
prints the fingerprint and the set to pin under it.  Each set holds the
hash of ``egmin verify``'s reports too, whose ``geodesic_rk4[0]`` differs
in its last digits between the two sets' loops.
"""

import csv
import hashlib
import io
import json
import pprint
import sys
import tempfile
from pathlib import Path

import pytest

import egmin.cli
from egmin import Objective, make_objective
from egmin.cli import RunSpec, cmd_solve, environment
from egmin.verification import run_battery
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
    unscreened = Objective(
        value_and_grad=obj.value_and_grad,
        value=obj.value,
        matvecs=obj.matvec_count,
    )
    unscreened.b = obj.b  # the data of ipemd's default step
    return unscreened


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
# sha256 of each whole trace CSV of those runs as `egmin solve` writes it:
# the curve screen, the probes and the split products leave these bytes.
ABOVE_THE_GATE_SCREENED = {
    "eg": "a068f0e6b69c9ad291b4a03d829e6de89df4bc77af1fe811c89aa8b13178f545",
    "poicg": "8461e01337a2b6fc77264bed00338bb6d1111ea948ef9ff6cc6891507139412b",
    "ipgrgd": "30de04e2b3c1600f59aac03ce2a9097c8a8c244dbd915ac46cbab2f2a39cc8e9",
}

# sha256 of the lines `egmin verify` prints for the battery's reports (all
# but its closing count), each with its newline.
VERIFY = "bfd3e07827219f48ff4fb8c5896e6b5c26bf15084fe734948223fc1ecb4631ad"


# The same sets where numpy runs the exp and log loops of a CPU without
# AVX512.  ipemd's iteration forms no exp, and its traces keep their bits.
NO_AVX512_SETS = dict(
    SCREENED={
        "eg": "4758ab845bfde634eb64bb92b50dfc4b21579a0d96297e53f5ac2483bb3ef1bf",
        "poicg": "6bd9eab4defa747ac44222fe7d1c571df0fd49d6da5d009c4c447433a0bdee55",
        "ipgrgd": "10fe98a401f60d4ace9a946201bd4b9cf1b09e2e0ae1ff5e048d2272f1430946",
        "ipemd": SCREENED["ipemd"],
    },
    UNSCREENED={
        "eg": "e6d6f23ca50ab9bcd6c3ba7d2675a1780f610b04c49f20da0c903e56ac13c0f6",
        "poicg": "73af0cd4cc9a343562eeaae5d12db3e4d3e07a26e85db28f9820f8608cf26ac5",
        "ipgrgd": "c64c90168d490d4f903d87625258634d4fdb596cf7ae99df25abf6d317b6ee5c",
        "ipemd": UNSCREENED["ipemd"],
    },
    WITHOUT_MATVECS={
        "eg": "d8bebbea53bd23776c0f21b90b5ae09c4999db6e9e5b19de79657569b2af9e47",
        "poicg": "bcee37ffaec64024392987fd13d4ad610fd905e97da87b26b697e40e82666b5a",
        "ipgrgd": "7f08f4fc84f76118a547e4efbf7ee87cda671dafe506c3d7a8b38c56282fe39d",
        "ipemd": WITHOUT_MATVECS["ipemd"],
    },
    WITHOUT_GRAD_NORM={
        "eg": "22d1442d2c3ec82feddc62010edaf638976ed73a1e839d3d42b602f0e8250c37",
        "poicg": "5e97ec2314b3eb23b0e66d7cfc39fe3fb7925f20993ddc6e1fc3bb1704f68e03",
        "ipgrgd": "7f5ce5388192a49feaa7f4d581d6248c0fc1bcacdbbf13625f90a8454f73a899",
        "ipemd": WITHOUT_GRAD_NORM["ipemd"],
    },
    ABOVE_THE_GATE_SCREENED={
        "eg": "30b70b04669302dbc41f2c71cab131742a5ef86bdb34915cfa3cb78516d106be",
        "poicg": "d796cdc85377f65fbed6688144fc31280bea06b97a08ef99c002a625da9b1275",
        "ipgrgd": "3d72c235ae288ac90c9178ca7ed10fbb4006da050c05384cd866ee5305c0c854",
    },
    VERIFY="6f0f6a30a27cf0f0f8f64c656217055b69ea675474ec36105846158ba319b124",
)
# numpy's AVX512 exp and log loops (numpy 2.4.6 on an AVX512 Xeon): the
# sets above, as first pinned.
AVX512 = "36c909556f4fae42ea800131a921c4ac22ad79c8976e582c2371f02e25cb3f43"
# The loops a CPU without AVX512 gets (the same host and numpy, run with
# NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR").
NO_AVX512 = "34f3061b7d36ff77f646d46efdabef767ce6216c7a56afdc7fa8a8a9f4989301"
PINNED = {
    AVX512: dict(
        SCREENED=SCREENED,
        UNSCREENED=UNSCREENED,
        WITHOUT_MATVECS=WITHOUT_MATVECS,
        WITHOUT_GRAD_NORM=WITHOUT_GRAD_NORM,
        ABOVE_THE_GATE_SCREENED=ABOVE_THE_GATE_SCREENED,
        VERIFY=VERIFY,
    ),
    NO_AVX512: NO_AVX512_SETS,
}


def pinned(kind: str) -> dict[str, str] | str:
    """The set of hashes ``kind`` (a name above) pinned for this host's
    arithmetic; for ``VERIFY``, the one hash."""
    fingerprint = environment()["arithmetic_fingerprint"]
    if fingerprint not in PINNED:
        pytest.fail(
            f"no golden hashes are pinned for arithmetic fingerprint {fingerprint}: run"
            " `PYTHONPATH=src python tests/test_golden_traces.py` on this host and add"
            " the set it prints to PINNED under that fingerprint"
        )
    return PINNED[fingerprint][kind]


def trace_hashes(golden_runs, method) -> dict[str, str]:
    """The hashes of ``method``'s default traces, by the name of their set."""
    screened, unscreened = (d / f"trace_{method}.csv" for d in golden_runs)
    return dict(
        SCREENED=_sha256(screened.read_bytes()),
        UNSCREENED=_sha256(unscreened.read_bytes()),
        WITHOUT_MATVECS=_sha256(_without_column(_rows(screened), "matvec_count")),
        WITHOUT_GRAD_NORM=_sha256(_without_column(_rows(screened), "riem_grad_norm")),
    )


def verify_hash() -> str:
    return _sha256("".join(f"{report.to_json()}\n" for report in run_battery()).encode())


@pytest.fixture(scope="module")
def counts_runs(tmp_path_factory):
    return _runs(tmp_path_factory.mktemp("counts"), **ABOVE_THE_GATE)


@pytest.mark.parametrize("method", METHODS)
def test_trace_hashes(golden_runs, method):
    got = trace_hashes(golden_runs, method)
    assert got == {kind: pinned(kind)[method] for kind in got}


def test_verify_hash():
    assert verify_hash() == pinned("VERIFY")


def test_an_unknown_fingerprint_fails_naming_it(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "environment", lambda: {"arithmetic_fingerprint": "0" * 64})
    with pytest.raises(pytest.fail.Exception, match=f"fingerprint {'0' * 64}: run .*tests/test_golden_traces.py"):
        pinned("SCREENED")


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
def test_above_the_gate_trace_hashes(counts_runs, method):
    screened, _ = counts_runs
    assert _sha256((screened / f"trace_{method}.csv").read_bytes()) == pinned("ABOVE_THE_GATE_SCREENED")[method]


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


if __name__ == "__main__":
    # Print this host's fingerprint and the set of hashes to pin under it.
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        golden_runs = _runs(root / "golden")
        counts_runs = _runs(root / "counts", **ABOVE_THE_GATE)
        sets = {kind: {} for kind in PINNED[AVX512]}
        for method in METHODS:
            for kind, digest in trace_hashes(golden_runs, method).items():
                sets[kind][method] = digest
        for method in ABOVE_THE_GATE["methods"]:
            sets["ABOVE_THE_GATE_SCREENED"][method] = _sha256((counts_runs[0] / f"trace_{method}.csv").read_bytes())
        sets["VERIFY"] = verify_hash()
    sys.stdout.write(f"{environment()['arithmetic_fingerprint']}\n{pprint.pformat(sets, sort_dicts=False)}\n")
