"""Tests of the benchmark itself, on a tiny instance (n_side 16, 20 iterations)."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import egbench
from egmin import IterationRecord, RunTrace, TerminalStatus
from hostspeed import KERNELS, HostSpeed
from spans import Tracer, leftover_wrappers, self_times

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY_REFERENCE_NS = (10e6, 3e6, 26e6)
TINY = egbench.Workload("tiny", n_side=16, lam=0.01, noisy=False, budget=20, instances=2, repeats=2,
                         gap_repeats=2, cg_check=True, reference_ns=TINY_REFERENCE_NS)
TINY_COUNTS = egbench.Workload("tiny-counts", n_side=16, lam=0.0, noisy=True, budget=20, instances=2,
                                repeats=2, gap_repeats=2, cg_check=False, reference_ns=TINY_REFERENCE_NS)


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def units(outcome):
    return {name: unit for name, (_, unit) in outcome.metrics.items()}


@pytest.fixture(scope="module")
def timing():
    return egbench.run_timing(TINY, seed=0, seconds=0)


@pytest.fixture(scope="module")
def traced():
    return egbench.run_traced(TINY, seed=0, seconds=0)


def test_declared_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} == set(egbench.WORKLOADS)


@pytest.mark.parametrize("workload", [TINY, TINY_COUNTS])
def test_timing_run_emits_every_end_to_end_metric(workload):
    outcome = egbench.run_timing(workload, seed=0, seconds=0)
    assert units(outcome) == declared("end_to_end")
    assert all(math.isfinite(value) for value, _ in outcome.metrics.values())
    assert outcome.problems == []
    assert outcome.attempted == 4 * workload.instances * workload.repeats


def test_times_are_divided_by_the_host_speed_factor(timing):
    factor = timing.record["host_speed"]["factor"]
    assert factor > 0.0
    for name in egbench.TIME_METRICS:
        assert timing.metrics[name][0] == timing.record["measured_times"][name] / factor
    samples = timing.record["host_speed"]["samples_ns"]
    # One sample before each build and each of the four solves of every round.
    assert all(len(samples[k]) == 5 * len(timing.record["rounds"]) for k in KERNELS)


def test_host_speed_factor_is_the_median_sample_score():
    speed = HostSpeed(16, (100.0, 200.0, 400.0))
    speed.samples = {"numpy": [100, 300, 200], "python": [200, 600, 200], "sparse": [400, 1200, 3200]}
    # Each score is the geometric mean of the kernel times over their reference times.
    assert speed.scores() == pytest.approx([1.0, 3.0, 16.0 ** (1 / 3)])
    assert speed.factor() == pytest.approx(16.0 ** (1 / 3))


def test_traced_run_emits_every_per_layer_metric(traced):
    assert units(traced) == declared("per_layer")
    assert traced.problems == []
    assert traced.record["missing_patch_points"] == []
    assert leftover_wrappers() == []


def test_counts_repeat_exactly(timing, traced):
    again = egbench.run_timing(TINY, seed=0, seconds=0)
    for name in ("eg.gap3_matvecs", "poicg.gap3_matvecs", "poicg.recon_err", "clean_solves"):
        assert again.metrics[name] == timing.metrics[name]
    again_traced = egbench.run_traced(TINY, seed=0, seconds=0)
    counts = {n: v for n, (v, u) in traced.metrics.items() if u == "count"}
    assert counts == {n: v for n, (v, u) in again_traced.metrics.items() if u == "count"}
    assert counts["operators.forward.calls"] > 0


def test_traced_counts_match_the_traces(traced):
    metrics = {name: value for name, (value, _) in traced.metrics.items()}
    solves = traced.record["traced_rounds"][0]["solves"]
    assert metrics["operators.forward.calls"] + metrics["operators.adjoint.calls"] == sum(
        s["total_matvecs"] for s in solves.values()
    )
    assert metrics["solvers.step_ip_e_md.calls"] == solves["ipemd"]["iterations"]
    assert metrics["linesearch.armijo.calls"] == sum(solves[m]["iterations"] for m in egbench.ARMIJO_METHODS)
    assert abs(1.0 - metrics["trace.coverage"]) <= egbench.COVERAGE_TOL


def test_instance_zero_uses_the_solve_command_seeds():
    data_seed, x0_seed = np.random.SeedSequence(7).spawn(2)
    seeds = egbench.instance_seeds(7, 3)
    assert [s.spawn_key for s in seeds[0]] == [data_seed.spawn_key, x0_seed.spawn_key]
    assert len({s.spawn_key for pair in seeds for s in pair}) == 6


def make_trace(values, gnorms=None, status="max_iter", walls=None):
    gnorms = gnorms if gnorms is not None else [1.0] * len(values)
    walls = walls if walls is not None else [1000 * (k + 1) for k in range(len(values))]
    records = [
        IterationRecord(k=k, f=f, riem_grad_norm=g, tau=0.5 * (k > 0), halvings=1,
                        matvec_count=2 + 3 * k, wall_nanos=wall)
        for k, (f, g, wall) in enumerate(zip(values, gnorms, walls))
    ]
    return RunTrace(records=records, terminal_status=TerminalStatus(status), final_point=np.ones(4))


def test_gap_is_the_first_record_within_tolerance():
    trace = make_trace([100.0, 10.0, 0.5, 0.1, 0.05])
    best = egbench.f_best([trace])
    assert best == 0.05
    # (0.1 - 0.05) / 99.95 <= 1e-3, (0.5 - 0.05) / 99.95 > 1e-3
    assert egbench.gap_record(trace.records, 100.0, best).k == 3


def test_gap_never_reached():
    slow = make_trace([100.0, 50.0, 20.0])
    fast = make_trace([100.0, 1.0, 0.0])
    assert egbench.gap_record(slow.records, 100.0, egbench.f_best([slow, fast])) is None


def test_nan_trace_is_a_failure_and_never_reaches_the_gap():
    nan_f = make_trace([100.0, 60.0, math.nan])
    nan_grad = make_trace([100.0, 1.0, 0.5], gnorms=[1.0, 1.0, math.nan], status="step_tol")
    assert egbench.solve_failed(nan_f) and egbench.solve_failed(nan_grad)
    assert egbench.f_best([nan_f]) == 60.0
    assert egbench.gap_record(nan_f.records, 100.0, 0.0) is None
    assert egbench.gap_record(nan_grad.records, 100.0, 0.5).k == 2


def test_steps_are_the_wall_time_differences():
    assert egbench.step_ns(make_trace([3.0, 2.0, 1.0], walls=[10, 40, 45])) == [30, 5]


def test_instance_figures_take_medians_over_rounds():
    eg_walls = ([10, 20, 30, 40], [10, 50, 60, 70], [10, 22, 35, 48])
    other = make_trace([100.0, 0.5, 0.04, 0.01], walls=[5, 10, 15, 20])
    stopped_eg = make_trace([100.0, 1.0, 0.05], walls=[8, 16, 33])
    rounds = [
        egbench.Round(0, 0.1, solve_s, dict.fromkeys(egbench.METHODS, other)
                      | {"eg": make_trace([100.0, 1.0, 0.05, 0.04], walls=walls)}, gap, 0.3, 10, (4, 4))
        for solve_s, walls, gap in ((0.2, eg_walls[0], {}), (0.4, eg_walls[1], {"eg": [stopped_eg]}),
                                    (0.3, eg_walls[2], {}))
    ]
    (figures,) = egbench.instance_figures(rounds)
    # f_best = 0.01: eg reaches the gap at k = 2, at 30, 60, 35 and 33 ns in its four solves.
    assert figures["eg.gap3_s"] == 34 / 1e9
    assert figures["eg.gap3_matvecs"] == 8
    assert figures["poicg.gap3_s"] == 15 / 1e9
    assert figures["solve_s"] == 0.3
    assert figures["rounds"] == 3


def test_failure_classification():
    assert egbench.solve_failed(None)
    assert egbench.solve_failed(make_trace([3.0, 2.0], status="step_infeasible"))
    assert not egbench.solve_failed(make_trace([3.0, 2.0], status="step_tol"))
    assert not egbench.solve_failed(make_trace([3.0, 2.0], status="grad_tol"))


def test_round_checks_catch_wrong_outputs():
    good = make_trace([100.0, 1.0, 0.01])
    rnd = egbench.Round(0, 0.1, 0.2, {m: good for m in egbench.METHODS}, {}, 0.1, 10, (4, 4))
    assert egbench.check_round(TINY, rnd) == []
    rnd.traces["eg"] = make_trace([100.0, 1.0, 2.0])
    rnd.traces["poicg"] = make_trace([100.0, 50.0, 40.0])
    problems = " ".join(egbench.check_round(TINY, rnd))
    assert "eg objective value increased" in problems
    assert "poicg did not reach" in problems
    assert "exceeds final eg value" in problems


def test_repeat_check_sees_a_changed_trace():
    first = {m: make_trace([100.0, 1.0]) for m in egbench.METHODS}
    second = dict(first, eg=make_trace([100.0, 2.0]))
    stopped = {"poicg": [make_trace([100.0, 1.5])]}
    rounds = [egbench.Round(0, 0.1, 0.2, t, gap, 0.1, 10, (4, 4)) for t, gap in ((first, {}), (second, stopped))]
    assert egbench.check_repeats(rounds, first["poicg"]) == [
        "instance 0: eg trace differs between two solves",
        "instance 0: poicg solve stopped at the gap differs from the full solve",
    ]


def test_self_times_subtract_children():
    spans = [["a", 0, 100, -1, "t", False], ["b", 10, 40, 0, "t", False], ["c", 50, 60, 0, "t", False],
             ["d", 20, 25, 1, "t", False]]
    assert self_times(spans) == [60, 25, 10, 5]
    assert sum(self_times(spans)) == 100


def test_wrappers_are_removed_after_an_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert leftover_wrappers()
            raise RuntimeError("boom")
    assert leftover_wrappers() == []


def test_run_fails_without_egmin_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk64", "--seed", "0", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
