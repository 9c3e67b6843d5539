"""egmin benchmark: tomography workloads, timed and traced runs, output checks.

A timing run solves ``Workload.instances`` instances.  Each instance is
built with ``build_instance`` and solved by all four methods from one
shared seeded ``x0``, the way ``egmin solve`` does; instance 0 uses
exactly the seeds ``egmin solve --seed`` uses.  After one discarded
warm-up solve, rounds cycle over the instances, at least
``Workload.repeats`` times and for about the requested seconds.

On a shared host, other tenants slow a single-threaded process in short
bursts and in long phases.  Every time of an instance is therefore a
median over its solves in the run.  Times to the gap are short, so they
also pool ``Workload.gap_repeats`` extra ``eg`` and ``poicg`` solves per
round that stop at their gap record; those solves repeat the prefix of
the full trace exactly.  Against the long phases, reference kernels are
timed before every build and solve, and every reported time is divided
by the run's host-speed factor (see ``hostspeed.py``).  Instances differ
in the work they need (through ``x0``, and the counts when noisy), so
solve and gap times, like the counts, are means over the instances.
Counts repeat exactly for a seed.

A traced run alternates untraced and traced rounds of instance 0 and
derives per-layer numbers from spans recorded around the calls into
each module (see ``spans.py``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass
from itertools import pairwise
from pathlib import Path

import numpy as np
import scipy

import egmin
from egmin import (
    ArmijoParams,
    Method,
    SolverConfig,
    build_instance,
    constant_step,
    default_x0,
    make_objective,
    relative_lipschitz_step,
    solve,
)

from hostspeed import HostSpeed
from spans import NoTrace, Tracer, leftover_wrappers, self_times

METHODS = ("eg", "poicg", "ipgrgd", "ipemd")
ARMIJO_METHODS = ("eg", "poicg", "ipgrgd")
GAP_METHODS = ("eg", "poicg")
GAP_TOL = 1e-3
# The problem family of ``egmin solve``'s defaults.
UNDERSAMPLING = 0.2
DELTA = 0.01
# Terminal statuses of a solve that ended cleanly; anything else is a failure.
CLEAN_STATUSES = frozenset({"max_iter", "grad_tol", "step_tol"})
WARMUP_METHOD = "poicg"
# The traced run's span self-times must sum to the traced solve time within this share.
COVERAGE_TOL = 0.02
# Untraced/traced round pairs a traced run makes at least.
TRACED_PAIRS = 2
# End-to-end metrics that are times, and so are divided by the host-speed factor.
TIME_METRICS = ("setup_s", "solve_s", *(f"{m}.iter_ms" for m in METHODS), *(f"{m}.gap3_s" for m in GAP_METHODS))
# Span names whose calls, median duration and self time are reported.
TIMED_LAYERS = (
    "operators.forward",
    "operators.adjoint",
    "problems.value",
    "problems.value_and_grad",
    "problems.huber_tv",
    "divergence.kl",
    "geometry.exp_map",
    "linesearch.armijo",
)
NO_TRACE = NoTrace()
OUT_DIR = Path(__file__).resolve().parent / "out"


class BenchmarkError(RuntimeError):
    """A metric could not be computed from the run."""


@dataclass(frozen=True)
class Workload:
    """One problem family with its iteration budget and instance count."""

    name: str
    n_side: int
    lam: float
    noisy: bool
    budget: int
    instances: int
    repeats: int  # rounds per instance a run makes at least
    gap_repeats: int  # extra eg and poicg solves up to the gap record, per round
    cg_check: bool  # the final poicg value must not exceed the final eg value
    reference_ns: tuple[float, float, float]  # median host-speed kernel times on the reference machine


WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk64", n_side=64, lam=0.01, noisy=False, budget=300, instances=8, repeats=1,
                 gap_repeats=5, cg_check=True, reference_ns=(3.5e6, 4.0e6, 2.7e6)),
        Workload("tomo256", n_side=256, lam=0.01, noisy=False, budget=30, instances=3, repeats=1,
                 gap_repeats=0, cg_check=True, reference_ns=(3.2e6, 4.4e6, 24e6)),
        Workload("counts128", n_side=128, lam=0.0, noisy=True, budget=300, instances=4, repeats=1,
                 gap_repeats=6, cg_check=False, reference_ns=(3.3e6, 4.3e6, 3.1e6)),
    )
}


@dataclass
class Round:
    """One build of an instance and its four solves."""

    instance: int
    setup_s: float
    solve_s: float
    traces: dict  # method -> RunTrace, or None when the solve raised
    gap_traces: dict  # gap method -> solves that stopped at its gap record
    recon_err: float
    nnz: int
    shape: tuple[int, int]


@dataclass
class Outcome:
    metrics: dict  # name -> (value, unit)
    attempted: int
    failed: int
    problems: list[str]
    record: dict


def instance_seeds(seed: int, count: int) -> list[tuple]:
    """Data and x0 seeds per instance; instance 0 matches ``egmin solve --seed``."""
    root = np.random.SeedSequence(seed)
    return [tuple(root.spawn(2)) for _ in range(count)]


def make_problem(w: Workload, data_seed):
    return build_instance(
        w.n_side,
        undersampling=UNDERSAMPLING,
        lam=w.lam,
        delta=DELTA,
        noisy=w.noisy,
        seed=data_seed,
    )


def solver_config(method: str, b, budget: int) -> SolverConfig:
    """Paper defaults: Armijo from tau_bar = 1, ipemd at the guaranteed constant step."""
    if method == "ipemd":
        policy = constant_step(relative_lipschitz_step(b))
    else:
        policy = ArmijoParams(tau_bar=1.0)
    return SolverConfig(method=Method(method), linesearch=policy, max_iterations=budget)


def solve_one(problem, x0, method: str, budget: int, tracer=NO_TRACE):
    """Fixed-budget solve with fresh counters and cache; None if it raised."""
    problem.A.reset_counts()
    obj = make_objective(problem)
    config = solver_config(method, problem.b, budget)
    try:
        with tracer.root("solvers." + method, method):
            return solve(config, obj, x0)
    except Exception:  # a solve that raises is a counted failure, not a crash
        traceback.print_exc(file=sys.stderr)
        return None


def solve_failed(trace) -> bool:
    """A solve fails if it raised, aborted, or recorded a non-finite f or gradient norm."""
    if trace is None:
        return True
    if trace.terminal_status.value not in CLEAN_STATUSES:
        return True
    return not all(math.isfinite(r.f) and math.isfinite(r.riem_grad_norm) for r in trace.records)


def run_round(w: Workload, instance: int, seeds, tracer=NO_TRACE, gap_repeats: int = 0,
              speed: HostSpeed | None = None) -> Round:
    """Build one instance and solve it with every method; ``speed`` is sampled before each."""
    sample = speed.sample if speed is not None else lambda: None
    data_seed, x0_seed = seeds
    sample()
    start = time.perf_counter()
    with tracer.root("problems.build_instance", "setup"):
        problem, x_true = make_problem(w, data_seed)
    setup_s = time.perf_counter() - start
    x0 = default_x0(problem.A.cols, seed=x0_seed)
    traces = {}
    solve_s = 0.0
    for m in METHODS:
        sample()
        start = time.perf_counter()
        traces[m] = solve_one(problem, x0, m, w.budget, tracer)
        solve_s += time.perf_counter() - start
    gap_traces = {
        m: [t for t in (solve_one(problem, x0, m, rec.k) for _ in range(gap_repeats)) if t is not None]
        for m, rec in gap_records(traces).items()
        if rec is not None and rec.k > 0
    }
    poicg = traces["poicg"]
    recon_err = math.nan
    if poicg is not None:
        recon_err = float(np.linalg.norm(poicg.final_point - x_true) / np.linalg.norm(x_true))
    return Round(instance, setup_s, solve_s, traces, gap_traces, recon_err, problem.A.nnz, problem.A.shape)


def warm_up(w: Workload, seeds):
    """One discarded solve of instance 0; its trace is kept for the repeat check."""
    data_seed, x0_seed = seeds
    problem, _ = make_problem(w, data_seed)
    return solve_one(problem, default_x0(problem.A.cols, seed=x0_seed), WARMUP_METHOD, w.budget)


def f_best(traces) -> float:
    """Lowest finite objective value any of the traces recorded (nan if none)."""
    values = [r.f for t in traces for r in t.records if math.isfinite(r.f)]
    return min(values, default=math.nan)


def gap_record(records, f0: float, best: float, tol: float = GAP_TOL):
    """First record with ``(f - f_best) / (f0 - f_best) <= tol``, or None.

    Mirrors ``relative_values.csv`` of ``egmin solve``: a zero span counts
    as gap 0.  Non-finite values never reach the gap.
    """
    span = f0 - best
    for rec in records:
        if math.isfinite(rec.f) and (span <= 0.0 or rec.f - best <= tol * span):
            return rec
    return None


def gap_records(traces: dict) -> dict:
    """Per gap method, its first record within the 1e-3 gap (None if never or no trace)."""
    solved = [t for t in traces.values() if t is not None]
    f0 = solved[0].records[0].f if solved else math.nan
    best = f_best(solved)
    return {
        m: gap_record(traces[m].records, f0, best) if traces[m] is not None else None
        for m in GAP_METHODS
    }


def step_ns(trace) -> list[int]:
    """Wall time in ns of each iteration ``k >= 1``, from the ``wall_nanos`` differences."""
    walls = [r.wall_nanos for r in trace.records]
    return [b - a for a, b in pairwise(walls)]


def instance_figures(rounds: list[Round]) -> list[dict]:
    """Per instance: counts from its first round, times as medians over all its rounds."""
    by_instance: defaultdict = defaultdict(list)
    for rnd in rounds:
        by_instance[rnd.instance].append(rnd)
    figures = []
    for instance, own in by_instance.items():
        first = own[0]
        entry = {
            "instance": instance,
            "rounds": len(own),
            "solve_s": statistics.median(rnd.solve_s for rnd in own),
            "poicg.recon_err": first.recon_err,
        }
        for m, rec in gap_records(first.traces).items():
            gap_s = None
            if rec is not None:
                traces = [rnd.traces[m] for rnd in own if rnd.traces[m] is not None]
                traces += [t for rnd in own for t in rnd.gap_traces.get(m, ())]
                # A solve that differs from the first is reported by check_repeats; skip it here.
                walls = [t.records[rec.k].wall_nanos for t in traces if len(t.records) > rec.k]
                gap_s = statistics.median(walls) / 1e9
            entry[f"{m}.gap3_s"] = gap_s
            entry[f"{m}.gap3_matvecs"] = rec.matvec_count if rec is not None else None
        figures.append(entry)
    return figures


def check_round(w: Workload, rnd: Round) -> list[str]:
    """Output checks on one round; returns the problems found."""
    where = f"instance {rnd.instance}"
    problems = []
    for m, trace in rnd.traces.items():
        if trace is None:
            continue
        if m in ARMIJO_METHODS:
            values = [r.f for r in trace.records if math.isfinite(r.f)]
            if any(b > a for a, b in pairwise(values)):
                problems.append(f"{where}: {m} objective value increased")
        point = trace.final_point
        if not solve_failed(trace) and not (np.all(np.isfinite(point)) and np.all(point > 0.0)):
            problems.append(f"{where}: {m} final point left the positive orthant")
    eg, cg = rnd.traces["eg"], rnd.traces["poicg"]
    if w.cg_check and not solve_failed(eg) and not solve_failed(cg):
        if cg.records[-1].f > eg.records[-1].f:
            problems.append(
                f"{where}: final poicg value {cg.records[-1].f!r} exceeds final eg value {eg.records[-1].f!r}"
            )
    for m, rec in gap_records(rnd.traces).items():
        if rnd.traces[m] is not None and rec is None:
            problems.append(f"{where}: {m} did not reach the {GAP_TOL:g} gap within {w.budget} iterations")
    return problems


def record_bytes(records) -> bytes:
    """Every deterministic record field (all but ``wall_nanos``)."""
    rows = [[r.k, r.f, r.riem_grad_norm, r.tau, r.halvings, r.matvec_count] for r in records]
    return np.array(rows, dtype=float).tobytes()


def fingerprint(trace) -> bytes | None:
    """The deterministic record fields, the status and the final point of a solve."""
    if trace is None:
        return None
    return record_bytes(trace.records) + trace.final_point.tobytes() + trace.terminal_status.value.encode()


def check_repeats(rounds: list[Round], warm) -> list[str]:
    """Solves of one config must give identical traces apart from ``wall_nanos``."""
    first: dict[int, dict] = {}
    problems = []
    for rnd in rounds:
        prints = {m: fingerprint(t) for m, t in rnd.traces.items()}
        seen = first.setdefault(rnd.instance, prints)
        problems += [
            f"instance {rnd.instance}: {m} trace differs between two solves"
            for m in METHODS
            if prints[m] != seen[m]
        ]
        problems += [
            f"instance {rnd.instance}: {m} solve stopped at the gap differs from the full solve"
            for m, traces in rnd.gap_traces.items()
            for t in traces
            if record_bytes(t.records) != record_bytes(rnd.traces[m].records[: len(t.records)])
        ]
    if fingerprint(warm) != first[0][WARMUP_METHOD]:
        problems.append(f"instance 0: warm-up {WARMUP_METHOD} trace differs from the timed solve")
    return problems


def _aggregate(stat, values, name: str) -> float:
    """``stat`` of the available samples; a metric without samples cannot be reported."""
    values = [v for v in values if v is not None]
    if not values:
        raise BenchmarkError(f"no samples for {name}")
    return stat(values)


def _count_failures(rounds: list[Round]) -> tuple[int, int]:
    solves = [t for rnd in rounds for t in rnd.traces.values()]
    return len(solves), sum(solve_failed(t) for t in solves)


def _solve_summary(trace) -> dict:
    if trace is None:
        return {"raised": True}
    return dict(
        trace.summary_dict(),
        failed=solve_failed(trace),
        wall_nanos=[r.wall_nanos for r in trace.records],
    )


def _round_record(rnd: Round) -> dict:
    return {
        "instance": rnd.instance,
        "setup_s": rnd.setup_s,
        "solve_s": rnd.solve_s,
        "solves": {m: _solve_summary(t) for m, t in rnd.traces.items()},
        "gap_solves_wall_nanos": {
            m: [[r.wall_nanos for r in t.records] for t in traces] for m, traces in rnd.gap_traces.items()
        },
    }


def run_timing(w: Workload, seed: int, seconds: float) -> Outcome:
    """End-to-end metrics from rounds cycling over the instances.

    A round starts only if, at the mean round time so far, it ends within
    ``seconds``; but every instance gets at least ``w.repeats`` rounds.
    """
    seeds = instance_seeds(seed, w.instances)
    speed = HostSpeed(w.n_side, w.reference_ns)
    warm = warm_up(w, seeds[0])
    rounds: list[Round] = []
    start = time.perf_counter()
    while len(rounds) < w.instances * w.repeats or (
        (time.perf_counter() - start) * (len(rounds) + 1) / len(rounds) <= seconds
    ):
        i = len(rounds) % w.instances
        rounds.append(run_round(w, i, seeds[i], gap_repeats=w.gap_repeats, speed=speed))

    figures = instance_figures(rounds)
    attempted, failed = _count_failures(rounds)
    median, mean = statistics.median, statistics.fmean
    metrics = {
        "setup_s": (_aggregate(median, (r.setup_s for r in rounds), "setup_s"), "s"),
        "solve_s": (_aggregate(mean, (f["solve_s"] for f in figures), "solve_s"), "s"),
    }
    for m in METHODS:
        steps = [ns for rnd in rounds if rnd.traces[m] is not None for ns in step_ns(rnd.traces[m])]
        metrics[f"{m}.iter_ms"] = (_aggregate(median, steps, f"{m}.iter_ms") / 1e6, "ms")
    for m in GAP_METHODS:
        name = f"{m}.gap3_s"
        metrics[name] = (_aggregate(mean, (f[name] for f in figures), name), "s")
    for m in GAP_METHODS:
        name = f"{m}.gap3_matvecs"
        metrics[name] = (_aggregate(mean, (f[name] for f in figures), name), "count")
    name = "poicg.recon_err"
    metrics[name] = (_aggregate(mean, (f[name] for f in figures), name), "ratio")
    metrics["clean_solves"] = (1.0 - failed / attempted, "share")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    measured = {name: metrics[name][0] for name in TIME_METRICS}
    factor = speed.factor()
    for name in TIME_METRICS:
        metrics[name] = (measured[name] / factor, metrics[name][1])

    problems = check_repeats(rounds, warm)
    for rnd in rounds[: w.instances]:
        problems += check_round(w, rnd)
    record = {
        "warmup": _solve_summary(warm),
        "host_speed": speed.record(),
        "measured_times": measured,
        "rounds": [_round_record(rnd) for rnd in rounds],
        "instances": figures,
    }
    return Outcome(metrics, attempted, failed, problems, record)


def layer_round(rnd: Round, spans: list[list]) -> dict:
    """Per-layer figures of one traced round, from its spans."""
    own = self_times(spans)
    calls: Counter = Counter()
    notes: Counter = Counter()
    self_ns: defaultdict = defaultdict(int)
    durations: defaultdict = defaultdict(list)
    trials = 0
    build_ns = 0
    for i, (name, start, end, parent, tag, note) in enumerate(spans):
        if tag == "setup":
            if name == "projector.build":
                build_ns += end - start
            continue
        calls[name] += 1
        notes[name] += note
        self_ns[name] += own[i]
        durations[name].append(end - start)
        if name == "geometry.exp_map" and parent >= 0 and spans[parent][0] == "linesearch.armijo":
            trials += 1
    return {
        "calls": dict(calls),
        "notes": dict(notes),
        "trials": trials,
        "self_s": {name: ns / 1e9 for name, ns in self_ns.items()},
        "durations": durations,
        "build_s": build_ns / 1e9,
        "coverage": sum(self_ns.values()) / 1e9 / rnd.solve_s,
    }


def layer_metrics(traced: list[Round], layers: list[dict]) -> dict:
    """Aggregate traced rounds: counts from the first, times as medians."""
    first = layers[0]
    calls, notes = first["calls"], first["notes"]
    metrics = {}
    for name in TIMED_LAYERS + ("solvers.step_ip_e_md",):
        pooled = [d for layer in layers for d in layer["durations"].get(name, ())]
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.us"] = (statistics.median(pooled) / 1e3 if pooled else 0.0, "us")
        if name in TIMED_LAYERS:
            self_s = statistics.median(layer["self_s"].get(name, 0.0) for layer in layers)
            metrics[f"{name}.self_s"] = (self_s, "s")
    rows, cols = traced[0].shape
    bytes_per_apply = traced[0].nnz * (8 + 4) + (rows + 1) * 4 + (rows + cols) * 8
    for name in ("operators.forward", "operators.adjoint"):
        metrics[f"{name}.bytes_computed"] = (calls.get(name, 0) * bytes_per_apply, "bytes")
    metrics["projector.build.s"] = (statistics.median(layer["build_s"] for layer in layers), "s")
    metrics["projector.nnz"] = (traced[0].nnz, "count")
    hits = (
        calls.get("problems.value", 0)
        + calls.get("problems.value_and_grad", 0)
        - calls.get("operators.forward", 0)
    )
    metrics["problems.forward_cache_hits"] = (hits, "count")
    metrics["geometry.exp_map.flagged"] = (notes.get("geometry.exp_map", 0), "count")
    trials = first["trials"]
    metrics["linesearch.trials"] = (trials, "count")
    accepted = notes.get("linesearch.armijo", 0)
    metrics["linesearch.accept_ratio"] = (accepted / trials if trials else 0.0, "ratio")
    for m in METHODS:
        trace = traced[0].traces[m]
        metrics[f"solvers.{m}.iterations"] = (trace.records[-1].k if trace else 0, "count")
        self_s = statistics.median(layer["self_s"].get("solvers." + m, 0.0) for layer in layers)
        metrics[f"solvers.{m}.self_s"] = (self_s, "s")
    metrics["trace.coverage"] = (statistics.median(layer["coverage"] for layer in layers), "ratio")
    return metrics


def run_traced(w: Workload, seed: int, seconds: float) -> Outcome:
    """Per-layer metrics: untraced and traced rounds of instance 0, alternating.

    At least ``TRACED_PAIRS`` pairs run, then pairs that, at the mean pair
    time so far, end within ``seconds``.
    """
    seeds = instance_seeds(seed, 1)[0]
    warm = warm_up(w, seeds)
    plain: list[Round] = []
    traced: list[Round] = []
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while len(traced) < TRACED_PAIRS or (time.perf_counter() - start) * (len(traced) + 1) / len(traced) <= seconds:
        plain.append(run_round(w, 0, seeds))
        tracer = Tracer()
        with tracer.installed():
            traced.append(run_round(w, 0, seeds, tracer))
        tracers.append(tracer)

    layers = [layer_round(rnd, tracer.spans) for rnd, tracer in zip(traced, tracers)]
    metrics = layer_metrics(traced, layers)
    untraced_s = instance_figures(plain)[0]["solve_s"]
    traced_s = instance_figures(traced)[0]["solve_s"]
    metrics["trace.overhead"] = (traced_s / untraced_s - 1.0, "ratio")

    problems = check_repeats(plain + traced, warm) + check_round(w, plain[0])
    problems += [f"span wrapper left installed: {name}" for name in leftover_wrappers()]
    problems += [
        f"traced round {i}: layer self-times cover {layer['coverage']:.4f} of the traced solve time"
        for i, layer in enumerate(layers)
        if abs(1.0 - layer["coverage"]) > COVERAGE_TOL
    ]
    problems += [
        f"traced round {i}: call counts differ from traced round 0"
        for i, layer in enumerate(layers)
        if (layer["calls"], layer["notes"], layer["trials"])
        != (layers[0]["calls"], layers[0]["notes"], layers[0]["trials"])
    ]
    if tracers[0].missing:
        print(f"warning: patch points not found: {', '.join(tracers[0].missing)}", file=sys.stderr)
    attempted, failed = _count_failures(plain + traced)
    record = {
        "warmup": _solve_summary(warm),
        "untraced_rounds": [_round_record(rnd) for rnd in plain],
        "traced_rounds": [_round_record(rnd) for rnd in traced],
        "untraced_solve_s": untraced_s,
        "traced_solve_s": traced_s,
        "coverage_tolerance": COVERAGE_TOL,
        "missing_patch_points": tracers[0].missing,
        "spans": [_spans_record(tracer.spans) for tracer in tracers],
    }
    return Outcome(metrics, attempted, failed, problems, record)


def _spans_record(spans: list[list]) -> dict:
    """Compact span table: name and tag indices, times in ns from the first span."""
    names = sorted({s[0] for s in spans})
    tags = sorted({s[4] for s in spans})
    origin = spans[0][1] if spans else 0
    return {
        "columns": ["name", "start_ns", "end_ns", "parent", "tag", "note"],
        "names": names,
        "tags": tags,
        "rows": [
            [names.index(n), s - origin, e - origin, p, tags.index(t), int(note)]
            for n, s, e, p, t, note in spans
        ],
    }


def _read_text(path) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    head = _read_text(root / ".git" / "HEAD")
    if head is None or not head.startswith("ref:"):
        return head.strip() if head else None
    ref = head.split(None, 1)[1].strip()
    loose = _read_text(root / ".git" / ref)
    if loose:
        return loose.strip()
    for line in (_read_text(root / ".git" / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def cpu_model() -> str | None:
    match = re.search(r"^model name\s*:\s*(.+)$", _read_text("/proc/cpuinfo") or "", re.M)
    return match.group(1).strip() if match else None


def llc_bytes() -> int | None:
    """Size of the highest cache level reported for CPU 0."""
    best = None
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, size = _read_text(index / "level"), _read_text(index / "size")
        match = re.fullmatch(r"(\d+)([KMG]?)", (size or "").strip())
        if level is None or match is None:
            continue
        scale = {"": 1, "K": 2**10, "M": 2**20, "G": 2**30}[match.group(2)]
        if best is None or int(level) >= best[0]:
            best = (int(level), int(match.group(1)) * scale)
    return best[1] if best else None


def environment(root: Path) -> dict:
    return {
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "egmin": egmin.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "llc_bytes": llc_bytes(),
        "thread_vars": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def main(argv: list[str], root: Path) -> int:
    parser = argparse.ArgumentParser(description="Benchmark egmin on a tomography workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    run = run_traced if args.trace else run_timing
    try:
        outcome = run(w, args.seed, args.seconds)
        for name, (value, _) in outcome.metrics.items():
            if not math.isfinite(value):
                raise BenchmarkError(f"{name} is not finite: {value!r}")
    except BenchmarkError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1

    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in outcome.metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "workload": asdict(w),
        "seed": args.seed,
        "seconds": args.seconds,
        "environment": environment(root),
        "problems": outcome.problems,
        "result": result,
        **outcome.record,
    }
    out_path.write_text(json.dumps(record) + "\n")

    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in outcome.metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(f"failed_solves = {outcome.failed / outcome.attempted!r} ({outcome.failed} of {outcome.attempted})")
    print(f"record: {out_path.relative_to(root)}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
