"""Time the solves of two egmin source trees against each other, in one process.

Usage::

    python tools/ab_solves.py A_SRC B_SRC [--n-side 64] [--lam 0.01] [--noisy]
        [--iterations 300] [--methods eg,poicg,ipgrgd,ipemd] [--rounds 24] [--seed 0]

``A_SRC`` and ``B_SRC`` are directories that hold an ``egmin`` package
(a checkout's ``src``).  Each is loaded under its own package name, which
works because egmin imports its own modules only relatively, so both
trees run in one process, on one instance of the same data: instance 0 of
``--seed``, built as ``egmin solve --seed`` and ``perfbench/run.py`` build
it.  Each method runs at the step policy ``solve`` picks for a
``SolverConfig`` without one: ``ipemd`` at the guaranteed constant step
``relative_lipschitz_step(b)``, the other methods with the Armijo
defaults.  Both trees must be recent enough for ``solve`` to pick these
itself: an older ``solve``, which asks ipemd's caller for a step policy,
raises ``ValueError``.

After one untimed solve per method on each side, every round solves each
method once on each side, the side that runs first alternating from round
to round.  A round whose two solves of a method differ in a deterministic
trace field (every field but ``wall_nanos``), the status or the final
point ends the run with exit status 1, naming the method.  Otherwise it
prints, per method, the median time per iteration of each side, the
median over the rounds of the ratio B / A, in how many rounds B was
faster and A's interquartile range, then a verdict line, and exits 0.
The verdict names the methods that meet the claim rule for a speedup: B
faster in at least 9 of 10 rounds, and A's median above B's by more than
A's interquartile range.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

METHODS = ("eg", "poicg", "ipgrgd", "ipemd")


def load_tree(src: str, name: str):
    """The ``egmin`` package under ``src``, imported as the package ``name``."""
    package = Path(src) / "egmin"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no egmin package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's instance 0 and the configs of its solves."""

    def __init__(self, egmin, args):
        data_seed, x0_seed = np.random.SeedSequence(args.seed).spawn(2)
        self.egmin = egmin
        self.instance, _ = egmin.build_instance(
            args.n_side, undersampling=0.2, lam=args.lam, delta=0.01, noisy=args.noisy, seed=data_seed
        )
        self.x0 = egmin.default_x0(self.instance.A.cols, seed=x0_seed)
        self.configs = {
            method: egmin.SolverConfig(egmin.Method(method), max_iterations=args.iterations)
            for method in args.methods
        }

    def solve(self, method: str):
        """``(ns per iteration, fingerprint)`` of one solve from fresh counters."""
        self.instance.A.reset_counts()
        obj = self.egmin.make_objective(self.instance)
        start = time.perf_counter_ns()
        trace = self.egmin.solve(self.configs[method], obj, self.x0)
        elapsed = time.perf_counter_ns() - start
        rows = [[r.k, r.f, r.riem_grad_norm, r.tau, r.halvings, r.matvec_count] for r in trace.records]
        fingerprint = (
            np.array(rows, dtype=float).tobytes()
            + trace.final_point.tobytes()
            + trace.terminal_status.value.encode()
        )
        return elapsed / max(trace.records[-1].k, 1), fingerprint


def interquartile_range(values: list[float]) -> float:
    """``Q3 - Q1``, linearly interpolated as ``numpy.percentile`` does it
    (0 for fewer than two values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def claim_met(a: list[float], b: list[float]) -> bool:
    """Whether round times ``b`` show a speedup over ``a``: ``b`` lower in at
    least 9 of 10 rounds, and its median lower by more than ``a``'s
    interquartile range."""
    wins = sum(y < x for x, y in zip(a, b))
    gap = statistics.median(a) - statistics.median(b)
    return 10 * wins >= 9 * len(a) and gap > interquartile_range(a)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="In-process A/B of the solves of two egmin trees.")
    parser.add_argument("a_src", help="directory holding tree A's egmin package")
    parser.add_argument("b_src", help="directory holding tree B's egmin package")
    parser.add_argument("--n-side", type=int, default=64)
    parser.add_argument("--lam", type=float, default=0.01)
    parser.add_argument("--noisy", action="store_true")
    parser.add_argument("--iterations", type=int, default=300)
    parser.add_argument("--methods", default=",".join(METHODS))
    parser.add_argument("--rounds", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    args.methods = tuple(args.methods.split(","))
    unknown = set(args.methods) - set(METHODS)
    if unknown or args.rounds < 1:
        parser.error(f"unknown methods {sorted(unknown)}" if unknown else "--rounds must be positive")
    return args


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    sides = [Side(load_tree(src, f"egmin_ab_{label}"), args) for label, src in (("a", args.a_src), ("b", args.b_src))]
    times = {method: ([], []) for method in args.methods}
    for method in args.methods:  # warm-up
        for side in sides:
            side.solve(method)
    for r in range(args.rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        gc.collect()
        for method in args.methods:
            prints = [None, None]
            for i in order:
                ns, prints[i] = sides[i].solve(method)
                times[method][i].append(ns)
            if prints[0] != prints[1]:
                print(f"{method}: round {r}: the two trees' solves differ")
                return 1
    print(f"{'method':8} {'A us/it':>10} {'B us/it':>10} {'B/A':>7} {'B faster':>9} {'A IQR':>8}")
    for method, (a, b) in times.items():
        ratio = statistics.median(y / x for x, y in zip(a, b))
        wins = sum(y < x for x, y in zip(a, b))
        print(f"{method:8} {statistics.median(a) / 1e3:10.1f} {statistics.median(b) / 1e3:10.1f}"
              f" {ratio:7.3f} {wins:>4}/{len(a):<4} {interquartile_range(a) / 1e3:8.1f}")
    met = [method for method, (a, b) in times.items() if claim_met(a, b)]
    missed = [method for method in times if method not in met]
    print(f"verdict: B faster in {', '.join(met) or 'none'}; not shown in {', '.join(missed) or 'none'}"
          " (B faster in >= 9 of 10 rounds, median gap > A IQR)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
