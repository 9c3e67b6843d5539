"""Check the invariants of a run directory that ``egmin solve`` wrote.

Usage::

    python tools/check_run.py RUN_DIR [--expect PATH=JSON ...] [--require PATH ...]

Prints one line per problem and exits 1 if there is any, 0 if none.  For
every method of the run it checks that:

- ``summary.json`` is strict JSON (no NaN or infinite constant);
- ``forward_applications + adjoint_applications == total_matvecs``;
- ``screened_by`` adds up to ``screened_trials``;
- every Armijo trial is counted once: the halvings of the trace, plus the
  wasted probes that did not meet their limit, are the screened and the
  rejected trials;
- the status is not ``non_finite``, and ``search_status`` is set if and
  only if the status is ``step_tol`` (only a failed search ends a run so);
- the probes that met their limit are among the wasted ones, and those
  among the ``probes``; and no search probed if the operator is below the
  curve screen's gate (``nnz < CURVE_NNZ_PER_ROW * rows``);
- the summary agrees with the last row of ``trace_<method>.csv``:
  ``iterations`` is its ``k``, ``total_matvecs`` its ``matvec_count``
  and ``final_f`` its ``f`` (``null`` for a non-finite ``f``).  Both files
  round-trip floats exactly, so these are equalities.

Facts of a particular workload are checked only when asked.  A PATH is
a dotted key into ``summary.json``, such as ``methods.eg.screened_by.curve``:
``--expect PATH=JSON`` requires the entry to equal the JSON value, and
``--require PATH`` requires it to be a number > 0.  Both may be repeated.

The traces are read with ``egmin.read_trace_csv``, so egmin must be
importable (installed, or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

from egmin import read_trace_csv
from egmin.problems import CURVE_NNZ_PER_ROW


def _reject_constant(constant):
    raise ValueError(f"not strict JSON: it holds {constant}")


_MISSING = object()


def lookup(summary: dict, path: str):
    """The entry of ``summary`` at the dotted ``path``, or ``_MISSING``."""
    value = summary
    for key in path.split("."):
        if not isinstance(value, dict) or key not in value:
            return _MISSING
        value = value[key]
    return value


def method_problems(stats: dict, records, below_gate: bool) -> list[str]:
    """What is wrong with one method's summary entry and trace records."""
    problems = []
    applied = stats["forward_applications"] + stats["adjoint_applications"]
    if applied != stats["total_matvecs"]:
        problems.append(f"forward + adjoint applications = {applied}, total_matvecs = {stats['total_matvecs']}")
    if sum(stats["screened_by"].values()) != stats["screened_trials"]:
        problems.append(f"screened_by {stats['screened_by']} does not add up to {stats['screened_trials']}")
    # A wasted probe is one trial more than the trace records, counted as
    # screened or rejected unless it met its limit.
    halvings = sum(rec.halvings for rec in records)
    counted = stats["screened_trials"] + sum(stats["rejected_by"].values())
    if halvings + stats["probes_wasted"] - stats["probes_met"] != counted:
        problems.append(f"{halvings} halvings and {stats['probes_wasted']} wasted probes, of which"
                        f" {stats['probes_met']} met their limit, but {counted} screened or rejected trials")
    if stats["terminal_status"] == "non_finite":
        problems.append("ended non_finite")
    if (stats["search_status"] is None) == (stats["terminal_status"] == "step_tol"):
        problems.append(f"search_status {stats['search_status']} on a {stats['terminal_status']} run")
    if not 0 <= stats["probes_met"] <= stats["probes_wasted"] <= stats["probes"]:
        problems.append(f"probes_met {stats['probes_met']}, probes_wasted {stats['probes_wasted']}"
                        f" and probes {stats['probes']} are not nested")
    if below_gate and stats["probes"]:
        problems.append(f"{stats['probes']} probes below the curve screen's gate")
    last = records[-1]
    if stats["iterations"] != last.k:
        problems.append(f"iterations = {stats['iterations']}, but the trace ends at k = {last.k}")
    if stats["total_matvecs"] != last.matvec_count:
        problems.append(f"total_matvecs = {stats['total_matvecs']}, but the trace ends at {last.matvec_count}")
    final_f = last.f if math.isfinite(last.f) else None  # as the summary writes it
    if stats["final_f"] != final_f:
        problems.append(f"final_f = {stats['final_f']}, but the trace ends at f = {last.f!r}")
    return problems


def check_run(run_dir, expect: Iterable = (), require: Iterable[str] = ()) -> list[str]:
    """The problems of the run in ``run_dir``; an empty list if there is none.

    ``expect`` maps dotted summary paths to the values they must hold (a
    mapping, or ``(path, value)`` pairs); each path in ``require`` must
    hold a number > 0.
    """
    run_dir = Path(run_dir)
    try:
        summary = json.loads((run_dir / "summary.json").read_text(), parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        return [f"summary.json: {exc}"]
    problems = []
    rows, _ = summary["operator"]["shape"]
    below_gate = summary["operator"]["nnz"] < CURVE_NNZ_PER_ROW * rows
    for name, stats in summary["methods"].items():
        try:
            records = read_trace_csv(run_dir / f"trace_{name}.csv")
        except (OSError, KeyError, ValueError) as exc:  # missing, or not a trace
            problems.append(f"{name}: trace_{name}.csv: {exc!r}")
            continue
        problems += [f"{name}: {problem}" for problem in method_problems(stats, records, below_gate)]
    for path, want in dict(expect).items():
        value = lookup(summary, path)
        if value is _MISSING:
            problems.append(f"{path}: no such entry in summary.json")
        elif value != want:
            problems.append(f"{path} = {json.dumps(value)}, not {json.dumps(want)}")
    for path in require:
        value = lookup(summary, path)
        if value is _MISSING:
            problems.append(f"{path}: no such entry in summary.json")
        elif not (isinstance(value, (int, float)) and value > 0):
            problems.append(f"{path} = {json.dumps(value)}, not > 0")
    return problems


def _expectation(text: str) -> tuple[str, object]:
    path, sep, value = text.partition("=")
    if not (sep and path):
        raise argparse.ArgumentTypeError(f"{text!r} is not PATH=JSON")
    try:
        return path, json.loads(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{value!r} is not a JSON value") from None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Check the invariants of an `egmin solve` run directory.")
    parser.add_argument("run_dir")
    parser.add_argument("--expect", type=_expectation, action="append", default=[], metavar="PATH=JSON",
                        help="require the summary entry at PATH to equal the JSON value")
    parser.add_argument("--require", action="append", default=[], metavar="PATH",
                        help="require the summary entry at PATH to be a number > 0")
    args = parser.parse_args(argv)
    problems = check_run(args.run_dir, args.expect, args.require)
    for problem in problems:
        print(f"{args.run_dir}: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
