"""Check the output of a traced benchmark run (``perfbench/run.py --trace 1``).

Usage::

    python tools/check_bench.py OUT ERR

``OUT`` and ``ERR`` are files holding the run's standard output and
standard error.  The error output is copied to this tool's standard
error, so that a CI log shows it.  Prints one line per problem and exits
1 if there is any, 0 if none.  It checks that:

- the last line of ``OUT`` is the run's JSON result;
- the result says ``"correct": true``;
- ``ERR`` names no patch point that was not found;
- each metric of ``TRACED`` reads more than 0, so the trials and the
  objective's evaluations still call through their patch points.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

# problems.value and problems.value_and_grad wrap Objective's methods: a
# subclass that overrode either one would read 0 here.
TRACED = (
    "geometry.exp_map.calls",
    "linesearch.trials",
    "problems.value.calls",
    "problems.value_and_grad.calls",
)


def check_bench(out: str, err: str) -> list[str]:
    """The problems of a traced run with standard output ``out`` and
    standard error ``err``; an empty list if there is none."""
    problems = []
    if "patch points not found" in err:
        problems.append("the traced run names a missing patch point")
    lines = out.splitlines()
    try:
        result = json.loads(lines[-1])
        metrics = result["metrics"]
    except (IndexError, ValueError, TypeError, KeyError):
        return problems + ["the last line of the output is not the run's JSON result"]
    if result.get("correct") is not True:
        problems.append('the traced run reports "correct": false')
    for name in TRACED:
        value = metrics.get(name, {}).get("value")
        if not value:
            problems.append(f"{name} reads {value}: the trials no longer call through the patch point")
    return problems


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/check_bench.py OUT ERR", file=sys.stderr)
        return 2
    out, err = (Path(path).read_text() for path in argv)
    sys.stderr.write(err)
    problems = check_bench(out, err)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
