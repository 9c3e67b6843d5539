"""Run the egmin benchmark on one workload.

    python3 perfbench/run.py --workload desk64 --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout: egmin is imported from ``src/`` there,
with the numeric libraries pinned to one thread.  The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import os
import sys
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    # Set before numpy is imported, so its BLAS never starts worker threads.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "egmin" / "__init__.py").is_file():
        print(f"error: no egmin sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import egbench

    return egbench.main(sys.argv[1:], root)


if __name__ == "__main__":
    sys.exit(main())
