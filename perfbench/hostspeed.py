"""Host speed from fixed reference kernels timed between the solves of a run.

On a shared host, other tenants slow a single-threaded process by up to
about 2x, in phases that last from seconds to minutes.  CPU time slows as
much as wall time, so neither clock removes it, and a phase can cover a
whole run.  The slowdown hits most kinds of work alike, so a run also
times three fixed kernels that do not use egmin, between its solves:

- ``numpy``: element-wise exp/log/multiply/sum on an image-sized vector;
- ``python``: a pure-Python arithmetic loop;
- ``sparse``: a forward and an adjoint product with a random CSR matrix of
  the workload projector's shape and density.

Each sample times every kernel once and scores it by the geometric mean,
over the kernels, of its time divided by the kernel's reference time (its
median on the reference machine, stored with the workload).  The run's
speed factor is the median score of its samples.  A median time divided
by the factor is the time the run would have taken at the reference
machine's speed.  Over ten runs of each workload on the reference
machine, this took the run-to-run spread of ``solve_s`` from 10-21 % to
6-9 % (see the README).
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
from scipy import sparse

KERNELS = ("numpy", "python", "sparse")
# Kernel inputs are fixed, so the kernels do the same work in every run.
KERNEL_SEED = 20250407
PYTHON_LOOP = 40_000


class HostSpeed:
    """Times of the reference kernels, sized for one image side."""

    def __init__(self, n_side: int, reference_ns: tuple[float, float, float]):
        n = n_side * n_side
        rows = max(1, n // 5)
        per_row = max(1, 3 * n_side // 2)
        rng = np.random.default_rng(KERNEL_SEED)
        indices = rng.integers(0, n, size=rows * per_row).astype(np.int32)
        indptr = np.arange(0, rows * per_row + 1, per_row, dtype=np.int32)
        self._matrix = sparse.csr_matrix((rng.random(rows * per_row), indices, indptr), shape=(rows, n))
        self._x = rng.random(n) + 0.5
        self._y = rng.random(rows) + 0.5
        self._vector_reps = max(1, 2**19 // n)
        self._sparse_reps = max(1, 2**20 // (rows * per_row))
        self.reference_ns = dict(zip(KERNELS, reference_ns))
        self.samples: dict[str, list[int]] = {k: [] for k in KERNELS}

    def _numpy(self):
        x = self._x
        for _ in range(self._vector_reps):
            float((np.log(np.exp(-x) + 1.0) * x).sum())

    def _python(self):
        total = 0
        for i in range(PYTHON_LOOP):
            total += i * i % 7

    def _sparse(self):
        for _ in range(self._sparse_reps):
            self._matrix @ self._x
            self._matrix.T @ self._y

    def sample(self) -> None:
        """Time each kernel once."""
        for name in KERNELS:
            kernel = getattr(self, "_" + name)
            start = time.perf_counter_ns()
            kernel()
            self.samples[name].append(time.perf_counter_ns() - start)

    def scores(self) -> list[float]:
        """Per sample, the geometric mean of kernel time / reference time (above 1: slower)."""
        return [
            math.exp(statistics.fmean(math.log(times[i] / self.reference_ns[k]) for k, times in self.samples.items()))
            for i in range(len(self.samples[KERNELS[0]]))
        ]

    def factor(self) -> float:
        """Median score over the samples of the run."""
        return statistics.median(self.scores())

    def record(self) -> dict:
        return {
            "reference_ns": self.reference_ns,
            "factor": self.factor(),
            "samples_ns": self.samples,
        }
