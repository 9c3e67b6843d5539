"""Sparse nonnegative linear operators with application counting."""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

# Operators with at least this many stored entries take their products in
# two row halves.  Below it a product is too short for the hand-off: at
# 5e5 entries one takes about 0.55 ms and a thread hand-off about 50 us.
SPLIT_NNZ = 2**20

_helper: ThreadPoolExecutor | None = None
_helper_lock = threading.Lock()


def _helper_pool() -> ThreadPoolExecutor:
    """The process's one helper thread, started by its first split product.

    It is shared by every operator, so a process never runs more than one.
    """
    global _helper
    with _helper_lock:
        if _helper is None:
            _helper = ThreadPoolExecutor(max_workers=1, thread_name_prefix="egmin-half")
        return _helper


def _forget_helper() -> None:
    # A forked child inherits the pool object but not its thread: its
    # submissions would never run, and would stay queued with their vectors.
    global _helper, _helper_lock
    _helper = None
    _helper_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helper)


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask, where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_halves(first, second) -> None:
    """Run ``first()`` here and ``second()`` on the helper thread.

    When the helper has not started ``second`` by the time ``first`` is
    done (it is busy, or its CPU is taken), ``second`` is cancelled there
    and run here.  With one usable CPU both run here.
    """
    if usable_cpus() < 2:
        first()
        second()
        return
    future = _helper_pool().submit(second)
    try:
        first()
    finally:
        on_helper = not future.cancel()
        if on_helper:
            future.result()
    if not on_helper:
        second()


class SparseOperator:
    """Nonnegative sparse matrix with forward/adjoint application counters.

    Rows with no stored nonzero entry are rejected at construction: with
    strictly positive input every forward-product coordinate then stays
    strictly positive, which keeps KL-type data terms finite.  The column
    sums ``A^T 1`` are formed once at construction.  Counters are plain
    instance state and not thread-safe.

    An operator with at least ``SPLIT_NNZ = 2**20`` stored entries takes
    its products in two row halves of its one CSR matrix, split at the
    row ``r = searchsorted(indptr, nnz // 2)`` where half the entries are
    reached.  The caller runs the top half and one helper thread per
    process the bottom half, both in scipy's CSR kernels, which release
    the GIL, on views of the matrix's own arrays: no copy is made.  The
    forward product is bit for bit ``matrix @ x``, since the halves own
    disjoint rows.  The adjoint is defined as
    ``A_top^T y_top + A_bot^T y_bot``, summed in that order wherever the
    halves ran, so its bits depend on the operator alone, not on the CPU
    count or on thread timing.  Below the threshold a product takes well
    under a millisecond, and the hand-off would eat the gain; those
    operators keep scipy's single-kernel ``matrix @ x``.  With one usable
    CPU (restrict the process with ``taskset`` to get that) both halves
    run in the calling thread.  The helper never calls :meth:`forward` or
    :meth:`adjoint` itself, so wrappers around those methods only ever
    run in the caller's thread.
    """

    def __init__(self, matrix):
        a = sparse.csr_matrix(matrix, dtype=float)
        if np.any(a.data == 0.0):
            # A float CSR argument shares its buffers with ``a``, and
            # eliminate_zeros works in place: copy only when it has work.
            a = a.copy()
            a.eliminate_zeros()
        if a.nnz and a.data.min() < 0.0:
            raise ValueError("operator entries must be nonnegative")
        row_nnz = np.diff(a.indptr)
        if np.any(row_nnz == 0):
            bad = int(np.argmin(row_nnz))
            raise ValueError(f"operator has an all-zero row (row {bad})")
        self._matrix = a
        # A CSC view of the same three arrays: the adjoint's matrix, built
        # once instead of per call, at no cost in memory.
        self._transpose = a.T
        # A^T 1, for bounds that need the sum of A x as c^T x; formed once
        # here, so it is not counted as an adjoint application.
        self._column_sums = self._transpose @ np.ones(a.shape[0])
        self._column_sums.flags.writeable = False
        self.split_row = (
            int(np.searchsorted(a.indptr, a.nnz // 2)) if a.nnz >= SPLIT_NNZ else None
        )
        self.forward_count = 0
        self.adjoint_count = 0

    @property
    def shape(self) -> tuple[int, int]:
        return self._matrix.shape

    @property
    def rows(self) -> int:
        return self._matrix.shape[0]

    @property
    def cols(self) -> int:
        return self._matrix.shape[1]

    @property
    def nnz(self) -> int:
        return self._matrix.nnz

    def forward(self, x) -> np.ndarray:
        """Apply the operator; increments the forward counter."""
        self.forward_count += 1
        if self.split_row is None:
            return self._matrix @ np.asarray(x, dtype=float)
        x = self._vector(x, self.cols)
        a, r = self._matrix, self.split_row
        out = np.zeros(self.rows)

        def rows(lo, hi):
            # csr_matvec adds row i of A times x into out[i]; indptr holds
            # absolute offsets, so indices and data need no slicing.
            return lambda: _sparsetools.csr_matvec(
                hi - lo, self.cols, a.indptr[lo:], a.indices, a.data, x, out[lo:hi]
            )

        _run_halves(rows(0, r), rows(r, self.rows))
        return out

    def adjoint(self, y) -> np.ndarray:
        """Apply the transpose; increments the adjoint counter."""
        self.adjoint_count += 1
        if self.split_row is None:
            return self._transpose @ np.asarray(y, dtype=float)
        y = self._vector(y, self.rows)
        a, r = self._matrix, self.split_row
        out, bottom = np.zeros(self.cols), np.zeros(self.cols)

        def rows(lo, hi, acc):
            # csc_matvec on A's arrays is A^T restricted to rows lo..hi of A,
            # added into acc in row order.
            return lambda: _sparsetools.csc_matvec(
                self.cols, hi - lo, a.indptr[lo:], a.indices, a.data, y[lo:hi], acc
            )

        _run_halves(rows(0, r, out), rows(r, self.rows, bottom))
        out += bottom
        return out

    @staticmethod
    def _vector(v, length: int) -> np.ndarray:
        # The raw kernels read without bounds checks: only an exact vector passes.
        v = np.ascontiguousarray(v, dtype=float)
        if v.shape != (length,):
            raise ValueError(f"dimension mismatch: expected shape ({length},), got {v.shape}")
        return v

    def describe(self) -> dict:
        """Shape, stored entries, and how products run on this host."""
        split = self.split_row is not None
        return {
            "shape": list(self.shape),
            "nnz": self.nnz,
            "split_products": split,
            "helper_thread": split and usable_cpus() > 1,
        }

    def application_count(self) -> int:
        return self.forward_count + self.adjoint_count

    def reset_counts(self) -> None:
        self.forward_count = 0
        self.adjoint_count = 0

    def column_sums(self) -> np.ndarray:
        """``A^T 1``, formed at construction (read-only)."""
        return self._column_sums

    def toarray(self) -> np.ndarray:
        return self._matrix.toarray()

    def to_matrix_market(self, path) -> None:
        """Write the matrix as a Matrix Market coordinate file.

        17 significant digits guarantee exact float64 round trips.
        """
        from scipy.io import mmwrite  # imported on use: scipy.io costs 1.4 MB of memory

        mmwrite(str(path), self._matrix.tocoo(), precision=17)

    @classmethod
    def from_matrix_market(cls, path) -> "SparseOperator":
        from scipy.io import mmread

        return cls(mmread(str(path)))
