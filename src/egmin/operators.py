"""Sparse nonnegative linear operators with application counting."""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.io import mmread, mmwrite


class SparseOperator:
    """Nonnegative sparse matrix with forward/adjoint application counters.

    Rows with no stored nonzero entry are rejected at construction: with
    strictly positive input every forward-product coordinate then stays
    strictly positive, which keeps KL-type data terms finite.  The column
    sums ``A^T 1`` are formed once at construction.  Counters are plain
    instance state and not thread-safe.
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
        # A^T 1, for bounds that need the sum of A x as c^T x; formed once
        # here, so it is not counted as an adjoint application.
        self._column_sums = a.T @ np.ones(a.shape[0])
        self._column_sums.flags.writeable = False
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
        return self._matrix @ np.asarray(x, dtype=float)

    def adjoint(self, y) -> np.ndarray:
        """Apply the transpose; increments the adjoint counter."""
        self.adjoint_count += 1
        return self._matrix.T @ np.asarray(y, dtype=float)

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
        mmwrite(str(path), self._matrix.tocoo(), precision=17)

    @classmethod
    def from_matrix_market(cls, path) -> "SparseOperator":
        return cls(mmread(str(path)))
