"""The per-angle projector against a ray-by-ray reference builder.

The reference traces one ray at a time, merges its crossings with
``np.unique`` and assembles the matrix through COO lists, a COO -> CSR
conversion and a slice that drops the empty rows.  The per-angle builder
must reproduce its CSR arrays bit for bit, also where it builds in two
halves (n_side 128 and up).  At n_side 256 the reference is too slow;
there the arrays are pinned by their sha256 digests, taken from the
one-thread build, which the two-half build must reproduce on one CPU and
on two.
"""

import hashlib
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from egmin import SparseOperator, build_projector
from egmin.operators import SPLIT_NNZ

_PARALLEL_EPS = 1e-12
_MIN_SEGMENT = 1e-12


def _trace_ray(p0x, p0y, dx, dy, n):
    """Pixel indices and intersection lengths of one ray through the grid."""
    h = 0.5 * n
    t_enter, t_exit = -np.inf, np.inf
    for p, d in ((p0x, dx), (p0y, dy)):
        if abs(d) < _PARALLEL_EPS:
            if not -h <= p <= h:
                return np.empty(0, dtype=np.int64), np.empty(0)
        else:
            t1, t2 = (-h - p) / d, (h - p) / d
            t_enter = max(t_enter, min(t1, t2))
            t_exit = min(t_exit, max(t1, t2))
    if not t_exit - t_enter > _MIN_SEGMENT:
        return np.empty(0, dtype=np.int64), np.empty(0)

    lines = np.arange(n + 1) - h
    ts = [np.array([t_enter, t_exit])]
    for p, d in ((p0x, dx), (p0y, dy)):
        if abs(d) >= _PARALLEL_EPS:
            t = (lines - p) / d
            ts.append(t[(t > t_enter) & (t < t_exit)])
    t_all = np.unique(np.concatenate(ts))

    dt = np.diff(t_all)
    keep = dt > _MIN_SEGMENT
    t_mid = 0.5 * (t_all[:-1] + t_all[1:])[keep]
    cols = np.clip(np.floor(p0x + t_mid * dx + h).astype(np.int64), 0, n - 1)
    rows = np.clip(np.floor(p0y + t_mid * dy + h).astype(np.int64), 0, n - 1)
    return rows * n + cols, dt[keep]


def reference_projector(n_side, n_angles=None, undersampling=0.2):
    if n_angles is None:
        n_angles = max(1, round(undersampling * n_side))
    n_det = n_side
    offsets = np.arange(n_det) - 0.5 * (n_det - 1)
    row_idx, col_idx, vals = [], [], []
    for a in range(n_angles):
        theta = 2.0 * np.pi * a / n_angles
        dx, dy = np.cos(theta), np.sin(theta)
        for d, u in enumerate(offsets):
            pix, w = _trace_ray(-u * dy, u * dx, dx, dy, n_side)
            if pix.size:
                row = a * n_det + d
                row_idx.append(np.full(pix.size, row, dtype=np.int64))
                col_idx.append(pix)
                vals.append(w)

    m_full = n_angles * n_det
    a = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(row_idx), np.concatenate(col_idx))),
        shape=(m_full, n_side * n_side),
    ).tocsr()
    nonzero_rows = np.diff(a.indptr) > 0
    return SparseOperator(a[nonzero_rows])


def assert_bit_identical(built, reference):
    # The CSR arrays are not public; reading them is the point of this check.
    got, want = built._matrix, reference._matrix
    assert got.shape == want.shape
    assert got.has_canonical_format
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("n_side", [4, 8, 9, 17, 64, 128])
def test_default_angles_match_reference(n_side):
    assert_bit_identical(build_projector(n_side), reference_projector(n_side))


@pytest.mark.parametrize("n_side", [8, 12])
@pytest.mark.parametrize("n_angles", [1, 2, 4, 7, 8])
def test_angle_counts_match_reference(n_side, n_angles):
    # With 4 angles, theta = pi/2 and 3*pi/2 leave |cos theta| ~ 6e-17 and
    # take the branch for rays parallel to the y axis.
    undersampling = n_angles / n_side
    assert round(undersampling * n_side) == n_angles
    assert_bit_identical(
        build_projector(n_side, undersampling=undersampling),
        reference_projector(n_side, n_angles=n_angles),
    )


def test_build_holds_one_copy_of_the_matrix():
    # Each angle writes into arrays sized once for the whole build, so the
    # peak is the matrix plus one angle's work arrays, not two matrices.
    build_projector(64)  # keep first-call allocations out of the measurement
    tracemalloc.start()
    try:
        built = build_projector(64)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = built._matrix
    assert peak < 1.5 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


# sha256 of indptr, indices and data (int32, int32, float64) of the
# default build, taken from the one-thread build.
GOLDEN_CSR = {
    64: (
        "1628b06d83b8a4f569f73e9a8fa065780f0231ef55f6f115f1f41631625142bb",
        "b9e0c1597df68ca890ee95f78f1acbe9dce173272af986596ad1328e53117b0b",
        "642e720743ec035eacbfef6a24c8d8c530cfd6c5017f7c71120609b6be21e020",
    ),
    128: (
        "ed5c79f5bf7fe307eccc8a7d5250950c37bb383c4dfab531990db84d251808c9",
        "d629ebf732a2dcfe463497cd45a07c7fa77b47178b478a68f9a5ae10bd63f60a",
        "009fb9dd69b667d93175ee70a2e099502dca8a793676e913c84abf0d81d11425",
    ),
    256: (
        "8c7f7de6ad6f1cbb6cc1864b75962f10259d90be2cc86eef26a22d51dd87af29",
        "01d918f8c01b10913ffc8eab615d31dc31679ea8bfc907127d70ab6fee6753d4",
        "5d2c7e31e28bdae714d7c3408d88ff21973f41519a34e6f9d60988162ec29613",
    ),
}


def csr_digests(op):
    m = op._matrix
    return tuple(hashlib.sha256(array.tobytes()).hexdigest() for array in (m.indptr, m.indices, m.data))


@pytest.fixture(scope="module")
def tomo256():
    return build_projector(256)


@pytest.mark.parametrize("n_side", sorted(GOLDEN_CSR))
def test_csr_arrays_match_the_golden_digests(n_side, tomo256):
    op = tomo256 if n_side == 256 else build_projector(n_side)
    assert (op.nnz >= SPLIT_NNZ) == (n_side >= 128)  # 128 and 256 are built in two halves
    assert op._matrix.has_canonical_format
    assert csr_digests(op) == GOLDEN_CSR[n_side]


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs CPU affinity")
def test_one_cpu_builds_the_same_bytes(tomo256):
    cpu = min(os.sched_getaffinity(0))
    script = textwrap.dedent(
        f"""
        import hashlib, os, threading
        os.sched_setaffinity(0, {{{cpu}}})
        from egmin import build_projector
        m = build_projector(256)._matrix
        for array in (m.indptr, m.indices, m.data):
            print(hashlib.sha256(array.tobytes()).hexdigest())
        assert threading.active_count() == 1, threading.enumerate()
        """
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    pinned = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, env=env, text=True, timeout=120, check=True,
    )
    assert tuple(pinned.stdout.split()) == csr_digests(tomo256)


def test_two_half_build_holds_one_copy_of_the_matrix(tomo256):
    # Two angles' work arrays are in flight at once, and the second half
    # moves down within the arrays it was traced into.  (The fixture's
    # build keeps first-call allocations out of the measurement.)
    tracemalloc.start()
    try:
        built = build_projector(256)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    m = built._matrix
    assert peak < 1.5 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)
