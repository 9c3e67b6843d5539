"""Desk-scale parallel-beam tomographic projector.

Rays are traced through a square pixel grid with the crossing-point method
of Siddon (Med. Phys. 1985): the intersection parameters of a ray with all
horizontal and vertical gridlines are merged and sorted, and every segment
between two consecutive crossings contributes its length as the weight of
the pixel its midpoint lies in.  The image occupies ``[-n/2, n/2]^2`` with
unit pixels.  The undersampling ratio alone sets the number of
equidistant angles in ``[0, 2*pi)``, ``max(1, round(undersampling * n))``;
each angle gets one detector bin per pixel column, offset so that
axis-aligned rays pass through pixel centers.

All rays of one angle share their direction, so they are traced together
with the same array operations: the crossing parameters of one angle form
an ``(n_det, 2n + 4)`` array that is sorted row by row.  Rays come out in
row order, so the CSR arrays are assembled directly from the per-ray
segment counts; rays that miss the image never become rows.  The chords
bound the segment count of the whole matrix before any ray is traced, so
the CSR arrays are allocated once and every angle is written into them.

When that bound reaches ``SPLIT_NNZ = 2**18``, the size at which the
operator's products split (:mod:`egmin.operators`), the build runs in two
halves on the same helper thread.  The first half of the angles writes
from offset 0 and the second from the sum of the first half's bounds;
one copy then closes the gap between them.  The column sort that brings
the matrix to canonical form runs on the two row halves of the finished
arrays.  Tracing and sorting are per ray and per row, so the arrays are
bit for bit those of the one-thread build, on one CPU or on two.  Below
the bound the build stays on the calling thread.
"""

from __future__ import annotations

from functools import partial

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from .operators import SPLIT_NNZ, SparseOperator, _run_halves

_PARALLEL_EPS = 1e-12
_MIN_SEGMENT = 1e-12


def _chords(theta: float, offsets: np.ndarray, n: int):
    """Start points, unit direction and image chord of every ray of one angle.

    Ray ``k`` is ``p(t) = offsets[k] * (-dy, dx) + t * (dx, dy)`` with the
    unit direction ``(dx, dy) = (cos theta, sin theta)``, so parameter
    differences are Euclidean lengths.  The chord is the slab intersection
    ``[t_enter, t_exit]`` with the image square; ``hit`` marks the rays
    whose chord is longer than ``_MIN_SEGMENT``.
    """
    h = 0.5 * n
    dx, dy = np.cos(theta), np.sin(theta)
    p0x, p0y = -offsets * dy, offsets * dx
    t_enter = np.full(offsets.size, -np.inf)
    t_exit = np.full(offsets.size, np.inf)
    inside = np.ones(offsets.size, dtype=bool)
    for p, d in ((p0x, dx), (p0y, dy)):
        if abs(d) < _PARALLEL_EPS:
            inside &= (-h <= p) & (p <= h)
        else:
            t1, t2 = (-h - p) / d, (h - p) / d
            t_enter = np.maximum(t_enter, np.minimum(t1, t2))
            t_exit = np.minimum(t_exit, np.maximum(t1, t2))
    hit = inside & (t_exit - t_enter > _MIN_SEGMENT)
    return p0x, p0y, dx, dy, t_enter, t_exit, hit


def _segment_bound(chords) -> int:
    """An upper bound on the number of segments of one angle's rays.

    Gridlines of one axis lie one unit apart, so a chord of length ``L``
    crosses at most ``floor(|d| L) + 1`` of them strictly inside; a ray has
    one segment more than its distinct inner crossings.  Two more per ray
    absorb crossings that rounding moves just inside the chord.
    """
    _, _, dx, dy, t_enter, t_exit, hit = chords
    length = (t_exit - t_enter)[hit]
    per_axis = np.floor(abs(dx) * length) + np.floor(abs(dy) * length)
    return int(per_axis.sum()) + 5 * length.size


def _trace_angle(chords, n: int):
    """Pixel indices and intersection lengths of all rays of one angle.

    Returns the segment count of every ray, then the pixel index and
    length of every segment, ray by ray and in order of increasing ``t``
    along each ray.

    Differences and midpoints of neighbouring crossings are taken on the
    flattened crossing array, whose last column per row then pairs two
    rays and is masked out: numpy buffers ufunc operands that are not
    contiguous, and at desk scale those buffers would outgrow the angle.
    """
    p0x, p0y, dx, dy, t_enter, t_exit, hit = chords
    h = 0.5 * n
    lines = np.arange(n + 1) - h
    axes = [(p, d) for p, d in ((p0x, dx), (p0y, dy)) if abs(d) >= _PARALLEL_EPS]
    # Chord ends, then the crossing parameters of every gridline of each
    # axis the rays are not parallel to.
    t = np.empty((p0x.size, 2 + len(axes) * (n + 1)))
    t[:, 0], t[:, 1] = t_enter, t_exit
    for i, (p, d) in enumerate(axes):
        np.divide(lines - p[:, None], d, out=t[:, 2 + i * (n + 1): 2 + (i + 1) * (n + 1)])
    # Crossings outside the chord collapse onto its end points, where they
    # bound only zero-length segments; so do repeated crossings.  Dropping
    # those leaves exactly the segments between distinct sorted crossings.
    np.clip(t, t_enter[:, None], t_exit[:, None], out=t)
    t.sort(axis=1)
    flat = t.ravel()
    pair = np.empty_like(t)  # pair[i, j] combines t[i, j] and t[i, j + 1]
    pair[-1, -1] = 0.0  # the one entry no neighbour pair writes
    np.subtract(flat[1:], flat[:-1], out=pair.ravel()[:-1])
    keep = pair > _MIN_SEGMENT
    keep[:, -1] = False
    keep &= hit[:, None]
    lengths = pair[keep]
    np.add(flat[:-1], flat[1:], out=pair.ravel()[:-1])
    t_mid = pair[keep]
    t_mid *= 0.5
    del t, flat, pair
    counts = np.count_nonzero(keep, axis=1)
    pixels = _grid_index(p0y, counts, t_mid, dy, h, n)
    pixels *= n
    pixels += _grid_index(p0x, counts, t_mid, dx, h, n)
    return counts, pixels, lengths


def _grid_index(p0, counts, t_mid: np.ndarray, d: float, h: float, n: int) -> np.ndarray:
    """Pixel index along one axis of the segment midpoints ``p0 + t_mid * d``."""
    u = t_mid * d
    u += np.repeat(p0, counts)
    u += h
    np.floor(u, out=u)
    index = u.astype(np.int64)
    return np.clip(index, 0, n - 1, out=index)


def _write_angle(chords, n: int, counts, pixels, lengths, start: int) -> int:
    """Trace one angle into ``counts`` and into ``pixels``/``lengths`` from
    ``start``; returns the end of what it wrote.  (A function of its own, so
    the angle's arrays are freed before the next angle is traced.)"""
    c, pix, w = _trace_angle(chords, n)
    end = start + w.size
    if end > pixels.size:
        raise RuntimeError("projector segment bound exceeded")  # a bug in _segment_bound
    counts[:] = c
    pixels[start:end] = pix
    lengths[start:end] = w
    return end


def _write_angles(chords, angles: range, n: int, counts, pixels, lengths) -> int:
    """Trace ``angles`` in order, angle ``a`` into row ``a`` of ``counts`` and
    the segments into ``pixels``/``lengths`` from 0; returns their count."""
    end = 0
    for a in angles:
        end = _write_angle(chords[a], n, counts[a], pixels, lengths, end)
    return end


def check_n_side(n_side: int) -> None:
    """Raise ``ValueError`` unless ``n_side >= 4``, the smallest image side
    that the projector and the phantom take."""
    if n_side < 4:
        raise ValueError(f"n_side must be at least 4, got {n_side}")


def check_geometry(n_side: int, undersampling: float) -> None:
    """Raise ``ValueError`` unless ``n_side >= 4`` and ``undersampling`` is in ``(0, 1]``."""
    check_n_side(n_side)
    if not 0.0 < undersampling <= 1.0:
        raise ValueError(f"undersampling must be in (0, 1], got {undersampling}")


def build_projector(n_side: int, undersampling: float = 0.2) -> SparseOperator:
    """Assemble the sparse line-integral matrix.

    Parameters
    ----------
    n_side : int
        Image side length in pixels (>= 4); also the detector count per angle.
    undersampling : float
        Target ratio of measurements to unknowns, in ``(0, 1]``: the
        projector has ``max(1, round(undersampling * n_side))`` equidistant
        view angles, so that the measurement count is about
        ``undersampling * n_side**2``.

    Rays that miss the image would give all-zero rows and are dropped, so the
    returned operator maps strictly positive images to strictly positive data.
    Every angle writes its segments straight into arrays sized once, from
    the chords, for the whole build, so the build holds one copy of the
    matrix plus the work arrays of one angle (two angles when it is built
    in two halves).
    """
    check_geometry(n_side, undersampling)
    n_angles = max(1, round(undersampling * n_side))

    n_det = n_side
    offsets = np.arange(n_det) - 0.5 * (n_det - 1)
    chords = [_chords(2.0 * np.pi * a / n_angles, offsets, n_side) for a in range(n_angles)]
    bounds = [_segment_bound(c) for c in chords]
    capacity = sum(bounds)
    index_dtype = np.int32 if n_side * n_side <= np.iinfo(np.int32).max else np.int64
    pixels = np.empty(capacity, dtype=index_dtype)
    lengths = np.empty(capacity)
    counts = np.empty((n_angles, n_det), dtype=np.int64)
    split = capacity >= SPLIT_NNZ
    if split:
        # The second half of the angles writes from the sum of the first
        # half's bounds; each half's bound check guards its own part.  One
        # copy then moves the second half down to close the gap.
        half = n_angles // 2
        second = sum(bounds[:half])
        first, rest = range(half), range(half, n_angles)
        top, bottom = _run_halves(
            partial(_write_angles, chords, first, n_side, counts, pixels[:second], lengths[:second]),
            partial(_write_angles, chords, rest, n_side, counts, pixels[second:], lengths[second:]),
        )
        nnz = top + bottom
        pixels[top:nnz] = pixels[second: second + bottom]
        lengths[top:nnz] = lengths[second: second + bottom]
    else:
        nnz = _write_angles(chords, range(n_angles), n_side, counts, pixels, lengths)

    counts = counts[counts > 0]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    a = sparse.csr_matrix(
        (lengths[:nnz], pixels[:nnz], indptr),
        shape=(counts.size, n_side * n_side),
    )
    # Rows list pixels in the order their rays meet them: bring the matrix to
    # canonical form (sorted column indices, any repeated pixel summed).
    if split:
        # Sorting is row by row, so the two row halves sort apart, on views
        # of indptr, which holds absolute offsets.
        r = int(np.searchsorted(a.indptr, nnz // 2))
        _run_halves(
            partial(_sparsetools.csr_sort_indices, r, a.indptr, a.indices, a.data),
            partial(_sparsetools.csr_sort_indices, a.shape[0] - r, a.indptr[r:], a.indices, a.data),
        )
        a.has_sorted_indices = True
    a.sum_duplicates()
    return SparseOperator(a)
