"""Desk-scale parallel-beam tomographic projector.

Rays are traced through a square pixel grid with the crossing-point method
of Siddon (Med. Phys. 1985): the intersection parameters of a ray with all
horizontal and vertical gridlines are merged and sorted, and every segment
between two consecutive crossings contributes its length as the weight of
the pixel its midpoint lies in.  The image occupies ``[-n/2, n/2]^2`` with
unit pixels; each of the equidistant angles in ``[0, 2*pi)`` gets one
detector bin per pixel column, offset so that axis-aligned rays pass
through pixel centers.

All rays of one angle share their direction, so they are traced together
with the same array operations: the crossing parameters of one angle form
an ``(n_det, 2n + 4)`` array that is sorted row by row.  Rays come out in
row order, so the CSR arrays are assembled directly from the per-ray
segment counts; rays that miss the image never become rows.
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .operators import SparseOperator

_PARALLEL_EPS = 1e-12
_MIN_SEGMENT = 1e-12


def _trace_angle(theta: float, offsets: np.ndarray, n: int):
    """Pixel indices and intersection lengths of all rays of one angle.

    Ray ``k`` is ``p(t) = offsets[k] * (-dy, dx) + t * (dx, dy)`` with the
    unit direction ``(dx, dy) = (cos theta, sin theta)``, so parameter
    differences are Euclidean lengths.  Returns the segment count of every
    ray, then the pixel index and length of every segment, ray by ray and
    in order of increasing ``t`` along each ray.
    """
    h = 0.5 * n
    dx, dy = np.cos(theta), np.sin(theta)
    p0x, p0y = -offsets * dy, offsets * dx
    # Slab intersection with the image square.
    t_enter = np.full(offsets.size, -np.inf)
    t_exit = np.full(offsets.size, np.inf)
    inside = np.ones(offsets.size, dtype=bool)
    lines = np.arange(n + 1) - h
    crossings = []
    for p, d in ((p0x, dx), (p0y, dy)):
        if abs(d) < _PARALLEL_EPS:
            inside &= (-h <= p) & (p <= h)
        else:
            t1, t2 = (-h - p) / d, (h - p) / d
            t_enter = np.maximum(t_enter, np.minimum(t1, t2))
            t_exit = np.minimum(t_exit, np.maximum(t1, t2))
            crossings.append((lines - p[:, None]) / d)
    hit = inside & (t_exit - t_enter > _MIN_SEGMENT)

    t = np.column_stack([t_enter, t_exit, *crossings])
    # Crossings outside the chord collapse onto its end points, where they
    # bound only zero-length segments; so do repeated crossings.  Dropping
    # those leaves exactly the segments between distinct sorted crossings.
    np.clip(t, t_enter[:, None], t_exit[:, None], out=t)
    t.sort(axis=1)
    dt = np.diff(t, axis=1)
    keep = (dt > _MIN_SEGMENT) & hit[:, None]
    t_mid = 0.5 * (t[:, :-1] + t[:, 1:])[keep]
    counts = np.count_nonzero(keep, axis=1)
    ray = np.repeat(np.arange(offsets.size), counts)
    cols = np.clip(np.floor(p0x[ray] + t_mid * dx + h).astype(np.int64), 0, n - 1)
    rows = np.clip(np.floor(p0y[ray] + t_mid * dy + h).astype(np.int64), 0, n - 1)
    return counts, rows * n + cols, dt[keep]


def build_projector(
    n_side: int, n_angles: int | None = None, undersampling: float = 0.2
) -> SparseOperator:
    """Assemble the sparse line-integral matrix.

    Parameters
    ----------
    n_side : int
        Image side length in pixels (>= 4); also the detector count per angle.
    n_angles : int, optional
        Number of view angles.  Defaults to ``round(undersampling * n_side)``
        so that the measurement count is about ``undersampling * n_side**2``.
    undersampling : float
        Target ratio of measurements to unknowns when ``n_angles`` is not given.

    Rays that miss the image would give all-zero rows and are dropped, so the
    returned operator maps strictly positive images to strictly positive data.
    """
    if n_side < 4:
        raise ValueError(f"n_side must be at least 4, got {n_side}")
    if n_angles is None:
        if not 0.0 < undersampling <= 1.0:
            raise ValueError(f"undersampling must be in (0, 1], got {undersampling}")
        n_angles = max(1, round(undersampling * n_side))
    if n_angles < 1:
        raise ValueError(f"n_angles must be positive, got {n_angles}")

    n_det = n_side
    offsets = np.arange(n_det) - 0.5 * (n_det - 1)
    # Pixel indices are narrowed per angle, so no full-size int64 array is kept.
    index_dtype = np.int32 if n_side * n_side <= np.iinfo(np.int32).max else np.int64
    counts, pixels, lengths = [], [], []
    for a in range(n_angles):
        c, pix, w = _trace_angle(2.0 * np.pi * a / n_angles, offsets, n_side)
        counts.append(c)
        pixels.append(pix.astype(index_dtype))
        lengths.append(w)

    counts = np.concatenate(counts)
    counts = counts[counts > 0]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    a = sparse.csr_matrix(
        (np.concatenate(lengths), np.concatenate(pixels), indptr),
        shape=(counts.size, n_side * n_side),
    )
    # Rows list pixels in the order their rays meet them: bring the matrix to
    # canonical form (sorted column indices, any repeated pixel summed).
    a.sum_duplicates()
    return SparseOperator(a)
