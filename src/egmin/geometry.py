"""Riemannian structures on the positive orthant.

Two diagonal metrics are supported: the Fisher-Rao metric ``diag(1/x)`` of
the Poisson family and the interior-point metric ``diag(1/x^2)`` obtained
as the Hessian of the log barrier.  Both structures share the same
geodesics ``x * exp(tau * v / x)``, so a single exponential map and
parallel transport serve both; they differ only in inner products and in
how Euclidean gradients are rescaled into Riemannian ones.

Points and tangents are plain 1-d float64 arrays.  Manifold membership
(strict positivity, finiteness) is checked once at construction through
:func:`as_point`, not inside hot loops.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable

import numpy as np

# Largest safe argument to exp in float64; anything beyond is clamped and
# the step is flagged so that a line search can reject it.
EXP_ARG_MAX = 700.0

# Saturation ceiling for coordinates whose product x * exp(z) still
# overflows after the exponent clamp.
POINT_CEILING = 1e300


class GeometryKind(Enum):
    """Metric structure on the positive orthant."""

    POISSON_FISHER_RAO = "poisson"    # metric diag(1/x)
    INTERIOR_POINT = "interior_point"  # metric diag(1/x^2)


def as_point(coords) -> np.ndarray:
    """Validate and return a point of the positive orthant.

    Parameters
    ----------
    coords : array_like
        Candidate coordinates.

    Returns
    -------
    ndarray
        1-d float64 array with strictly positive, finite entries.

    Raises
    ------
    ValueError
        If any coordinate is non-positive, NaN or infinite.
    """
    x = np.atleast_1d(np.asarray(coords, dtype=float))
    if x.ndim != 1:
        raise ValueError(f"point must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("point has non-finite coordinates")
    if np.any(x <= 0.0):
        bad = int(np.argmin(x))
        raise ValueError(f"point must be strictly positive; coordinate {bad} is {x[bad]}")
    return x


def _metric_weights(kind: GeometryKind, x: np.ndarray) -> np.ndarray:
    if kind is GeometryKind.POISSON_FISHER_RAO:
        return 1.0 / x
    return 1.0 / (x * x)


def metric_inner(kind: GeometryKind, x, u, v) -> float:
    """Inner product <u, G(x) v> with G(x) = diag(1/x) or diag(1/x^2)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (x.shape == u.shape == v.shape):
        raise ValueError(
            f"dimension mismatch: x {x.shape}, u {u.shape}, v {v.shape}"
        )
    return float(np.sum(u * v * _metric_weights(kind, x)))


def riemannian_grad(kind: GeometryKind, x, euclid_grad) -> np.ndarray:
    """Metric rescaling of a Euclidean gradient.

    Returns ``x * g`` under the Fisher-Rao metric and ``x**2 * g`` under
    the interior-point metric, the unique tangent satisfying
    ``<result, v>_G = <g, v>`` for all tangents ``v``.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(euclid_grad, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, grad {g.shape}")
    if kind is GeometryKind.POISSON_FISHER_RAO:
        return x * g
    return x * x * g


class ExpMapResult:
    """Outcome of a geodesic step, with per-coordinate failure flags.

    ``clamped`` marks coordinates whose exponent hit the overflow clamp
    (or whose value saturated at the ceiling); ``underflow`` marks
    coordinates that rounded to exactly zero and therefore left the
    manifold.  Any flagged coordinate makes the step unusable as an
    accepted iterate.  A step built without flag arrays has no flagged
    coordinate; its flags are all-false arrays, made on access.
    """

    __slots__ = ("point", "_clamped", "_underflow")

    def __init__(self, point: np.ndarray, clamped: np.ndarray | None = None,
                 underflow: np.ndarray | None = None):
        self.point = point
        self._clamped = clamped
        self._underflow = underflow

    @property
    def clamped(self) -> np.ndarray:
        if self._clamped is None:
            return np.zeros(np.shape(self.point), dtype=bool)
        return self._clamped

    @property
    def underflow(self) -> np.ndarray:
        if self._underflow is None:
            return np.zeros(np.shape(self.point), dtype=bool)
        return self._underflow

    @property
    def ok(self) -> bool:
        if self._clamped is None and self._underflow is None:
            return True  # built without flags
        return not (bool(self.clamped.any()) or bool(self.underflow.any()))


# A prepared step needs no flag when max(x) * e**max(z) is at most
# _CEILING_PROVEN and min(x) * e**min(z) at least _FLOOR_PROVEN.  The
# ceiling's slack, 2**-40 relative, covers numpy's and libm's exp (each
# within 2**-43, about a thousand ulps) and two product roundings; the
# floor, the smallest normal float, is 2**52 above the products that
# round to zero.
_CEILING_PROVEN = POINT_CEILING * (1.0 - 2.0**-40)
_FLOOR_PROVEN = 2.0**-1022


class Geodesic:
    """The curve ``tau -> x * exp(w * tau)``, with what all its steps share
    formed once: ``w`` and the extremes of ``w`` and ``x``.
    ``Geodesic.along(x, v)`` is the geodesic of :func:`exp_map`, ``w = v / x``.

    Rounding is monotone, so ``tau`` times the extremes of ``w`` are the
    extremes of ``z = w * tau`` bit for bit.  A step tests
    ``|z| <= EXP_ARG_MAX`` on them and, in Python floats (an overflow is
    ``inf`` and raises nothing), proves every coordinate positive and at
    most ``POINT_CEILING`` from ``max(x) e**max(z)`` and
    ``min(x) e**min(z)``; it then forms ``x * exp(z)`` with no reduction,
    no flag array and no ``np.errstate``.  Otherwise it checks the point
    itself, or flags it as :func:`multiplicative_update` says: the result
    is the same bit for bit on every path.
    """

    __slots__ = ("x", "w", "_extremes")

    def __init__(self, x, w):
        x = np.asarray(x, dtype=float)
        w = np.asarray(w, dtype=float)
        self.x, self.w, self._extremes = x, w, None
        if x.ndim == 1 and w.shape == x.shape and x.size:
            self._extremes = (float(w.max()), float(w.min()), float(x.max()), float(x.min()))

    @classmethod
    def along(cls, x, v) -> "Geodesic":
        x = np.asarray(x, dtype=float)
        return cls(x, np.asarray(v, dtype=float) / x)

    def step(self, tau: float) -> ExpMapResult:
        """``x * exp(w * tau)`` with the overflow policy of
        :func:`multiplicative_update`."""
        x, w = self.x, self.w
        if self._extremes is not None:
            tau = float(tau)
            w_max, w_min, x_max, x_min = self._extremes
            a, b = tau * w_max, tau * w_min  # NaN fails the test below
            if -EXP_ARG_MAX <= a <= EXP_ARG_MAX and -EXP_ARG_MAX <= b <= EXP_ARG_MAX:
                z_max, z_min = (a, b) if a >= b else (b, a)
                point = np.multiply(w, tau)
                np.exp(point, out=point)
                if (x_max * math.exp(z_max) <= _CEILING_PROVEN
                        and x_min * math.exp(z_min) >= _FLOOR_PROVEN):
                    point *= x
                    return ExpMapResult(point)
                with np.errstate(over="ignore"):
                    point *= x
                if point.max() <= POINT_CEILING and point.min() > 0.0:
                    return ExpMapResult(point)
        with np.errstate(over="ignore"):  # an infinite exponent is clamped and flagged
            z = w * tau
        return _flagged_update(x, z)


def _flagged_update(x: np.ndarray, z: np.ndarray) -> ExpMapResult:
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, exponent {z.shape}")
    clamped = np.abs(z) > EXP_ARG_MAX
    with np.errstate(over="ignore"):
        point = x * np.exp(np.clip(z, -EXP_ARG_MAX, EXP_ARG_MAX))
    over = ~np.isfinite(point) | (point > POINT_CEILING)
    if over.any():
        point = np.where(over, POINT_CEILING, point)
        clamped = clamped | over
    underflow = point == 0.0
    return ExpMapResult(point=point, clamped=clamped, underflow=underflow)


def multiplicative_update(x, exponent) -> ExpMapResult:
    """Compute ``x * exp(exponent)`` elementwise with overflow policy.

    Exponent entries outside ``[-EXP_ARG_MAX, EXP_ARG_MAX]`` are clamped
    and flagged; coordinates that still overflow are saturated at
    ``POINT_CEILING`` and flagged; coordinates that underflow to zero are
    flagged rather than silently projected back onto the manifold.  When
    nothing needs a flag, the step skips the clamp and builds no flag
    arrays; the point is the same either way.  This is one step of
    :class:`Geodesic` ``(x, exponent)`` at ``tau = 1``.
    """
    return Geodesic(x, exponent).step(1.0)


def exp_map(x, v, tau: float, geodesic: Geodesic | None = None) -> ExpMapResult:
    """Geodesic step ``x * exp(tau * v / x)``.

    The same map serves both geometries: the interior-point metric
    geodesics coincide with the Fisher-Rao exponential-family geodesics.
    ``exp_map(x, v, 0)`` returns ``x`` exactly; in exact arithmetic the
    result is strictly positive for every ``tau``.  The exponent is
    ``(v / x) * tau`` bit for bit, with the overflow policy of
    :func:`multiplicative_update`.

    ``geodesic``, when given, must be ``Geodesic.along(x, v)``: the steps
    of one line search share it, so each forms only its own point (see
    :class:`Geodesic`); ``x`` and ``v`` are then not read.
    """
    if geodesic is None:
        geodesic = Geodesic.along(x, v)
    return geodesic.step(tau)


def transport_e(x, x_new, v) -> np.ndarray:
    """Parallel transport ``v -> (x_new / x) * v`` along the shared geodesics.

    This is the differential of the exponential map; transporting from a
    point to itself is the identity.
    """
    x = np.asarray(x, dtype=float)
    x_new = np.asarray(x_new, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (x.shape == x_new.shape == v.shape):
        raise ValueError(
            f"dimension mismatch: x {x.shape}, x_new {x_new.shape}, v {v.shape}"
        )
    return v * (x_new / x)


def m_hessian_apply(
    x, euclid_grad, hess_vec: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """Second-order correction term of the gradient flow along geodesics.

    Returns ``x * g**2 + x * hess_vec(x * g)`` where ``hess_vec`` applies
    the Euclidean Hessian at ``x`` and ``x * g`` is the Fisher-Rao
    Riemannian gradient.  To first order, the Riemannian gradient along
    the descent geodesic evolves as ``rgrad(x(tau)) ~ rgrad(x) - tau * H``.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(euclid_grad, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, grad {g.shape}")
    return x * g * g + x * np.asarray(hess_vec(x * g), dtype=float)
