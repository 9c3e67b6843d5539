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
from typing import Callable, NamedTuple

import numpy as np

# Largest safe argument to exp in float64: a step with an exponent beyond
# it is unusable, so that a line search rejects it.
EXP_ARG_MAX = 700.0

# Largest coordinate of a usable step.
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


def metric_inner(kind: GeometryKind, x, u, v) -> float:
    """Inner product <u, G(x) v> with G(x) = diag(1/x) or diag(1/x^2)."""
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if not (x.shape == u.shape == v.shape):
        raise ValueError(
            f"dimension mismatch: x {x.shape}, u {u.shape}, v {v.shape}"
        )
    weights = 1.0 / x if kind is GeometryKind.POISSON_FISHER_RAO else 1.0 / (x * x)
    return float(np.sum(u * v * weights))


def riemannian_grad(kind: GeometryKind, x, euclid_grad) -> np.ndarray:
    """Metric rescaling of a Euclidean gradient.

    Returns ``x * g`` under the Fisher-Rao metric and ``x**2 * g`` under
    the interior-point metric, the unique tangent satisfying
    ``<result, v>_G = <g, v>`` for all tangents ``v``.  The latter is
    ``(x * x) * g``, with the second product made in place.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(euclid_grad, dtype=float)
    if x.shape != g.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, grad {g.shape}")
    if kind is GeometryKind.POISSON_FISHER_RAO:
        return x * g
    rgrad = np.multiply(x, x)
    rgrad *= g
    return rgrad


class ExpMapResult(NamedTuple):
    """Outcome of a geodesic step: the point, and whether it is usable.

    A step is usable when every exponent ``|z| <= EXP_ARG_MAX`` and the
    point lies in ``(0, POINT_CEILING]``; an unusable step left the
    representable orthant (it overflowed, or a coordinate rounded to
    zero), and its point is unspecified.
    """

    point: np.ndarray
    ok: bool


def _same_shape(x, y) -> tuple[np.ndarray, np.ndarray]:
    x, y = np.atleast_1d(np.asarray(x, dtype=float)), np.atleast_1d(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: x {x.shape}, direction {y.shape}")
    return x, y


# A step is proven usable when max(x) * e**max(z) is at most _CEILING_PROVEN
# and min(x) * e**min(z) at least _FLOOR_PROVEN.  The ceiling's slack,
# 2**-40 relative, covers numpy's and libm's exp (each within 2**-43, about
# a thousand ulps) and two product roundings; the floor, the smallest
# normal float, is 2**52 above the products that round to zero.
_CEILING_PROVEN = POINT_CEILING * (1.0 - 2.0**-40)
_FLOOR_PROVEN = 2.0**-1022
# The ufunc reductions that ndarray.max and ndarray.min end in, called directly.
_max, _min = np.maximum.reduce, np.minimum.reduce


class Geodesic:
    """The curve ``tau -> x * exp(w * tau)``, with what all its steps share
    formed once: ``w`` and the extremes of ``w`` and ``x``.
    ``Geodesic.along(x, v)`` is the geodesic of :func:`exp_map`, ``w = v / x``.

    Rounding is monotone, so ``tau`` times the extremes of ``w`` are the
    extremes of ``z = w * tau`` bit for bit.  A step tests
    ``|z| <= EXP_ARG_MAX`` on them and, in Python floats (an overflow is
    ``inf`` and raises nothing), proves the point usable from
    ``max(x) e**max(z)`` and ``min(x) e**min(z)``; it then forms
    ``x * exp(z)`` with no reduction and no ``np.errstate``.  Otherwise it
    forms the point under ``np.errstate``, with the exponent clipped to
    ``[-EXP_ARG_MAX, EXP_ARG_MAX]`` when it is out of that range, and
    checks the point's own extremes.  A usable point is the same bit for
    bit on either path.
    """

    __slots__ = ("x", "w", "_extremes")

    def __init__(self, x, w):
        self._form(*_same_shape(x, w))

    def _form(self, x: np.ndarray, w: np.ndarray) -> "Geodesic":
        # x and w as _same_shape returns them.
        self.x, self.w = x, w
        self._extremes = (float(_max(w)), float(_min(w)), float(_max(x)), float(_min(x))) if x.size else None
        return self

    @classmethod
    def along(cls, x, v) -> "Geodesic":
        x, v = _same_shape(x, v)
        return cls.__new__(cls)._form(x, v / x)

    def step(self, tau: float) -> ExpMapResult:
        """``x * exp(w * tau)``, and whether it is usable (see :class:`ExpMapResult`)."""
        if self._extremes is None:  # an empty point: nothing can leave the orthant
            return ExpMapResult(self.x.copy(), True)
        tau = float(tau)
        w_max, w_min, x_max, x_min = self._extremes
        a, b = tau * w_max, tau * w_min
        z_max, z_min = (a, b) if a >= b else (b, a)  # a NaN fails every test below
        in_range = -EXP_ARG_MAX <= z_min and z_max <= EXP_ARG_MAX
        if (in_range and x_max * math.exp(z_max) <= _CEILING_PROVEN
                and x_min * math.exp(z_min) >= _FLOOR_PROVEN):
            point = np.multiply(self.w, tau)
            np.exp(point, out=point)
            point *= self.x
            return ExpMapResult(point, True)
        # A non-finite tau times a zero rate is NaN: unusable, and silent.
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.w * tau if in_range else np.clip(self.w * tau, -EXP_ARG_MAX, EXP_ARG_MAX)
            point = np.exp(z, out=z)
            point *= self.x
        return ExpMapResult(point, bool(in_range and _max(point) <= POINT_CEILING and _min(point) > 0.0))


def multiplicative_update(x, exponent) -> ExpMapResult:
    """``x * exp(exponent)`` elementwise, and whether it is usable.

    The step is unusable when an exponent entry lies outside
    ``[-EXP_ARG_MAX, EXP_ARG_MAX]``, when a coordinate overflows past
    ``POINT_CEILING``, or when one underflows to zero: such a point is
    rejected, never projected back onto the manifold.  This is one step
    of :class:`Geodesic` ``(x, exponent)`` at ``tau = 1``.
    """
    return Geodesic(x, exponent).step(1.0)


def exp_map(x, v, tau: float, geodesic: Geodesic | None = None) -> ExpMapResult:
    """Geodesic step ``x * exp(tau * v / x)``, and whether it is usable.

    The same map serves both geometries: the interior-point metric
    geodesics coincide with the Fisher-Rao exponential-family geodesics.
    ``exp_map(x, v, 0)`` returns ``x`` exactly; in exact arithmetic the
    result is strictly positive for every ``tau``.  The exponent is
    ``(v / x) * tau`` bit for bit, and the step is usable as
    :func:`multiplicative_update` says.

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
