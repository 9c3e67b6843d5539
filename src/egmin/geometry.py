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

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ExpMapResult:
    """Outcome of a geodesic step, with per-coordinate failure flags.

    ``clamped`` marks coordinates whose exponent hit the overflow clamp
    (or whose value saturated at the ceiling); ``underflow`` marks
    coordinates that rounded to exactly zero and therefore left the
    manifold.  Any flagged coordinate makes the step unusable as an
    accepted iterate.
    """

    point: np.ndarray
    clamped: np.ndarray
    underflow: np.ndarray

    @property
    def ok(self) -> bool:
        return not (bool(self.clamped.any()) or bool(self.underflow.any()))


def multiplicative_update(x, exponent) -> ExpMapResult:
    """Compute ``x * exp(exponent)`` elementwise with overflow policy.

    Exponent entries outside ``[-EXP_ARG_MAX, EXP_ARG_MAX]`` are clamped
    and flagged; coordinates that still overflow are saturated at
    ``POINT_CEILING`` and flagged; coordinates that underflow to zero are
    flagged rather than silently projected back onto the manifold.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(exponent, dtype=float)
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


def exp_map(x, v, tau: float) -> ExpMapResult:
    """Geodesic step ``x * exp(tau * v / x)``.

    The same map serves both geometries: the interior-point metric
    geodesics coincide with the Fisher-Rao exponential-family geodesics.
    ``exp_map(x, v, 0)`` returns ``x`` exactly; in exact arithmetic the
    result is strictly positive for every ``tau``.
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    return multiplicative_update(x, tau * (v / x))


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
