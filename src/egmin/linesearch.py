"""Step-size policies along a retraction of the positive orthant.

A retraction moves from ``x`` along a direction by a step ``tau`` and
reports whether the trial point is usable: an overflowed or underflowed
exponential map and an infeasible quotient update are not.  It is
prepared once per search, ``trial = retract(x, d, grad)``, so that what
all trials along ``d`` share is formed once.  Armijo backtracking (along
the geodesic unless told otherwise) halves a trial step until the
sufficient-decrease inequality

    f(x_tau) <= f(x) + sigma * tau * <grad, d>

holds, with ``x_tau`` the point of ``trial(tau)`` and ``grad`` the
Euclidean gradient at ``x``.  The slope ``<grad, d>`` is the directional
derivative of ``f`` along ``d``; it equals ``<rgrad, d>_x`` in either
metric, so the search needs no metric.
With the steepest-descent direction ``d = -rgrad`` the right-hand side
reduces to ``f(x) - sigma * tau * ||rgrad||_x^2``; the generalized form
accepts arbitrary descent directions (used by the conjugate-gradient
solver).  Unusable trial points are rejected.

Each trial hands its right-hand side to ``Objective.value`` as the
``limit``.  An objective may then answer with a cheap number above the
limit instead of ``f``, when a lower bound already proves the trial
rejected (see :func:`egmin.problems.make_objective`); a value at or below
the limit is always exact, so accepted steps and their values do not
depend on whether the objective screens.

The module also provides the exact-line-search residual
``Delta(tau) = -<rgrad(x), rgrad(x(tau))>_x``, which is the derivative of
``tau -> f(x(tau))`` along the descent geodesic, and its first-order
model built from the Hessian correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import Geodesic, GeometryKind, exp_map, m_hessian_apply, metric_inner
from .objective import Objective


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking constants: sufficient-decrease slope ``sigma``,
    halving factor ``beta``, initial trial ``tau_bar``, failure floor
    ``tau_min``, and a hard cap on halvings."""

    sigma: float = 1e-4
    beta: float = 0.5
    tau_bar: float = 1.0
    tau_min: float = 1e-10
    max_halvings: int = 60

    def __post_init__(self):
        if not 0.0 < self.sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {self.sigma}")
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if not 0.0 < self.tau_bar < math.inf:
            raise ValueError(f"tau_bar must be positive and finite, got {self.tau_bar}")
        if not 0.0 < self.tau_min < self.tau_bar:
            raise ValueError(
                f"tau_min must be in (0, tau_bar), got {self.tau_min}"
            )
        if self.max_halvings < 1:
            raise ValueError("max_halvings must be a positive integer")


@dataclass(frozen=True)
class ConstantStep:
    """Policy that always returns the same step size."""

    tau: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(f"constant step tau must be positive and finite, got {self.tau}")


def constant_step(tau: float) -> ConstantStep:
    """Build a constant step-size policy (finite ``tau > 0``)."""
    return ConstantStep(tau)


class StepStatus(Enum):
    ACCEPTED = "accepted"
    HIT_TAU_MIN = "hit_tau_min"
    CLAMPED = "clamped"


@dataclass(frozen=True)
class StepResult:
    """Outcome of one line search: accepted step size, halving count,
    the new iterate with its objective value, and a status flag."""

    tau: float
    halvings: int
    new_point: np.ndarray
    new_value: float
    status: StepStatus


# trial(tau) -> (point, ok): the retracted point at step tau, and whether it is usable.
Trial = Callable[[float], tuple[np.ndarray, bool]]
# retract(x, direction, grad) -> trial: a retraction prepares once what the
# trials along one direction share; grad is the Euclidean gradient at x.
Retraction = Callable[[np.ndarray, np.ndarray, np.ndarray], Trial]


def geodesic_retraction(x, direction, grad) -> Trial:
    """The exponential map as a retraction; flagged coordinates make it unusable.

    The geodesic's invariants are formed once (see
    :class:`egmin.geometry.Geodesic`), and each trial is one
    :func:`exp_map` call that reuses them.
    """
    x = np.asarray(x, dtype=float)
    geodesic = Geodesic.along(x, direction)

    def trial(tau: float) -> tuple[np.ndarray, bool]:
        step = exp_map(x, direction, tau, geodesic)
        return step.point, step.ok

    return trial


def armijo_backtrack(
    obj: Objective,
    x: np.ndarray,
    direction: np.ndarray,
    params: ArmijoParams,
    value: float | None = None,
    grad: np.ndarray | None = None,
    retract: Retraction = geodesic_retraction,
) -> StepResult:
    """Backtracking line search along ``retract`` (the geodesic by default).

    ``direction`` must not be an ascent direction: its slope
    ``<grad, direction>``, the directional derivative of ``f``, must be
    finite and ``<= 0``, or ``ValueError`` is raised before any trial (an
    overflowed slope too).  A zero slope, which happens exactly at
    critical points, is accepted immediately with the base point returned
    unchanged in value.
    ``value``/``grad`` may be passed to reuse an evaluation at ``x``.

    Returns ``HIT_TAU_MIN`` when the trial step fell below ``tau_min``
    (or the halving cap) without acceptance, and ``CLAMPED`` when every
    trial point was unusable.
    """
    if value is None or grad is None:
        value, grad = obj.value_and_grad(x)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = float(np.sum(grad * direction))
    if not -math.inf < slope <= 0.0:
        raise ValueError(f"not a descent direction: slope {slope} must be finite and <= 0")

    trial = retract(x, direction, grad)
    tau = params.tau_bar
    halvings = 0
    saw_usable_trial = False
    while halvings <= params.max_halvings and tau >= params.tau_min:
        point, ok = trial(tau)
        if ok:
            saw_usable_trial = True
            limit = value + params.sigma * tau * slope
            f_trial = obj.value(point, limit)
            if f_trial <= limit:
                return StepResult(tau, halvings, point, f_trial, StepStatus.ACCEPTED)
        tau *= params.beta
        halvings += 1
    status = StepStatus.HIT_TAU_MIN if saw_usable_trial else StepStatus.CLAMPED
    return StepResult(tau, halvings, np.asarray(x, dtype=float), float(value), status)


def exact_residual(x: np.ndarray, obj: Objective, tau: float) -> float:
    """Derivative of ``tau -> f(x(tau))`` along the steepest-descent geodesic.

    ``x(tau) = exp_map(x, -rgrad, tau)`` with the Fisher-Rao gradient;
    the returned value is ``-<rgrad(x), rgrad(x(tau))>_x``, which equals
    ``-||rgrad(x)||_x^2`` at ``tau = 0`` and vanishes at an exact
    line-search optimum.
    """
    x = np.asarray(x, dtype=float)
    _, grad = obj.value_and_grad(x)
    rgrad = x * grad
    x_tau = exp_map(x, -rgrad, tau).point
    _, grad_tau = obj.value_and_grad(x_tau)
    rgrad_tau = x_tau * grad_tau
    return -metric_inner(GeometryKind.POISSON_FISHER_RAO, x, rgrad, rgrad_tau)


def exact_residual_model(x: np.ndarray, obj: Objective, tau: float) -> float:
    """First-order model of :func:`exact_residual` in ``tau``.

    Returns ``-||rgrad||_x^2 + tau * <rgrad, H>_x`` where ``H`` is the
    second-order geodesic correction term; the difference from the exact
    residual is O(tau^2).  Requires a Hessian-vector product.
    """
    x = np.asarray(x, dtype=float)
    _, grad = obj.value_and_grad(x)
    rgrad = x * grad
    h_term = m_hessian_apply(x, grad, lambda v: obj.hess_vec(x, v))
    kind = GeometryKind.POISSON_FISHER_RAO
    return -metric_inner(kind, x, rgrad, rgrad) + tau * metric_inner(kind, x, rgrad, h_term)
