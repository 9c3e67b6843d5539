"""Step-size policies along a retraction of the positive orthant.

A retraction moves from ``x`` along a direction by a step ``tau`` and
answers ``(point, ok)``: the trial point, and whether it is usable, that
is, still in the representable orthant.  An overflowed or underflowed
exponential map is not, nor is an infeasible quotient update; the point
of an unusable trial is never read.  A retraction is prepared once per
search, ``trial = retract(x, d, grad)``, so that what all trials along
``d`` share is formed once.  Armijo backtracking (along the geodesic
unless told otherwise) halves a trial step until the sufficient-decrease
inequality

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
rejected (see :class:`egmin.problems.InstanceObjective`); a value at or
below the limit is always exact, so accepted steps and their values do
not depend on whether the objective screens.  A prepared trial whose
points are the steps of one e-geodesic carries it as ``trial.geodesic``.
The search gets a context from ``Objective.search(trial.geodesic)`` and
hands it, with each trial's ``tau``, to ``Objective.value``, so that the
objective may bound a trial by the earlier ones on the geodesic; the
context ends with the search.  A search whose context offers a ``probe``
step, one of its trial steps below ``tau_bar``, tries that step first,
then the larger steps from ``tau_bar`` down, and accepts the first of
those that passes, else the probe if it passed, else halves on below the
probe.  So it accepts exactly the step, point and value of the
search from ``tau_bar``; it evaluates the probe first so that the
objective can bound the larger trials by the exact rows at the probe.

The module also provides the exact-line-search residual
``Delta(tau) = -<rgrad(x), rgrad(x(tau))>_x``, which is the derivative of
``tau -> f(x(tau))`` along the descent geodesic, and its first-order
model built from the Hessian correction term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import Geodesic, GeometryKind, exp_map, m_hessian_apply, metric_inner
from .objective import Objective


# Cap on the halvings of one search: with beta near 1, tau_min alone
# would allow an unbounded list of trial steps.
MAX_HALVINGS = 60


@dataclass(frozen=True)
class ArmijoParams:
    """Backtracking constants: sufficient-decrease slope ``sigma``,
    halving factor ``beta``, initial trial ``tau_bar`` and failure floor
    ``tau_min``.

    They fix one list of trial steps, ``tau_bar * beta**k`` for ``k = 0,
    1, ...`` while ``k <= MAX_HALVINGS`` and the step is at least
    ``tau_min``, each formed from the one before by one multiplication
    (see :func:`_trial_steps`).
    """

    sigma: float = 1e-4
    beta: float = 0.5
    tau_bar: float = 1.0
    tau_min: float = 1e-10

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
    """How a search ended.  ``ACCEPTED``: a trial passed.  ``HIT_TAU_MIN``:
    no trial passed, down to the last trial step, and some trial point was
    usable.  ``CLAMPED``: no trial point was usable.  The last trial step
    is the smallest at or above ``tau_min``, or the one ``MAX_HALVINGS``
    halvings below ``tau_bar`` when that comes first."""

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


# trial(tau) -> (point, ok): the retracted point at step tau, and whether it
# is usable; trial.geodesic, when set, is the Geodesic whose steps these are.
Trial = Callable[[float], tuple[np.ndarray, bool]]
# retract(x, direction, grad) -> trial: a retraction prepares once what the
# trials along one direction share; grad is the Euclidean gradient at x.
Retraction = Callable[[np.ndarray, np.ndarray, np.ndarray], Trial]


def geodesic_retraction(x, direction, grad) -> Trial:
    """The exponential map as a retraction: each trial is the
    ``(point, ok)`` of one :func:`exp_map` step.

    The geodesic's invariants are formed once (see
    :class:`egmin.geometry.Geodesic`), and each trial is one
    :func:`exp_map` call that reuses them; the trial carries the geodesic
    as ``trial.geodesic``.
    """
    x = np.asarray(x, dtype=float)
    geodesic = Geodesic.along(x, direction)

    def trial(tau: float) -> tuple[np.ndarray, bool]:
        return exp_map(x, direction, tau, geodesic)

    trial.geodesic = geodesic
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

    The search tries the steps of :func:`_trial_steps` in order and
    accepts the first that passes.  When none does, it returns the next
    step, ``steps[-1] * beta``, after ``len(steps)`` halvings, with the
    status ``CLAMPED`` when every trial point was unusable, else
    ``HIT_TAU_MIN``.  Given a probe by its context, the search
    runs in the probe-first order of the module docstring and returns the
    same result; it counts in ``obj.probes``, ``obj.probes_wasted`` and
    ``obj.probes_met``, so that every trial it makes counts once: accepted,
    in ``obj.screened_by`` or ``obj.rejected_by``, or as a wasted probe
    that met its limit.  An unusable trial counts in
    ``obj.rejected_by["unusable"]``.
    """
    if value is None or grad is None:
        value, grad = obj.value_and_grad(x)
    with np.errstate(over="ignore", invalid="ignore"):
        slope = float(np.add.reduce(grad * direction))
    if not -math.inf < slope <= 0.0:
        raise ValueError(f"not a descent direction: slope {slope} must be finite and <= 0")

    trial = retract(x, direction, grad)
    search = obj.search(getattr(trial, "geodesic", None))
    saw_usable_trial = False

    def passed(tau: float):
        # (point, value) of the trial at tau if it passes, else None.
        nonlocal saw_usable_trial
        point, ok = trial(tau)
        if not ok:
            obj.rejected_by["unusable"] += 1
            return None
        saw_usable_trial = True
        limit = value + params.sigma * tau * slope
        f_trial = obj.value(point, limit, search, tau)
        return (point, f_trial) if f_trial <= limit else None

    steps = _trial_steps(params)
    at = None
    if search is not None and search.probe in steps[1:]:
        at = steps.index(search.probe, 1)
        obj.probes += 1
        at_probe = passed(search.probe)
    for halvings, tau in enumerate(steps):
        found = at_probe if halvings == at else passed(tau)
        if found:
            if at is not None and halvings < at:
                obj.probes_wasted += 1
                if at_probe:
                    obj.probes_met += 1
            return StepResult(tau, halvings, *found, StepStatus.ACCEPTED)
    status = StepStatus.HIT_TAU_MIN if saw_usable_trial else StepStatus.CLAMPED
    return StepResult(steps[-1] * params.beta, len(steps), np.asarray(x, dtype=float), float(value), status)


@lru_cache
def _trial_steps(params: ArmijoParams) -> tuple[float, ...]:
    """The trial steps of a search with ``params``, largest first:
    ``tau_bar``, then each step times ``beta``, while the step is at least
    ``tau_min`` and at most ``MAX_HALVINGS`` halvings were made.  Formed
    once per (frozen, so hashable) ``params``."""
    steps, tau = [], params.tau_bar
    while len(steps) <= MAX_HALVINGS and tau >= params.tau_min:
        steps.append(tau)
        tau *= params.beta
    return tuple(steps)


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
