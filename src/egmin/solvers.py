"""Iterative solvers on the positive orthant with shared tracing.

Each method is one row of :data:`METHOD_RULES`: a metric (Fisher-Rao for
``eg`` and ``poicg``, interior-point for ``ipgrgd`` and ``ipemd``), a
retraction (the geodesic exponential map, or the mirror-descent quotient
map for ``ipemd``) and a direction rule (Polak-Ribiere conjugate gradients
for ``poicg``, steepest descent otherwise).  One driver, one Armijo search
and one constant-step path serve all four; a trial point the retraction
reports unusable is rejected by the search and aborts a constant-step run.
Every run records per-iteration objective values, Riemannian gradient
norms (in each method's own metric), accepted step sizes, halving counts,
and cumulative operator applications, and stops on the first of: a
non-finite value or gradient norm, gradient norm below tolerance, the
iteration cap, or an Armijo search in which no trial passed.
"""

from __future__ import annotations

import csv
import logging
import math
import operator
import time
from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from itertools import starmap

import numpy as np

from .geometry import (  # noqa: F401  (exp_map: a patch point of perfbench/spans.py)
    ExpMapResult,
    Geodesic,
    GeometryKind,
    as_point,
    exp_map,
    riemannian_grad,
    transport_e,
)
from .linesearch import ArmijoParams, ConstantStep, Retraction, StepStatus, Trial, armijo_backtrack
from .linesearch import geodesic_retraction
from .objective import Objective

logger = logging.getLogger(__name__)


class Method(Enum):
    EG = "eg"
    IP_G_RGD = "ipgrgd"
    IP_E_MD = "ipemd"
    POI_CG = "poicg"


class TerminalStatus(Enum):
    MAX_ITER = "max_iter"
    GRAD_TOL = "grad_tol"
    STEP_TOL = "step_tol"
    STEP_INFEASIBLE = "step_infeasible"
    NON_FINITE = "non_finite"


@dataclass(frozen=True)
class SolverConfig:
    """Method selection, step policy, and termination.

    ``method`` may be a :class:`Method` or its value, such as ``"eg"``.
    ``linesearch`` may be :class:`ArmijoParams` or :class:`ConstantStep`;
    ``None`` selects each method's default in :func:`solve`: Armijo from
    ``tau_bar = 1`` for the geodesic methods, and for the mirror-descent
    method the guaranteed constant step :func:`relative_lipschitz_step` of
    the objective's data ``b``.  ``max_iterations`` is an integer of at
    least 1.
    """

    method: Method
    linesearch: ArmijoParams | ConstantStep | None = None
    max_iterations: int = 300
    grad_norm_tol: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "method", Method(self.method))
        try:  # numpy's integers pass; a float cap such as nan would stop no run
            object.__setattr__(self, "max_iterations", operator.index(self.max_iterations))
        except TypeError:
            raise ValueError(f"max_iterations must be an integer, got {self.max_iterations!r}") from None
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not self.grad_norm_tol >= 0:
            raise ValueError(f"grad_norm_tol must be nonnegative, got {self.grad_norm_tol}")


@dataclass(frozen=True, slots=True)
class IterationRecord:
    k: int
    f: float
    riem_grad_norm: float
    tau: float
    halvings: int
    matvec_count: int
    wall_nanos: int


# Column order of the CSV serialization.
TRACE_FIELDS = tuple(field.name for field in fields(IterationRecord))
_INT_FIELDS = {field.name for field in fields(IterationRecord) if field.type == "int"}
_field_values = operator.attrgetter(*TRACE_FIELDS)


class TraceRecords(Sequence):
    """The records of one run, one unboxed column per field.

    Integer fields are ``array('q')`` columns and float fields
    ``array('d')`` columns, grown as records are appended (not sized to
    the iteration cap).  Reading is read-only: an index, negative too,
    builds one :class:`IterationRecord`, a slice a list of them.
    Compares equal to any list or tuple of equal records.
    """

    __slots__ = ("_columns",)

    def __init__(self, records: Iterable[IterationRecord] = ()):
        self._columns = tuple(array("q" if name in _INT_FIELDS else "d") for name in TRACE_FIELDS)
        for record in records:
            self._append(record)

    def _append(self, record: IterationRecord) -> None:
        for column, value in zip(self._columns, _field_values(record)):
            column.append(value)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return IterationRecord(*(column[index] for column in self._columns))

    def __iter__(self) -> Iterator[IterationRecord]:
        return starmap(IterationRecord, zip(*self._columns))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TraceRecords, list, tuple)):
            return NotImplemented
        return list(self) == list(other)


@dataclass
class RunTrace:
    """Ordered per-iteration records plus the final state of one run.

    ``records`` may be given as any iterable of :class:`IterationRecord`;
    it is stored as :class:`TraceRecords` columns, which keep a record in
    about 56 bytes instead of an object per record and one per field.
    ``search_status`` is the status of the failed Armijo search that ended
    a ``step_tol`` run, the only way a run ends so, and ``None`` for any
    other run: ``HIT_TAU_MIN`` when no trial passed, down to the last
    trial step ``tau_bar * 2**-(TRIAL_STEPS - 1)`` (see
    :mod:`egmin.linesearch`), ``CLAMPED`` when no trial point was usable.
    """

    records: TraceRecords
    terminal_status: TerminalStatus
    final_point: np.ndarray
    search_status: StepStatus | None = None

    def __post_init__(self):
        if not isinstance(self.records, TraceRecords):
            self.records = TraceRecords(self.records)

    def to_csv(self, path) -> None:
        """Write the records to the file at ``path`` as RFC-4180 CSV with
        full-precision floats.

        A trace file holds no wall-clock column: wall-clock times vary
        between otherwise identical runs, and go only into a run's
        ``summary.json``.  Every column it holds is bit-reproducible for a
        fixed config and seed.
        """
        fields = TRACE_FIELDS[:-1]  # all but wall_nanos
        with open(path, "w", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(fields)
            for rec in self.records:
                writer.writerow(
                    [
                        getattr(rec, name) if name in _INT_FIELDS
                        else format(getattr(rec, name), ".17e")
                        for name in fields
                    ]
                )

    def summary_dict(self) -> dict:
        last = self.records[-1]
        return {
            "terminal_status": self.terminal_status.value,
            "iterations": last.k,
            "final_f": last.f,
            "final_grad_norm": last.riem_grad_norm,
            "total_matvecs": last.matvec_count,
            "search_status": None if self.search_status is None else self.search_status.value,
        }


def read_trace_csv(path) -> list[IterationRecord]:
    """Parse records written by :meth:`RunTrace.to_csv`.

    Columns are read by name, in any order; unknown columns are ignored,
    and a missing wall-clock column reads back as zero.
    """
    records = []
    with open(path, "r", newline="") as f:
        for row in csv.DictReader(f):
            row["wall_nanos"] = row.get("wall_nanos") or 0
            records.append(IterationRecord(**{
                name: (int if name in _INT_FIELDS else float)(row[name]) for name in TRACE_FIELDS
            }))
    return records


def step_eg(x, euclid_grad, tau: float) -> ExpMapResult:
    """Multiplicative gradient step ``x * exp(-tau * g)``, and whether it is usable.

    One step along :class:`Geodesic` ``(x, -g)``, the geodesic with the
    Fisher-Rao Riemannian gradient as direction; usable as
    :class:`ExpMapResult` says.  Its exponent ``(-g) * tau`` is
    ``-tau * g`` bit for bit, since negation is exact.
    """
    return Geodesic(x, np.negative(euclid_grad, dtype=float)).step(tau)


def step_ip_e_md(x, euclid_grad, tau: float) -> tuple[np.ndarray, bool]:
    """Mirror-descent quotient update ``x / (1 + tau * x * g)``, and whether
    it is usable.

    This is the proximal step generated by the log barrier: it solves
    ``argmin_u tau * <g, u - x> + D(u, x)`` with the barrier-induced
    divergence, coordinate by coordinate.  Denominators must stay
    positive: when one is not (a large negative gradient times step, or a
    NaN), the update is infeasible and ``(x, False)`` is returned.  ``x``
    is a point, a vector of positive coordinates, so a feasible update is
    usable when no coordinate rounds to zero.  The denominator is formed
    as ``tau * x``, then ``* g`` and ``+ 1`` in place, and the quotient in
    the same buffer: the textbook form's operations in its order, so its
    bits.
    """
    x = np.asarray(x, dtype=float)
    g = np.asarray(euclid_grad, dtype=float)
    q = np.multiply(x, tau)
    q *= g
    q += 1.0
    if not np.minimum.reduce(q, initial=math.inf) > 0.0:  # a NaN fails too
        return x, False
    np.divide(x, q, out=q)
    return q, bool(np.minimum.reduce(q, initial=math.inf) > 0.0)


def quotient_retraction(x, direction, grad) -> Trial:
    """:func:`step_ip_e_md` as a retraction along ``direction = -x**2 * grad``:
    each trial is the ``(point, ok)`` of one update.

    It reads ``grad``, not ``direction``, whose quotient would round
    differently.  Nothing is prepared: each denominator starts with
    ``tau * x``, so no product the trials could share keeps their rounding.
    """
    return lambda tau: step_ip_e_md(x, grad, tau)


def relative_lipschitz_step(b) -> float:
    """Guaranteed constant step ``1 / (2 * ||b||_1)`` for the quotient update.

    ``b`` must be nonnegative and finite with a positive sum (zero counts
    are allowed), and the step must come out finite and positive.
    """
    b = np.asarray(b, dtype=float)
    with np.errstate(over="ignore"):  # an overflowed sum is reported below
        total = float(np.add.reduce(b, axis=None))
    if not (b.size and np.minimum.reduce(b, axis=None) >= 0.0 and total > 0.0):
        raise ValueError("b must be nonnegative with a positive sum, with no NaN")
    step = 1.0 / (2.0 * total)
    if not 0.0 < step < math.inf:  # an inf in b, or 2 * sum(b) out of range
        raise ValueError(
            f"b must be finite, with 1 / (2 * sum(b)) finite and positive; got sum(b) = {total}"
        )
    return step


def check_termination(record: IterationRecord, config: SolverConfig) -> TerminalStatus | None:
    """First satisfied criterion, in priority order non-finite value or
    gradient norm > grad > iterations.

    No step size ends a run here: an accepted step, however short, is
    progress.  Only a failed Armijo search ends a run ``step_tol``, in
    :func:`solve`: one in which no trial passed, down to the last trial
    step ``tau_bar * 2**-(TRIAL_STEPS - 1)`` (see :mod:`egmin.linesearch`).
    """
    if not (math.isfinite(record.f) and math.isfinite(record.riem_grad_norm)):
        return TerminalStatus.NON_FINITE
    if record.riem_grad_norm < config.grad_norm_tol:
        return TerminalStatus.GRAD_TOL
    if record.k >= config.max_iterations:
        return TerminalStatus.MAX_ITER
    return None


def default_x0(n: int, seed=0) -> np.ndarray:
    """Random interior starting point, i.i.d. uniform on (0.5, 1.5)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 1.5, size=n)


@dataclass(frozen=True)
class MethodRule:
    """How a method steps: the metric of its gradient, the retraction it
    moves by, and whether its directions are Polak-Ribiere conjugate."""

    metric: GeometryKind
    retraction: Retraction
    conjugate: bool = False


METHOD_RULES = {
    Method.EG: MethodRule(GeometryKind.POISSON_FISHER_RAO, geodesic_retraction),
    Method.IP_G_RGD: MethodRule(GeometryKind.INTERIOR_POINT, geodesic_retraction),
    Method.IP_E_MD: MethodRule(GeometryKind.INTERIOR_POINT, quotient_retraction),
    Method.POI_CG: MethodRule(GeometryKind.POISSON_FISHER_RAO, geodesic_retraction, conjugate=True),
}


def _default_policy(method: Method, obj: Objective) -> ArmijoParams | ConstantStep:
    """Armijo from ``tau_bar = 1`` for a geodesic method; for the
    mirror-descent method the guaranteed step of the objective's data
    ``b`` (an :class:`egmin.problems.InstanceObjective` holds it), which
    an objective without data cannot give."""
    if METHOD_RULES[method].retraction is not quotient_retraction:
        return ArmijoParams()
    b = getattr(obj, "b", None)
    if b is None:
        raise ValueError(
            "the mirror-descent method's default step 1 / (2 * ||b||_1) needs the objective's data b;"
            " pass a step policy, such as constant_step(relative_lipschitz_step(b)), for one without"
        )
    return ConstantStep(relative_lipschitz_step(b))


def solve(config: SolverConfig, obj: Objective, x0) -> RunTrace:
    """Run the configured method from ``x0`` until a criterion fires.

    Records one entry for the starting point (``k = 0``, ``tau = 0``) and
    one per completed iteration.  With Armijo policies the recorded
    objective values are nonincreasing; the conjugate-gradient method
    restarts to steepest descent whenever its direction fails the descent
    test or its slope is not finite, and an unusable constant step aborts
    with a partial trace.
    """
    x = as_point(x0)
    rule = METHOD_RULES[config.method]
    policy = config.linesearch or _default_policy(config.method, obj)
    armijo = isinstance(policy, ArmijoParams)
    # The quotient map reads only grad: a constant step along it needs no direction.
    needs_direction = armijo or rule.retraction is not quotient_retraction
    t0 = time.perf_counter_ns()
    records = TraceRecords()

    # Every inner product of the loop has rgrad as one argument, and
    # <rgrad, v>_x = <grad, v> in either metric: none needs the weights
    # 1/x or 1/x**2, which overflow at subnormal coordinates.  A gradient
    # too large to represent (x**2 * g past 1.8e308) overflows to inf
    # quietly, and the run ends non_finite.
    def evaluate(point):
        value, grad = obj.value_and_grad(point)
        with np.errstate(over="ignore"):
            rgrad = riemannian_grad(rule.metric, point, grad)
            gnorm_sq = float(np.add.reduce(grad * rgrad))
        return value, grad, rgrad, gnorm_sq

    def record(k, tau, halvings) -> TerminalStatus | None:
        """Record iteration ``k`` at the current value and gradient norm,
        and return the criterion it satisfies."""
        rec = IterationRecord(k, value, math.sqrt(gnorm_sq), tau, halvings,
                              obj.matvec_count(), time.perf_counter_ns() - t0)
        records._append(rec)
        return check_termination(rec, config)

    value, grad, rgrad, gnorm_sq = evaluate(x)
    status = record(0, 0.0, 0)
    v = -rgrad if needs_direction else None  # the direction of the next step
    search_status = None

    k = 0
    while status is None:
        k += 1
        if rule.conjugate:
            with np.errstate(over="ignore", invalid="ignore"):
                slope = float(np.add.reduce(grad * v))
            if not math.isfinite(slope) or (slope >= 0.0 and gnorm_sq > 0.0):
                logger.info("restarting CG direction at iteration %d (slope %.3e)", k, slope)
                v = -rgrad

        if armijo:
            step = armijo_backtrack(obj, x, v, policy, value=value, grad=grad, retract=rule.retraction)
            if step.status is not StepStatus.ACCEPTED:
                record(k, step.tau, step.halvings)
                status, search_status = TerminalStatus.STEP_TOL, step.status
                break
            x_new, tau, halvings = step.new_point, step.tau, step.halvings
        else:
            x_new, ok = rule.retraction(x, v, grad)(policy.tau)
            if not ok:
                logger.warning("constant step left the representable orthant at iteration %d", k)
                status = TerminalStatus.STEP_INFEASIBLE
                break
            tau, halvings = policy.tau, 0

        x_old, old_gnorm_sq = x, gnorm_sq
        x = x_new
        value, grad, rgrad, gnorm_sq = evaluate(x)
        if rule.conjugate:
            # Polak-Ribiere: beta = <rgrad, rgrad - t>_x / ||rgrad_old||^2, clamped at 0.
            transported = transport_e(x_old, x, v)
            beta_plus = 0.0
            if old_gnorm_sq > 0.0:
                beta_plus = max(float(np.add.reduce(grad * (rgrad - transported))) / old_gnorm_sq, 0.0)
            v = -rgrad + beta_plus * transported
        elif needs_direction:
            v = -rgrad
        status = record(k, tau, halvings)

    return RunTrace(records=records, terminal_status=status, final_point=x, search_status=search_status)
