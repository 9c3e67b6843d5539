"""Poisson inverse-problem test bed: KL data fidelity plus Huber-TV.

The objective is ``f(x) = KL(b, A x) + lam * sum(huber(Dx, delta))`` for a
nonnegative projection operator ``A``, positive count data ``b``, and the
two-axis forward-difference operator ``D``.  The fidelity term is convex
but neither Lipschitz-smooth nor relatively smooth with respect to the
negative entropy, which is exactly the regime the geodesic line-search
solvers are built for.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .divergence import kl
from .geometry import EXP_ARG_MAX, as_point
from .objective import Objective
from .operators import SparseOperator
from .projector import build_projector, check_n_side

B_FLOOR = 1e-8  # replaces zero Poisson draws to keep the data positive
PHANTOM_BACKGROUND = 1e-3

# An objective bounds an Armijo trial by the earlier trials on its
# e-geodesic (the curve step of InstanceObjective._exact) only when its
# operator stores at least this many entries per row: one bound costs about
# 20 passes over the rows, a forward product one pass over every entry.
# Forced on at 76 entries per row (the n_side 64 projector), an earlier,
# cheaper form of the screen made eg's iterations about 3 % slower on a
# 2-core Xeon VM; at 153 (n_side 128, Poisson counts), with probe-first
# searches, this one saves 45 % of eg's forward products.
CURVE_NNZ_PER_ROW = 128
# Widening of each row's interval for log(A x), relative in A x: it covers
# the rounding of the rows the bound is made from (see the rounding
# argument in InstanceObjective._exact).
CURVE_WIDENING = 1e-9
# A search offers a probe, a step for the line search to try before the
# larger ones, only after a search in which at least PROBE_AFTER trials
# above the accepted step got past the log-sum screens; the probe is the
# step accepted two searches back.  Measured on n_side 128 Poisson counts
# (seed 0, instance 0, 300 iterations), eg's accepted steps alternate
# between 1/8 and 1/16, and its forward products fell from 984 to 539 with
# the step of two searches back, to 663 with that of the previous search.
# The gate keeps n_side 256 tomography on the plain order: at 1 instead of
# 2, eg's forward products there rose from 43 to 52 in 30 iterations; at 3,
# ipgrgd's on the Poisson counts rose from 447 to 496.
PROBE_AFTER = 2


@dataclass
class ProblemInstance:
    """One reconstruction problem: operator, data, and regularization."""

    A: SparseOperator
    b: np.ndarray
    lam: float
    delta: float
    image_shape: tuple[int, int]

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.ndim != 1 or self.b.size != self.A.rows:
            raise ValueError(
                f"data length {self.b.size} does not match operator rows {self.A.rows}"
            )
        if np.any(self.b <= 0.0) or not np.all(np.isfinite(self.b)):
            raise ValueError("data must be strictly positive and finite")
        h, w = self.image_shape
        if h * w != self.A.cols:
            raise ValueError(
                f"image shape {self.image_shape} does not match operator columns {self.A.cols}"
            )
        check_regularization(self.lam, self.delta)


def check_regularization(lam: float, delta: float) -> None:
    """Raise ``ValueError`` unless ``0 <= lam < inf`` and ``0 < delta < inf``."""
    if not 0.0 <= lam < math.inf:
        raise ValueError(f"lam must be nonnegative and finite, got {lam}")
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")


def kl_fidelity(A: SparseOperator, b, x) -> tuple[float, np.ndarray]:
    """Value and gradient of ``KL(b, A x)``.

    The gradient is ``A^T (1 - b / (A x))``; one call costs exactly one
    forward and one adjoint operator application.
    """
    b = np.asarray(b, dtype=float)
    ax = A.forward(x)
    if np.any(ax <= 0.0):
        bad = int(np.argmin(ax))
        raise ValueError(f"forward projection has non-positive entry at row {bad}")
    value = kl(b, ax)
    grad = A.adjoint(1.0 - b / ax)
    return value, grad


def huber(a, delta: float):
    """Huber penalty and its derivative, elementwise.

    Quadratic ``a**2 / 2`` for ``|a| <= delta``, linear
    ``delta * (|a| - delta/2)`` outside; value and derivative are
    continuous at the kink.  Scalars in, scalars out.
    """
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    arr = np.asarray(a, dtype=float)
    value = _huber_values(arr, delta)
    deriv = np.clip(arr, -delta, delta)
    if arr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _huber_values(a, delta: float, out=None, c=None, half=None):
    """Elementwise Huber value ``c * (|a| - c/2)`` with ``c = min(|a|, delta)``.

    ``out``, ``c`` and ``half`` are optional buffers shaped like ``a``.  In
    the linear branch this is ``delta * (|a| - delta/2)``, the same two
    operations as the textbook form; in the quadratic branch
    ``|a| - |a|/2`` is exact, so the value is ``(|a|/2) * |a|``, which equals
    ``a * a / 2`` bit for bit (below ``2**-1021`` both round to +0).  The
    derivative, ``clip(a, -delta, delta)``, needs no such argument.

    For ``delta <= 1`` the value cannot overflow: ``|a| - c/2`` lies in
    ``[0, |a|]`` and ``c <= 1``, so the rounded product is at most ``|a|``
    (rounding is monotone), and an infinite ``|a|`` gives ``inf`` with no
    floating-point exception.  Only for ``delta > 1`` can the product pass
    ``1.8e308``; that overflow to ``inf`` is expected, and is made under
    ``np.errstate``, so that it raises no warning either.  Both paths make
    the same operations in the same order.
    """
    mag = np.abs(a, out=out)
    c = np.minimum(mag, delta, out=c)
    half = np.multiply(c, 0.5, out=half)
    mag -= half
    if delta <= 1.0:
        mag *= c
        return mag
    with np.errstate(over="ignore"):
        mag *= c
    return mag


def _differences(x: np.ndarray, w: int, out: np.ndarray) -> None:
    """Write the forward differences of the flattened ``h x w`` image ``x``
    into ``out`` (length ``2 * h * w``), laid out as :func:`discrete_gradient`
    lays them out.

    Both blocks are taken as contiguous runs, so the right-axis run also
    spans row ends; those entries are zeroed after.  The down-axis block's
    last row is not written: it must already be zero.
    """
    n = x.size
    np.subtract(x[w:], x[:-w], out=out[: n - w])
    right = out[n:]
    np.subtract(x[1:], x[:-1], out=right[:-1])
    right[w - 1 :: w] = 0.0


def _add_difference_adjoint(y: np.ndarray, w: int, out: np.ndarray) -> None:
    """Add the transpose of :func:`_differences` applied to ``y`` to the
    flattened image ``out``, for a ``y`` whose right-axis block is zero in
    the last column.

    The contiguous runs then add or subtract ``+0.0`` at the row ends, which
    leaves ``out`` unchanged bit for bit (a sum that starts at ``+0.0``
    never reaches ``-0.0``).
    """
    n = out.size
    down, right = y[: n - w], y[n:-1]
    out[w:] += down
    out[:-w] -= down
    out[1:] += right
    out[:-1] -= right


def discrete_gradient(image_shape: tuple[int, int], x) -> np.ndarray:
    """Forward differences along both image axes, stacked into one vector.

    The output has length ``2 * h * w``: first the down-axis differences,
    then the right-axis differences, with replicate boundary (zero
    difference at the last row/column).
    """
    h, w = image_shape
    x = np.asarray(x, dtype=float).reshape(h * w)
    out = np.zeros(2 * h * w)
    _differences(x, w, out)
    return out


def discrete_gradient_adjoint(image_shape: tuple[int, int], y) -> np.ndarray:
    """Exact transpose of :func:`discrete_gradient` (negative divergence)."""
    h, w = image_shape
    y = np.array(y, dtype=float)
    if y.size != 2 * h * w:
        raise ValueError(f"expected {2 * h * w} entries, got {y.size}")
    y = y.reshape(2 * h * w)
    y[h * w + w - 1 :: w] = 0.0  # entries D never writes; D^T ignores them
    out = np.zeros(h * w)
    _add_difference_adjoint(y, w, out)
    return out


def huber_tv(x, lam: float, delta: float, image_shape) -> tuple[float, np.ndarray]:
    """Huber-smoothed total variation ``lam * sum(huber(Dx, delta))`` and gradient."""
    check_regularization(lam, delta)
    x = np.asarray(x, dtype=float)
    if lam == 0.0:
        return 0.0, np.zeros(x.size)
    g = discrete_gradient(image_shape, x)
    value, deriv = huber(g, delta)
    return lam * float(np.sum(value)), lam * discrete_gradient_adjoint(image_shape, deriv)


def full_objective(instance: ProblemInstance, x) -> tuple[float, np.ndarray]:
    """Sum of the KL fidelity and the Huber-TV penalty."""
    fv, fg = kl_fidelity(instance.A, instance.b, x)
    tv, tg = huber_tv(x, instance.lam, instance.delta, instance.image_shape)
    return fv + tv, fg + tg


def make_objective(instance: ProblemInstance) -> InstanceObjective:
    """Bundle an instance into a solver-ready :class:`InstanceObjective`."""
    return InstanceObjective(instance)


def _fill(values: np.ndarray, weights: np.ndarray, volume: float, k: int = 32) -> float:
    """The level ``L`` at which ``sum(weights * max(L - values, 0))``
    reaches ``volume > 0``, from the ``k + 1`` smallest values; if more
    lie below ``L``, the largest of those, which is below ``L``."""
    k = min(k, values.size - 1)
    under = np.argpartition(values, k)[: k + 1]
    v = values[under]
    order = np.argsort(v)
    v, w = v[order], weights[under[order]]
    # levels[j]: the level if exactly the j + 1 smallest values lie below it.
    levels = (volume + np.cumsum(w * v)) / np.cumsum(w)
    fits = np.flatnonzero(levels[:-1] <= v[1:])
    if fits.size:
        return float(levels[fits[0]])
    return float(levels[-1] if v.size == values.size else v[-1])


class _Curve:
    """What one line search has seen of ``q(tau) = log(b / A x(tau))`` along
    its e-geodesic ``x(tau) = x * exp(tau * w)``: the exact rows at
    ``tau = 0`` and at each exact trial, as ``taus`` and ``rows``, in
    increasing ``tau``.

    Each row ``(A x(tau))_i = sum_j a_ij x_j e**(tau w_j)`` is log-convex in
    ``tau``, so each ``q_i`` is concave: it lies above the chord through
    the nearest exact points below and above ``tau``, and below the secant
    through two exact points on one side of ``tau``, extended past them to
    ``tau``.  :meth:`interval` widens these by ``CURVE_WIDENING`` and
    :meth:`bound` turns them, with the sum ``y = c^T x(tau)``, into a lower
    bound on the KL term at ``tau``.

    A search also offers ``probe``, a step for a line search to try before
    the larger ones (or ``None``), and notes for the next searches' probes
    the largest step whose exact value met its limit (``accepted``) and the
    steps of the trials that got past the log-sum screens
    (``past_screens``).
    """

    __slots__ = ("b", "sum_b", "q_floor", "taus", "rows", "probe", "accepted", "past_screens")

    def __init__(self, b: np.ndarray, sum_b: float, q_floor: float, q0: np.ndarray,
                 probe: float | None = None):
        self.b, self.sum_b, self.q_floor = b, sum_b, q_floor
        self.taus, self.rows = [0.0], [q0]
        self.probe = probe
        self.accepted: float | None = None
        self.past_screens: list[float] = []

    def record(self, tau: float, q: np.ndarray) -> None:
        """Note the exact ``q`` of the trial at ``tau``."""
        i = bisect.bisect_left(self.taus, tau)
        if i == len(self.taus) or self.taus[i] != tau:
            self.taus.insert(i, tau)
            self.rows.insert(i, q)

    def interval(self, tau: float):
        """Per row, ``(low, high)``: the chord bound below ``q`` of a trial
        at ``tau`` (``None`` without an exact point above ``tau``) and the
        secant bound above it, which is at least ``q_floor``; ``None``
        without a secant, or at an exact point."""
        taus, rows = self.taus, self.rows
        i = bisect.bisect_left(taus, tau)  # taus[i - 1] < tau <= taus[i]
        if i == 0 or (i < len(taus) and taus[i] == tau) or not (i + 1 < len(taus) or i >= 2):
            return None
        # The secant: q <= (1 + s) q_near - s q_far, through the two exact
        # points above tau, else the two below.
        near, far = (i, i + 1) if i + 1 < len(taus) else (i - 1, i - 2)
        s = (tau - taus[near]) / (taus[near] - taus[far])
        high = np.subtract(rows[near], rows[far])
        high *= s
        high += rows[near]
        high += (1.0 + s) * CURVE_WIDENING
        np.maximum(high, self.q_floor, out=high)
        low = None
        if i < len(taus):
            # The chord: q >= (1 - t) q_a + t q_c with t = (tau - tau_a) / (tau_c - tau_a).
            low = np.subtract(rows[i], rows[i - 1])
            low *= (tau - taus[i - 1]) / (taus[i] - taus[i - 1])
            low += rows[i - 1]
            low -= CURVE_WIDENING
        return low, high

    def bound(self, tau: float, y: float):
        """``(lb, weight)``: a lower bound ``lb`` on ``KL(b, A x(tau))`` when
        ``sum(A x(tau)) = y`` and each row lies in its :meth:`interval`, and
        the ``weight`` its margin scales with; ``None`` without a secant.

        With ``u = A x`` and ``r = u / b``, for any multiplier ``lam`` the
        dual function ``g(lam) = sum_i min over the row's interval of
        (b_i log(b_i / u_i) - b_i + u_i + lam u_i) - lam y`` is a lower
        bound.  Each minimum is at ``r_i = clip(t, r_lo_i, r_hi_i)`` with
        ``t = 1 / (1 + lam)``, so ``g = sum(b (r - log r)) - B + lam (F - y)``
        with ``F = sum(b r)``.  ``g`` is concave in ``lam`` and greatest
        where ``F(t) = y``; any ``t`` gives a lower bound.

        * With both ends, ``t = 1``, the bound of the intervals alone.  On
          n_side 128 Poisson counts, trying a water level as below too
          screened 1 more of 272 such eg and poicg trials.
        * With lower ends only (a secant through ``tau = 0`` and a probe
          below ``tau``), the ends are tight: ``sum(b r_lo)`` is close to
          ``y``, few rows are unclipped at the root, and ``t`` is the water
          level that :func:`_fill` finds from the 33 lowest ends.  On those
          counts this screened 818 of 898 eg trials, ``t = 1`` 17.
        * A chord alone gives no bound: there it screened 1 of 87 eg
          trials and 11 of 148 poicg trials, too few to pay for the bounds.

        ``t`` stays in ``[e**-EXP_ARG_MAX, e**-q_floor]``, which keeps
        ``|log r| <= 700`` and ``F <= 2**1000``.
        """
        bounds = self.interval(tau)
        if bounds is None:
            return None
        low, high = bounds
        b = self.b
        t_min, t_max = math.exp(-EXP_ARG_MAX), math.exp(-self.q_floor)
        # r_lo = e**-high less the slack of rows below the floor, r_hi = e**-low.
        r_lo = np.exp(np.negative(high, out=high), out=high)
        r_lo -= 2.0**-46
        t = 1.0
        if low is None:
            # F(t) = sum(b r_lo) + sum(b max(t - r_lo, 0)): a water level.
            volume = y - float(np.einsum("i,i->", b, r_lo))
            t = min(max(_fill(r_lo, b, volume) if volume > 0.0 else t_min, t_min), t_max)
        # r = clip(t, r_lo, r_hi), formed in r_lo's buffer.
        r = np.maximum(r_lo, t, out=r_lo)
        if low is not None:
            np.minimum(r, np.exp(np.negative(low, out=low), out=low), out=r)
        total = float(np.einsum("i,i->", b, r))
        lam = 1.0 / t - 1.0
        terms = np.log(r)
        np.subtract(r, terms, out=terms)
        terms *= b
        lb = float(np.add.reduce(terms)) - self.sum_b + lam * (total - y)
        return lb, self.sum_b + y + total + abs(lam) * (y + total)


def _same_point(a: np.ndarray, b: np.ndarray) -> bool:
    # Equal shapes and coordinates (a NaN equals nothing), after one
    # coordinate: a trial point almost never equals a cached one, and the
    # full compare costs a pass.
    return a.shape == b.shape and (not a.size or a[0] == b[0]) and bool(np.logical_and.reduce(np.equal(a, b)))


class _Evaluation:
    """One exact evaluation: its point ``x`` (a kept copy), ``ax``, the KL
    and Huber-TV values, the differences ``dx`` and, where the curve screen
    can use them, the rows ``q = log(b / Ax)``.  A trial rejected on its
    KL term gets a transient one, with ``tv = None``, that is not kept."""

    __slots__ = ("x", "ax", "kl_value", "tv", "dx", "q")

    def __init__(self, x: np.ndarray, dx: np.ndarray | None):
        self.x, self.dx, self.q = x, dx, None


class InstanceObjective(Objective):
    """``f(x) = KL(b, A x) + lam * sum(huber(D x, delta))`` of one instance.

    Line-search trials compute values only: the KL term and the Huber
    values of the forward differences, with no Huber derivative and no
    adjoint.  Both paths give bit for bit what :func:`full_objective`
    gives.  The KL term is bound to the data, which
    :class:`ProblemInstance` validated once (``b > 0``, so every term is
    ``b log(b / Ax)``); per call only ``Ax`` is checked.

    :meth:`_exact` tests a trial from the cheapest test up: three lower
    bounds on ``f`` (the names in ``SCREENS``), each with the margin
    ``eta * (B + y + tv)`` (the curve's is wider), then the KL term, then
    the exact value.  ``B = sum(b)``, ``y = c^T x`` for ``c = A^T 1``,
    ``tv`` is the trial's Huber-TV value (0 until it is computed) and
    ``eta = 1e-10 + (2n + m) * 2**-52``.  Its docstring shows that the
    margins cover the rounding of the bounds and of the exact value, so
    that a trial a bound rejects is one whose exact value, as computed
    here, exceeds ``limit`` too.  No bound changes an accepted step, a
    value or a trace column other than ``matvec_count``.  A bound adds
    ``tv`` only when it plus ``base_tv``, the Huber-TV value at the latest
    point whose gradient was evaluated (a line search's base point),
    would reject the trial; with no such point yet, always.  A trial that
    gets past the bounds with no ``tv`` computed is rejected on its KL
    term when that alone exceeds ``limit``; such a trial counts in
    ``rejected_by["kl_term"]`` and is not cached.  ``trial_dx`` holds the
    differences of the latest trial whose ``tv`` was computed.

    The latest exact evaluation (``last``, an :class:`_Evaluation`) is
    cached by value (compared coordinate by coordinate, so an in-place
    edit of ``x`` is seen), and so is a search's probe whose value met its
    limit (``kept``): the search may accept it after evaluating larger
    steps.
    The gradient at a cached point (the accepted line-search trial) then
    costs one adjoint application plus ``1 - b / Ax``, ``clip(Dx, -delta,
    delta)`` and ``D^T``; a screened trial never replaces a cached point.
    The buffers (an evaluation, ``terms`` for the KL terms or the gradient
    weights, ``mag``, ``c`` and ``half`` for the Huber scratch and the
    derivative, ``image`` for ``D^T``'s output) and the screens' constants
    are set up by the first evaluation, so that building an objective
    stays cheap.  So an objective is not re-entrant: use one per solve.
    """

    SCREENS = ("kl", "kl_tv", "curve")

    def __init__(self, instance: ProblemInstance):
        super().__init__()
        self.A, self.b = instance.A, instance.b
        self.lam, self.delta, self.w = instance.lam, instance.delta, instance.image_shape[1]
        self.last = self.kept = self._curve = self.base_tv = None
        # (accepted step, trials above it past the log-sum screens) of the
        # two latest searches, oldest first.
        self._outcomes = ((None, 0), (None, 0))

    def matvec_count(self) -> int:
        return self.A.application_count()

    def _setup(self) -> None:
        A, n = self.A, self.A.cols
        # A Python float: the bound's overflow gives inf, not a warning.
        self.sum_b = float(self.b.sum())
        self.col_sums = A.column_sums()
        self.eta = 1e-10 + (2 * n + A.rows) * 2.0**-52
        # A NaN point equals no point: nothing is cached yet.  _differences
        # needs the down-axis last rows of every dx zeroed once.
        x, self.terms, dx = np.full(n, np.nan), np.empty(A.rows), None
        if self.lam > 0.0:
            dx, self.trial_dx = np.zeros(2 * n), np.zeros(2 * n)
            self.mag, self.c, self.half = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
            self.image = np.empty(n)
        self.last, self._spare = _Evaluation(x, dx), None
        self.curve_floor = None  # no curve screen
        if A.rows and A.nnz >= CURVE_NNZ_PER_ROW * A.rows and A.max_row_nnz <= 2**20:
            # Rows of A x at or above the floor round to within 2**-46 of
            # their own size, subnormal products included, and keep
            # log(b / Ax) finite; so does a sum of A x at most the ceiling.
            b_min, b_max = float(self.b.min()), float(self.b.max())
            floor = max(A.max_row_nnz * (float(self.col_sums.max()) + 1.0) * 2.0**-1028,
                        b_max * 2.0**-1000)
            if b_min >= floor and self.sum_b <= 2.0**1000:
                self.curve_floor, self.curve_ceiling = floor, b_min * 2.0**1000
                # q >= q_floor keeps sum(b e**-q) <= 2**1000 and e**-q finite.
                self.q_floor = -min(EXP_ARG_MAX, 1000.0 * math.log(2.0) - math.log(self.sum_b))

    def search(self, geodesic) -> _Curve | None:
        # Note how the previous search went, for the probes of the next ones.
        curve, self._curve = self._curve, None
        outcome = (None, 0)
        if curve is not None and curve.accepted is not None:
            outcome = (curve.accepted, sum(tau > curve.accepted for tau in curve.past_screens))
        self._outcomes = (self._outcomes[1], outcome)
        # A curve needs the base point's exact log(b / Ax): its cached one.
        last = self.last
        if geodesic is None or last is None or last.q is None or not _same_point(last.x, geodesic.x):
            return None
        (two_back, _), (_, past_screens) = self._outcomes
        probe = two_back if past_screens >= PROBE_AFTER else None
        self._curve = _Curve(self.b, self.sum_b, self.q_floor, last.q, probe)
        return self._curve

    def _base_tv_rejects(self, lb: float, weight: float, limit: float) -> bool:
        """Whether the bound ``lb`` on the KL term, plus ``base_tv``, would
        reject the trial with the margin ``eta * (weight + base_tv)``; true
        when no base point is known.  A trial's own ``tv`` is computed for
        a bound only then, so the prediction lets a trial through that its
        own ``tv`` would have rejected only when that ``tv`` is above
        ``base_tv``.  It decides what is computed, never what is
        accepted."""
        base = self.base_tv
        return base is None or lb + base - limit > self.eta * (weight + base)

    def _kl(self, ax: np.ndarray, limit: float) -> tuple[float, np.ndarray | None]:
        # Same terms, in the same order, as divergence.kl(b, ax); also
        # log(b / ax), kept when the curve screen can use it.  A zero row
        # (a product that underflowed) makes the KL term inf: above a
        # finite limit, that rejects the trial; else it raises.
        b = self.b
        sum_ax = float(np.add.reduce(ax))
        ax_min = float(np.minimum.reduce(ax))
        if not (ax_min > 0.0 and math.isfinite(sum_ax)):
            if ax_min == 0.0 and limit < math.inf:
                return math.inf, None
            as_point(ax)  # raises as kl does, unless only the sum overflowed
        floor = self.curve_floor
        keep = floor is not None and floor <= ax_min and sum_ax <= self.curve_ceiling
        q = np.divide(b, ax, out=None if keep else self.terms)
        np.log(q, out=q)
        terms = np.multiply(q, b, out=self.terms)
        return float(np.add.reduce(terms)) - self.sum_b + sum_ax, (q if keep else None)

    def _tv(self, x: np.ndarray) -> float:
        # lam * sum(huber(Dx)), with Dx left in trial_dx.
        _differences(x, self.w, self.trial_dx)
        values = _huber_values(self.trial_dx, self.delta, self.mag, self.c, self.half)
        return self.lam * float(np.add.reduce(values))

    def _evaluate(self, x: np.ndarray, tv: float | None, limit: float = math.inf) -> _Evaluation:
        # x's exact evaluation, made the latest one unless it is cached.  A
        # given tv is x's, with its differences in trial_dx (0.0 for lam =
        # 0).  Nothing cached changes before the KL term has validated Ax.
        # A KL term above limit ends the evaluation when there is no tv, or
        # when it is inf: it returns a transient one, with the given tv,
        # and caches nothing.
        last = self.last
        if _same_point(last.x, x):
            return last
        ax = self.A.forward(x)
        kl_value, q = self._kl(ax, limit)
        if kl_value > limit and (tv is None or kl_value == math.inf):
            partial = _Evaluation(x, None)
            partial.ax, partial.kl_value, partial.tv, partial.q = ax, kl_value, tv, q
            return partial
        # Write over the latest evaluation, unless that is the kept one:
        # then over the spare, made at its first use.  So a solve that never
        # probes pays neither its memory (1.5 MB at n_side 256) nor a shift
        # of the scratch buffers, which moves _tv's speed by 15-20 % with
        # where they land mod 4096.
        new = last
        if self.kept is last:
            new = self._spare or _Evaluation(np.empty(x.size), None if last.dx is None else np.zeros(last.dx.size))
            self._spare = last
        if self.lam > 0.0:
            if tv is None:
                tv = self._tv(x)
            new.dx, self.trial_dx = self.trial_dx, new.dx
        np.copyto(new.x, x)
        new.ax, new.kl_value, new.tv, new.q = ax, kl_value, tv or 0.0, q
        self.last = new
        return new

    def _exact(self, x: np.ndarray, limit: float, search: _Curve | None, tau: float) -> tuple[float, str]:
        """One Armijo trial, by the tests of README's "The order of a
        trial's tests", cheapest first; the first that rejects the trial
        ends it, and names the cause:

        1. ``kl``: the log-sum bound ``lb = B log(B / y) - B + y``, with
           ``tv = 0``;
        2. ``kl_tv``: that bound plus the trial's ``tv``;
        3. ``curve``: the bound of the search's curve on the KL term (see
           :meth:`_Curve.bound`) plus ``tv``, with the margin
           ``eta * (B + y + F + tv + |lam| (y + F))``;
        4. ``kl_term``: the forward projection and the KL term, when no
           ``tv`` has been computed and the KL term alone exceeds
           ``limit``;
        5. ``value``: the Huber-TV value and the exact ``f``.

        A bound rejects when it exceeds ``limit`` by more than its margin.
        With ``lam > 0``, steps 2 and 3 compute ``tv`` only when
        :meth:`_base_tv_rejects`; once computed, it serves the later steps.
        Step 4 needs no margin: ``tv >= 0`` and rounding is monotone, so
        the computed ``kl + tv`` is at least ``kl``, and a trial at or
        below its limit still gets its exact ``f``.  Every trial that gets
        past step 2 with a search notes its step in the search, and every
        projected one its rows.

        The log-sum bound: by the log-sum inequality ``KL(b, Ax) >= KL(B,
        y)``, so ``lb`` bounds the KL term at the cost of one dot product;
        the Huber-TV value is at least 0, and so is every rounding of it, so
        ``lb`` bounds ``f`` too.  The margin covers the rounding:

        * ``y`` differs from the sum of the computed ``Ax`` by at most
          ``(n + s + r) u y`` (``u = 2**-53``; every term is nonnegative;
          ``s <= m`` and ``r <= n`` bound the entries of a column and a
          row), and ``|d KL(B, y) / dy| = |1 - B / y|`` turns that into at
          most ``(2n + m) u (B + y)`` in the bound; ``c = A^T 1`` is a sum
          of nonnegative terms in any order, so this holds however the
          operator and the dot product order their sums;
        * the rest is size-free: ``B log(B / y)`` is at most ``710 B`` (the
          ratio is finite), and if the exact path accepts, its terms
          ``b log(b / Ax)`` sum in absolute value to at most
          ``712 B + 2 y``, so the pairwise sums and the few operations
          around them are off by under ``5e-12 (B + y)``.  No ``tv`` is
          needed: rounding is monotone, so the exact path's ``kl + tv``,
          with ``tv >= 0``, rounds to at least its computed ``kl``.

        ``eta`` holds both with room to spare, and adding ``tv`` takes
        ``2 u tv`` more.  Without a ``y`` in ``(0, inf)`` no bound is made.
        A point whose computed ``Ax`` has a zero entry has ``f = inf``: a
        bound may reject it first, else the exact path answers ``inf``,
        caches nothing and counts it under ``kl_term`` when ``lam > 0`` and
        no ``tv`` was computed, else under ``value``; ``value_and_grad``,
        and ``value`` with an infinite ``limit``, raise ``ValueError`` there.

        The curve's bound: each row of the exact path's computed ``Ax``, as
        a ratio ``r = Ax / b``, must lie in ``[r_lo, r_hi]``:

        * a row of the computed ``Ax`` at a trial differs from the row of
          the exact curve by a relative ``2**-42 + r u``: the exponent
          ``w * tau`` (``|w tau| <= 700``) by ``700 u``, ``exp`` by
          ``2**-43``, the product by ``u``, and the row's sum of ``r``
          nonnegative terms by ``r u``, plus an absolute ``2**-1075`` per
          product or coordinate that rounds in the subnormal range, which
          is at most ``floor * 2**-47`` for the row, with the floor
          ``r (max(c) + 1) 2**-1028``.  An exact evaluation keeps its rows
          only when all of them, and all of ``b``, are at or above the
          floor; the kept ``log(b / Ax)`` adds ``746 u``.  With
          ``r <= 2**20`` the relative part is ``eps < 2.4e-10``;
        * the chord weighs two kept rows by ``1 - t`` and ``t``, a secant
          by ``1 + s`` and ``-s``, where ``s`` is the distance from the
          nearer point to ``tau`` over the distance between the two
          points: so with the trial's own row, the computed row lies
          within ``2 eps`` of the chord and ``(2 + 2s) eps`` of the
          secant, and forming them from rows of at most 694 in absolute
          value, ``s`` and ``t`` included, rounds by under
          ``1e-12 (1 + 2s)``.  The widening, ``CURVE_WIDENING`` on the
          chord and ``(1 + s)`` times it on the secant, covers both and
          the ``2**-43`` of each ``exp`` below, for any ``s`` (a secant
          from ``tau = 0`` through a probe at ``tau / 2**60`` has
          ``s ~ 2**60`` and bounds nothing, soundly);
        * so ``r_hi = e**-low`` bounds every row at or above the floor, and
          every row below it too: ``low`` is below the kept rows'
          ``log(b / floor)``.  ``r_lo = e**-high - 2**-46`` bounds every
          row, the absolute ``floor * 2**-47`` included, as
          ``floor <= b``;
        * the computed rows sum to ``y`` within ``(2n + m) u y`` (see the
          log-sum bound), so ``KL(b, Ax) >= g(lam) - |lam| (2n + m) u y``
          by weak duality, at ``lam = 1 / t - 1`` for the float ``t``
          whose ``r = clip(t, r_lo, r_hi)`` are exact;
        * ``g``'s terms ``b (r - log r)`` sum to at most ``F + 700 B`` and
          are summed pairwise, ``F`` is one dot product of ``m``
          nonnegative terms, and ``lam`` rounds by ``u (1 + 2 |lam|)``: so
          ``g`` is off by under ``5e-12 (B + F) + (m + 2) u (1 + |lam|)
          (F + y)``, and the exact path by ``5e-12 (B + y)``.  ``eta``
          covers all of these, with ``tv`` added as in step 2.

        ``t`` in ``[e**-700, e**-q_floor]`` keeps every ``exp`` and ``log``
        finite and ``F <= 2**1000``, with no warning; a ``lam`` term past
        the float range makes the bound or its margin infinite or NaN,
        which rejects nothing.  A bound costs about 20 passes over the
        rows, so :meth:`search` makes a curve only for operators with at
        least ``CURVE_NNZ_PER_ROW`` entries per row.
        """
        if self.last is None:
            self._setup()
        sum_b, eta = self.sum_b, self.eta
        tv = None if self.lam > 0.0 else 0.0
        # Not col_sums @ x: OpenBLAS threads that ddot, and concurrent solves stall.
        y = float(np.einsum("i,i->", self.col_sums, x))
        ratio = sum_b / y if y > 0.0 else 0.0  # 0 for y = inf or NaN too
        if 0.0 < ratio < math.inf:
            lb = sum_b * math.log(ratio) - sum_b + y
            if math.isfinite(lb) and lb - limit > eta * (sum_b + y):
                return lb, "kl"
            if tv is None and self._base_tv_rejects(lb, sum_b + y, limit):
                tv = self._tv(x)
                if math.isfinite(lb + tv) and lb + tv - limit > eta * (sum_b + y + tv):
                    return lb + tv, "kl_tv"
        else:
            y = None
        if search is not None:
            search.past_screens.append(tau)
            bound = None if y is None else search.bound(tau, y)
            if bound is not None:
                lb, weight = bound
                if tv is None and self._base_tv_rejects(lb, weight, limit):
                    tv = self._tv(x)
                if tv is not None and lb + tv - limit > eta * (weight + tv):
                    return lb + tv, "curve"
        evaluation = self._evaluate(x, tv, limit)
        if search is not None and evaluation.q is not None:
            search.record(tau, evaluation.q)
        if evaluation.tv is None:
            return evaluation.kl_value, "kl_term"
        f = evaluation.kl_value + evaluation.tv
        if f <= limit and search is not None:
            search.accepted = max(search.accepted or 0.0, tau)
            if tau == search.probe:
                self.kept = evaluation  # the search tries larger steps next
        return f, "value"

    def _exact_with_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        if self.last is None:
            self._setup()
        kept, self.kept = self.kept, None
        if kept is not None and kept is not self.last and _same_point(kept.x, x):
            # A search accepted a step it tried before larger ones.
            self.last, self._spare = kept, self.last
        evaluation = self._evaluate(x, None)
        self.base_tv = evaluation.tv
        weights = np.divide(self.b, evaluation.ax, out=self.terms)
        np.subtract(1.0, weights, out=weights)
        grad = self.A.adjoint(weights)
        if self.lam > 0.0:
            deriv = evaluation.dx.clip(-self.delta, self.delta, out=self.mag)
            image = self.image
            image.fill(0.0)
            _add_difference_adjoint(deriv, self.w, image)
            image *= self.lam
            grad += image
        return evaluation.kl_value + evaluation.tv, grad


def make_phantom(n_side: int) -> np.ndarray:
    """Deterministic piecewise-constant test image in ``(0, 1]``.

    Concentric annuli with an off-center inclusion on a small positive
    background, so the flattened image is a valid interior point and the
    edges exercise the TV term.
    """
    check_n_side(n_side)
    half = 0.5 * n_side
    centers = (np.arange(n_side) + 0.5 - half) / half
    yy, xx = np.meshgrid(centers, centers, indexing="ij")
    r = np.sqrt(xx * xx + yy * yy)
    img = np.zeros((n_side, n_side))
    img[r <= 0.92] = 0.25
    img[(r >= 0.72) & (r <= 0.92)] = 0.85
    img[(r >= 0.30) & (r <= 0.46)] = 0.60
    img[(xx - 0.30) ** 2 + (yy + 0.20) ** 2 <= 0.14**2] = 0.999
    return img + PHANTOM_BACKGROUND


def simulate_data(A: SparseOperator, x_true, seed=0, noisy: bool = False) -> np.ndarray:
    """Forward-project the ground truth, optionally with Poisson noise.

    Noiseless data equals ``A x_true`` exactly; noisy data replaces each
    mean with a seeded Poisson draw, floored at ``B_FLOOR`` so the result
    stays strictly positive.
    """
    b = A.forward(np.asarray(x_true, dtype=float).ravel())
    if noisy:
        rng = np.random.default_rng(seed)
        b = np.maximum(rng.poisson(b).astype(float), B_FLOOR)
    return b


def build_instance(
    n_side: int,
    undersampling: float = 0.2,
    lam: float = 0.01,
    delta: float = 0.01,
    noisy: bool = False,
    seed=0,
) -> tuple[ProblemInstance, np.ndarray]:
    """Assemble a phantom, projector, and data into one instance.

    Returns the instance together with the flattened ground-truth image.
    """
    phantom = make_phantom(n_side)
    A = build_projector(n_side, undersampling=undersampling)
    x_true = phantom.ravel()
    b = simulate_data(A, x_true, seed=seed, noisy=noisy)
    instance = ProblemInstance(A=A, b=b, lam=lam, delta=delta, image_shape=(n_side, n_side))
    return instance, x_true
