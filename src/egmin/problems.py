"""Poisson inverse-problem test bed: KL data fidelity plus Huber-TV.

The objective is ``f(x) = KL(b, A x) + lam * sum(huber(Dx, delta))`` for a
nonnegative projection operator ``A``, positive count data ``b``, and the
two-axis forward-difference operator ``D``.  The fidelity term is convex
but neither Lipschitz-smooth nor relatively smooth with respect to the
negative entropy, which is exactly the regime the geodesic line-search
solvers are built for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import kl
from .geometry import as_point
from .objective import Objective
from .operators import SparseOperator
from .projector import build_projector

B_FLOOR = 1e-8  # replaces zero Poisson draws to keep the data positive
PHANTOM_BACKGROUND = 1e-3


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
        if self.lam < 0.0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if not 0.0 < self.delta < math.inf:
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


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
    derivative, ``clip(a, -delta, delta)``, needs no such argument.  Past
    ``delta * |a| ~ 1.8e308`` the value overflows to ``inf``; that is
    expected, so it raises no warning.  Only ``delta > 1`` can overflow
    a finite product, so only then is the guard set.
    """
    mag = np.abs(a, out=out)
    c = np.minimum(mag, delta, out=c)
    half = np.multiply(c, 0.5, out=half)
    mag -= half
    if delta <= 1.0:  # c <= 1, so |value| <= |a|; an infinite |a| raises no flag
        mag *= c
    else:
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
    if lam < 0.0:
        raise ValueError(f"lam must be nonnegative, got {lam}")
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


def make_objective(instance: ProblemInstance) -> Objective:
    """Bundle an instance into a solver-ready :class:`Objective`.

    Line-search trials compute values only: the KL term and the Huber
    values of the forward differences, with no Huber derivative and no
    adjoint.  Both paths give bit for bit what :func:`full_objective`
    gives.  The KL term is bound to the data, which
    :class:`ProblemInstance` validated once (``b > 0``, so every term is
    ``b log(b / Ax)``); per call only ``Ax`` is checked.

    A trial with a finite ``limit`` is screened first.  By the log-sum
    inequality ``KL(b, Ax) >= KL(B, y)`` with ``B = sum(b)`` and
    ``y = sum(Ax) = c^T x``, where ``c = A^T 1`` comes from the operator,
    so ``lb_kl = B log(B / y) - B + y`` bounds the KL term from below at
    the cost of one dot product.  The Huber-TV value ``tv`` is at least
    0, and so is every rounding of it, so ``lb_kl`` bounds ``f`` too: when
    ``lb_kl - limit > eta * (B + y)`` the trial returns ``lb_kl`` with no
    TV value and no forward projection.  Otherwise, with a TV term, it
    computes ``tv`` and tries ``lb = lb_kl + tv`` with the margin
    ``eta * (B + y + tv)``; failing both, it returns the exact value.
    ``eta`` covers the rounding of both computed values, so a screened
    trial is one whose exact value, as computed here, exceeds ``limit``
    too:

    * ``y`` differs from the sum of the computed ``Ax`` by at most
      ``(n + s + r) u y`` (``u = 2**-53``; every term is nonnegative;
      ``s <= m`` and ``r <= n`` bound the entries of a column and a row),
      and ``|d KL(B, y) / dy| = |1 - B / y|`` turns that into at most
      ``(2n + m) u (B + y)`` in the bound; ``c = A^T 1`` is a sum of
      nonnegative terms in any order, so this holds however the
      operator orders its sums;
    * the rest is size-free: ``B log(B / y)`` is at most ``710 B`` (the
      ratio is finite), and if the exact path accepts, its terms
      ``b log(b / Ax)`` sum in absolute value to at most ``712 B + 2 y``,
      so the pairwise sums and the few operations around them are off by
      under ``5e-12 (B + y)``, plus ``2 u tv`` for adding ``tv`` in the
      second test.  The first needs no ``tv`` term: rounding is monotone,
      so the exact path's ``kl + tv``, with ``tv >= 0``, rounds to at
      least its computed ``kl``.

    ``eta = 1e-10 + (2n + m) * 2**-52`` holds both with room to spare.  A
    point whose computed ``Ax`` has a zero entry has ``f = inf``: the
    exact path raises ``ValueError`` for it, the screen may reject it
    first.

    The last exact evaluation is cached by value (``np.array_equal``, so
    an in-place edit of ``x`` is seen): its point, ``Ax``, KL value, TV
    value and forward differences ``Dx``.  The gradient at that point (the
    accepted line-search trial) then costs one adjoint application plus
    ``1 - b / Ax``, ``clip(Dx, -delta, delta)`` and ``D^T``; a screened
    trial never replaces the cached point.  The objective owns its scratch
    buffers (the differences, the Huber scratch, one data-sized vector and
    one image); they and the screen's constants are set up by its first
    evaluation, so that building an objective stays cheap.  So an
    objective is not re-entrant: use one per solve.
    """
    evaluation = _Evaluation(instance)
    return Objective(
        value_and_grad=evaluation.value_and_grad,
        value=evaluation.value,
        matvecs=instance.A.application_count,
    )


class _Evaluation:
    """The state behind :func:`make_objective`'s callables.

    ``x`` (a kept copy), ``ax``, ``kl``, ``tv`` and ``dx`` (the forward
    differences) describe the last exact evaluation, when ``cached`` is
    set.  ``trial_dx`` holds the differences of the latest trial, ``terms``
    the KL terms or the gradient weights, ``mag``, ``c`` and ``half`` the
    Huber scratch (``mag`` also the derivative) and ``image`` ``D^T``'s
    output.  The buffers and the screen's constants are set up by the first
    evaluation; the difference buffers' down-axis last rows are zeroed
    once, as :func:`_differences` needs.
    """

    __slots__ = (
        "A", "b", "lam", "delta", "w", "sum_b", "col_sums", "eta", "cached", "x", "ax", "kl",
        "tv", "dx", "trial_dx", "terms", "mag", "c", "half", "image",
    )

    def __init__(self, instance: ProblemInstance):
        self.A, self.b = instance.A, instance.b
        self.lam, self.delta, self.w = instance.lam, instance.delta, instance.image_shape[1]
        self.cached = False
        self.x = None

    def _setup(self) -> None:
        A, n = self.A, self.A.cols
        # A Python float: the bound's overflow gives inf, not a warning.
        self.sum_b = float(self.b.sum())
        self.col_sums = A.column_sums()
        self.eta = 1e-10 + (2 * n + A.rows) * 2.0**-52
        self.x, self.terms = np.empty(n), np.empty(A.rows)
        if self.lam > 0.0:
            self.dx, self.trial_dx = np.zeros(2 * n), np.zeros(2 * n)
            self.mag, self.c, self.half = np.empty(2 * n), np.empty(2 * n), np.empty(2 * n)
            self.image = np.empty(n)

    def _kl(self, ax: np.ndarray) -> float:
        # Same terms, in the same order, as divergence.kl(b, ax).
        b = self.b
        sum_ax = ax.sum()
        if not (ax.min() > 0.0 and np.isfinite(sum_ax)):
            as_point(ax)  # raises as kl does, unless only the sum overflowed
        terms = np.divide(b, ax, out=self.terms)
        np.log(terms, out=terms)
        terms *= b
        return float(terms.sum() - self.sum_b + sum_ax)

    def _tv(self, x: np.ndarray) -> float:
        # lam * sum(huber(Dx)), with Dx left in trial_dx.
        _differences(x, self.w, self.trial_dx)
        values = _huber_values(self.trial_dx, self.delta, self.mag, self.c, self.half)
        return self.lam * float(values.sum())

    def _evaluate(self, x: np.ndarray, tv: float | None) -> None:
        # Exact value at x, made the cached evaluation.  A given tv is x's,
        # with its differences in trial_dx.  Nothing cached changes before
        # the KL term has validated Ax.
        ax = self.A.forward(x)
        kl_value = self._kl(ax)
        if self.lam > 0.0:
            if tv is None:
                tv = self._tv(x)
            self.dx, self.trial_dx = self.trial_dx, self.dx
        np.copyto(self.x, x)
        self.cached, self.ax, self.kl, self.tv = True, ax, kl_value, tv

    def value(self, x: np.ndarray, limit: float) -> tuple[float, bool]:
        x = np.asarray(x, dtype=float)
        if self.x is None:
            self._setup()
        tv = None
        if limit < math.inf:
            sum_b = self.sum_b
            y = float(self.col_sums @ x)
            ratio = sum_b / y if y > 0.0 else 0.0  # 0 for y = inf or NaN too
            if 0.0 < ratio < math.inf:
                lb = sum_b * math.log(ratio) - sum_b + y
                if math.isfinite(lb) and lb - limit > self.eta * (sum_b + y):
                    return lb, True
                if self.lam > 0.0:
                    tv = self._tv(x)
                    lb += tv
                    if math.isfinite(lb) and lb - limit > self.eta * (sum_b + y + tv):
                        return lb, True
        if not (self.cached and np.array_equal(self.x, x)):
            self._evaluate(x, tv)
        v = self.kl
        if self.lam > 0.0:
            v += self.tv
        return v, False

    def value_and_grad(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        x = np.asarray(x, dtype=float)
        if self.x is None:
            self._setup()
        if not (self.cached and np.array_equal(self.x, x)):
            self._evaluate(x, None)
        value = self.kl
        weights = np.divide(self.b, self.ax, out=self.terms)
        np.subtract(1.0, weights, out=weights)
        grad = self.A.adjoint(weights)
        if self.lam > 0.0:
            value += self.tv
            deriv = np.clip(self.dx, -self.delta, self.delta, out=self.mag)
            image = self.image
            image.fill(0.0)
            _add_difference_adjoint(deriv, self.w, image)
            image *= self.lam
            grad += image
        return value, grad


def make_phantom(n_side: int) -> np.ndarray:
    """Deterministic piecewise-constant test image in ``(0, 1]``.

    Concentric annuli with an off-center inclusion on a small positive
    background, so the flattened image is a valid interior point and the
    edges exercise the TV term.
    """
    if n_side < 4:
        raise ValueError(f"n_side must be at least 4, got {n_side}")
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
