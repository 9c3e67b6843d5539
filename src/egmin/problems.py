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
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


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
    if delta <= 0.0:
        raise ValueError(f"delta must be positive, got {delta}")
    arr = np.asarray(a, dtype=float)
    value = _huber_value(arr, delta)
    deriv = np.where(np.abs(arr) <= delta, arr, delta * np.sign(arr))
    if arr.ndim == 0:
        return float(value), float(deriv)
    return value, deriv


def _huber_value(arr: np.ndarray, delta: float) -> np.ndarray:
    """Elementwise Huber value, the one formula :func:`huber` and the
    objective's value-only path share.

    ``0.5 * |a| * |a|`` equals ``0.5 * a * a`` bit for bit; both branches
    are computed in place.  Past ``|a| ~ 1e154`` the discarded quadratic
    branch overflows to ``inf``; that is expected, so it raises no warning.
    """
    mag = np.abs(arr)
    with np.errstate(over="ignore"):
        linear = mag - 0.5 * delta
        linear *= delta
        square = 0.5 * mag
        square *= mag
    return np.where(mag <= delta, square, linear)


def discrete_gradient(image_shape: tuple[int, int], x) -> np.ndarray:
    """Forward differences along both image axes, stacked into one vector.

    The output has length ``2 * h * w``: first the down-axis differences,
    then the right-axis differences, with replicate boundary (zero
    difference at the last row/column).
    """
    h, w = image_shape
    img = np.asarray(x, dtype=float).reshape(h, w)
    out = np.empty((2, h, w))
    np.subtract(img[1:, :], img[:-1, :], out=out[0, :-1, :])
    np.subtract(img[:, 1:], img[:, :-1], out=out[1, :, :-1])
    out[0, -1, :] = 0.0
    out[1, :, -1] = 0.0
    return out.ravel()


def discrete_gradient_adjoint(image_shape: tuple[int, int], y) -> np.ndarray:
    """Exact transpose of :func:`discrete_gradient` (negative divergence)."""
    h, w = image_shape
    y = np.asarray(y, dtype=float)
    if y.size != 2 * h * w:
        raise ValueError(f"expected {2 * h * w} entries, got {y.size}")
    yr = y[: h * w].reshape(h, w)
    yc = y[h * w:].reshape(h, w)
    out = np.zeros((h, w))
    out[1:, :] += yr[:-1, :]
    out[:-1, :] -= yr[:-1, :]
    out[:, 1:] += yc[:, :-1]
    out[:, :-1] -= yc[:, :-1]
    return out.ravel()


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


def _huber_tv_value(x, lam: float, delta: float, image_shape) -> float:
    """``huber_tv(x, lam, delta, image_shape)[0]`` for ``lam > 0``, bit for
    bit, without the derivative, the adjoint or the argument checks."""
    return lam * float(_huber_value(discrete_gradient(image_shape, x), delta).sum())


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
    so ``lb = B log(B / y) - B + y + tv`` bounds ``f`` from below at the
    cost of one dot product.  When ``lb - limit > eta * (B + y + |tv|)``
    the trial returns ``lb`` with no forward projection; otherwise it
    returns the exact value.  ``eta`` covers the rounding of both
    computed values, so a screened trial is one whose exact value, as
    computed here, exceeds ``limit`` too:

    * ``y`` differs from the sum of the computed ``Ax`` by at most
      ``(n + s + r) u y`` (``u = 2**-53``; every term is nonnegative;
      ``s <= m`` and ``r <= n`` bound the entries of a column and a row),
      and ``|d KL(B, y) / dy| = |1 - B / y|`` turns that into at most
      ``(2n + m) u (B + y)`` in the bound;
    * the rest is size-free: ``B log(B / y)`` is at most ``710 B`` (the
      ratio is finite), and if the exact path accepts, its terms
      ``b log(b / Ax)`` sum in absolute value to at most ``712 B + 2 y``,
      so the pairwise sums and the few operations around them are off by
      under ``5e-12 (B + y)``, plus ``2 u |tv|`` for adding ``tv``.

    ``eta = 1e-10 + (2n + m) * 2**-52`` holds both with room to spare.  A
    point whose computed ``Ax`` has a zero entry has ``f = inf``: the
    exact path raises ``ValueError`` for it, the screen may reject it
    first.

    The last forward projection is cached by value, so evaluating the
    gradient at a point whose value was just computed (the accepted
    line-search trial) costs only the adjoint application.
    """
    A, b = instance.A, instance.b
    lam, delta, shape = instance.lam, instance.delta, instance.image_shape
    sum_b = float(b.sum())  # a Python float: the bound's overflow gives inf, not a warning
    col_sums = A.column_sums()
    eta = 1e-10 + (2 * A.cols + A.rows) * np.finfo(float).eps
    cache: dict = {"x": None, "ax": None}

    def _forward(x: np.ndarray) -> np.ndarray:
        if cache["x"] is not None and np.array_equal(cache["x"], x):
            return cache["ax"]
        ax = A.forward(x)
        cache["x"] = x.copy()
        cache["ax"] = ax
        return ax

    def _kl(ax: np.ndarray) -> float:
        # Same terms, in the same order, as divergence.kl(b, ax).
        sum_ax = ax.sum()
        if not (ax.min() > 0.0 and np.isfinite(sum_ax)):
            as_point(ax)  # raises as kl does, unless only the sum overflowed
        terms = b / ax
        np.log(terms, out=terms)
        terms *= b
        return float(terms.sum() - sum_b + sum_ax)

    def _tv(x: np.ndarray) -> float:
        return _huber_tv_value(x, lam, delta, shape) if lam > 0.0 else 0.0

    def _value(x: np.ndarray, limit: float) -> tuple[float, bool]:
        tv = None
        if limit < math.inf:
            y = float(col_sums @ x)
            ratio = sum_b / y if y > 0.0 else 0.0  # 0 for y = inf or NaN too
            if 0.0 < ratio < math.inf:
                tv = _tv(x)
                lb = sum_b * math.log(ratio) - sum_b + y + tv
                if math.isfinite(lb) and lb - limit > eta * (sum_b + y + abs(tv)):
                    return lb, True
        v = _kl(_forward(x))
        if lam > 0.0:
            v += _tv(x) if tv is None else tv
        return v, False

    def _value_and_grad(x: np.ndarray) -> tuple[float, np.ndarray]:
        ax = _forward(x)
        value = _kl(ax)
        grad = A.adjoint(1.0 - b / ax)
        if lam > 0.0:
            tv, tg = huber_tv(x, lam, delta, shape)
            value += tv
            grad = grad + tg
        return value, grad

    return Objective(
        value_and_grad=_value_and_grad,
        value=_value,
        matvecs=A.application_count,
    )


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
