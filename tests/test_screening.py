"""The log-sum screen of Armijo trials against an objective that ignores it.

``make_objective``'s ``value(x, limit)`` may answer a trial with the lower
bound ``B log(B / y) - B + y`` (``B = sum(b)``, ``y = sum(A x)``), or that
plus ``tv``, instead of ``f(x)``, but only when that proves
``f(x) > limit``.  These tests draw small random instances, points from
1e-300 to 1e300 and limits just below, at and above ``f(x)`` and both
bounds, and check that a caller comparing with ``limit`` can never tell
the difference.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egmin import (
    ArmijoParams,
    GeometryKind,
    Objective,
    ProblemInstance,
    SparseOperator,
    armijo_backtrack,
    build_instance,
    full_objective,
    huber_tv,
    make_objective,
    riemannian_grad,
)
from egmin.linesearch import geodesic_retraction
from egmin.problems import _huber_values, kl_fidelity
from egmin.solvers import quotient_retraction

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def instances(draw):
    """Nonnegative sparse ``A`` with no zero row, positive ``b``, ``lam`` 0 or 0.01."""
    h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m, n = draw(st.integers(1, 6)), h * w
    entry = st.one_of(st.just(0.0), st.floats(1e-3, 1e3))
    a = draw(arrays(float, (m, n), elements=entry))
    pivot = draw(arrays(np.int64, m, elements=st.integers(0, n - 1)))
    a[np.arange(m), pivot] = draw(arrays(float, m, elements=st.floats(1e-3, 1e3)))
    b = draw(arrays(float, m, elements=st.floats(1e-6, 1e6)))
    lam = draw(st.sampled_from([0.0, 0.01]))
    return ProblemInstance(A=SparseOperator(a), b=b, lam=lam, delta=0.01, image_shape=(h, w))


def points(n: int):
    return arrays(float, n, elements=st.floats(-300.0, 300.0).map(lambda e: 10.0**e))


# Offsets of a limit from its anchor: a few ulps and relative steps either way.
OFFSETS = [
    lambda v: v,
    lambda v: math.nextafter(v, -math.inf),
    lambda v: math.nextafter(v, math.inf),
    *(lambda v, r=r: v - r * abs(v) for r in (1e-15, 1e-12, 1e-10, 1e-9, 1e-6, 1e-3, 0.5)),
    *(lambda v, r=r: v + r * abs(v) for r in (1e-15, 1e-12, 1e-9, 1e-3)),
]


def exact_value(instance, x):
    """``f(x)`` on the exact path, or None where that path raises."""
    try:
        return make_objective(instance).value(x)
    except ValueError:
        return None


def log_sum_bounds(instance, x):
    """The screen's two bounds, without and with ``tv``, recomputed from the dense matrix."""
    y = float(np.sum(instance.A._matrix.toarray() @ x))
    sum_b = float(np.sum(instance.b))
    tv = huber_tv(x, instance.lam, instance.delta, instance.image_shape)[0] if instance.lam else 0.0
    with np.errstate(all="ignore"):
        bound = sum_b * np.log(sum_b / y) - sum_b + y
        return bound, bound + tv


def same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


@PROPERTY
@given(data=st.data())
def test_value_with_limit_is_exact_or_above_the_limit(data):
    instance = data.draw(instances())
    x = data.draw(points(instance.A.cols))
    exact = exact_value(instance, x)
    with np.errstate(all="ignore"):
        anchors = [v for v in (exact, *log_sum_bounds(instance, x)) if v is not None and math.isfinite(v)]
    assume(anchors)
    limit = data.draw(st.sampled_from(OFFSETS))(data.draw(st.sampled_from(anchors)))
    assume(math.isfinite(limit))

    obj = make_objective(instance)
    if exact is None:
        # A x underflowed to a zero entry (f = inf) or overflowed: the exact
        # path raises, and the screen may only reject the trial first.
        try:
            got = obj.value(x, limit)
        except ValueError:
            return
        assert got > limit
        return
    got = obj.value(x, limit)
    if exact <= limit:
        assert same_float(got, exact)
        assert obj.screened_trials == 0
    else:
        assert got > limit


RETRACTIONS = {
    "geodesic-fisher-rao": (GeometryKind.POISSON_FISHER_RAO, geodesic_retraction),
    "geodesic-interior-point": (GeometryKind.INTERIOR_POINT, geodesic_retraction),
    "quotient-interior-point": (GeometryKind.INTERIOR_POINT, quotient_retraction),
}
PARAMS = [ArmijoParams(), ArmijoParams(tau_bar=50.0)]


@PROPERTY
@given(data=st.data())
def test_armijo_is_the_same_with_and_without_the_screen(data):
    instance = data.draw(instances())
    x = data.draw(points(instance.A.cols))
    kind, retract = RETRACTIONS[data.draw(st.sampled_from(sorted(RETRACTIONS)))]
    params = data.draw(st.sampled_from(PARAMS))
    unscreened = make_objective(instance)
    reference = Objective(
        value_and_grad=unscreened.value_and_grad,
        value=unscreened.value,  # no limit: never screened
    )
    with np.errstate(all="ignore"):
        try:
            value, grad = reference.value_and_grad(x)
        except ValueError:
            assume(False)
        direction = -riemannian_grad(kind, x, grad)
        assume(math.isfinite(value) and np.all(np.isfinite(grad)) and np.all(np.isfinite(direction)))
        try:
            want = armijo_backtrack(reference, x, direction, params, value, grad, retract)
        except ValueError:
            assume(False)  # a trial's A x underflowed: the screen may reject it instead
        got = armijo_backtrack(make_objective(instance), x, direction, params, value, grad, retract)
    assert (got.tau, got.halvings, got.status) == (want.tau, want.halvings, want.status)
    assert got.new_point.tobytes() == want.new_point.tobytes()
    assert same_float(got.new_value, want.new_value)


def test_screened_trial_costs_no_forward_projection():
    instance, x_true = build_instance(16, seed=1)
    obj = make_objective(instance)
    x = 50.0 * x_true  # far above the data: KL(B, y) alone exceeds f(x_true)
    instance.A.reset_counts()
    limit = obj.value(x_true)
    assert instance.A.forward_count == 1
    bound = obj.value(x, limit)
    assert bound > limit
    assert instance.A.forward_count == 1
    assert obj.screened_trials == 1
    assert bound <= obj.value(x)  # a lower bound on the exact value
    assert instance.A.forward_count == 2
    assert obj.screened_trials == 1


@pytest.mark.parametrize("limit", [math.inf, math.nan])
def test_no_screen_without_a_finite_limit(limit):
    instance, x_true = build_instance(16, seed=1)
    obj = make_objective(instance)
    instance.A.reset_counts()
    obj.value(50.0 * x_true, limit)
    assert (instance.A.forward_count, obj.screened_trials) == (1, 0)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_a_tight_kl_bound_keeps_its_margin(lam):
    # With b = A x computed and a constant image, the exact KL and TV values
    # are 0 and the log-sum bound is tight: rounding alone puts it a few
    # ulps of B above f = 0 at 11 of these 200 levels.  A limit of f must
    # still get f.
    base, _ = build_instance(16, seed=0)
    for level in np.random.default_rng(0).uniform(0.5, 1.5, 200):
        x = np.full(base.A.cols, level)
        instance = ProblemInstance(A=base.A, b=base.A.forward(x), lam=lam, delta=0.01, image_shape=(16, 16))
        obj = make_objective(instance)
        exact = obj.value(x)
        assert exact == 0.0
        assert same_float(obj.value(x, exact), exact)
        assert obj.screened_trials == 0


def test_kl_bound_alone_rejects_without_a_tv_value(monkeypatch):
    # A trial the KL bound rejects on its own computes no Huber-TV value.
    instance, x_true = build_instance(16, seed=1)
    obj = make_objective(instance)
    limit = obj.value(x_true)
    calls = []
    monkeypatch.setattr("egmin.problems._huber_values", lambda *args: calls.append(args))
    assert obj.value(50.0 * x_true, limit) > limit
    assert obj.screened_trials == 1 and not calls


def oracle(function, *args):
    """``function(*args)[0]``, or None where it raises or is not finite."""
    with np.errstate(all="ignore"):
        try:
            value = function(*args)[0]
        except ValueError:
            return None
    return value if math.isfinite(value) else None


@PROPERTY
@given(data=st.data())
def test_a_trial_past_the_screens_is_rejected_on_its_kl_term_with_no_tv_value(data):
    # After a gradient at a base point, a screen computes a trial's Huber-TV
    # value only when its bound plus the base point's would reject the
    # trial, and a trial that gets past the screens with none is rejected on
    # its KL term when that alone exceeds the limit.  The base point is
    # another point, the trial itself (the prediction is then exact) or a
    # flat image (a base TV of 0).  A limit at or above f must still get
    # full_objective's f, bit for bit.
    drawn = data.draw(instances())
    instance = ProblemInstance(A=drawn.A, b=drawn.b, lam=0.01, delta=0.01, image_shape=drawn.image_shape)
    n = instance.A.cols
    x = data.draw(points(n))
    base = data.draw(st.sampled_from(["point", "trial", "flat"]))
    base = {"point": lambda: data.draw(points(n)), "trial": x.copy, "flat": lambda: np.ones(n)}[base]()
    exact = oracle(full_objective, instance, x)
    kl_term = oracle(kl_fidelity, instance.A, instance.b, x)
    with np.errstate(all="ignore"):
        bound, bound_tv = log_sum_bounds(instance, x)
        # Between the bound and the KL term lie the limits no screen can reject.
        between = None if kl_term is None else 0.5 * bound + 0.5 * kl_term
        anchors = [v for v in (exact, kl_term, bound_tv, between) if v is not None and math.isfinite(v)]
    assume(anchors)
    limit = data.draw(st.sampled_from(OFFSETS))(data.draw(st.sampled_from(anchors)))
    assume(math.isfinite(limit))

    obj = make_objective(instance)
    with np.errstate(all="ignore"):
        try:
            obj.value_and_grad(base)
        except ValueError:
            assume(False)  # the base point's A x has a zero row
    with mock.patch("egmin.problems._huber_values", wraps=_huber_values) as spy:
        try:
            got = obj.value(x, limit)
        except ValueError:
            assert exact is None  # A x underflowed to a zero entry, or overflowed
            return
    if obj.rejected_by["kl_term"]:
        event("rejected on its KL term")
        assert spy.call_count == 0
        assert got > limit and (kl_term is None or same_float(got, kl_term))
    if exact is not None and exact <= limit:
        assert same_float(got, exact)
        assert obj.screened_trials == 0 and sum(obj.rejected_by.values()) == 0
    else:
        assert got > limit
