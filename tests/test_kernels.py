"""The single-pass Huber, exp-map and quotient kernels against the textbook forms.

The references below are the two-branch Huber value and derivative, the
Huber product formed always under ``np.errstate``, the clamp-and-flag
multiplicative update and the quotient update ``x / (1 + tau * x * g)``,
written as plainly as possible.  The Huber kernels must match theirs bit
for bit, NaN positions included, on random floats of every magnitude and
on the edge values where the branches meet.  An exp-map step must be
usable exactly when the reference flags no coordinate, and then its point
must match the reference's bit for bit; an EG step must be the geodesic
step ``Geodesic(x, -tau * g).step(1.0)`` bit for bit.  A quotient step must
give the reference's point, usability and warnings.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egmin import (
    ProblemInstance,
    SparseOperator,
    discrete_gradient,
    discrete_gradient_adjoint,
    exp_map,
    huber,
    huber_tv,
    make_objective,
    step_eg,
    step_ip_e_md,
)
from egmin import divergence, geometry
from egmin.geometry import EXP_ARG_MAX, POINT_CEILING, Geodesic
from egmin.problems import _huber_values

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)
DELTAS = (3e-7, 0.01, 1.0, 1e10)
TINY = 2.0**-1021


def reference_huber(a, delta):
    mag = np.abs(a)
    with np.errstate(over="ignore"):
        linear = (mag - 0.5 * delta) * delta
        square = 0.5 * mag * mag
    value = np.where(mag <= delta, square, linear)
    deriv = np.where(mag <= delta, a, delta * np.sign(a))
    return value, deriv


def guarded_huber_values(a, delta):
    """``c * (|a| - c/2)`` with ``c = min(|a|, delta)``, the product always
    under ``np.errstate(over="ignore")``, for every ``delta``."""
    mag = np.abs(a)
    c = np.minimum(mag, delta)
    mag -= c * 0.5
    with np.errstate(over="ignore"):
        mag *= c
    return mag


def reference_quotient(x, g, tau):
    """``x / (1 + tau * x * g)``: ``(x, False)`` unless every denominator is
    positive, else the quotient, usable when no coordinate is zero."""
    denom = 1.0 + tau * x * g
    if not np.all(denom > 0.0):
        return x, False
    point = x / denom
    return point, bool(np.all(point != 0.0))


def with_warnings(fn, *args):
    """``fn(*args)`` and the ``(category, message)`` of every warning it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args)
    return result, [(w.category, str(w.message)) for w in caught]


def reference_update(x, z):
    """``(point, clamped, underflow)``: ``x * exp(z)`` with the exponent
    clamped to ``[-EXP_ARG_MAX, EXP_ARG_MAX]`` and coordinates past
    ``POINT_CEILING`` saturated there, with per-coordinate flags for both
    and for coordinates that rounded to zero."""
    clamped = np.abs(z) > EXP_ARG_MAX
    with np.errstate(over="ignore"):
        point = x * np.exp(np.clip(z, -EXP_ARG_MAX, EXP_ARG_MAX))
    over = ~np.isfinite(point) | (point > POINT_CEILING)
    if over.any():
        point = np.where(over, POINT_CEILING, point)
        clamped = clamped | over
    return point, clamped, point == 0.0


def reference_differences(shape, x):
    h, w = shape
    img = x.reshape(h, w)
    out = np.zeros((2, h, w))
    out[0, :-1, :] = img[1:, :] - img[:-1, :]
    out[1, :, :-1] = img[:, 1:] - img[:, :-1]
    return out.ravel()


def reference_difference_adjoint(shape, y):
    h, w = shape
    yr, yc = y[: h * w].reshape(h, w), y[h * w:].reshape(h, w)
    out = np.zeros((h, w))
    out[1:, :] += yr[:-1, :]
    out[:-1, :] -= yr[:-1, :]
    out[:, 1:] += yc[:, :-1]
    out[:, :-1] -= yc[:, :-1]
    return out.ravel()


def assert_same_floats(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def multiplicative_update(x, z):
    """``x * exp(z)``: one step of the geodesic ``Geodesic(x, z)`` at ``tau = 1``."""
    return Geodesic(x, z).step(1.0)


def assert_same_bits(result, want):
    # Two steps with the same usability and the same point, NaNs in place.
    assert result.ok is want.ok
    assert_same_floats(result.point, want.point)


def assert_same_step(result, want):
    # A step is (point, ok): usable exactly when the reference flags no
    # coordinate, and then with the reference's point, bit for bit.
    point, clamped, underflow = want
    got_point, ok = result
    assert ok is (not (clamped.any() or underflow.any()))
    if ok:
        assert got_point.shape == point.shape and got_point.tobytes() == point.tobytes()


def huber_edges(delta):
    near = [np.nextafter(delta, 0.0), delta, np.nextafter(delta, np.inf)]
    values = [0.0, 5e-324, TINY, np.nextafter(TINY, 0.0), 1e-200, 1e154, 1e200, 1e308, np.inf, *near]
    return np.array(values + [-v for v in values] + [np.nan])


ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


class TestHuberKernel:
    @pytest.mark.parametrize("delta", DELTAS)
    def test_edge_values(self, delta):
        a = huber_edges(delta)
        want_value, want_deriv = reference_huber(a, delta)
        value, deriv = huber(a, delta)
        assert_same_floats(value, want_value)
        assert_same_floats(deriv, want_deriv)

    @PROPERTY
    @given(data=st.data())
    def test_random_floats(self, data):
        delta = data.draw(st.sampled_from(DELTAS))
        a = data.draw(arrays(np.float64, st.integers(1, 40), elements=st.one_of(
            ANY_FLOAT, st.sampled_from(list(huber_edges(delta))))))
        want_value, want_deriv = reference_huber(a, delta)
        kept = [np.full(a.size, 7.0) for _ in range(3)]  # buffers as the objective keeps them
        assert_same_floats(_huber_values(a, delta, *kept), want_value)
        assert_same_floats(_huber_values(a, delta), want_value)
        assert_same_floats(huber(a, delta)[1], want_deriv)

    def test_scalars(self):
        for delta in DELTAS:
            for a in huber_edges(delta):
                value, deriv = huber(a, delta)
                want_value, want_deriv = reference_huber(np.array(a), delta)
                assert_same_floats(value, want_value)
                assert_same_floats(deriv, want_deriv)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta", DELTAS)
    def test_overflow_raises_no_warning(self, delta):
        # Only delta > 1 can overflow a finite product (1e10 * 1e300 here);
        # an infinite |a| gives inf without an overflow flag.
        a = np.array([1e300, -1e300, np.nextafter(1e300, 0.0), 1.7e308, np.inf, -np.inf, 1.0])
        want_value, _ = reference_huber(a, delta)
        assert_same_floats(_huber_values(a, delta), want_value)
        assert_same_floats(huber(a, delta)[0], want_value)
        assert np.isinf(want_value[0]) == (delta > 1.0)

    @pytest.mark.parametrize("delta", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_a_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            huber(1.0, delta)


BIG = np.finfo(float).max


def count_errstate(monkeypatch) -> list:
    """Record each ``np.errstate`` entered from now on (numpy is one module,
    so every caller's is seen)."""
    entered, errstate = [], np.errstate
    monkeypatch.setattr(np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
    return entered


class TestHuberGuard:
    """``_huber_values`` guards its product only for ``delta > 1``: below,
    ``c <= 1`` keeps ``c * (|a| - c/2)`` at most ``|a|``.  Both sides must
    raise no warning and give the always-guarded product bit for bit, in
    ``huber``, ``huber_tv`` and an objective's trial path."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta", [5e-324, 3e-7, 0.01, 0.5, 1.0, 1.0 + 2.0**-52, 4.0, 1e10, 1e300])
    def test_products_up_to_the_largest_float(self, monkeypatch, delta):
        a = np.array([BIG, -BIG, np.nextafter(BIG, 0.0), 1e308, 1e300,
                      np.inf, -np.inf, delta, 1.0, 0.0, np.nan])
        want = guarded_huber_values(a, delta)
        entered = count_errstate(monkeypatch)
        assert_same_floats(_huber_values(a, delta), want)
        assert_same_floats(_huber_values(a, delta, *(np.empty(a.size) for _ in range(3))), want)
        assert_same_floats(huber(a, delta)[0], want)
        assert len(entered) == (3 if delta > 1.0 else 0)
        # The finite products overflow exactly when delta > 1.
        assert np.isinf(want[:5]).any() == (delta > 1.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta", [0.01, 0.2])
    def test_huber_tv_with_differences_up_to_inf(self, delta):
        # Differences of +-BIG and +-inf, no inf - inf: the sum of the values
        # stays finite apart from the infinite ones.
        for x in ([0.0, BIG, np.inf, 0.0], [1.0, BIG, BIG, 1.0]):
            x = np.array(x)
            want = 0.3 * float(np.sum(guarded_huber_values(discrete_gradient((2, 2), x), delta)))
            assert huber_tv(x, 0.3, delta, (2, 2))[0] == want
        assert huber_tv(np.array([0.0, BIG, np.inf, 0.0]), 0.3, delta, (2, 2))[0] == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("delta, x", [
        (1.0, [1.0, BIG]),  # one difference of BIG, just below an overflow of the sum
        (0.01, [1.0, BIG, 1.0, 1.0]),  # two differences of +-BIG
        (4.0, [1.0, 1e308]),  # 4 * (1e308 - 2) overflows: f is inf
        (1e10, [1.0, 1e300, 1e300, 1.0]),
    ])
    def test_trial_path(self, delta, x):
        # With A = 2**-100 I and b = A x the KL term is 0 (b / Ax is exactly
        # 1), so a trial's f is its Huber-TV value, and sum(b) stays within
        # the data's bound of 2**1000; an infinite f is above every finite limit.
        x = np.array(x)
        shape = (1, 2) if x.size == 2 else (2, 2)
        lam = 0.5
        want = lam * float(np.sum(guarded_huber_values(discrete_gradient(shape, x), delta)))
        assert huber_tv(x, lam, delta, shape)[0] == want
        assert math.isinf(want) == (delta > 1.0)
        instance = ProblemInstance(SparseOperator(2.0**-100 * np.eye(x.size)), 2.0**-100 * x, lam, delta, shape)
        assert make_objective(instance).value(x) == want
        assert make_objective(instance).value(x, math.inf) == want
        f = make_objective(instance).value(x, 1e300)
        assert f == want if want <= 1e300 else f > 1e300


class TestDifferenceKernels:
    @PROPERTY
    @given(data=st.data())
    def test_match_the_two_axis_forms(self, data):
        h, w = data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7))
        values = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, -0.0, np.nan, np.inf]))
        x = data.draw(arrays(np.float64, h * w, elements=values))
        y = data.draw(arrays(np.float64, 2 * h * w, elements=values))
        with np.errstate(invalid="ignore"):
            assert_same_floats(discrete_gradient((h, w), x), reference_differences((h, w), x))
            assert_same_floats(discrete_gradient_adjoint((h, w), y), reference_difference_adjoint((h, w), y))


def exponent_edges():
    up = np.nextafter(EXP_ARG_MAX, np.inf)
    down = np.nextafter(EXP_ARG_MAX, 0.0)
    values = [0.0, -0.0, 1.0, 690.0, down, EXP_ARG_MAX, up, 745.0, 1e300, np.inf]
    return np.array(values + [-v for v in values] + [np.nan])


POINT = st.one_of(
    st.floats(5e-324, POINT_CEILING, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-300, 1.0, 1e290, POINT_CEILING]),
)
EXPONENT = st.one_of(ANY_FLOAT, st.sampled_from(list(exponent_edges())))
TAUS = [0.0, -0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, np.inf, np.nan]


class TestExpMapKernel:
    @PROPERTY
    @given(data=st.data())
    def test_multiplicative_update(self, data):
        n = data.draw(st.integers(0, 12))
        x = data.draw(arrays(np.float64, n, elements=POINT))
        z = data.draw(arrays(np.float64, n, elements=EXPONENT))
        want = reference_update(x, z)
        assert_same_step(multiplicative_update(x, z), want)
        # An EG step along the gradient z is the update of exponent -tau * z.
        tau = data.draw(st.one_of(st.sampled_from(TAUS), st.floats(allow_nan=True, allow_infinity=True)))
        with np.errstate(all="ignore"):
            assert_same_bits(step_eg(x, z, tau), multiplicative_update(x, -tau * z))

    @PROPERTY
    @given(data=st.data())
    def test_exp_map(self, data):
        n = data.draw(st.integers(0, 12))
        x = data.draw(arrays(np.float64, n, elements=POINT))
        v = data.draw(arrays(np.float64, n, elements=EXPONENT))
        tau = data.draw(st.one_of(st.sampled_from(TAUS), st.floats(allow_nan=True, allow_infinity=True)))
        with np.errstate(all="ignore"):
            want = reference_update(x, tau * (v / x))
            got = exp_map(x, v, tau)
        assert_same_step(got, want)

    @pytest.mark.parametrize("tau", TAUS)
    def test_edge_exponents(self, tau):
        # x = 1 makes the exponent tau * v exactly: |z| = 700, nextafter(700),
        # NaN and +-inf included.
        v = exponent_edges()
        x = np.ones(v.size)
        with np.errstate(all="ignore"):
            want = reference_update(x, tau * (v / x))
            assert_same_step(exp_map(x, v, tau), want)
            assert_same_bits(step_eg(x, v, tau), multiplicative_update(x, -tau * v))
        for z in v:  # one coordinate at a time: every flag alone
            one, z = np.ones(1), np.array([z])
            with np.errstate(all="ignore"):
                assert_same_step(multiplicative_update(one, z), reference_update(one, z))
                assert_same_bits(step_eg(one, z, tau), multiplicative_update(one, -tau * z))
        empty = np.empty(0)  # an empty point steps to an empty, usable point
        want = reference_update(empty, empty)
        assert_same_step(Geodesic(empty, empty).step(tau), want)
        assert_same_step(exp_map(empty, empty, tau), want)

    @pytest.mark.parametrize(
        "x, z",
        [
            (np.array([POINT_CEILING]), np.array([0.0])),  # at the ceiling: kept
            (np.array([POINT_CEILING]), np.array([1e-15])),  # just past it: unusable
            (np.array([1e-300, 1.0]), np.array([-200.0, 0.0])),  # underflow to zero
            (np.array([5e-324, 1.0]), np.array([-1.0, 0.0])),  # subnormal rounds to zero
            (np.array([1e10]), np.array([700.0])),  # product overflows
            (np.empty(0), np.empty(0)),
        ],
    )
    def test_flag_cases(self, x, z):
        assert_same_step(multiplicative_update(x, z), reference_update(x, z))
        v = z * x  # exp_map(x, v, 1) has exponent v / x, close to z
        with np.errstate(all="ignore"):
            assert_same_step(exp_map(x, v, 1.0), reference_update(x, 1.0 * (v / x)))

    @pytest.mark.parametrize(
        "x, w",
        [
            ([POINT_CEILING, 1.0], [1e-3, 0.0]),  # ceiling: max(x) * e**(tau max w) just past it
            ([1e300, 1.0], [0.01, -0.01]),
            ([1e-300, 1.0], [-1.0, 0.0]),  # floor: the small coordinate underflows to zero
            ([5e-324, 1.0], [-1.0, 0.0]),  # a subnormal coordinate rounds to zero
            ([1e-300, 1e300], [-0.5, 0.5]),
        ],
    )
    def test_steps_along_one_prepared_geodesic(self, x, w):
        # The taus of a search, halving from far past both bounds to well
        # inside them: every step must equal the clamp-and-flag reference.
        x, w = np.array(x), np.array(w)
        geodesic = Geodesic(x, w)
        taus = [1e3 * 0.5**k for k in range(40)] + [-1.0, 0.0]
        with np.errstate(all="ignore"):
            for tau in taus:
                assert_same_step(geodesic.step(tau), reference_update(x, w * tau))
            v = w * x
            geodesic = Geodesic.along(x, v)
            for tau in taus:
                assert_same_step(exp_map(x, v, tau, geodesic), reference_update(x, tau * (v / x)))

    def test_overflow_past_the_fast_path_raises_no_warning(self):
        with np.errstate(all="raise"):
            step = exp_map(np.array([1e10, 1.0]), np.array([7e12, 1.0]), 1.0)
        assert not step.ok

    def test_dimension_mismatch(self):
        # Each function that takes two or more vectors checks their shapes
        # before any arithmetic, which would broadcast (1,) against (3,) or
        # raise numpy's own error for (3,) against (2,).
        ip, fr = geometry.GeometryKind.INTERIOR_POINT, geometry.GeometryKind.POISSON_FISHER_RAO
        calls = {
            "multiplicative_update": multiplicative_update,
            "exp_map": lambda x, v: exp_map(x, v, 1.0),
            "Geodesic": Geodesic,
            "Geodesic.along": Geodesic.along,
            "metric_inner u": lambda x, v: geometry.metric_inner(ip, x, v, x),
            "metric_inner v": lambda x, v: geometry.metric_inner(fr, x, x, v),
            "riemannian_grad ip": lambda x, v: geometry.riemannian_grad(ip, x, v),
            "riemannian_grad fr": lambda x, v: geometry.riemannian_grad(fr, x, v),
            "transport_e x_new": lambda x, v: geometry.transport_e(x, v, x),
            "transport_e v": lambda x, v: geometry.transport_e(x, x, v),
            "m_hessian_apply": lambda x, v: geometry.m_hessian_apply(x, v, lambda u: u),
            "kl": lambda x, v: divergence.kl(v, x),
            "h_derivatives": lambda x, v: divergence.h_derivatives(x, v, 1.0),
        }
        for name, call in calls.items():
            for x, v in ((np.ones(3), np.ones(2)), (np.ones(1), np.ones(3)), (np.ones(3), np.ones(1))):
                with np.errstate(all="raise"), pytest.raises(ValueError, match="dimension mismatch"):
                    call(x, v)
                    pytest.fail(f"{name} took shapes {x.shape} and {v.shape}")

    @pytest.mark.parametrize(
        "x, w, tau, proven",
        [
            ([0.5, 2.0], [1.0, -1.0], 3.0, True),  # well inside both bounds
            ([1e-300, 1.0], [-1.0, 0.0], 20.0, False),  # in range, subnormal: usable, not proven
            ([1e-300, 1.0], [-1.0, 0.0], 400.0, False),  # in range, underflows to zero
            ([1e300, 1.0], [1.0, 0.0], 0.1, False),  # in range, past the ceiling
            ([1.0, 1.0], [1.0, -1.0], 800.0, False),  # out of range both ways, clipped
            ([1.0, 1.0], [1e300, 0.0], 1e300, False),  # an infinite exponent
            ([1.0, 1.0], [1.0, 0.0], np.nan, False),  # a NaN exponent
        ],
    )
    def test_each_path_of_each_entry_point(self, monkeypatch, x, w, tau, proven):
        # Geodesic.step, a prepared exp_map and multiplicative_update agree
        # with the reference on the proven path, on the checked path in
        # range, and out of range; only the checked path takes np.errstate.
        x, w = np.array(x), np.array(w)
        with np.errstate(all="ignore"):
            z = w * tau
            want = reference_update(x, z)
            v = w * x
            want_along = reference_update(x, tau * (v / x))
            geodesic = Geodesic.along(x, v)
        entered, errstate = [], np.errstate
        monkeypatch.setattr(geometry.np, "errstate", lambda **kw: entered.append(kw) or errstate(**kw))
        assert_same_step(Geodesic(x, w).step(tau), want)
        assert_same_step(exp_map(x, v, tau, geodesic), want_along)
        assert_same_step(multiplicative_update(x, z), want)
        assert len(entered) == (0 if proven else 3)


ANY_TAU = st.one_of(st.sampled_from(TAUS), ANY_FLOAT)
POSITIVE = st.one_of(
    st.floats(5e-324, BIG, allow_subnormal=True),
    st.sampled_from([5e-324, 1e-300, 1.0, 1e300, BIG]),
)
GRADIENT = st.one_of(
    ANY_FLOAT,
    st.sampled_from([0.0, -0.0, -1.0, 1e-308, -1e-308, BIG, -BIG, np.inf, -np.inf, np.nan]),
)


def assert_same_quotient(x, g, tau):
    (point, ok), caught = with_warnings(step_ip_e_md, x, g, tau)
    (want, want_ok), want_caught = with_warnings(reference_quotient, x, g, tau)
    assert ok is want_ok
    assert point.shape == want.shape and point.tobytes() == want.tobytes()
    assert caught == want_caught
    return point, ok


class TestQuotientKernel:
    """``step_ip_e_md`` forms ``tau * x``, ``* g``, ``+ 1`` and the quotient
    in one buffer and tests both with a minimum: the textbook update's
    point, usability and warnings, on points of the orthant."""

    @PROPERTY
    @given(data=st.data())
    def test_random_points(self, data):
        n = data.draw(st.integers(0, 12))
        x = data.draw(arrays(np.float64, n, elements=POSITIVE))
        g = data.draw(arrays(np.float64, n, elements=GRADIENT))
        assert_same_quotient(x, g, data.draw(ANY_TAU))

    @pytest.mark.parametrize("g, tau", [
        ([-1.0, 1.0], 1.0),  # a zero denominator
        ([-2.0, 1.0], 1.0),  # a negative one
        ([np.nan, 1.0], 0.1),  # a NaN gradient
        ([1.0, 1.0], np.nan),  # a NaN step
        ([-BIG, 1.0], 10.0),  # tau * x * g overflows to -inf
        ([np.inf, 1.0], 0.0),  # 0 * inf is NaN
    ])
    def test_infeasible(self, g, tau):
        x = np.array([1.0, 2.0])
        point, ok = assert_same_quotient(x, np.array(g), tau)
        assert point is x and ok is False

    def test_a_coordinate_that_underflows_to_zero(self):
        point, ok = assert_same_quotient(np.array([5e-324, 1.0]), np.array([1e24, 0.0]), 1e300)
        assert point[0] == 0.0 and point[1] == 1.0 and ok is False

    def test_a_denominator_that_overflows_to_inf(self):
        point, ok = assert_same_quotient(np.array([1.0, 2.0]), np.array([BIG, 1.0]), 10.0)
        assert point[0] == 0.0 and ok is False

    def test_a_quotient_that_overflows_to_inf(self):
        x = np.array([1e308, 1.0])
        g = np.array([-(1.0 - 1e-9) / 1e308, 0.0])
        point, ok = assert_same_quotient(x, g, 1.0)
        assert point[0] == math.inf and point[1] == 1.0 and ok is True

    @pytest.mark.parametrize("tau", TAUS)
    def test_an_empty_point(self, tau):
        point, ok = assert_same_quotient(np.empty(0), np.empty(0), tau)
        assert point.shape == (0,) and ok is True
