"""The single-pass Huber and exp-map kernels against the textbook forms.

The references below are the two-branch Huber value and derivative and the
clamp-and-flag multiplicative update, written as plainly as possible.  The
kernels must match them bit for bit, NaN positions included, on random
floats of every magnitude and on the edge values where the branches meet.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egmin import discrete_gradient, discrete_gradient_adjoint, exp_map, huber, multiplicative_update
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


def reference_update(x, z):
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


def assert_same_step(result, want):
    point, clamped, underflow = want
    assert result.point.tobytes() == point.tobytes()
    np.testing.assert_array_equal(result.clamped, clamped)
    np.testing.assert_array_equal(result.underflow, underflow)
    assert result.ok == (not (clamped.any() or underflow.any()))


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
        for z in v:  # one coordinate at a time: every flag alone
            one, z = np.ones(1), np.array([z])
            with np.errstate(all="ignore"):
                assert_same_step(multiplicative_update(one, z), reference_update(one, z))

    @pytest.mark.parametrize(
        "x, z",
        [
            (np.array([POINT_CEILING]), np.array([0.0])),  # at the ceiling: kept
            (np.array([POINT_CEILING]), np.array([1e-15])),  # just past it: saturated
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
        assert not step.ok and step.clamped[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            multiplicative_update(np.ones(3), np.ones(2))
        with pytest.raises(ValueError):
            exp_map(np.ones(1), np.ones(3), 1.0)
