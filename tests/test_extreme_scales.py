"""Invariants at extreme scales: points from 1e-300 to 1e300, exponent
rates ``|v / x|`` up to 1e300 and beyond, steps up to 1e300.

A step along a prepared geodesic must equal the clamp-and-flag reference
bit for bit, an Armijo search must end within its halving cap, and a solve
must end in a defined status without a ``RuntimeWarning``.  The objective
is the package's own KL + Huber-TV objective with ``A = I``: then ``Ax``
is ``x`` exactly, so the exact value is defined at every usable trial.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egmin import (
    ArmijoParams,
    Geodesic,
    GeometryKind,
    Method,
    ProblemInstance,
    SolverConfig,
    SparseOperator,
    StepStatus,
    TerminalStatus,
    armijo_backtrack,
    constant_step,
    exp_map,
    make_objective,
    relative_lipschitz_step,
    riemannian_grad,
    solve,
)
from egmin.geometry import _flagged_update

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def log_uniform(low: float, high: float):
    return st.floats(low, high).map(lambda e: 10.0**e)


def signed(magnitudes):
    return st.tuples(magnitudes, st.sampled_from([-1.0, 1.0])).map(lambda p: p[0] * p[1])


POINTS = st.one_of(log_uniform(-300.0, 300.0), st.sampled_from([1e-300, 1.0, 1e300]))
RATES = st.one_of(signed(log_uniform(-300.0, 300.0)), st.sampled_from([0.0, 1e300, -1e300]))
TAUS = st.one_of(log_uniform(-300.0, 300.0), st.sampled_from([1e-300, 1.0, 1e300]))


@st.composite
def identity_instances(draw, n):
    """``KL(b, x)`` plus Huber-TV on a ``1 x n`` image, ``b`` in [1e-6, 1e6]."""
    b = draw(arrays(float, n, elements=log_uniform(-6.0, 6.0)))
    lam = draw(st.sampled_from([0.0, 0.01]))
    return ProblemInstance(A=SparseOperator(np.eye(n)), b=b, lam=lam, delta=0.01, image_shape=(1, n))


@PROPERTY
@given(data=st.data())
def test_prepared_steps_match_the_flagged_update(data):
    n = data.draw(st.integers(1, 8))
    x = data.draw(arrays(float, n, elements=POINTS))
    w = data.draw(arrays(float, n, elements=RATES))
    tau = data.draw(TAUS)
    with np.errstate(all="ignore"):
        v = w * x  # may overflow: then v / x is infinite, and must be clamped
        geodesic = Geodesic.along(x, v)
        for k in range(0, 70, 3):  # one search: halvings of one prepared geodesic
            step = tau * 0.5**k
            got = exp_map(x, v, step, geodesic)
            want = _flagged_update(x, step * (v / x))
            assert got.point.tobytes() == want.point.tobytes()
            np.testing.assert_array_equal(got.clamped, want.clamped)
            np.testing.assert_array_equal(got.underflow, want.underflow)
            assert got.ok == want.ok


@PROPERTY
@given(data=st.data())
def test_armijo_terminates(data):
    n = data.draw(st.integers(1, 8))
    instance = data.draw(identity_instances(n))
    x = data.draw(arrays(float, n, elements=POINTS))
    kind = data.draw(st.sampled_from(list(GeometryKind)))
    tau_bar = data.draw(TAUS)
    params = ArmijoParams(tau_bar=tau_bar, tau_min=min(1e-10, tau_bar / 2))
    obj = make_objective(instance)
    value, grad = obj.value_and_grad(x)
    with np.errstate(over="ignore", invalid="ignore"):  # x**2 * g, and the slope, may overflow
        direction = -riemannian_grad(kind, x, grad)
        slope = float(np.sum(grad * direction))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if not math.isfinite(slope):
            with pytest.raises(ValueError, match="finite"):
                armijo_backtrack(obj, x, direction, params, value, grad)
            return
        step = armijo_backtrack(obj, x, direction, params, value, grad)
    assert step.halvings <= params.max_halvings + 1
    if step.status is StepStatus.ACCEPTED:
        assert step.new_point.min() > 0.0 and np.all(np.isfinite(step.new_point))
        assert step.new_value <= value + params.sigma * step.tau * slope
    else:
        assert step.new_point.tobytes() == x.tobytes()


def test_an_overflowing_slope_is_rejected_before_any_trial():
    instance = ProblemInstance(
        A=SparseOperator(np.eye(2)), b=np.ones(2), lam=0.0, delta=0.01, image_shape=(1, 2)
    )
    x, grad = np.ones(2), np.array([0.0, -1e305])
    direction = -riemannian_grad(GeometryKind.POISSON_FISHER_RAO, x, grad)

    def no_trial(*args):
        pytest.fail("a search with an overflowed slope prepared a trial")

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="finite"):
            armijo_backtrack(
                make_objective(instance), x, direction, ArmijoParams(), 0.0, grad, no_trial
            )
    assert instance.A.application_count() == 0


POLICIES = {
    Method.EG: [None],
    Method.POI_CG: [None],
    Method.IP_G_RGD: [None],
    Method.IP_E_MD: [ArmijoParams(), "lipschitz"],
}


@PROPERTY
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(data=st.data())
def test_solve_ends_in_a_defined_status(data):
    n = data.draw(st.integers(1, 8))
    instance = data.draw(identity_instances(n))
    x0 = data.draw(arrays(float, n, elements=POINTS))
    method = data.draw(st.sampled_from(list(POLICIES)))
    policy = data.draw(st.sampled_from(POLICIES[method]))
    if policy == "lipschitz":
        policy = constant_step(relative_lipschitz_step(instance.b))
    config = SolverConfig(method=method, linesearch=policy, max_iterations=25)
    trace = solve(config, make_objective(instance), x0)
    assert trace.terminal_status in set(TerminalStatus)
    assert len(trace.records) >= 1
    point = trace.final_point
    assert point.shape == x0.shape and point.min() > 0.0 and math.isfinite(point.max())
