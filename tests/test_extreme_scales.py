"""Invariants at extreme scales: points from 1e-300 to 1e300, exponent
rates ``|v / x|`` up to 1e300 and beyond, steps up to 1e300.

A step along a prepared geodesic must be usable exactly when the
clamp-and-flag reference flags nothing, and then equal its point bit for
bit; an Armijo search must end within its halving cap, and a solve
must end in a defined status without a ``RuntimeWarning``.  The objective
is the package's own KL + Huber-TV objective with ``A = I``: then ``Ax``
is ``x`` exactly, so the exact value is defined at every usable trial.
"""

import dataclasses
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
    build_instance,
    constant_step,
    default_x0,
    exp_map,
    make_objective,
    relative_lipschitz_step,
    riemannian_grad,
    solve,
)
from egmin.geometry import EXP_ARG_MAX
from egmin.linesearch import SIGMA, TRIAL_STEPS
from test_kernels import assert_same_step, reference_update

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
            assert_same_step(exp_map(x, v, step, geodesic), reference_update(x, step * (v / x)))


@pytest.mark.parametrize(
    "x, w, tau",
    [
        ([1e-300, 1.0, 1e300], [-1.0, 0.0, -1.0], EXP_ARG_MAX),  # e**-700 of 1e-300 is 0
        ([1e-300, 1e-300], [-1e-3, -1e-3], 7e5),  # every coordinate underflows
        ([5e-324, 1.0], [-1.0, 1.0], 1.0),  # the smallest subnormal, over e, rounds to 0
        ([1e-308, 2.0], [-1.0, 1.0], 40.0),  # a subnormal that survives beside one that does not
    ],
)
def test_underflow_only_steps_need_no_second_pass(x, w, tau):
    # Every |z| <= EXP_ARG_MAX and the point is at most POINT_CEILING, so
    # nothing is clamped: only a zero makes the step unusable.
    x, w = np.array(x), np.array(w)
    want = reference_update(x, w * tau)
    assert want[2].any() and not want[1].any()
    assert_same_step(Geodesic(x, w).step(tau), want)


@PROPERTY
@given(data=st.data())
def test_armijo_terminates(data):
    n = data.draw(st.integers(1, 8))
    instance = data.draw(identity_instances(n))
    x = data.draw(arrays(float, n, elements=POINTS))
    kind = data.draw(st.sampled_from(list(GeometryKind)))
    tau_bar = data.draw(TAUS)
    params = ArmijoParams(tau_bar=tau_bar)
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
    assert step.halvings <= TRIAL_STEPS
    if step.status is StepStatus.ACCEPTED:
        assert step.new_point.min() > 0.0 and np.all(np.isfinite(step.new_point))
        assert step.new_value <= value + SIGMA * step.tau * slope
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


@pytest.mark.parametrize("scale", [2.0**20, 2.0**40])
def test_a_constant_step_run_is_the_same_at_any_data_scale(scale):
    # (c b, c x0, c delta) scales f by c and ipemd's step 1 / (2 ||b||_1)
    # by 1 / c, exactly.  At c = 2**40 that step is 8.7e-15, below the last
    # Armijo trial step from tau_bar = 1, 2**-33; no step size ends a run, so
    # the run must not end step_tol for it.
    instance, _ = build_instance(8, lam=0.0, seed=0)
    x0 = default_x0(instance.A.cols, seed=0)
    traces = []
    for c in (1.0, scale):
        scaled = dataclasses.replace(instance, b=c * instance.b, delta=c * instance.delta)
        config = SolverConfig(Method.IP_E_MD, constant_step(relative_lipschitz_step(scaled.b)), max_iterations=40)
        traces.append(solve(config, make_objective(scaled), c * x0))
    base, big = traces
    assert big.terminal_status is base.terminal_status is TerminalStatus.MAX_ITER
    assert [rec.f * scale for rec in base.records] == [rec.f for rec in big.records]
    assert [rec.tau for rec in base.records] == [rec.tau * scale for rec in big.records]
    assert np.array_equal(base.final_point * scale, big.final_point)


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_a_trial_whose_product_has_a_zero_row_is_rejected(lam):
    # 0.4 * 5e-324 rounds to 0: the trial at tau_bar, about [5e-324, 1], is
    # positive, finite and unflagged, but its computed Ax has a zero row, so
    # f = inf there.
    instance = ProblemInstance(
        A=SparseOperator(np.array([[0.4, 0.0], [0.0, 1.0]])), b=np.array([1e-310, 1.0]),
        lam=lam, delta=0.01, image_shape=(1, 2),
    )
    x, direction = np.array([1e-300, 1.0]), np.array([math.log(5e-24) * 1e-300, 0.0])
    point = exp_map(x, direction, 1.0).point
    assert 0.0 < point[0] and instance.A.forward(point)[0] == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        obj = make_objective(instance)
        value, grad = obj.value_and_grad(x)
        step = armijo_backtrack(obj, x, direction, ArmijoParams(), value, grad)
        if lam > 0.0:
            # The search's base point predicts that no screen needs the
            # trial's Huber-TV value, so it is rejected on its KL term.
            assert step.status is StepStatus.ACCEPTED and step.halvings == 1
            assert obj.rejected_by == {"kl_term": 1, "value": 0, "unusable": 0}
        else:
            # The KL term is f; no smaller step decreases f enough either.
            assert step.status is StepStatus.HIT_TAU_MIN
            assert obj.rejected_by == {"kl_term": 0, "value": step.halvings, "unusable": 0}
        # A bare trial computes the Huber-TV value first, and counts as value;
        # it is not cached, so a second one projects again.
        fresh, before = make_objective(instance), instance.A.application_count()
        for count in (1, 2):
            assert fresh.value(point, 1.0) == math.inf
            assert fresh.rejected_by == {"kl_term": 0, "value": count, "unusable": 0}
            assert instance.A.application_count() - before == count
        with pytest.raises(ValueError, match="strictly positive"):
            fresh.value_and_grad(point)
        with pytest.raises(ValueError, match="non-finite"):
            fresh.value(np.array([np.nan, 1.0]), 1.0)
