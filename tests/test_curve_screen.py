"""The curve screen: Armijo trials bounded by the earlier trials on their e-geodesic.

Each row of ``A x(tau)`` along ``x(tau) = x * exp(tau * w)`` is log-convex
in ``tau``, so ``make_objective`` bounds ``q(tau) = log(b / A x(tau))``
row by row from the exact rows of a search's base point and of its exact
trials, widened by ``CURVE_WIDENING``, and may reject a trial from that
bound and the sum ``c^T x(tau)`` with no forward projection.  These tests use operators
above the gate (at least ``CURVE_NNZ_PER_ROW`` entries per row), points
from 1e-300 to 1e300, and check that the exact rows lie where the bound
needs them, that a curve-screened trial's exact value exceeds its limit,
that a search returns what it returns without any screen, and that no
``RuntimeWarning`` is raised on the way.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, event, given, settings
from hypothesis import strategies as st

from scipy import sparse

import egmin.solvers
from egmin.linesearch import TRIAL_STEPS, geodesic_retraction
from egmin.solvers import quotient_retraction
from egmin import (
    EXP_ARG_MAX,
    ArmijoParams,
    Geodesic,
    Method,
    Objective,
    ProblemInstance,
    SolverConfig,
    SparseOperator,
    armijo_backtrack,
    huber_tv,
    make_objective,
    solve,
)
from egmin.problems import CURVE_NNZ_PER_ROW, _Curve

PROPERTY = settings(
    max_examples=300,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@st.composite
def cases(draw):
    """A dense ``m x n`` operator above the gate, data ``b`` and a base point ``x``.

    ``x`` is spread over up to 600 decades around a drawn scale; ``b`` is
    either a perturbed projection of a point near ``x`` (so that trials
    near the fit are rejected by small margins) or spread over 12 decades.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = draw(st.integers(1, 4)), CURVE_NNZ_PER_ROW + draw(st.integers(0, 16))
    a = 10.0 ** rng.uniform(-draw(st.sampled_from([0.0, 1.0, 3.0])), 0.0, (m, n))
    spread = draw(st.sampled_from([0.0, 1.0, 10.0, 300.0]))
    scale = draw(st.sampled_from([1e-300, 1e-100, 1.0, 1e100, 1e300]))
    with np.errstate(over="ignore"):
        x = np.clip(scale * 10.0 ** rng.uniform(-spread, spread, n), 1e-300, 1e300)
    if draw(st.booleans()):
        b = (a @ (x * rng.uniform(0.5, 2.0, n))) * rng.uniform(0.9, 1.1, m)
    else:
        b = 10.0 ** rng.uniform(-6.0, 6.0, m)
    assume(np.all(np.isfinite(b)) and b.min() > 0.0 and b.sum() <= 2.0**1000)  # valid data
    lam = draw(st.sampled_from([0.0, 0.01]))
    instance = ProblemInstance(A=SparseOperator(a), b=b, lam=lam, delta=0.01, image_shape=(1, n))
    return instance, x


def unscreened(instance) -> Objective:
    obj = make_objective(instance)
    return Objective(value_and_grad=obj.value_and_grad, value=obj.value)


def exact_value(instance, x) -> float:
    """``f(x)`` as the exact path computes it; ``inf`` where that path raises."""
    with np.errstate(all="ignore"):
        try:
            return make_objective(instance).value(x)
        except ValueError:
            return math.inf


def same_float(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def exact_q(instance, point) -> np.ndarray:
    """``log(b / A x)`` as the exact path computes it."""
    return np.log(instance.b / instance.A.forward(point))


@PROPERTY
@given(data=st.data())
def test_rows_clipped_to_their_intervals_lie_between_zero_and_the_exact_rows(data):
    instance, x = data.draw(cases())
    rates = data.draw(st.sampled_from([1e-3, 1.0, 1e3, 1e300]))
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, x.size) * rates
    tau_bar = data.draw(st.sampled_from([1e-3, 1.0, 1e3]))
    obj = make_objective(instance)
    geodesic = Geodesic(x, w)
    # Exact evaluations may warn at these scales (b / Ax past 1e308); the
    # curve, made from kept rows, must not.
    with np.errstate(all="ignore"):
        try:
            obj.value(x)
        except ValueError:
            assume(False)  # A x has a zero row: no search starts here
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        search = obj.search(geodesic)
    assume(search is not None)
    checked = 0
    for k in range(12):
        tau = tau_bar * 0.5**k
        step = geodesic.step(tau)
        if not step.ok:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bounds = search.interval(tau)
        with np.errstate(all="ignore"):
            try:
                obj.value(step.point, math.inf, search, tau)  # exact; the search records it
            except ValueError:
                continue
            q = exact_q(instance, step.point)
        if bounds is not None:
            # At t = 1 the bound takes 0 clipped to the interval: it must lie
            # between 0 and the exact row, so that no term exceeds the exact one.
            low, high = bounds
            low = np.full(q.size, -np.inf) if low is None else low
            clipped = np.minimum(np.maximum(low, 0.0), high)
            between = np.where(q >= 0.0, (0.0 <= clipped) & (clipped <= q), (q <= clipped) & (clipped <= 0.0))
            assert np.all(between)
            checked += 1
    event(f"trials checked: {min(checked, 2)}{'+' if checked >= 2 else ''}")
    assume(checked)


def test_a_log_linear_curve_keeps_its_widening():
    # With one rate on every coordinate, every row of A x(tau) is
    # e**(rate tau) A x: the chord and the secant are one line, and the
    # exact rows fall an ulp or so to either side of it.  The widening
    # must keep all of them inside.
    rng = np.random.default_rng(0)
    m, n = 64, CURVE_NNZ_PER_ROW
    a = rng.uniform(0.5, 1.5, (m, n))
    x = rng.uniform(0.5, 1.5, n)
    instance = ProblemInstance(
        A=SparseOperator(a), b=(a @ x) * rng.uniform(0.5, 2.0, m), lam=0.0, delta=0.01, image_shape=(1, n)
    )
    for rate in (-3.0, -0.3, 0.7):
        obj = make_objective(instance)
        obj.value_and_grad(x)
        geodesic = Geodesic(x, np.full(n, rate))
        search = obj.search(geodesic)
        for k in range(20):
            tau = 0.5**k
            point = geodesic.step(tau).point
            bounds = search.interval(tau)
            if bounds is not None:
                low, high = bounds
                q = exact_q(instance, point)
                assert low is None or np.all(low <= q)
                assert np.all(q <= high)
            obj.value(point, math.inf, search, tau)


def solve_with_steps(config, obj, x0):
    """``solve``, and the result of each of its Armijo searches."""
    steps = []

    def search(*args, **kwargs):
        steps.append(armijo_backtrack(*args, **kwargs))
        return steps[-1]

    with mock.patch.object(egmin.solvers, "armijo_backtrack", search):
        return solve(config, obj, x0), steps


@st.composite
def poisson_instances(draw):
    """Sparse rows of at least ``CURVE_NNZ_PER_ROW`` entries, Poisson counts
    with zero draws floored at 1e-8, ``lam = 0``; the operator and the
    starting point are scaled by up to 1e150 each, and the data mostly to
    match, else 1e20 off."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n = 64, draw(st.sampled_from([256, 512]))
    per_row = CURVE_NNZ_PER_ROW + draw(st.integers(0, 32))
    rows = np.repeat(np.arange(m), per_row)
    cols = np.concatenate([rng.choice(n, per_row, replace=False) for _ in range(m)])
    scale_a, scale_x = (draw(st.sampled_from([1.0, 1e-150, 1e-20, 1e20, 1e150])) for _ in range(2))
    scale_b = scale_a * scale_x * draw(st.sampled_from([1.0, 1.0, 1.0, 1e-20, 1e20]))
    a = sparse.csr_matrix((scale_a * rng.uniform(0.1, 1.5, m * per_row), (rows, cols)), shape=(m, n))
    y = a @ (rng.uniform(0.0, 1.0, n) ** 3 + 1e-3)
    counts = draw(st.sampled_from([2.0, 5.0, 20.0]))
    b = np.maximum(rng.poisson(y * (counts / y.mean())), 1e-8) * (scale_b / counts)
    assume(b.min() > 0.0 and b.max() < math.inf and b.sum() <= 2.0**1000)  # valid data
    x0 = scale_x * rng.uniform(0.5, 1.5, n)
    instance = ProblemInstance(A=SparseOperator(a), b=b, lam=0.0, delta=0.01, image_shape=(1, n))
    return instance, x0, scale_a, scale_x


@settings(PROPERTY, max_examples=150)
@given(data=st.data())
def test_searches_match_the_unscreened_ones(data):
    # A solve makes one search per iteration; with and without the screen,
    # every search must return the same step, point and value, and every
    # curve-screened trial's exact value must exceed its limit.
    instance, x0, scale_a, scale_x = data.draw(poisson_instances())
    method = data.draw(st.sampled_from([Method.EG, Method.POI_CG, Method.IP_G_RGD]))
    # Steps scaled as the geodesic's rates are, so that the solve moves as it would unscaled.
    tau_bar = 1.0 / scale_a if method is not Method.IP_G_RGD else 1.0 / (scale_a * scale_x)
    params = ArmijoParams(tau_bar=tau_bar)
    config = SolverConfig(method, params, max_iterations=60, grad_norm_tol=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            want, want_steps = solve_with_steps(config, unscreened(instance), x0)
        except ValueError:
            assume(False)  # a point's A x underflowed to a zero row
    # The exact path alone may warn at such scales; the screen must not add any.
    assume(not caught)

    obj = make_objective(instance)
    screened = []
    value_of = obj.value

    def spying_value(point, limit=math.inf, search=None, tau=0.0):
        before = obj.screened_by.get("curve", 0)
        f = value_of(point, limit, search, tau)
        if obj.screened_by.get("curve", 0) > before:
            screened.append((point.copy(), limit, f))
        return f

    obj.value = spying_value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, got_steps = solve_with_steps(config, obj, x0)
    event(f"curve-screened trials: {'0' if not screened else '1-9' if len(screened) < 10 else '10+'}")
    assert len(got_steps) == len(want_steps)
    for step, reference in zip(got_steps, want_steps):
        assert (step.tau, step.halvings, step.status) == (reference.tau, reference.halvings, reference.status)
        assert step.new_point.tobytes() == reference.new_point.tobytes()
        assert same_float(step.new_value, reference.new_value)
    assert got.terminal_status is want.terminal_status
    assert got.final_point.tobytes() == want.final_point.tobytes()
    for point, limit, bound in screened:
        assert bound > limit
        assert exact_value(instance, point) > limit


def test_the_trial_not_the_retraction_says_it_lies_on_a_geodesic():
    # A wrapped geodesic retraction prepares the same geodesic trials, so
    # its searches keep the curve screen; the quotient map's trials lie on
    # no e-geodesic, so no search of them gets a context.
    rng = np.random.default_rng(0)
    m, n = 64, 256
    rows = np.repeat(np.arange(m), CURVE_NNZ_PER_ROW)
    cols = np.concatenate([rng.choice(n, CURVE_NNZ_PER_ROW, replace=False) for _ in range(m)])
    a = sparse.csr_matrix((rng.uniform(0.1, 1.5, m * CURVE_NNZ_PER_ROW), (rows, cols)), shape=(m, n))
    y = a @ (rng.uniform(0.0, 1.0, n) ** 3 + 1e-3)
    b = np.maximum(rng.poisson(y * (5.0 / y.mean())), 1e-8) / 5.0
    instance = ProblemInstance(A=SparseOperator(a), b=b, lam=0.0, delta=0.01, image_shape=(1, n))
    plain, wrapped, quotient = (make_objective(instance) for _ in range(3))
    contexts = []
    value_of = quotient.value

    def spying_value(point, limit=math.inf, search=None, tau=0.0):
        contexts.append(search)
        return value_of(point, limit, search, tau)

    quotient.value = spying_value
    x = rng.uniform(0.5, 1.5, n)
    for _ in range(40):
        value, grad = plain.value_and_grad(x)
        for obj in (wrapped, quotient):
            obj.value_and_grad(x)
        want = armijo_backtrack(plain, x, -x * grad, ArmijoParams(), value, grad)
        got = armijo_backtrack(wrapped, x, -x * grad, ArmijoParams(), value, grad,
                               lambda x, d, g: geodesic_retraction(x, d, g))
        assert (got.tau, got.halvings, got.status) == (want.tau, want.halvings, want.status)
        assert got.new_point.tobytes() == want.new_point.tobytes()
        armijo_backtrack(quotient, x, -x * x * grad, ArmijoParams(), value, grad, quotient_retraction)
        x = want.new_point
    assert plain.screened_by["curve"] > 0
    assert wrapped.screened_by == plain.screened_by
    assert contexts and all(search is None for search in contexts)
    assert quotient.screened_by["curve"] == 0


def test_a_tight_curve_keeps_its_margin():
    # With b the computed A x of the trial, a hundred-trillionth off, and
    # log-linear rows, 0 lies in every row's interval: the bound is 0.0
    # exactly, and rounding puts the exact value below 0 at 60 of these
    # 200 levels.  A limit of f must still get f.
    rng = np.random.default_rng(0)
    m, n = 64, CURVE_NNZ_PER_ROW
    operator = SparseOperator(rng.uniform(0.5, 1.5, (m, n)))
    below_zero = 0
    for _ in range(200):
        x = rng.uniform(0.5, 1.5, n)
        geodesic = Geodesic(x, np.full(n, -0.3))
        point = geodesic.step(0.25).point
        b = operator.forward(point) * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, m))
        instance = ProblemInstance(A=operator, b=b, lam=0.0, delta=0.01, image_shape=(1, n))
        obj = make_objective(instance)
        obj.value_and_grad(x)
        search = obj.search(geodesic)
        for tau in (1.0, 0.5):
            obj.value(geodesic.step(tau).point, math.inf, search, tau)
        y = float(operator.column_sums() @ point)
        lb, weight = search.bound(0.25, y)
        assert lb == 0.0
        exact = exact_value(instance, point)
        below_zero += exact < 0.0
        assert same_float(obj.value(point, exact, search, 0.25), exact)
        assert obj.screened_trials == 0
    assert below_zero


def closed_form_curve(m: int, exact) -> _Curve:
    """A curve over ``b = ones(m)`` with ``q = 0`` at ``tau = 0``, each
    ``(tau, q)`` of ``exact`` recorded on every row, and a floor far below."""
    curve = _Curve(np.ones(m), float(m), -EXP_ARG_MAX, np.zeros(m))
    for tau, q in exact:
        curve.record(tau, np.full(m, q))
    return curve


def test_a_water_level_weighs_its_multiplier():
    # Past the only trial, at tau = 0.5, the secant gives each row
    # r_lo = e**0.5 less the widening, and no upper end.  The water level
    # with sum y = 2.5 m is t = y / m = 2.5 above every r_lo, so each
    # r = t, F = y, the multiplier is 1 / t - 1 = -0.6, and the weight
    # m + y + F + |1 / t - 1| (y + F) is 72, not the 48 without its last term.
    m = 8
    curve = closed_form_curve(m, [(0.5, -0.25)])
    y = 2.5 * m
    lb, weight = curve.bound(1.0, y)
    assert weight == pytest.approx(72.0, rel=1e-14)
    assert lb == pytest.approx(m * (2.5 - math.log(2.5)) - m, rel=1e-14)


def test_rows_clipped_at_their_lower_end_keep_the_slack():
    # Between exact trials at 0.25 and 1, tau = 0.5 has the chord below and
    # the secant through 0 and 0.25 above, both near q = -0.5.  With both
    # ends t = 1 lies below r_lo = e**-high - 2**-46 > 1, so every row is
    # r = r_lo, and the bound and its weight carry the slack.
    m, y = 8, 12.0
    curve = closed_form_curve(m, [(0.25, -0.25), (1.0, -1.0)])
    low, high = curve.interval(0.5)
    assert np.all(low < high) and np.all(np.exp(-high) > 1.0)
    r = np.exp(-high) - 2.0**-46
    lb, weight = curve.bound(0.5, y)
    # Without the slack the bound moves by 4e-14 relative, the weight by 3e-15.
    assert lb == pytest.approx(float(np.sum(r - np.log(r))) - m, rel=4e-15, abs=0.0)
    assert weight == pytest.approx(m + y + float(np.sum(r)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "x_scale, b",
    [(1e-320, [1.0, 1.0, 1.0]), (1e-9, [1e-307, 1e-7, 1e-7])],  # rows of A x, or data, below the floor
)
def test_no_search_from_rows_that_round_coarsely(x_scale, b):
    # A subnormal row is off by up to 2**-1075 absolutely, far more than the
    # widening covers relative to its size.
    rng = np.random.default_rng(2)
    n = CURVE_NNZ_PER_ROW
    a = rng.uniform(0.5, 1.5, (3, n))
    x = x_scale * rng.uniform(0.5, 1.5, n)
    instance = ProblemInstance(A=SparseOperator(a), b=b, lam=0.0, delta=0.01, image_shape=(1, n))
    obj = make_objective(instance)
    with np.errstate(over="ignore"):  # the exact path's b / Ax
        obj.value_and_grad(x)
    assert obj.search(Geodesic(x, -x)) is None


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_below_the_gate_no_search_is_made(lam):
    rng = np.random.default_rng(1)
    n = CURVE_NNZ_PER_ROW - 1
    a = rng.uniform(0.5, 1.5, (3, n))
    x = rng.uniform(0.5, 1.5, n)
    instance = ProblemInstance(A=SparseOperator(a), b=a @ x, lam=lam, delta=0.01, image_shape=(1, n))
    obj = make_objective(instance)
    obj.value_and_grad(x)
    assert obj.search(Geodesic(x, -x)) is None


@pytest.mark.parametrize("lam", [0.0, 0.01])
def test_a_probe_that_met_its_limit_stays_cached_until_a_larger_step_meets_its_own(lam):
    # A probe-first search above the gate: the probe at tau = 1/4 meets its
    # limit, then the step 1 is projected.  If that misses its limit (by one
    # ulp, so no screen can reject it first), the search accepts the probe,
    # whose gradient adds one adjoint and no forward product.  If it meets
    # its limit, the probe is wasted, and the gradient at the accepted
    # larger step adds no forward product either.
    rng = np.random.default_rng(3)
    n = CURVE_NNZ_PER_ROW
    a = rng.uniform(0.1, 1.0, (8, n))
    b = np.maximum(rng.poisson(a @ rng.uniform(0.0, 2.0, n) ** 3), 1e-8)
    instance = ProblemInstance(A=SparseOperator(a), b=b, lam=lam, delta=0.01, image_shape=(1, n))
    x = rng.uniform(0.5, 1.5, n)
    for larger_meets in (False, True):
        obj = make_objective(instance)
        grad = obj.value_and_grad(x)[1]
        trial = geodesic_retraction(x, -x * grad, grad)
        search = obj.search(trial.geodesic)
        search.probe = 0.25
        (probe, _), (larger, _) = trial(0.25), trial(1.0)
        f_probe, f_larger = exact_value(instance, probe), exact_value(instance, larger)
        assert obj.value(probe, f_probe, search, 0.25) == f_probe
        limit = f_larger if larger_meets else np.nextafter(f_larger, -np.inf)
        assert obj.value(larger, limit, search, 1.0) == f_larger
        assert obj.screened_trials == 0 and obj.rejected_by["value"] == (not larger_meets)
        assert search.accepted == (1.0 if larger_meets else 0.25)
        instance.A.reset_counts()
        obj.value_and_grad(larger if larger_meets else probe)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (0, 1)


@PROPERTY
@given(data=st.data())
def test_probe_secants_bound_the_larger_trials_within_the_margin(data):
    # A probe-first search projects the probe at tau_bar * 2**-p, then tries
    # the steps from tau_bar down.  Each is bounded from the secant through
    # tau = 0 and the probe, extended by up to 2**p - 1, or from the exact
    # trials above it, and from the sum y; with equal rates on every
    # coordinate the rows are log-linear, the secant is exact and the lower
    # ends sum to y within their widening.  No bound may exceed the trial's
    # exact value by more than its margin, and none may raise a warning.
    instance, x = data.draw(cases())
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    spread = data.draw(st.sampled_from([0.0, 0.0, 1e-9, 1e-3, 1.0]))
    w = data.draw(st.sampled_from([-1.0, 1.0])) + spread * rng.uniform(-1.0, 1.0, x.size)
    w *= data.draw(st.sampled_from([1e-3, 1.0, 1e3, 1e300]))
    tau_bar = data.draw(st.sampled_from([1e-3, 1.0, 30.0, 600.0])) / float(np.abs(w).max())
    p = data.draw(st.integers(1, TRIAL_STEPS - 1))
    obj = make_objective(instance)
    with np.errstate(all="ignore"):
        try:
            obj.value(x)
        except ValueError:
            assume(False)  # A x has a zero row: no search starts here
    geodesic = Geodesic(x, w)
    search = obj.search(geodesic)
    assume(search is not None)
    taus = [tau_bar]
    while len(taus) <= p:
        taus.append(taus[-1] * 0.5)
    checked = 0
    for k in [p] + list(range(p)):
        step = geodesic.step(taus[k])
        if not step.ok:
            continue
        exact = exact_value(instance, step.point)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            # The curve step of the trial ladder, with the trial's tv
            # computed: the bound on the KL term from the sum y, plus tv.
            y = float(np.einsum("i,i->", obj.col_sums, step.point))
            ratio = obj.sum_b / y if y > 0.0 else 0.0
            bound = search.bound(taus[k], y) if 0.0 < ratio < math.inf else None
            tv = huber_tv(step.point, instance.lam, instance.delta, instance.image_shape)[0]
        if bound is not None and exact < math.inf:
            lb, weight = bound
            assert lb + tv - exact <= obj.eta * (weight + tv)
            checked += 1
        if k == p or data.draw(st.booleans()):  # projected, as when no screen rejects it
            with np.errstate(all="ignore"):
                try:
                    obj.value(step.point, math.inf, search, taus[k])
                except ValueError:
                    pass
    event(f"bounds checked: {'0' if not checked else '1-9' if checked < 10 else '10+'}")

