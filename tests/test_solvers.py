"""Solver steps, the shared driver, termination, and trace serialization."""

import csv
import io
import math
import warnings

import numpy as np
import pytest
from conftest import dense_kl_objective, quadratic_objective
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from egmin import (
    ArmijoParams,
    IterationRecord,
    Method,
    Objective,
    SolverConfig,
    StepStatus,
    TerminalStatus,
    armijo_backtrack,
    build_instance,
    check_termination,
    constant_step,
    default_x0,
    exp_map,
    make_objective,
    metric_inner,
    read_trace_csv,
    relative_lipschitz_step,
    riemannian_grad,
    solve,
    step_eg,
    step_ip_e_md,
)
from egmin.geometry import GeometryKind
from egmin.linesearch import SIGMA
from egmin.solvers import TRACE_FIELDS, RunTrace, TraceRecords, quotient_retraction
from egmin.verification import md_argmin_oracle

POI = GeometryKind.POISSON_FISHER_RAO
IP = GeometryKind.INTERIOR_POINT
METRIC = {Method.EG: POI, Method.IP_G_RGD: IP, Method.POI_CG: POI}
GEODESIC_METHODS = list(METRIC)
STEEPEST = {POI: Method.EG, IP: Method.IP_G_RGD}
EPS = np.finfo(float).eps


def reference_csv(records) -> str:
    """``RunTrace.to_csv`` as written for a list of record objects."""
    fields = TRACE_FIELDS[:-1]
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(fields)
    for rec in records:
        writer.writerow([getattr(rec, name) if isinstance(getattr(rec, name), int)
                         else format(getattr(rec, name), ".17e") for name in fields])
    return out.getvalue()


def solve_grad_norm(kind, x, g) -> float:
    """The gradient norm ``solve`` records at ``x`` for the linear objective
    ``<g, x>``; an infinite tolerance stops the run at its first record."""
    obj = Objective(value_and_grad=lambda u: (float(g @ u), g))
    trace = solve(SolverConfig(method=STEEPEST[kind], grad_norm_tol=math.inf), obj, x)
    assert trace.terminal_status is TerminalStatus.GRAD_TOL
    return trace.records[0].riem_grad_norm


def armijo_slope(x, g, direction) -> float:
    """The slope ``armijo_backtrack`` uses: with ``f(x) = 0`` and ``tau_bar
    = 1 / SIGMA``, ``SIGMA * tau`` is exactly ``2**-k`` at the ``k``-th trial
    step, so a usable trial's limit divided by it is exactly the slope."""
    slopes = []

    def value(u, limit, search=None, tau=0.0):
        slopes.append(limit / (SIGMA * tau))
        return limit

    obj = Objective(value_and_grad=lambda u: (0.0, g))
    obj.value = value
    armijo_backtrack(obj, x, direction, ArmijoParams(tau_bar=1.0 / SIGMA), value=0.0, grad=g)
    return slopes[0]


class TestSteps:
    def test_eg_zero_gradient(self):
        x = np.array([1.5, 2.0])
        np.testing.assert_array_equal(step_eg(x, np.zeros(2), 1.0).point, x)

    def test_eg_values(self):
        np.testing.assert_allclose(
            step_eg(np.array([1.0]), np.array([1.0]), 1.0).point, [np.exp(-1.0)]
        )
        np.testing.assert_allclose(
            step_eg(np.array([2.0, 1.0]), np.array([0.0, -1.0]), 0.5).point,
            [2.0, np.exp(0.5)],
        )

    def test_ip_e_md_zero_gradient(self):
        x = np.array([1.5, 2.0])
        point, ok = step_ip_e_md(x, np.zeros(2), 1.0)
        np.testing.assert_array_equal(point, x)
        assert ok is True

    def test_ip_e_md_descends_on_positive_gradient(self):
        point, ok = step_ip_e_md(np.array([1.0]), np.array([1.0]), 0.5)
        np.testing.assert_allclose(point, [1.0 / 1.5])
        assert ok is True

    def test_ip_e_md_infeasible(self):
        # 1 + tau * x * g is negative at the first coordinate.
        x = np.array([1.0, 2.0])
        point, ok = step_ip_e_md(x, np.array([-2.0, 1.0]), 1.0)
        assert point.tobytes() == x.tobytes() and ok is False

    def test_ip_e_md_rejects_a_nan_denominator(self):
        x = np.array([1.0, 2.0])
        point, ok = step_ip_e_md(x, np.array([np.nan, 1.0]), 0.1)
        assert point.tobytes() == x.tobytes() and ok is False

    def test_quotient_retraction_reports_an_infeasible_update(self):
        # A NaN, a negative and a zero denominator: the trial is (x, False).
        x = np.array([1.0, 2.0])
        for g, tau in (([np.nan, 1.0], 0.1), ([-2.0, 1.0], 1.0), ([-1.0, 1.0], 1.0)):
            point, ok = quotient_retraction(x, -x * x * np.array(g), np.array(g))(tau)
            assert point.tobytes() == x.tobytes() and ok is False

    def test_quotient_retraction_reports_a_zero_coordinate(self):
        x = np.array([1.0, 2.0])
        g = np.array([1e308, 1.0])
        with np.errstate(over="ignore"):  # tau * x * g overflows to an infinite denominator
            point, ok = quotient_retraction(x, -x * x * g, g)(10.0)
        assert point[0] == 0.0 and ok is False
        point, ok = quotient_retraction(x, -x * x * g, g)(1e-310)
        assert ok is True
        np.testing.assert_array_equal(point, step_ip_e_md(x, g, 1e-310)[0])

    def test_ip_e_md_is_barrier_proximal_step(self):
        # The quotient update minimizes tau*<g, u-x> + D(u, x) for the
        # log-barrier divergence D(u, x) = sum(-log(u/x) + (u-x)/x).
        # Verified by dense scan plus local refinement, per coordinate.
        x = np.array([1.3])
        g = np.array([0.8])
        tau = 0.4

        def objective(u):
            return tau * g[0] * (u - x[0]) - np.log(u / x[0]) + (u - x[0]) / x[0]

        grid = np.linspace(1e-3, 5.0, 2_000_001)
        u_star = grid[np.argmin(objective(grid))]
        got, ok = step_ip_e_md(x, g, tau)
        assert ok
        np.testing.assert_allclose(got, [u_star], atol=5e-6)

    def test_eg_matches_proximal_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(size=n)
            tau = float(rng.uniform(0.05, 1.5))
            got = step_eg(x, g, tau).point
            ref = md_argmin_oracle(x, g, tau)
            assert np.max(np.abs(got - ref)) <= 1e-8

    @pytest.mark.parametrize(
        "kind, closed_form",
        [
            (POI, lambda x, g, tau: step_eg(x, g, tau).point),
            (IP, lambda x, g, tau: x * np.exp(-tau * x * g)),
        ],
        ids=["fisher_rao", "interior_point"],
    )
    def test_eg_equals_generic_rgd_step(self, kind, closed_form, rng):
        # The geodesic step along -rgrad is x * exp(-tau * g) under the
        # Fisher-Rao metric and x * exp(-tau * x * g) under the interior-point one.
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.3, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            tau = float(rng.uniform(0.0, 2.0))
            lhs = closed_form(x, g, tau)
            rhs = exp_map(x, -riemannian_grad(kind, x, g), tau).point
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13)


class TestRelativeLipschitzStep:
    def test_values(self):
        assert relative_lipschitz_step([1.0]) == 0.5
        assert relative_lipschitz_step([1.0, 1.0, 2.0]) == 0.125
        assert relative_lipschitz_step([0.5]) == 1.0

    def test_accepts_a_zero_count(self):
        assert relative_lipschitz_step([1.0, 0.0]) == 0.5
        assert relative_lipschitz_step([0.0, 0.0, 2.0]) == 0.25

    def test_rejects_nonpositive(self):
        # All zero, and a negative entry even with a positive sum.
        for b in ([0.0, 0.0], [2.0, -1.0]):
            with pytest.raises(ValueError, match="b must be nonnegative with a positive sum"):
                relative_lipschitz_step(b)

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="b must be nonnegative with a positive sum"):
            relative_lipschitz_step([1.0, math.nan])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="b must be finite"):
            relative_lipschitz_step([1.0, math.inf])

    @pytest.mark.parametrize("b", [[], [5e-324], [1e308, 1e308]])
    def test_rejects_a_step_out_of_range(self, b):
        # With no warning first: an overflowing sum raises only the ValueError.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="b must"):
                relative_lipschitz_step(b)


class TestCheckTermination:
    CONFIG = SolverConfig(method=Method.EG)

    def rec(self, k=1, gnorm=1.0, tau=0.5):
        return IterationRecord(k, 1.0, gnorm, tau, 0, 0, 0)

    def test_grad_tol(self):
        assert check_termination(self.rec(gnorm=1e-7), self.CONFIG) is TerminalStatus.GRAD_TOL

    def test_a_short_accepted_step_does_not_end_a_run(self):
        # The first search on this steep quadratic accepts tau = 2**-38, its
        # 28th halving from tau_bar = 2**-10: an accepted step is progress,
        # however short, so the run goes on to its cap, and only a failed
        # search could end it step_tol.
        config = SolverConfig(Method.EG, ArmijoParams(2.0**-10), max_iterations=5, grad_norm_tol=0.0)
        with np.errstate(over="ignore"):  # a trial far past the minimum has f = inf, and fails
            trace = solve(config, quadratic_objective([1.0], scale=1e12), np.array([2.0]))
        assert (trace.records[1].tau, trace.records[1].halvings) == (2.0**-38, 28)
        assert trace.terminal_status is TerminalStatus.MAX_ITER and trace.records[-1].k == 5
        assert trace.search_status is None

    def test_max_iter(self):
        assert check_termination(self.rec(k=300), self.CONFIG) is TerminalStatus.MAX_ITER

    def test_a_constant_step_is_never_too_short(self):
        config = SolverConfig(method=Method.IP_E_MD, linesearch=constant_step(1e-11))
        assert check_termination(self.rec(tau=1e-11), config) is None
        assert check_termination(self.rec(k=300, tau=1e-11), config) is TerminalStatus.MAX_ITER

    def test_priority_grad_over_step(self):
        rec = self.rec(k=300, gnorm=1e-7, tau=1e-11)
        assert check_termination(rec, self.CONFIG) is TerminalStatus.GRAD_TOL

    def test_initial_record_not_step_tol(self):
        rec = IterationRecord(0, 1.0, 1.0, 0.0, 0, 0, 0)
        assert check_termination(rec, self.CONFIG) is None

    def test_continue(self):
        assert check_termination(self.rec(), self.CONFIG) is None

    @pytest.mark.parametrize("f, gnorm", [(np.nan, 1.0), (1.0, np.nan), (-np.inf, 1.0), (1.0, np.inf)])
    def test_non_finite_comes_first(self, f, gnorm):
        rec = IterationRecord(300, f, gnorm, 1e-11, 0, 0, 0)
        assert check_termination(rec, self.CONFIG) is TerminalStatus.NON_FINITE
        rec = IterationRecord(0, f, gnorm, 0.0, 0, 0, 0)
        assert check_termination(rec, self.CONFIG) is TerminalStatus.NON_FINITE


class TestInnerProductsWithoutMetric:
    """``<rgrad, v>_x = <grad, v>`` in both metrics, so the solve loop takes
    its inner products without the weights ``1/x`` or ``1/x**2``."""

    @pytest.mark.parametrize("kind", [POI, IP])
    def test_match_metric_inner(self, kind, rng):
        for n in (1, 16, 1024):
            x = rng.uniform(0.5, 2.0, n)
            g = rng.normal(size=n)
            rgrad = riemannian_grad(kind, x, g)
            tol = 4 * n * EPS
            norm_sq = metric_inner(kind, x, rgrad, rgrad)
            assert solve_grad_norm(kind, x, g) ** 2 == pytest.approx(norm_sq, rel=tol)
            assert armijo_slope(x, g, -rgrad) == pytest.approx(-norm_sq, rel=tol)
            v = rng.normal(size=n)
            d = v if metric_inner(kind, x, rgrad, v) < 0.0 else -v
            scale = metric_inner(kind, x, np.abs(rgrad), np.abs(d))
            assert abs(armijo_slope(x, g, d) - metric_inner(kind, x, rgrad, d)) <= tol * scale

    @pytest.mark.parametrize("kind", [POI, IP])
    def test_norm_finite_where_the_metric_is_not(self, kind):
        x, g = np.array([5e-324, 1.0]), np.array([0.0, 1.0])
        rgrad = riemannian_grad(kind, x, g)
        with np.errstate(all="ignore"):
            assert math.isnan(metric_inner(kind, x, rgrad, rgrad))  # 0 * (1/x = inf)
        assert solve_grad_norm(kind, x, g) == 1.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("kind", [POI, IP])
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_norm_finite_down_to_the_smallest_subnormal(self, kind, data):
        n = data.draw(st.integers(1, 40))
        tiny = st.floats(5e-324, 1e-300, allow_subnormal=True)
        x = data.draw(arrays(float, n, elements=st.one_of(tiny, st.floats(1e-300, 2.0))))
        g = data.draw(arrays(float, n, elements=st.floats(-1e6, 1e6)))
        norm = solve_grad_norm(kind, x, g)
        assert math.isfinite(norm) and norm >= 0.0


class TestSolve:
    def test_starts_at_critical_point(self):
        a = np.array([2.0, 3.0])
        trace = solve(SolverConfig(method=Method.EG), quadratic_objective(a), a)
        assert trace.terminal_status is TerminalStatus.GRAD_TOL
        assert len(trace.records) == 1
        assert trace.records[0].k == 0

    def test_eg_converges_on_convex_quadratic(self):
        a = np.array([2.0, 3.0])
        trace = solve(SolverConfig(method=Method.EG), quadratic_objective(a), np.array([1.0, 1.0]))
        values = [r.f for r in trace.records]
        assert np.all(np.diff(values) < 0.0)
        assert np.max(np.abs(trace.final_point - a)) <= 1e-4
        assert trace.records[-1].k <= 300

    @pytest.mark.parametrize("method", [Method.EG, Method.IP_G_RGD, Method.POI_CG])
    def test_monotone_descent_with_armijo(self, method, rng):
        for _ in range(5):
            n = int(rng.integers(2, 12))
            a = rng.uniform(0.3, 3.0, n)
            x0 = rng.uniform(0.5, 1.5, n)
            trace = solve(
                SolverConfig(method=method, max_iterations=60),
                quadratic_objective(a),
                x0,
            )
            assert np.all(np.diff([r.f for r in trace.records]) <= 0.0)
            assert np.all(trace.final_point > 0.0)

    def test_ipemd_monotone_on_kl_instance(self, rng):
        m, n = 8, 12
        a_mat = rng.uniform(0.1, 1.0, (m, n))
        x_true = rng.uniform(0.5, 1.5, n)
        b = a_mat @ x_true
        obj = dense_kl_objective(a_mat, b)
        config = SolverConfig(
            method=Method.IP_E_MD,
            linesearch=constant_step(relative_lipschitz_step(b)),
            max_iterations=100,
        )
        trace = solve(config, obj, rng.uniform(0.5, 1.5, n))
        assert trace.terminal_status in (TerminalStatus.MAX_ITER, TerminalStatus.GRAD_TOL)
        values = [r.f for r in trace.records]
        assert np.all(np.diff(values) <= 0.0)

    def test_ipemd_requires_explicit_policy(self):
        # Without data b there is no default step: a policy must be given.
        with pytest.raises(ValueError, match="needs the objective's data b"):
            solve(
                SolverConfig(method=Method.IP_E_MD),
                quadratic_objective([1.0]),
                np.array([2.0]),
            )

    def test_config_takes_a_method_value(self):
        instance, _ = build_instance(8)
        config = SolverConfig("eg", max_iterations=2)
        assert config.method is Method.EG
        trace = solve(config, make_objective(instance), default_x0(64))
        assert trace.terminal_status is TerminalStatus.MAX_ITER and trace.records[-1].k == 2

    @pytest.mark.parametrize("method", ["EG", "cg", None, 1])
    def test_config_rejects_an_unknown_method(self, method):
        with pytest.raises(ValueError, match="is not a valid Method"):
            SolverConfig(method)

    @pytest.mark.parametrize("cap", [math.nan, math.inf, 2.5, 3.0, "3", None, 0, -1, np.int64(0)])
    def test_config_rejects_a_cap_that_is_not_a_positive_integer(self, cap):
        # A nan cap would never be reached, and 2.5 would run 3 iterations.
        with pytest.raises(ValueError, match="max_iterations"):
            SolverConfig(Method.EG, max_iterations=cap)

    def test_config_takes_a_numpy_integer_cap(self):
        config = SolverConfig(Method.EG, max_iterations=np.int64(2))
        assert config.max_iterations == 2 and type(config.max_iterations) is int
        trace = solve(config, quadratic_objective([1.0]), np.array([2.0]))
        assert trace.terminal_status is TerminalStatus.MAX_ITER and trace.records[-1].k == 2

    def test_ipemd_defaults_to_the_guaranteed_step_of_its_data(self, tmp_path):
        instance, _ = build_instance(8, seed=1)
        x0 = default_x0(instance.A.cols, seed=2)
        guaranteed = constant_step(relative_lipschitz_step(instance.b))
        traces = []
        for name, policy in (("default", None), ("explicit", guaranteed)):
            instance.A.reset_counts()
            traces.append(solve(SolverConfig(Method.IP_E_MD, policy, max_iterations=20), make_objective(instance), x0))
            traces[-1].to_csv(tmp_path / f"{name}.csv")
        default, explicit = traces
        assert (tmp_path / "default.csv").read_bytes() == (tmp_path / "explicit.csv").read_bytes()
        assert np.array_equal(default.final_point, explicit.final_point)
        assert default.terminal_status is TerminalStatus.MAX_ITER
        assert default.records[1].tau == guaranteed.tau

    def test_ipemd_infeasible_aborts_with_partial_trace(self):
        # Large constant step against a negative gradient coordinate.
        obj = Objective(value_and_grad=lambda x: (float(-x.sum()), -np.ones_like(x)))
        config = SolverConfig(
            method=Method.IP_E_MD, linesearch=constant_step(2.0), max_iterations=10
        )
        trace = solve(config, obj, np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.STEP_INFEASIBLE
        assert len(trace.records) == 1  # the initial record is retained

    def test_ipemd_armijo_descends_with_sufficient_decrease(self, rng):
        m, n = 8, 12
        a_mat = rng.uniform(0.1, 1.0, (m, n))
        b = a_mat @ rng.uniform(0.5, 1.5, n)
        config = SolverConfig(method=Method.IP_E_MD, linesearch=ArmijoParams(tau_bar=50.0), max_iterations=40)
        trace = solve(config, dense_kl_objective(a_mat, b), rng.uniform(0.5, 1.5, n))
        assert trace.terminal_status in (TerminalStatus.MAX_ITER, TerminalStatus.GRAD_TOL)
        assert any(rec.halvings > 0 for rec in trace.records[1:])
        for prev, rec in zip(trace.records, trace.records[1:]):
            # Armijo in the interior-point metric: f+ <= f - SIGMA * tau * ||x^2 g||_x^2.
            decrease = SIGMA * rec.tau * prev.riem_grad_norm**2
            assert rec.f <= prev.f - decrease * (1.0 - 1e-9)

    def test_ipemd_armijo_halves_an_infeasible_trial(self):
        # At x = 1 the gradient of (x - 3)^2 / 2 is -2: the quotient update's
        # denominator 1 - 2 tau is -1 at tau_bar = 1 and 0 at 1/2, both
        # infeasible, and 1/2 at tau = 1/4, which is accepted.
        config = SolverConfig(method=Method.IP_E_MD, linesearch=ArmijoParams(), max_iterations=1)
        trace = solve(config, quadratic_objective([3.0]), np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.MAX_ITER
        assert (trace.records[1].tau, trace.records[1].halvings) == (0.25, 2)
        np.testing.assert_array_equal(trace.final_point, [2.0])

    def test_ipemd_armijo_failure_terminates_with_step_tol(self):
        obj = Objective(
            value_and_grad=lambda x: (0.0, np.ones_like(x)),
            value=lambda x: np.inf,
        )
        config = SolverConfig(method=Method.IP_E_MD, linesearch=ArmijoParams())
        trace = solve(config, obj, np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.STEP_TOL
        assert len(trace.records) == 2
        assert trace.records[1].tau < 1e-10

    @pytest.mark.parametrize("method", GEODESIC_METHODS)
    def test_constant_step_is_one_exp_map(self, method, rng):
        x0 = rng.uniform(0.5, 1.5, 6)
        obj = quadratic_objective(rng.uniform(0.3, 3.0, 6))
        config = SolverConfig(method=method, linesearch=constant_step(0.1), max_iterations=1)
        trace = solve(config, obj, x0)
        _, grad = obj.value_and_grad(x0)
        expected = exp_map(x0, -riemannian_grad(METRIC[method], x0, grad), 0.1).point
        np.testing.assert_array_equal(trace.final_point, expected)
        assert (trace.records[1].tau, trace.records[1].halvings) == (0.1, 0)

    @pytest.mark.parametrize("method", GEODESIC_METHODS)
    def test_overflowing_constant_step_aborts(self, method):
        obj = Objective(value_and_grad=lambda x: (float(-x.sum()), np.full_like(x, -1e6)))
        config = SolverConfig(method=method, linesearch=constant_step(1.0), max_iterations=10)
        trace = solve(config, obj, np.array([1.0, 2.0]))
        assert trace.terminal_status is TerminalStatus.STEP_INFEASIBLE
        assert len(trace.records) == 1

    @pytest.mark.parametrize("method", list(Method))
    def test_nan_gradient_ends_non_finite(self, method):
        obj = Objective(value_and_grad=lambda x: (float(x.sum()), np.array([np.nan, 1.0])))
        config = SolverConfig(method=method, linesearch=None if method is not Method.IP_E_MD
                              else constant_step(0.1))
        trace = solve(config, obj, np.array([1.0, 2.0]))
        assert trace.terminal_status is TerminalStatus.NON_FINITE
        assert len(trace.records) == 1

    def test_cg_first_step_equals_eg(self, rng):
        n = 6
        a = rng.uniform(0.5, 3.0, n)
        x0 = rng.uniform(0.5, 1.5, n)
        traces = {}
        for method in (Method.EG, Method.POI_CG):
            traces[method] = solve(
                SolverConfig(method=method, max_iterations=1),
                quadratic_objective(a),
                x0,
            )
        rec_eg = traces[Method.EG].records[1]
        rec_cg = traces[Method.POI_CG].records[1]
        assert rec_eg.f == rec_cg.f
        assert rec_eg.tau == rec_cg.tau
        np.testing.assert_array_equal(
            traces[Method.EG].final_point, traces[Method.POI_CG].final_point
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cg_restarts_on_a_non_finite_slope(self, rng, monkeypatch):
        # A NaN transport makes every CG direction NaN: each must restart to
        # steepest descent, so poicg retraces eg instead of failing its search.
        n = 6
        a = rng.uniform(0.5, 3.0, n)
        x0 = rng.uniform(0.5, 1.5, n)
        config = {m: SolverConfig(method=m, max_iterations=8) for m in (Method.EG, Method.POI_CG)}
        eg = solve(config[Method.EG], quadratic_objective(a), x0)
        monkeypatch.setattr("egmin.solvers.transport_e", lambda x, y, v: np.full_like(v, np.nan))
        cg = solve(config[Method.POI_CG], quadratic_objective(a), x0)
        assert cg.terminal_status is eg.terminal_status is TerminalStatus.MAX_ITER
        assert [(r.f, r.tau, r.halvings) for r in cg.records] == [
            (r.f, r.tau, r.halvings) for r in eg.records
        ]
        assert cg.final_point.tobytes() == eg.final_point.tobytes()

    def test_cg_accelerates_on_anisotropic_quadratic(self, rng):
        from conftest import general_quadratic_objective

        n = 8
        diag = np.linspace(1.0, 40.0, n)
        a = rng.uniform(0.8, 1.6, n)
        x0 = rng.uniform(0.5, 1.5, n)
        iters = {}
        for method in (Method.EG, Method.POI_CG):
            trace = solve(
                SolverConfig(method=method, max_iterations=300, grad_norm_tol=1e-8),
                general_quadratic_objective(np.diag(diag), a),
                x0,
            )
            iters[method] = trace.records[-1].k
        assert iters[Method.POI_CG] <= iters[Method.EG]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_poicg_survives_subnormal_pixels(self):
        # poicg drives pixels down to 5e-324, where 1/x overflows: no inner
        # product of the loop may take the metric weights there.
        instance, _ = build_instance(32, lam=0.01, noisy=True, seed=0)
        trace = solve(SolverConfig(method=Method.POI_CG), make_objective(instance), default_x0(1024, 0))
        assert trace.terminal_status in (TerminalStatus.STEP_TOL, TerminalStatus.MAX_ITER)
        assert trace.final_point.min() < 1e-300

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_ipgrgd_run_ends_infeasible_without_warnings(self):
        # x * x underflows to 0 before the step overflows: 1/(x * x) must not be formed.
        instance, _ = build_instance(32, seed=0)
        config = SolverConfig(method=Method.IP_G_RGD, linesearch=constant_step(50.0))
        trace = solve(config, make_objective(instance), default_x0(1024, 1))
        assert trace.terminal_status is TerminalStatus.STEP_INFEASIBLE

    def test_linesearch_failure_terminates_with_step_tol(self):
        obj = Objective(
            value_and_grad=lambda x: (0.0, np.ones_like(x)),
            value=lambda x: np.inf,
        )
        trace = solve(SolverConfig(method=Method.EG), obj, np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.STEP_TOL
        assert len(trace.records) == 2
        assert trace.records[1].tau < 1e-10

    def test_step_tol_names_a_search_that_hit_tau_min(self):
        # Every trial is usable and fails the decrease test.
        obj = Objective(
            value_and_grad=lambda x: (0.0, np.ones_like(x)),
            value=lambda x: np.inf,
        )
        trace = solve(SolverConfig(method=Method.EG), obj, np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.STEP_TOL
        assert trace.search_status is StepStatus.HIT_TAU_MIN
        assert trace.summary_dict()["search_status"] == "hit_tau_min"

    def test_step_tol_names_a_search_with_only_clamped_trials(self):
        # |tau * g| > 700 down to the last trial step 2**-33: every trial point is clamped.
        obj = Objective(value_and_grad=lambda x: (0.0, np.full_like(x, 1e13)))
        trace = solve(SolverConfig(method=Method.EG), obj, np.array([1.0]))
        assert trace.terminal_status is TerminalStatus.STEP_TOL
        assert trace.search_status is StepStatus.CLAMPED
        assert trace.summary_dict()["search_status"] == "clamped"
        assert trace.records[1].tau < 1e-10

    def test_determinism_bit_identical(self, tmp_path):
        a = np.array([2.0, 3.0, 0.7])
        x0 = default_x0(3, seed=11)
        config = SolverConfig(method=Method.POI_CG, max_iterations=50)
        t1 = solve(config, quadratic_objective(a), x0)
        t2 = solve(config, quadratic_objective(a), x0)
        for r1, r2 in zip(t1.records, t2.records):
            assert (r1.k, r1.f, r1.riem_grad_norm, r1.tau, r1.halvings) == (
                r2.k, r2.f, r2.riem_grad_norm, r2.tau, r2.halvings
            )
        t1.to_csv(tmp_path / "t1.csv")
        t2.to_csv(tmp_path / "t2.csv")
        assert (tmp_path / "t1.csv").read_bytes() == (tmp_path / "t2.csv").read_bytes()

    def test_matvec_counts_nondecreasing(self, rng):
        from egmin import build_instance, make_objective

        instance, _ = build_instance(8, seed=5)
        obj = make_objective(instance)
        trace = solve(
            SolverConfig(method=Method.EG, max_iterations=20),
            obj,
            default_x0(instance.A.cols, seed=1),
        )
        counts = [rec.matvec_count for rec in trace.records]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[0] > 0


class TestTraceSerialization:
    def build_trace(self):
        a = np.array([2.0, 3.0])
        return solve(
            SolverConfig(method=Method.EG, max_iterations=15),
            quadratic_objective(a),
            np.array([1.0, 1.0]),
        )

    def test_csv_round_trip(self, tmp_path):
        trace = self.build_trace()
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        parsed = read_trace_csv(path)
        assert len(parsed) == len(trace.records)
        for orig, back in zip(trace.records, parsed):
            assert back.k == orig.k
            assert back.f == orig.f  # exact: 17 significant digits
            assert back.riem_grad_norm == orig.riem_grad_norm
            assert back.tau == orig.tau
            assert back.halvings == orig.halvings
            assert back.matvec_count == orig.matvec_count
            assert back.wall_nanos == 0

    def test_csv_columns_read_by_name(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "tau,k,extra,matvec_count,f,halvings,riem_grad_norm\r\n"
            "1.00000000000000000e+00,0,x,4,2.50000000000000000e+00,0,5.00000000000000000e-01\r\n"
            "5.00000000000000000e-01,1,y,9,1.25000000000000000e+00,1,2.50000000000000000e-01\r\n"
        )
        assert read_trace_csv(path) == [
            IterationRecord(k=0, f=2.5, riem_grad_norm=0.5, tau=1.0, halvings=0, matvec_count=4, wall_nanos=0),
            IterationRecord(k=1, f=1.25, riem_grad_norm=0.25, tau=0.5, halvings=1, matvec_count=9, wall_nanos=0),
        ]
        assert all(type(rec.halvings) is int and type(rec.tau) is float for rec in read_trace_csv(path))
        # A trace file holds no wall-clock column, but one that does is read by name.
        path.write_text(
            "k,wall_nanos,f,riem_grad_norm,tau,halvings,matvec_count\r\n"
            "0,120,2.50000000000000000e+00,5.00000000000000000e-01,1.00000000000000000e+00,0,4\r\n"
        )
        assert read_trace_csv(path) == [
            IterationRecord(k=0, f=2.5, riem_grad_norm=0.5, tau=1.0, halvings=0, matvec_count=4, wall_nanos=120),
        ]

    def test_records_are_columns_read_as_records(self, tmp_path):
        trace = self.build_trace()
        records = list(trace.records)
        assert isinstance(trace.records, TraceRecords)
        assert len(records) == len(trace.records) > 3
        assert trace.records == records and records == trace.records
        assert trace.records[-1] == records[-1] and trace.records[-len(records)] == records[0]
        assert trace.records[1:3] == records[1:3] and trace.records[::-2] == records[::-2]
        assert [r.k for r in trace.records] == list(range(len(records)))
        with pytest.raises(IndexError):
            trace.records[len(records)]
        with pytest.raises(TypeError):
            trace.records[0] = records[0]
        # A RunTrace built from a plain list stores and writes the same.
        rebuilt = RunTrace(records=records, terminal_status=trace.terminal_status, final_point=trace.final_point)
        assert rebuilt.records == trace.records
        got, again = tmp_path / "got.csv", tmp_path / "again.csv"
        trace.to_csv(got)
        rebuilt.to_csv(again)
        assert got.read_bytes() == again.read_bytes() == reference_csv(records).encode()
        assert got.read_text().splitlines()[0].split(",") == [
            "k", "f", "riem_grad_norm", "tau", "halvings", "matvec_count",
        ]

    def test_summary_dict(self):
        trace = self.build_trace()
        summary = trace.summary_dict()
        assert summary["terminal_status"] in {s.value for s in TerminalStatus}
        assert summary["iterations"] == trace.records[-1].k
        assert summary["final_f"] == trace.records[-1].f
        assert summary["final_grad_norm"] == trace.records[-1].riem_grad_norm
        assert summary["total_matvecs"] == trace.records[-1].matvec_count
        assert summary["search_status"] is None  # no search failed


class TestDefaultX0:
    def test_range_and_reproducibility(self):
        x1 = default_x0(1000, seed=7)
        x2 = default_x0(1000, seed=7)
        np.testing.assert_array_equal(x1, x2)
        assert np.all((x1 > 0.5) & (x1 < 1.5))
        assert np.any(default_x0(1000, seed=8) != x1)
