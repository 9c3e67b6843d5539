"""The oracles themselves: convergence orders, bisection, report semantics."""

import numpy as np
import pytest
from conftest import quadratic_objective

from egmin import (
    BATTERY_SIZE,
    Objective,
    exact_linesearch_oracle,
    exp_map,
    fd_gradient_check,
    geodesic_ode_oracle,
    huber_tv,
    md_argmin_oracle,
    run_battery,
    step_eg,
)
from egmin.verification import OracleReport


class TestOracleReport:
    def test_pass_iff_within_tolerance(self):
        good = OracleReport.compare("a", 1.0, 1.0 + 1e-9, tol=1e-8)
        bad = OracleReport.compare("b", 1.0, 1.0 + 1e-7, tol=1e-8)
        assert good.passed and not bad.passed

    def test_scale_aware_relative_error(self):
        rep = OracleReport.compare("c", 100.0, 100.0 + 1e-5, tol=1e-6)
        assert rep.rel_err == pytest.approx(1e-7, rel=1e-6)
        assert rep.passed

    def test_one_sided(self):
        margin = OracleReport.compare("d", 0.0, -5.0, tol=1e-12, one_sided=True)
        assert margin.passed and margin.abs_err == 0.0
        violation = OracleReport.compare("e", 0.0, 1e-6, tol=1e-12, one_sided=True)
        assert not violation.passed

    def test_json_round_trip(self):
        import json

        rep = OracleReport.compare("name", 1.0, 2.0, tol=0.1)
        loaded = json.loads(rep.to_json())
        assert loaded["name"] == "name"
        assert loaded["passed"] is False


class TestFdGradientCheck:
    def test_linear_is_exact(self):
        c = np.array([3.0, -1.0, 0.5])
        obj = Objective(value_and_grad=lambda x: (float(c @ x), c))
        reports = fd_gradient_check(obj, np.array([1.0, 2.0, 3.0]))
        assert len(reports) == 3
        assert all(r.rel_err <= 1e-9 for r in reports)

    def test_shrinks_step_near_boundary(self):
        obj = quadratic_objective([1.0])
        reports = fd_gradient_check(obj, np.array([1e-7]))
        assert all(r.passed for r in reports)

    def test_huber_kink_with_loose_tolerance(self):
        # |Dx| = delta exactly: curvature jumps, so only 1e-4 is promised.
        delta = 0.25
        x = np.array([1.0, 1.0 + delta])
        obj = Objective(value_and_grad=lambda u: huber_tv(u, 1.0, delta, (1, 2)))
        reports = fd_gradient_check(obj, x, tol=1e-4)
        assert all(r.passed for r in reports)


class TestGeodesicOracle:
    def test_zero_velocity(self):
        x = np.array([1.0, 2.0])
        np.testing.assert_allclose(geodesic_ode_oracle(x, np.zeros(2), 5.0), x, rtol=1e-12)

    def test_unit_case(self):
        got = geodesic_ode_oracle(np.array([1.0]), np.array([1.0]), 1.0, steps=1000)
        np.testing.assert_allclose(got, [np.e], rtol=1e-8)

    def test_fourth_order_convergence(self):
        x, v = np.array([1.0]), np.array([1.5])
        exact = np.exp(1.5)
        err1 = abs(geodesic_ode_oracle(x, v, 1.0, steps=400)[0] - exact)
        err2 = abs(geodesic_ode_oracle(x, v, 1.0, steps=800)[0] - exact)
        assert 10.0 <= err1 / err2 <= 22.0

    def test_rejects_coarse_grids(self):
        with pytest.raises(ValueError):
            geodesic_ode_oracle([1.0], [1.0], 1.0, steps=50)


class TestMdArgminOracle:
    def test_zero_gradient(self):
        x = np.array([1.5, 0.7])
        np.testing.assert_array_equal(md_argmin_oracle(x, np.zeros(2), 1.0), x)

    def test_unit_case(self):
        got = md_argmin_oracle(np.array([1.0]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(got, [np.exp(-1.0)], atol=1e-12)

    def test_matches_multiplicative_step(self, rng):
        x = rng.uniform(0.2, 3.0, 10)
        g = rng.normal(size=10)
        ref = md_argmin_oracle(x, g, 0.7)
        got = step_eg(x, g, 0.7).point
        assert np.max(np.abs(ref - got)) <= 1e-8


class TestExactLinesearchOracle:
    def test_degenerate_at_critical_point(self):
        obj = quadratic_objective([2.0])
        res = exact_linesearch_oracle(np.array([2.0]), obj, tau_max=1.0)
        assert res.tau == 0.0
        assert res.status == "degenerate"

    def test_scalar_minimizer(self):
        # f = (x-1)^2/2 from x=2: geodesic hits the minimizer at ln 2.
        obj = quadratic_objective([1.0])
        res = exact_linesearch_oracle(np.array([2.0]), obj, tau_max=3.0)
        assert res.status == "interior"
        assert res.tau == pytest.approx(np.log(2.0), abs=1e-6)

    def test_monotone_objective_flagged(self):
        c = np.array([-1.0])
        obj = Objective(value_and_grad=lambda x: (float(c @ x), c))
        res = exact_linesearch_oracle(np.array([1.0]), obj, tau_max=2.0)
        assert res.status == "boundary"
        assert res.tau == 2.0

    def test_residual_small_at_interior_optimum(self, rng):
        from egmin import GeometryKind, metric_inner

        for _ in range(5):
            a = rng.uniform(0.5, 2.0, 3)
            obj = quadratic_objective(a)
            x = a * rng.uniform(1.5, 2.5, 3)
            _, grad = obj.value_and_grad(x)
            rgrad = x * grad
            res = exact_linesearch_oracle(x, obj, tau_max=5.0)
            assert res.status == "interior"
            x_tau = exp_map(x, -rgrad, res.tau).point
            _, grad_tau = obj.value_and_grad(x_tau)
            num = abs(
                metric_inner(GeometryKind.POISSON_FISHER_RAO, x, rgrad, x_tau * grad_tau)
            )
            norm_sq = metric_inner(GeometryKind.POISSON_FISHER_RAO, x, rgrad, rgrad)
            assert num <= 1e-6 * norm_sq

    def test_rejects_coarse_grid(self):
        with pytest.raises(ValueError):
            exact_linesearch_oracle(np.array([2.0]), quadratic_objective([1.0]), 1.0, grid=10)

    def test_oracle_lower_bounds_armijo_decrease(self, rng):
        # The backtracked step can never do better than the exact optimum.
        from egmin import ArmijoParams, armijo_backtrack

        for _ in range(10):
            n = int(rng.integers(1, 6))
            a = rng.uniform(0.5, 2.0, n)
            obj = quadratic_objective(a)
            x = rng.uniform(0.5, 3.0, n)
            value, grad = obj.value_and_grad(x)
            rgrad = x * grad
            step = armijo_backtrack(obj, x, -rgrad, ArmijoParams(), value=value, grad=grad)
            res = exact_linesearch_oracle(x, obj, tau_max=5.0)
            f_star = obj.value(exp_map(x, -rgrad, res.tau).point)
            assert step.new_value <= value
            assert step.new_value >= f_star - 1e-12


class TestBattery:
    def test_size_and_all_pass(self):
        reports = run_battery()
        assert len(reports) == BATTERY_SIZE
        failing = [r.name for r in reports if not r.passed]
        assert failing == []

    def test_fault_injection_fails(self):
        reports = run_battery(inject_fault=True)
        assert len(reports) == BATTERY_SIZE + 1
        assert not reports[-1].passed
        assert all(r.passed for r in reports[:-1])
