"""Armijo backtracking, constant steps, and exact line-search diagnostics."""

import numpy as np
import pytest
from conftest import dense_kl_objective, quadratic_objective, quartic_objective

from egmin import (
    ArmijoParams,
    GeometryKind,
    Objective,
    StepStatus,
    armijo_backtrack,
    constant_step,
    exact_residual,
    exact_residual_model,
    exp_map,
    metric_inner,
    riemannian_grad,
)

POI = GeometryKind.POISSON_FISHER_RAO
IP = GeometryKind.INTERIOR_POINT


class TestParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(sigma=0.0),
            dict(sigma=1.0),
            dict(beta=0.0),
            dict(beta=1.0),
            dict(tau_bar=0.0),
            dict(tau_min=0.0),
            dict(tau_min=2.0, tau_bar=1.0),
            dict(max_halvings=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ArmijoParams(**kwargs)

    def test_constant_step(self):
        assert constant_step(0.1).tau == 0.1
        with pytest.raises(ValueError):
            constant_step(0.0)
        with pytest.raises(ValueError):
            constant_step(-1.0)


class TestArmijoBacktrack:
    def test_scalar_shifted_quadratic_accepts_full_step(self):
        # f = (x-1)^2/2 at x=2: rgrad = 2, ||rgrad||_x^2 = 2,
        # f(x(1)) = (2/e - 1)^2 / 2 ~ 0.0349117 <= 0.5 - 1e-4 * 2.
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        _, grad = obj.value_and_grad(x)
        direction = -riemannian_grad(POI, x, grad)
        result = armijo_backtrack(obj, x, direction, ArmijoParams())
        assert result.status is StepStatus.ACCEPTED
        assert result.tau == 1.0
        assert result.halvings == 0
        np.testing.assert_allclose(result.new_point, [2.0 / np.e])
        assert result.new_value == pytest.approx(0.5 * (2.0 / np.e - 1.0) ** 2)
        assert result.new_value <= 0.5 - 1e-4 * 1.0 * 2.0

    def test_sigma_near_one_accepts_smaller_step(self):
        # On the same instance the accepted step shrinks as sigma -> 1:
        # acceptance needs tau <~ 2(1 - sigma)/3.
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        _, grad = obj.value_and_grad(x)
        direction = -riemannian_grad(POI, x, grad)
        loose = armijo_backtrack(obj, x, direction, ArmijoParams(sigma=1e-4))
        strict = armijo_backtrack(obj, x, direction, ArmijoParams(sigma=0.999))
        assert strict.status is StepStatus.ACCEPTED
        assert strict.tau < loose.tau
        assert strict.tau <= 2.0 * (1.0 - 0.999)

    def test_scaled_direction_still_satisfies_inequality(self):
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        value, grad = obj.value_and_grad(x)
        rgrad = riemannian_grad(POI, x, grad)
        for c in (0.5, 1.0, 3.0):
            direction = -c * rgrad
            params = ArmijoParams()
            result = armijo_backtrack(obj, x, direction, params)
            assert result.status is StepStatus.ACCEPTED
            slope = metric_inner(POI, x, rgrad, direction)
            assert result.new_value <= value + params.sigma * result.tau * slope

    def test_zero_gradient_immediate_acceptance(self):
        obj = quadratic_objective([2.0, 3.0])
        x = np.array([2.0, 3.0])
        result = armijo_backtrack(obj, x, np.zeros(2), ArmijoParams())
        assert result.status is StepStatus.ACCEPTED
        assert result.halvings == 0
        np.testing.assert_array_equal(result.new_point, x)

    def test_non_descent_direction_rejected(self):
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        _, grad = obj.value_and_grad(x)
        with pytest.raises(ValueError):
            armijo_backtrack(obj, x, +riemannian_grad(POI, x, grad), ArmijoParams())

    def test_hit_tau_min(self):
        # A trial objective that never improves forces the failure path.
        obj = Objective(
            value_and_grad=lambda x: (0.0, np.ones_like(x)),
            value=lambda x, limit: (np.inf, False),
        )
        x = np.array([1.0])
        result = armijo_backtrack(obj, x, np.array([-1.0]), ArmijoParams())
        assert result.status is StepStatus.HIT_TAU_MIN
        assert result.tau < 1e-10
        np.testing.assert_array_equal(result.new_point, x)

    def test_all_trials_clamped(self):
        # Direction so large that even tau_min overflows the exponent.
        obj = Objective(value_and_grad=lambda x: (0.0, np.array([-1.0])))
        x = np.array([1.0])
        result = armijo_backtrack(obj, x, np.array([1e308]), ArmijoParams())
        assert result.status is StepStatus.CLAMPED

    def test_sufficient_decrease_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 20))
            a = rng.uniform(0.2, 4.0, n)
            obj = quadratic_objective(a)
            x = rng.uniform(0.1, 5.0, n)
            value, grad = obj.value_and_grad(x)
            rgrad = riemannian_grad(POI, x, grad)
            params = ArmijoParams()
            result = armijo_backtrack(obj, x, -rgrad, params, value=value, grad=grad)
            assert result.status is StepStatus.ACCEPTED
            norm_sq = metric_inner(POI, x, rgrad, rgrad)
            assert result.new_value <= value - params.sigma * result.tau * norm_sq

    def test_permutation_invariance(self, rng):
        n = 7
        a = rng.uniform(0.5, 3.0, n)
        x = rng.uniform(0.5, 3.0, n)
        perm = rng.permutation(n)
        res = armijo_backtrack(
            quadratic_objective(a), x,
            -riemannian_grad(POI, x, x - a), ArmijoParams(),
        )
        res_p = armijo_backtrack(
            quadratic_objective(a[perm]), x[perm],
            -riemannian_grad(POI, x[perm], x[perm] - a[perm]), ArmijoParams(),
        )
        assert res.halvings == res_p.halvings
        assert res.tau == res_p.tau
        np.testing.assert_allclose(res.new_point[perm], res_p.new_point, rtol=1e-12)

    def test_finite_termination_family_sample(self, rng):
        # Smaller copy of the acceptance-gate family.
        for i in range(100):
            n = int(rng.integers(1, 50))
            x = rng.uniform(0.1, 3.0, n)
            kind = i % 3
            if kind == 0:
                obj = quadratic_objective(rng.uniform(0.2, 4.0, n))
            elif kind == 1:
                m = int(rng.integers(1, 12))
                obj = dense_kl_objective(
                    rng.uniform(0.1, 1.0, (m, n)), rng.uniform(0.5, 2.0, m)
                )
            else:
                obj = quartic_objective(
                    rng.uniform(-1.0, 1.0, n),
                    rng.uniform(-1.0, 1.0, n),
                    rng.uniform(-1.0, 1.0, n),
                )
            value, grad = obj.value_and_grad(x)
            rgrad = riemannian_grad(POI, x, grad)
            result = armijo_backtrack(obj, x, -rgrad, ArmijoParams(), value=value, grad=grad)
            assert result.status is StepStatus.ACCEPTED
            assert result.halvings <= 60

    def test_interior_point_geometry_acceptance(self):
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        value, grad = obj.value_and_grad(x)
        direction = -riemannian_grad(IP, x, grad)
        result = armijo_backtrack(obj, x, direction, ArmijoParams())
        assert result.status is StepStatus.ACCEPTED
        norm_sq = metric_inner(IP, x, direction, direction)
        assert result.new_value <= value - 1e-4 * result.tau * norm_sq


class TestExactResidual:
    def test_zero_gradient(self):
        obj = quadratic_objective([2.0])
        assert exact_residual(np.array([2.0]), obj, 0.5) == 0.0

    def test_scalar_closed_form(self):
        # f = x^2/2 at x=2: Delta(tau) = -8 exp(-4 tau).
        obj = quadratic_objective([0.0])
        x = np.array([2.0])
        for tau in (0.0, 0.3, 1.0):
            assert exact_residual(x, obj, tau) == pytest.approx(
                -8.0 * np.exp(-4.0 * tau), rel=1e-12
            )

    def test_matches_directional_derivative(self):
        # Central differences of tau -> f(x(tau)) along the geodesic.
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        _, grad = obj.value_and_grad(x)
        rgrad = x * grad

        def f_along(tau):
            return obj.value(exp_map(x, -rgrad, tau).point)

        h = 1e-6
        for tau in (0.0, 0.1, 0.5):
            fd = (f_along(tau + h) - f_along(tau - h)) / (2.0 * h)
            assert exact_residual(x, obj, tau) == pytest.approx(fd, rel=1e-6)

    def test_root_near_geodesic_minimizer(self):
        # f = (x-1)^2/2 from x=2: the geodesic passes the minimizer at
        # tau = ln 2, where the residual changes sign.
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        assert exact_residual(x, obj, np.log(2.0)) == pytest.approx(0.0, abs=1e-12)
        assert exact_residual(x, obj, 0.5) < 0.0
        assert exact_residual(x, obj, 0.9) > 0.0


class TestExactResidualModel:
    def test_scalar_model(self):
        # f = x^2/2 at x=2: model is -8 + 32 tau.
        obj = quadratic_objective([0.0])
        x = np.array([2.0])
        for tau in (0.0, 0.1, 0.25):
            assert exact_residual_model(x, obj, tau) == pytest.approx(-8.0 + 32.0 * tau)

    def test_zero_tau_is_negative_norm_squared(self, rng):
        n = 5
        a = rng.uniform(0.5, 2.0, n)
        obj = quadratic_objective(a)
        x = rng.uniform(0.5, 2.0, n)
        _, grad = obj.value_and_grad(x)
        rgrad = x * grad
        expected = -metric_inner(POI, x, rgrad, rgrad)
        assert exact_residual_model(x, obj, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_quadratic_order_gap(self, rng):
        # |exact - model| = O(tau^2): log-log slope >= 1.9.
        taus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        for _ in range(5):
            n = int(rng.integers(1, 6))
            obj = quadratic_objective(rng.uniform(0.3, 2.0, n))
            x = rng.uniform(0.5, 2.0, n)
            gaps = [
                abs(exact_residual(x, obj, t) - exact_residual_model(x, obj, t))
                for t in taus
            ]
            slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
            assert slope >= 1.9
