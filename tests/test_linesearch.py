"""Armijo backtracking, constant steps, and exact line-search diagnostics."""

import math
from types import SimpleNamespace

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
from egmin.linesearch import SIGMA, TRIAL_STEPS, _trial_steps

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
        ],
    )
    def test_invalid(self, kwargs):
        # tau_bar is the one field; the slope, the halving factor and the
        # floor are constants, which no caller sets.
        with pytest.raises(ValueError if list(kwargs) == ["tau_bar"] else TypeError):
            ArmijoParams(**kwargs)

    def test_constant_step(self):
        assert constant_step(0.1).tau == 0.1
        with pytest.raises(ValueError):
            constant_step(0.0)
        with pytest.raises(ValueError):
            constant_step(-1.0)

    @pytest.mark.parametrize("tau_bar", [math.nan, math.inf])
    def test_tau_bar_must_be_finite(self, tau_bar):
        with pytest.raises(ValueError, match="tau_bar must be positive and finite"):
            ArmijoParams(tau_bar=tau_bar)

    @pytest.mark.parametrize("tau", [math.nan, math.inf])
    def test_constant_step_must_be_finite(self, tau):
        with pytest.raises(ValueError, match="constant step tau must be positive and finite"):
            constant_step(tau)


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

    def test_scaled_direction_still_satisfies_inequality(self):
        obj = quadratic_objective([1.0])
        x = np.array([2.0])
        value, grad = obj.value_and_grad(x)
        rgrad = riemannian_grad(POI, x, grad)
        for c in (0.5, 1.0, 3.0):
            direction = -c * rgrad
            result = armijo_backtrack(obj, x, direction, ArmijoParams())
            assert result.status is StepStatus.ACCEPTED
            slope = metric_inner(POI, x, rgrad, direction)
            assert result.new_value <= value + SIGMA * result.tau * slope

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
            value=lambda x: np.inf,
        )
        x = np.array([1.0])
        result = armijo_backtrack(obj, x, np.array([-1.0]), ArmijoParams())
        assert result.status is StepStatus.HIT_TAU_MIN
        assert (result.tau, result.halvings) == (2.0**-34, TRIAL_STEPS)
        np.testing.assert_array_equal(result.new_point, x)
        # A failed search makes `halvings` trials, each rejected on its value.
        assert obj.rejected_by == {"kl_term": 0, "value": result.halvings, "unusable": 0}

    def test_all_trials_clamped(self):
        # Direction so large that even the last trial step overflows the exponent.
        obj = Objective(value_and_grad=lambda x: (0.0, np.array([-1.0])))
        x = np.array([1.0])
        result = armijo_backtrack(obj, x, np.array([1e308]), ArmijoParams())
        assert result.status is StepStatus.CLAMPED
        assert obj.rejected_by == {"kl_term": 0, "value": 0, "unusable": result.halvings}

    def test_sufficient_decrease_on_random_instances(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 20))
            a = rng.uniform(0.2, 4.0, n)
            obj = quadratic_objective(a)
            x = rng.uniform(0.1, 5.0, n)
            value, grad = obj.value_and_grad(x)
            rgrad = riemannian_grad(POI, x, grad)
            result = armijo_backtrack(obj, x, -rgrad, ArmijoParams(), value=value, grad=grad)
            assert result.status is StepStatus.ACCEPTED
            norm_sq = metric_inner(POI, x, rgrad, rgrad)
            assert result.new_value <= value - SIGMA * result.tau * norm_sq

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
            assert result.halvings < TRIAL_STEPS

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


def _offering(obj, step):
    # obj, with every search context offering step as its probe.
    obj.search = lambda geodesic: SimpleNamespace(probe=step)
    return obj


def _steps(params, count):
    # The search's trial steps, formed as it forms them.
    steps = [params.tau_bar]
    while len(steps) < count:
        steps.append(steps[-1] * 0.5)
    return steps


def _failed_tau(params, result):
    # The step a failed search records: tau_bar halved `halvings` times,
    # by repeated multiplication.
    return _steps(params, result.halvings + 1)[-1]


class TestProbeFirst:
    """A search that tries the offered probe first returns the result of
    the search from ``tau_bar``, bit for bit, and counts the probe."""

    @staticmethod
    def _same(got, want):
        assert (got.tau, got.halvings, got.status) == (want.tau, want.halvings, want.status)
        assert got.new_point.tobytes() == want.new_point.tobytes()
        assert np.float64(got.new_value).tobytes() == np.float64(want.new_value).tobytes()

    def test_accepted_step_above_at_and_below_the_probe(self, rng):
        seen = set()
        for i in range(200):
            n, m = int(rng.integers(1, 20)), int(rng.integers(1, 12))
            a, b = rng.uniform(0.1, 1.0, (m, n)), rng.uniform(0.5, 2.0, m)
            obj = dense_kl_objective(a, b)
            x = rng.uniform(0.1, 3.0, n) * 10.0 ** rng.uniform(-3, 3)
            value, grad = obj.value_and_grad(x)
            direction = -riemannian_grad(POI, x, grad)
            params = ArmijoParams(tau_bar=10.0 ** rng.uniform(-2, 4))
            want = armijo_backtrack(obj, x, direction, params, value, grad)
            assert want.status is StepStatus.ACCEPTED
            index = max(1, want.halvings + int(rng.integers(-3, 4)))
            probing = _offering(dense_kl_objective(a, b), _steps(params, index + 1)[index])
            got = armijo_backtrack(probing, x, direction, params, value, grad)
            self._same(got, want)
            assert probing.probes == 1
            assert probing.probes_wasted == (want.halvings < index)
            # Every trial counts once: a wasted probe that met its limit in probes_met.
            assert probing.probes_met <= probing.probes_wasted
            rejected = sum(probing.rejected_by.values())
            assert want.halvings + probing.probes_wasted - probing.probes_met == rejected
            seen.add(int(np.sign(index - want.halvings)))
        assert seen == {-1, 0, 1}

    def test_wasted_probe_that_misses_its_limit(self):
        # f falls past x = 0.5 only: the probe at tau = 1/2 (x = e**-0.5)
        # misses its limit and tau_bar = 1 (x = e**-1) meets it, so the
        # search accepts tau_bar with one wasted probe that met nothing.
        def objective():
            return Objective(value_and_grad=lambda x: (0.0, np.ones_like(x)),
                             value=lambda x: -1.0 if x[0] < 0.5 else 1.0)

        x, direction = np.array([1.0]), np.array([-1.0])
        want = armijo_backtrack(objective(), x, direction, ArmijoParams(), 0.0, np.ones(1))
        probing = _offering(objective(), 0.5)
        got = armijo_backtrack(probing, x, direction, ArmijoParams(), 0.0, np.ones(1))
        self._same(got, want)
        assert want.status is StepStatus.ACCEPTED and want.halvings == 0
        assert (probing.probes, probing.probes_wasted, probing.probes_met) == (1, 1, 0)
        rejected = sum(probing.rejected_by.values())
        assert rejected == probing.rejected_by["value"] == 1
        assert got.halvings + probing.probes_wasted - probing.probes_met == rejected

    def test_no_probe_off_the_grid(self):
        obj = quadratic_objective([1.0, 2.0])
        x = np.array([3.0, 0.5])
        value, grad = obj.value_and_grad(x)
        direction = -riemannian_grad(POI, x, grad)
        want = armijo_backtrack(obj, x, direction, ArmijoParams(), value, grad)
        for step in (0.3, 1.0, 2.0, None):
            probing = _offering(quadratic_objective([1.0, 2.0]), step)
            self._same(armijo_backtrack(probing, x, direction, ArmijoParams(), value, grad), want)
            assert probing.probes == 0

    def test_hit_tau_min(self):
        params = ArmijoParams()
        for index in (1, 10, 33):
            results = []
            for probe in (False, True):
                obj = Objective(value_and_grad=lambda x: (0.0, np.ones_like(x)), value=lambda x: np.inf)
                if probe:
                    obj = _offering(obj, _steps(params, index + 1)[index])
                results.append(armijo_backtrack(obj, np.array([1.0]), np.array([-1.0]), params))
            self._same(results[1], results[0])
            assert results[0].status is StepStatus.HIT_TAU_MIN and results[0].halvings == 34
            assert obj.probes == 1 and obj.probes_wasted == obj.probes_met == 0
            for result in results:
                assert result.tau == _failed_tau(params, result) == 2.0**-34

    def test_all_trials_clamped(self):
        for index in (1, 30, 60):
            results = []
            for probe in (False, True):
                obj = Objective(value_and_grad=lambda x: (0.0, np.array([-1.0])))
                if probe:
                    obj = _offering(obj, _steps(ArmijoParams(), index + 1)[index])
                results.append(armijo_backtrack(obj, np.array([1.0]), np.array([1e308]), ArmijoParams()))
            self._same(results[1], results[0])
            assert results[0].status is StepStatus.CLAMPED and results[0].halvings == 34
            for result in results:
                assert result.tau == _failed_tau(ArmijoParams(), result) == 2.0**-34

    def test_trial_steps_are_formed_once_by_repeated_multiplication(self):
        # At any tau_bar, TRIAL_STEPS = 34 steps tau_bar * 2**-k, formed once by
        # repeated halving; a failed search returns tau_bar * 2**-34 after 34 halvings.
        assert TRIAL_STEPS == 34
        for tau_bar in (1.0, 3.0, 50.0, 2.0**-400, 2.0**400):
            params = ArmijoParams(tau_bar)
            steps = _trial_steps(params)
            assert [step.hex() for step in steps] == [(tau_bar * 2.0**-k).hex() for k in range(34)]
            assert _trial_steps(ArmijoParams(tau_bar)) is steps
            obj = Objective(value_and_grad=lambda x: (0.0, np.ones_like(x)), value=lambda x: np.inf)
            result = armijo_backtrack(obj, np.array([1.0]), np.array([-1.0]), params)
            assert result.status is not StepStatus.ACCEPTED  # at 2**400 every trial underflows
            assert (result.tau.hex(), result.halvings) == ((tau_bar * 2.0**-34).hex(), 34)

    def test_unusable_probe(self):
        # The exponent overflows down to tau = 2**-4 (|w tau| = 1000 tau > 700 above
        # it), so a probe at 2**-2 is unusable, and the search accepts below it.
        obj = quadratic_objective([0.5])
        x = np.array([1.0])
        value, grad = obj.value_and_grad(x)
        direction = np.array([-1000.0])
        want = armijo_backtrack(obj, x, direction, ArmijoParams(), value, grad)
        assert want.status is StepStatus.ACCEPTED and want.halvings > 2
        probing = _offering(quadratic_objective([0.5]), 0.25)
        self._same(armijo_backtrack(probing, x, direction, ArmijoParams(), value, grad), want)
        assert probing.probes == 1 and probing.probes_wasted == 0
