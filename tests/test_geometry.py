"""Metric structures, geodesics, transport, and the Hessian correction term."""

import numpy as np
import pytest

from egmin import (
    GeometryKind,
    as_point,
    exp_map,
    m_hessian_apply,
    metric_inner,
    multiplicative_update,
    riemannian_grad,
    transport_e,
)
from egmin.geometry import EXP_ARG_MAX, POINT_CEILING
from egmin.verification import geodesic_ode_oracle

POI = GeometryKind.POISSON_FISHER_RAO
IP = GeometryKind.INTERIOR_POINT


class TestPointValidation:
    def test_accepts_positive(self):
        x = as_point([1.0, 2.5])
        assert x.dtype == np.float64

    @pytest.mark.parametrize("bad", [[0.0], [-1.0, 2.0], [np.nan], [np.inf], [1.0, -0.0]])
    def test_rejects_nonmanifold(self, bad):
        with pytest.raises(ValueError):
            as_point(bad)


class TestMetricInner:
    def test_identity_at_ones(self):
        assert metric_inner(POI, [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]) == pytest.approx(2.0)

    def test_poisson_scalar(self):
        # <4, (1/2)*1> = 2
        assert metric_inner(POI, [2.0], [4.0], [1.0]) == pytest.approx(2.0)

    def test_interior_point_scalar(self):
        # <2, (1/4)*2> = 1
        assert metric_inner(IP, [2.0], [2.0], [2.0]) == pytest.approx(1.0)

    def test_symmetry_and_positivity(self, rng):
        x = rng.uniform(0.5, 2.0, 6)
        u = rng.normal(size=6)
        v = rng.normal(size=6)
        for kind in (POI, IP):
            assert metric_inner(kind, x, u, v) == pytest.approx(metric_inner(kind, x, v, u))
            assert metric_inner(kind, x, u, u) > 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            metric_inner(POI, [1.0, 2.0], [1.0], [1.0, 2.0])


class TestRiemannianGrad:
    def test_poisson_scaling(self):
        np.testing.assert_allclose(
            riemannian_grad(POI, [2.0, 3.0], [1.0, -1.0]), [2.0, -3.0]
        )

    def test_zero_gradient_is_critical(self, rng):
        x = rng.uniform(0.5, 2.0, 5)
        np.testing.assert_array_equal(riemannian_grad(POI, x, np.zeros(5)), np.zeros(5))

    def test_interior_point_scaling(self):
        np.testing.assert_allclose(riemannian_grad(IP, [2.0], [3.0]), [12.0])

    def test_defining_identity_both_geometries(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(size=n)
            v = rng.normal(size=n)
            expected = float(np.dot(g, v))
            for kind in (POI, IP):
                got = metric_inner(kind, x, riemannian_grad(kind, x, g), v)
                assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestExpMap:
    def test_zero_velocity(self):
        res = exp_map([1.0, 2.0], [0.0, 0.0], 1.0)
        np.testing.assert_array_equal(res.point, [1.0, 2.0])
        assert res.ok

    def test_closed_form_values(self):
        res = exp_map([1.0, 2.0], [1.0, -2.0], 1.0)
        np.testing.assert_allclose(res.point, [np.e, 2.0 * np.exp(-1.0)], rtol=1e-12)
        np.testing.assert_allclose(res.point, [2.718282, 0.735759], atol=1e-6)

    def test_against_ode_oracle_examples(self):
        got = exp_map([1.0, 2.0], [1.0, -2.0], 1.0).point
        ref = geodesic_ode_oracle([1.0, 2.0], [1.0, -2.0], 1.0, steps=1000)
        np.testing.assert_allclose(got, ref, rtol=1e-8)

        got = exp_map([1.0], [-1.0], np.log(2.0)).point
        np.testing.assert_allclose(got, [0.5], rtol=1e-12)
        ref = geodesic_ode_oracle([1.0], [-1.0], np.log(2.0), steps=1000)
        np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_ode_consistency_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 6))
            x = rng.uniform(0.5, 2.0, n)
            v = x * rng.uniform(-2.0, 2.0, n)
            tau = float(rng.uniform(0.0, 2.0))
            got = exp_map(x, v, tau).point
            ref = geodesic_ode_oracle(x, v, tau, steps=1000)
            np.testing.assert_allclose(got, ref, rtol=1e-8)

    def test_eg_equivalence(self, rng):
        # Geodesic step with the metric-rescaled gradient equals the
        # multiplicative update x * exp(-tau * g).
        for _ in range(100):
            n = int(rng.integers(1, 12))
            x = rng.uniform(0.3, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            tau = float(rng.uniform(0.0, 2.0))
            lhs = exp_map(x, -riemannian_grad(POI, x, g), tau).point
            rhs = x * np.exp(-tau * g)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-13)

    def test_completeness_positivity(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 8))
            x = rng.uniform(0.5, 2.0, n)
            v = rng.normal(0.0, 2.0, n)
            tau = float(rng.uniform(0.0, 50.0))
            res = exp_map(x, v, tau)
            assert np.all((res.point > 0.0) | res.underflow)
            if res.ok:
                assert np.all(res.point > 0.0)

    def test_negative_tau_reverses(self):
        x = np.array([1.0, 2.0])
        v = np.array([0.5, -1.0])
        fwd = exp_map(x, v, 0.7).point
        np.testing.assert_allclose(exp_map(fwd, v * fwd / x, -0.7).point, x, rtol=1e-12)

    def test_clamp_flag(self):
        res = multiplicative_update(np.array([1e-10]), np.array([800.0]))
        assert res.clamped.all() and not res.ok
        np.testing.assert_allclose(res.point, [1e-10 * np.exp(EXP_ARG_MAX)])

    def test_ceiling_saturation(self):
        res = multiplicative_update(np.array([1e10]), np.array([700.0]))
        assert res.clamped.all()
        assert res.point[0] == POINT_CEILING

    def test_underflow_flag(self):
        res = multiplicative_update(np.array([1e-300]), np.array([-200.0]))
        assert res.underflow.all() and not res.ok
        assert res.point[0] == 0.0


class TestTransport:
    def test_identity(self, rng):
        x = rng.uniform(0.5, 2.0, 4)
        v = rng.normal(size=4)
        np.testing.assert_array_equal(transport_e(x, x, v), v)

    def test_elementwise_formula(self):
        np.testing.assert_allclose(
            transport_e([1.0, 2.0], [2.0, 2.0], [3.0, 4.0]), [6.0, 4.0]
        )

    def test_zero_vector(self):
        np.testing.assert_array_equal(transport_e([2.0], [1.0], [0.0]), [0.0])

    def test_linearity(self, rng):
        x = rng.uniform(0.5, 2.0, 5)
        x2 = exp_map(x, rng.normal(size=5), 1.0).point
        u = rng.normal(size=5)
        w = rng.normal(size=5)
        a, b = 1.7, -0.3
        np.testing.assert_allclose(
            transport_e(x, x2, a * u + b * w),
            a * transport_e(x, x2, u) + b * transport_e(x, x2, w),
            rtol=1e-12,
        )

    def test_round_trip(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 8))
            x = rng.uniform(0.5, 2.0, n)
            x2 = exp_map(x, rng.normal(size=n), 1.0).point
            v = rng.normal(size=n)
            back = transport_e(x2, x, transport_e(x, x2, v))
            np.testing.assert_allclose(back, v, rtol=1e-14, atol=1e-300)


class TestMHessian:
    def test_vanishes_at_critical_point(self):
        x = np.array([1.5, 2.0])
        h = m_hessian_apply(x, np.zeros(2), lambda v: np.zeros(2))
        np.testing.assert_array_equal(h, np.zeros(2))

    def test_scalar_quadratic(self):
        # f = x^2/2 at x=2: g=2, hess=1, rgrad=4 -> 2*4 + 2*4 = 16
        h = m_hessian_apply(np.array([2.0]), np.array([2.0]), lambda v: v)
        np.testing.assert_allclose(h, [16.0])

    def test_linear_objective(self):
        h = m_hessian_apply(np.array([1.0]), np.array([3.0]), lambda v: np.zeros(1))
        np.testing.assert_allclose(h, [9.0])

    def test_finite_difference_of_gradient_flow(self):
        # d/dtau rgrad(x(tau)) at 0 equals -H for f = x^2/2.
        x = np.array([2.0])
        tau = 1e-6
        x_tau = x * np.exp(-tau * x)  # g(x) = x
        fd = (x_tau * x_tau - x * x) / tau
        h = m_hessian_apply(x, x.copy(), lambda v: v)
        np.testing.assert_allclose(fd, -h, rtol=1e-3)

    def test_first_order_expansion_slope(self, rng):
        # ||rgrad(x(tau)) - (rgrad - tau*H)|| = O(tau^2): log-log slope >= 1.9.
        from conftest import general_quadratic_objective

        n = 4
        b = rng.normal(size=(n, n))
        q = b.T @ b + np.eye(n)
        a = rng.uniform(0.5, 1.5, n)
        obj = general_quadratic_objective(q, a)
        x = rng.uniform(1.0, 2.0, n)
        _, g = obj.value_and_grad(x)
        rgrad = riemannian_grad(POI, x, g)
        h = m_hessian_apply(x, g, lambda v: obj.hess_vec(x, v))
        taus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        errs = []
        for tau in taus:
            x_tau = exp_map(x, -rgrad, tau).point
            _, g_tau = obj.value_and_grad(x_tau)
            rgrad_tau = riemannian_grad(POI, x_tau, g_tau)
            errs.append(np.linalg.norm(rgrad_tau - (rgrad - tau * h)))
        slope = np.polyfit(np.log(taus), np.log(errs), 1)[0]
        assert slope >= 1.9
