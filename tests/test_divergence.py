"""The KL divergence and the scalar decay bounds."""

import numpy as np
import pytest

from egmin import (
    GeometryKind,
    h_derivatives,
    kappa,
    kl,
    kl_duality_check,
    metric_inner,
    scl_mu,
)

POI = GeometryKind.POISSON_FISHER_RAO


class TestKL:
    def test_identity(self):
        assert kl([2.0, 3.0], [2.0, 3.0]) == 0.0

    def test_asymmetry_witness(self):
        assert kl([1.0], [np.e]) == pytest.approx(np.e - 2.0)
        assert kl([np.e], [1.0]) == pytest.approx(1.0)

    def test_zero_coordinate_convention(self):
        # 0 * log 0 := 0, so only the +y term survives.
        assert kl([0.0], [1.0]) == pytest.approx(1.0)

    def test_nonnegative(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.0, 3.0, n)
            y = rng.uniform(0.2, 3.0, n)
            assert kl(x, y) >= 0.0

    def test_rejects_negative_x(self):
        with pytest.raises(ValueError):
            kl([-0.1], [1.0])

    def test_equals_bregman_of_neg_entropy(self, rng):
        # Second route: phi(x) - phi(y) - <log y, x - y> with the negative
        # entropy phi(x) = sum(x log x - x).
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            y = rng.uniform(0.2, 3.0, n)
            phi_x = np.sum(x * np.log(x) - x)
            phi_y = np.sum(y * np.log(y) - y)
            a, b = kl(x, y), phi_x - phi_y - np.dot(np.log(y), x - y)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


class TestHDerivatives:
    def test_symmetric_cancellation(self):
        d = h_derivatives([1.0, 1.0], [1.0, -1.0], 0.0)
        assert (d.h0, d.h1, d.h2, d.h3) == pytest.approx((2.0, 0.0, 2.0, 0.0))

    def test_stationary_gradient(self, rng):
        x = rng.uniform(0.5, 2.0, 5)
        d = h_derivatives(x, np.zeros(5), 0.7)
        assert d.h0 == pytest.approx(float(np.sum(x)))
        assert (d.h1, d.h2, d.h3) == (0.0, 0.0, 0.0)

    def test_scalar_collapse(self):
        d = h_derivatives([1.0], [1.0], np.log(2.0))
        assert (d.h0, d.h1, d.h2, d.h3) == pytest.approx((0.5, -0.5, 0.5, -0.5))

    def test_convexity_invariants(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(size=n)
            d = h_derivatives(x, g, float(rng.uniform(0.0, 2.0)))
            assert d.h0 > 0.0
            assert d.h2 >= 0.0


class TestSclMu:
    @pytest.mark.parametrize(
        "g,expected", [([0.0, 0.0], 0.0), ([1.0, -3.0], 3.0), ([-0.5], 0.5)]
    )
    def test_values(self, g, expected):
        assert scl_mu(g) == expected


class TestKappa:
    def test_unit_case(self):
        # exp(1)*(1-1) + 1 = 1
        assert kappa(1.0, 1.0) == pytest.approx(0.5)

    def test_mu_two(self):
        assert kappa(2.0, 1.0) == pytest.approx(2.0 / (np.e**2 + 1.0), rel=1e-12)
        assert kappa(2.0, 1.0) == pytest.approx(0.238406, abs=1e-6)

    def test_small_tau_scaled_limit(self):
        # The bracket behaves like (mu*tau)^2/2, so kappa * tau^2 -> 1.
        tau = 1e-6
        assert kappa(1.0, tau) * tau**2 == pytest.approx(1.0, rel=1e-4)

    @pytest.mark.parametrize("mu,tau", [(0.0, 1.0), (-1.0, 1.0), (1.0, 0.0), (1.0, -2.0)])
    def test_contract_violations(self, mu, tau):
        with pytest.raises(ValueError):
            kappa(mu, tau)

    def test_positive(self, rng):
        for _ in range(20):
            assert kappa(float(rng.uniform(0.01, 5.0)), float(rng.uniform(0.01, 5.0))) > 0.0


class TestKLDuality:
    def test_zero_step(self):
        lhs, rhs = kl_duality_check([1.5, 2.0], [0.3, -0.4], 0.0)
        assert lhs == pytest.approx(0.0, abs=1e-15)
        assert rhs == pytest.approx(0.0, abs=1e-15)

    def test_scalar_closed_form(self):
        lhs, rhs = kl_duality_check([1.0], [1.0], 1.0)
        expected = 1.0 - 2.0 * np.exp(-1.0)
        assert lhs == pytest.approx(expected, rel=1e-12)
        assert rhs == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.264241, abs=1e-6)

    def test_random_pairs_agree(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(size=n)
            tau = float(rng.uniform(0.0, 1.5))
            lhs, rhs = kl_duality_check(x, g, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def _descent_curve(x, g, taus):
    return [x * np.exp(-t * g) for t in taus]


class TestDecayInequalities:
    """Inequalities along the descent curve x(tau) = x * exp(-tau * g)."""

    def test_self_concordant_like(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            mu = scl_mu(g)
            for tau in np.linspace(0.0, 2.0, 21):
                d = h_derivatives(x, g, float(tau))
                assert abs(d.h3) <= mu * d.h2 + 1e-12

    def test_kl_scaling(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            mu = scl_mu(g)
            if mu == 0.0:
                continue
            for tau_bar in (0.1, 1.0):
                taus = tau_bar * np.arange(1, 51) / 50.0
                kls = np.array([kl(xt, x) for xt in _descent_curve(x, g, taus)])
                bound = kappa(mu, tau_bar) * kls[-1]
                assert np.all(bound <= kls / taus**2 + 1e-12)

    def test_pinsker_type(self, rng):
        # c bounds ||x(tau)||_1 over the closed interval, including tau=0.
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            for tau_bar in (0.1, 1.0):
                taus = tau_bar * np.arange(1, 51) / 50.0
                curve = _descent_curve(x, g, taus)
                kls = np.array([kl(xt, x) for xt in curve])
                l1 = np.array([float(np.abs(xt - x).sum()) for xt in curve])
                c = max(float(np.sum(x)), max(float(np.sum(xt)) for xt in curve))
                assert np.all(l1**2 <= 2.0 * c * kls + 1e-12)

    def test_md_update_inequality(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 10))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(0.0, 1.5, n)
            taus = np.arange(1, 51) / 50.0
            for tau, xt in zip(taus, _descent_curve(x, g, taus)):
                assert float(np.dot(g, xt - x)) <= -kl(xt, x) / tau + 1e-12

    def test_h2_at_zero_is_squared_gradient_norm(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            x = rng.uniform(0.2, 3.0, n)
            g = rng.normal(size=n)
            h2 = h_derivatives(x, g, 0.0).h2
            rgrad = x * g
            norm_sq = metric_inner(POI, x, rgrad, rgrad)
            assert abs(h2 - norm_sq) <= 1e-12 * max(1.0, abs(norm_sq))
