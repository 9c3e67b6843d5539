"""The KL divergence and scalar decay bounds along the descent curve.

``kl`` is the Kullback-Leibler divergence on the positive orthant, the
Bregman divergence of the negative entropy.  The module also exposes the
scalar curve ``h(tau) = <1, x * exp(-tau * g)>`` whose derivatives control
step-size selection: ``h`` is convex and self-concordant-like with
modulus ``mu = max|g|``, which yields a quadratic lower bound on how fast
``KL(x(tau), x)`` can decay as ``tau -> 0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EXP_ARG_MAX, _vectors, as_point


def kl(x, y) -> float:
    """Kullback-Leibler divergence ``<x, log(x/y)> - <1, x - y>``.

    ``x`` may have zero coordinates (``0 * log 0 := 0``); ``y`` must be
    strictly positive.  Nonnegative, and zero exactly at ``x == y``.
    """
    x, y = _vectors(x, as_point(y))
    if not np.all(np.isfinite(x)) or np.any(x < 0.0):
        raise ValueError("kl requires x >= 0 with finite entries")
    pos = x > 0.0
    terms = np.zeros_like(x)
    terms[pos] = x[pos] * np.log(x[pos] / y[pos])
    return float(np.sum(terms) - np.sum(x) + np.sum(y))


@dataclass(frozen=True)
class HDerivatives:
    """Value and first three derivatives of the total-mass curve.

    For ``x(tau) = x * exp(-tau * g)`` the curve ``h(tau) = <1, x(tau)>``
    has ``h' = -<g, x(tau)>``, ``h'' = <g^2, x(tau)> >= 0`` and
    ``h''' = -<g^3, x(tau)>``, so ``|h'''| <= max|g| * h''``.
    """

    h0: float
    h1: float
    h2: float
    h3: float


def h_derivatives(x, euclid_grad, tau: float) -> HDerivatives:
    """Evaluate the total-mass curve and its derivatives at ``tau``."""
    x, g = _vectors(as_point(x), euclid_grad)
    x_tau = x * np.exp(np.clip(-tau * g, -EXP_ARG_MAX, EXP_ARG_MAX))
    return HDerivatives(
        h0=float(np.sum(x_tau)),
        h1=float(-np.dot(g, x_tau)),
        h2=float(np.dot(g * g, x_tau)),
        h3=float(-np.dot(g * g * g, x_tau)),
    )


def scl_mu(euclid_grad) -> float:
    """Self-concordance-like modulus: the max-norm of the gradient."""
    g = np.atleast_1d(np.asarray(euclid_grad, dtype=float))
    if not np.all(np.isfinite(g)):
        raise ValueError("gradient must be finite")
    return float(np.max(np.abs(g)))


def kappa(mu: float, tau_bar: float) -> float:
    """Decay constant ``mu^2 / 2 / (exp(s)(s - 1) + 1)`` with ``s = mu * tau_bar``.

    Bounds the quadratic decay of the divergence along the descent curve:
    ``kappa * KL(x(tau_bar), x) <= KL(x(tau), x) / tau^2`` on ``(0, tau_bar]``.
    """
    if mu <= 0.0:
        raise ValueError(f"mu must be positive, got {mu}")
    if tau_bar <= 0.0:
        raise ValueError(f"tau_bar must be positive, got {tau_bar}")
    s = mu * tau_bar
    # exp(s)*(s-1) + 1 == s*exp(s) - expm1(s); the right-hand form avoids
    # catastrophic cancellation for small s.
    bracket = s * np.exp(s) - np.expm1(s)
    return float(0.5 * mu * mu / bracket)


def kl_duality_check(x, euclid_grad, tau: float) -> tuple[float, float]:
    """Evaluate ``KL(x(tau), x)`` by two independent routes.

    The first component is the divergence itself; the second is the
    scalar Bregman divergence of the total-mass curve,
    ``h(0) - h(tau) + tau * h'(tau)``.  The two agree by Legendre duality.
    """
    x = as_point(x)
    g = np.asarray(euclid_grad, dtype=float)
    x_tau = x * np.exp(np.clip(-tau * g, -EXP_ARG_MAX, EXP_ARG_MAX))
    d = h_derivatives(x, g, tau)
    return kl(x_tau, x), float(np.sum(x) - d.h0 + tau * d.h1)
