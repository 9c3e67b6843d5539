"""Independent numerical oracles and the invariant battery.

Every closed-form computation in the library has a slower, structurally
different counterpart here: central finite differences for gradients,
fixed-step RK4 integration of the geodesic equation, per-coordinate
bisection for the proximal characterization of the multiplicative step,
and dense-grid search for exact line-search optima.  The oracles drive
the test suite and the ``verify`` CLI command; they are not part of the
optimization API.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .divergence import h_derivatives, kappa, kl, kl_duality_check, scl_mu
from .geometry import GeometryKind, as_point, exp_map, metric_inner, transport_e
from .linesearch import exact_residual
from .objective import Objective
from .problems import build_instance, full_objective, huber_tv, kl_fidelity
from .operators import SparseOperator
from .solvers import step_eg

# Number of reports produced by run_battery() without fault injection.
BATTERY_SIZE = 34


@dataclass(frozen=True)
class OracleReport:
    """One reference-vs-computed comparison with a pass flag.

    ``rel_err`` is the scale-aware relative error
    ``abs_err / max(1, |reference|)``; a report passes when it is within
    the stated tolerance.
    """

    name: str
    reference: float
    computed: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool

    @classmethod
    def compare(cls, name, reference, computed, tol, one_sided=False) -> "OracleReport":
        reference = float(reference)
        computed = float(computed)
        if one_sided:
            abs_err = max(computed - reference, 0.0)
        else:
            abs_err = abs(computed - reference)
        rel_err = abs_err / max(1.0, abs(reference))
        return cls(
            name=name,
            reference=reference,
            computed=computed,
            abs_err=abs_err,
            rel_err=rel_err,
            tol=float(tol),
            passed=rel_err <= tol,
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self))


def fd_gradient_check(obj: Objective, x, tol: float = 1e-6) -> list[OracleReport]:
    """Central-difference check of the analytic gradient, one report per coordinate.

    The step is ``1e-6 * max(1, |x_i|)``, halved as needed so the
    backward sample stays inside the positive orthant.
    """
    x = as_point(x)
    _, grad = obj.value_and_grad(x)
    reports = []
    for i in range(x.size):
        hi = 1e-6 * max(1.0, abs(x[i]))
        while x[i] - hi <= 0.0:
            hi *= 0.5
        xp = x.copy()
        xm = x.copy()
        xp[i] += hi
        xm[i] -= hi
        fd = (obj.value(xp) - obj.value(xm)) / (2.0 * hi)
        reports.append(OracleReport.compare(f"grad[{i}]", grad[i], fd, tol))
    return reports


def geodesic_ode_oracle(x, v, tau: float, steps: int = 1000) -> np.ndarray:
    """Integrate the geodesic equation ``gamma'' = gamma'^2 / gamma`` by RK4.

    Independent reference for the closed-form exponential map; fourth
    order in the step, so doubling ``steps`` shrinks the error about
    16-fold.
    """
    if steps < 100:
        raise ValueError(f"steps must be at least 100, got {steps}")
    gamma = as_point(x).copy()
    w = np.asarray(v, dtype=float).copy()
    dt = float(tau) / steps

    def rhs(state):
        g, wd = state
        return np.array([wd, wd * wd / g])

    state = np.array([gamma, w])
    for _ in range(steps):
        k1 = rhs(state)
        k2 = rhs(state + 0.5 * dt * k1)
        k3 = rhs(state + 0.5 * dt * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return state[0]


def md_argmin_oracle(x, euclid_grad, tau: float) -> np.ndarray:
    """Per-coordinate bisection solution of the proximal characterization.

    The multiplicative step minimizes
    ``tau * <g, u - x> + KL(u, x)``, which separates per coordinate with
    stationarity condition ``tau * g_i + log(u / x_i) = 0``.  The root is
    bracketed by at most 200 doublings or halvings and bisected; never
    evaluates the closed-form update it is checking.
    """
    x = as_point(x)
    g = np.asarray(euclid_grad, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        def phi(u):
            return tau * g[i] + np.log(u / x[i])

        val = phi(x[i])
        if val == 0.0:
            out[i] = x[i]
            continue
        # Halve towards a root below x_i (phi(x_i) > 0), else double, until phi changes sign.
        sign, factor = (1.0, 0.5) if val > 0.0 else (-1.0, 2.0)
        u = x[i]
        for _ in range(200):
            u *= factor
            if sign * phi(u) < 0.0:
                break
        else:
            raise RuntimeError(f"bracketing failed for coordinate {i}")
        lo, hi = sorted((x[i], u))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if phi(mid) > 0.0:
                hi = mid
            else:
                lo = mid
            if hi - lo <= 1e-14 * mid:
                break
        out[i] = 0.5 * (lo + hi)
    return out


@dataclass(frozen=True)
class ExactLineSearchResult:
    """Minimizer of ``tau -> f(x(tau))`` with a bracketing status.

    ``status`` is ``"interior"`` for a refined interior minimum,
    ``"boundary"`` when the objective is still decreasing at ``tau_max``,
    and ``"degenerate"`` at critical points.
    """

    tau: float
    status: str


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def exact_linesearch_oracle(
    x, obj: Objective, tau_max: float, grid: int = 1000
) -> ExactLineSearchResult:
    """Dense-grid minimization of the geodesic restriction, golden-section refined."""
    if grid < 1000:
        raise ValueError(f"grid must be at least 1000, got {grid}")
    x = as_point(x)
    _, grad = obj.value_and_grad(x)
    rgrad = x * grad
    if np.all(rgrad == 0.0):
        return ExactLineSearchResult(0.0, "degenerate")

    def f_of(t):
        return obj.value(exp_map(x, -rgrad, t).point)

    taus = np.linspace(0.0, tau_max, grid + 1)
    k = int(np.argmin([f_of(t) for t in taus]))
    if k == grid:
        return ExactLineSearchResult(float(tau_max), "boundary")

    a, b = taus[max(k - 1, 0)], taus[k + 1]
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f_of(c), f_of(d)
    for _ in range(200):
        if b - a <= 1e-12 * max(1.0, b):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f_of(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f_of(d)
    return ExactLineSearchResult(float(0.5 * (a + b)), "interior")


# ---------------------------------------------------------------------------
# Invariant battery backing the `verify` CLI command.
# ---------------------------------------------------------------------------


def _quadratic(a: np.ndarray, grad_sign: float = 1.0):
    """Value and gradient of ``||u - a||^2 / 2``; ``grad_sign = -1`` flips the gradient."""

    def value_and_grad(u):
        diff = u - a
        return 0.5 * float(np.dot(diff, diff)), grad_sign * diff

    return value_and_grad


def _worst_pair(reference: np.ndarray, computed: np.ndarray) -> tuple[float, float]:
    """Coordinate pair with the largest scale-aware deviation."""
    scale = np.maximum(1.0, np.abs(reference))
    i = int(np.argmax(np.abs(computed - reference) / scale))
    return float(reference[i]), float(computed[i])


def _fd_report(name: str, value_and_grad, x) -> OracleReport:
    """The worst coordinate of :func:`fd_gradient_check` as one report."""
    reports = fd_gradient_check(Objective(value_and_grad=value_and_grad), x)
    worst = max(reports, key=lambda rep: rep.rel_err)
    return OracleReport.compare(name, worst.reference, worst.computed, 1e-6)


def run_battery(inject_fault: bool = False) -> list[OracleReport]:
    """Deterministic oracle battery; ``BATTERY_SIZE`` reports, all expected to pass.

    ``inject_fault`` appends one deliberately broken comparison (a
    sign-flipped gradient) so harnesses can confirm that failures are
    reported; the extra report must fail.
    """
    rng = np.random.default_rng(0xE661)
    reports: list[OracleReport] = []

    # Closed-form geodesics against RK4 integration (5).
    for i in range(5):
        n = int(rng.integers(1, 6))
        x = rng.uniform(0.5, 2.0, n)
        v = x * rng.uniform(-2.0, 2.0, n)
        tau = float(rng.uniform(0.1, 2.0))
        ref = geodesic_ode_oracle(x, v, tau, steps=1000)
        got = exp_map(x, v, tau).point
        r, c = _worst_pair(ref, got)
        reports.append(OracleReport.compare(f"geodesic_rk4[{i}]", r, c, 1e-8))

    # Multiplicative step against the proximal bisection oracle (5).
    for i in range(5):
        n = int(rng.integers(1, 21))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.0, n)
        tau = float(rng.uniform(0.05, 1.5))
        ref = md_argmin_oracle(x, g, tau)
        got = step_eg(x, g, tau).point
        r, c = _worst_pair(ref, got)
        reports.append(OracleReport.compare(f"eg_md_argmin[{i}]", r, c, 1e-8))

    # Finite-difference gradient checks (3 + 3 + 3).
    for i in range(3):
        m, n = 6, 10
        A = SparseOperator(rng.uniform(0.1, 1.0, (m, n)))
        b = rng.uniform(0.5, 2.0, m)
        x = rng.uniform(0.5, 2.0, n)
        reports.append(_fd_report(f"fd_kl_fidelity[{i}]", lambda u: kl_fidelity(A, b, u), x))
    for i in range(3):
        lam = float(rng.uniform(0.05, 0.5))
        x = rng.uniform(0.5, 2.0, 16)
        reports.append(_fd_report(f"fd_huber_tv[{i}]", lambda u: huber_tv(u, lam, 0.237, (4, 4)), x))
    instance, _ = build_instance(8, seed=3)
    for i in range(3):
        x = rng.uniform(0.5, 2.0, instance.A.cols)
        reports.append(
            _fd_report(f"fd_full_objective[{i}]", lambda u: full_objective(instance, u), x)
        )

    # Exact line search: residual must vanish at the reported optimum (3).
    for i in range(3):
        a = np.array([rng.uniform(0.5, 1.5)])
        x = a * rng.uniform(1.5, 2.5)
        obj = Objective(value_and_grad=_quadratic(a))
        res = exact_linesearch_oracle(x, obj, tau_max=5.0)
        # exp_map at tau = 0 returns x exactly, so this is the squared gradient norm.
        norm_sq = -exact_residual(x, obj, 0.0)
        residual = abs(exact_residual(x, obj, res.tau))
        reports.append(
            OracleReport.compare(f"exact_ls_residual[{i}]", 0.0, residual / norm_sq, 1e-6)
        )

    # Parallel transport round trips (2).
    for i in range(2):
        n = int(rng.integers(2, 8))
        x = rng.uniform(0.5, 2.0, n)
        u = rng.normal(0.0, 1.0, n)
        w = rng.normal(0.0, 1.0, n)
        x2 = exp_map(x, u, 1.0).point
        back = transport_e(x2, x, transport_e(x, x2, w))
        r, c = _worst_pair(w, back)
        reports.append(OracleReport.compare(f"transport_roundtrip[{i}]", r, c, 1e-12))

    # Initial curvature of the mass curve equals the squared gradient norm (3).
    for i in range(3):
        n = int(rng.integers(1, 30))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.0, n)
        h2 = h_derivatives(x, g, 0.0).h2
        norm_sq = metric_inner(GeometryKind.POISSON_FISHER_RAO, x, x * g, x * g)
        reports.append(OracleReport.compare(f"h2_identity[{i}]", norm_sq, h2, 1e-12))

    # Divergence evaluated by two independent routes (3).
    for i in range(3):
        n = int(rng.integers(1, 10))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.0, n)
        tau = float(rng.uniform(0.05, 1.0))
        lhs, rhs = kl_duality_check(x, g, tau)
        reports.append(OracleReport.compare(f"kl_duality[{i}]", lhs, rhs, 1e-10))

    # One-sided inequality checks, worst violation over 50 instances (4).
    viol_scaling = viol_pinsker = viol_md = viol_scl = -np.inf
    for _ in range(50):
        n = int(rng.integers(1, 10))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.5, n)
        mu = scl_mu(g)
        if mu == 0.0:
            continue
        for tau_bar in (0.1, 1.0):
            taus = tau_bar * np.arange(1, 51) / 50.0
            curve = [x * np.exp(-t * g) for t in taus]
            kls = np.array([kl(xt, x) for xt in curve])
            l1 = np.array([float(np.abs(xt - x).sum()) for xt in curve])
            kap = kappa(mu, tau_bar)
            viol_scaling = max(viol_scaling, float(np.max(kap * kls[-1] - kls / taus**2)))
            c = max(float(np.sum(x)), max(float(np.sum(xt)) for xt in curve))
            viol_pinsker = max(viol_pinsker, float(np.max(l1**2 - 2.0 * c * kls)))
            inner = np.array([float(np.dot(g, xt - x)) for xt in curve])
            viol_md = max(viol_md, float(np.max(inner + kls / taus)))
            for t in taus:
                d = h_derivatives(x, g, float(t))
                viol_scl = max(viol_scl, abs(d.h3) - mu * d.h2)
    reports.append(OracleReport.compare("ineq_kl_scaling", 0.0, viol_scaling, 1e-12, one_sided=True))
    reports.append(OracleReport.compare("ineq_pinsker", 0.0, viol_pinsker, 1e-12, one_sided=True))
    reports.append(OracleReport.compare("ineq_md_update", 0.0, viol_md, 1e-12, one_sided=True))
    reports.append(OracleReport.compare("ineq_self_concordant_like", 0.0, viol_scl, 1e-12, one_sided=True))

    if inject_fault:
        # Harness self-test: a sign-flipped gradient must be caught.
        wrong = _quadratic(np.array([1.0, 2.0]), grad_sign=-1.0)
        reports.append(_fd_report("fault_injection_wrong_sign", wrong, np.array([2.0, 3.0])))

    return reports
