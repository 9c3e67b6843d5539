"""Acceptance gate: the full criteria battery at its stated tolerances.

Each test prints one PASS line on success; a failing assertion names the
violated bound.  The desk-scale comparison run is shared between the
criteria that exercise it.
"""

import time

import numpy as np
import pytest
from conftest import dense_kl_objective, quadratic_objective, quartic_objective

from egmin import (
    ArmijoParams,
    GeometryKind,
    Method,
    Objective,
    SolverConfig,
    SparseOperator,
    StepStatus,
    armijo_backtrack,
    build_instance,
    default_x0,
    exact_residual,
    exact_residual_model,
    exp_map,
    fd_gradient_check,
    full_objective,
    geodesic_ode_oracle,
    h_derivatives,
    huber_tv,
    kappa,
    kl,
    kl_fidelity,
    md_argmin_oracle,
    metric_inner,
    read_trace_csv,
    riemannian_grad,
    scl_mu,
    solve,
    step_eg,
)
from egmin.cli import RunSpec, cmd_solve

POI = GeometryKind.POISSON_FISHER_RAO

DESK_METHODS = ("eg", "poicg", "ipgrgd", "ipemd")


def desk_spec(outdir, seed=0):
    """Criterion 8 configuration: 64x64, 20% undersampling, defaults."""
    return RunSpec(
        n_side=64,
        undersampling=0.2,
        methods=DESK_METHODS,
        max_iterations=300,
        grad_norm_tol=1e-6,
        seed=seed,
        output_dir=str(outdir),
    )


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("desk") / "run"
    started = time.perf_counter()
    exit_code = cmd_solve(desk_spec(outdir))
    elapsed = time.perf_counter() - started
    traces = {m: read_trace_csv(outdir / f"trace_{m}.csv") for m in DESK_METHODS}
    return dict(outdir=outdir, traces=traces, exit_code=exit_code, elapsed=elapsed)


def test_criterion_01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    for i in range(20):
        m, n = 16, 64
        A = SparseOperator(rng.uniform(0.05, 1.0, (m, n)))
        b = rng.uniform(0.5, 3.0, m)
        x = rng.uniform(0.3, 2.0, n)
        obj = Objective(value_and_grad=lambda u, A=A, b=b: kl_fidelity(A, b, u))
        assert all(r.passed for r in fd_gradient_check(obj, x, tol=1e-6))

        lam, delta = float(rng.uniform(0.01, 0.5)), float(rng.uniform(0.05, 0.5))
        obj = Objective(
            value_and_grad=lambda u, lam=lam, delta=delta: huber_tv(u, lam, delta, (8, 8))
        )
        assert all(r.passed for r in fd_gradient_check(obj, x, tol=1e-6))

        instance, _ = build_instance(8, lam=lam, delta=delta, noisy=bool(i % 2), seed=i)
        obj = Objective(
            value_and_grad=lambda u, inst=instance: full_objective(inst, u)
        )
        assert all(r.passed for r in fd_gradient_check(obj, x, tol=1e-6))
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"\nPASS criterion 1: gradients match finite differences at 1e-6 ({elapsed:.1f}s)")


def test_criterion_02_geodesic_closed_form():
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    for _ in range(100):
        n = int(rng.integers(1, 8))
        x = rng.uniform(0.5, 2.0, n)
        v = x * rng.uniform(-2.0, 2.0, n)
        tau = float(rng.uniform(0.0, 2.0))
        got = exp_map(x, v, tau).point
        ref = geodesic_ode_oracle(x, v, tau, steps=1000)
        np.testing.assert_allclose(got, ref, rtol=1e-8)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nPASS criterion 2: exponential map matches RK4 oracle at 1e-8 ({elapsed:.1f}s)")


def test_criterion_03_eg_md_identity():
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(1, 51))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.0, n)
        tau = float(rng.uniform(0.05, 1.5))
        got = step_eg(x, g, tau).point
        ref = md_argmin_oracle(x, g, tau)
        assert np.max(np.abs(got - ref)) <= 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(f"\nPASS criterion 3: multiplicative step equals proximal argmin at 1e-8 ({elapsed:.1f}s)")


def test_criterion_04_armijo_finite_termination():
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    max_halvings_seen = 0
    for i in range(1000):
        n = int(rng.integers(1, 51))
        x = rng.uniform(0.1, 3.0, n)
        kind = i % 3
        if kind == 0:
            obj = quadratic_objective(rng.uniform(0.2, 4.0, n))
        elif kind == 1:
            m = int(rng.integers(1, 15))
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
        result = armijo_backtrack(
            obj, x, -riemannian_grad(POI, x, grad), ArmijoParams(), value=value, grad=grad
        )
        assert result.status is StepStatus.ACCEPTED
        assert result.halvings <= 60
        max_halvings_seen = max(max_halvings_seen, result.halvings)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 4: 1000/1000 instances accepted, max halvings "
        f"{max_halvings_seen} <= 60, zero floor hits ({elapsed:.1f}s)"
    )


def test_criterion_05_lemma_inequalities():
    started = time.perf_counter()
    rng = np.random.default_rng(105)
    slack = 1e-12
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 12))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.5, n)
        mu = scl_mu(g)
        if mu == 0.0:
            continue
        checked += 1
        for tau_bar in (0.1, 1.0):
            taus = tau_bar * np.arange(1, 51) / 50.0
            curve = [x * np.exp(-t * g) for t in taus]
            kls = np.array([kl(xt, x) for xt in curve])
            # KL scaling lower bound on the quadratic decay rate.
            assert np.all(kappa(mu, tau_bar) * kls[-1] <= kls / taus**2 + slack)
            # Pinsker-type bound with c over the closed interval.
            l1 = np.array([float(np.abs(xt - x).sum()) for xt in curve])
            c = max(float(np.sum(x)), max(float(np.sum(xt)) for xt in curve))
            assert np.all(l1**2 <= 2.0 * c * kls + slack)
            # Proximal-step inequality of the multiplicative update.
            inner = np.array([float(np.dot(g, xt - x)) for xt in curve])
            assert np.all(inner <= -kls / taus + slack)
            # Third derivative controlled by the gradient max-norm.
            for t in taus:
                d = h_derivatives(x, g, float(t))
                assert abs(d.h3) <= mu * d.h2 + slack
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(
        f"\nPASS criterion 5: scaling/Pinsker/proximal/third-derivative bounds hold "
        f"on 200 instances x 50-point grids ({elapsed:.1f}s)"
    )


def test_criterion_06_initial_curvature_identity():
    rng = np.random.default_rng(106)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        x = rng.uniform(0.2, 3.0, n)
        g = rng.normal(0.0, 1.5, n)
        h2 = h_derivatives(x, g, 0.0).h2
        rgrad = x * g
        norm_sq = metric_inner(POI, x, rgrad, rgrad)
        assert abs(h2 - norm_sq) <= 1e-12 * max(1.0, abs(norm_sq))
    print("\nPASS criterion 6: h''(0) equals the squared Riemannian gradient norm at 1e-12")


def test_criterion_07_exactness_model_order():
    # Instances scaled so the coarsest grid point tau = 1e-1 lies inside
    # the asymptotic regime (an order measurement needs that); second- and
    # third-order coefficients of wild random instances can interfere at
    # tau ~ 0.1 without contradicting the O(tau^2) gap.
    from conftest import general_quadratic_objective

    rng = np.random.default_rng(107)
    taus = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    for i in range(20):
        n = int(rng.integers(1, 9))
        if i % 2 == 0:
            q = np.diag(rng.uniform(0.5, 2.0, n))
            a = rng.uniform(0.7, 1.8, n)
            obj = general_quadratic_objective(q, a)
        else:
            obj = quartic_objective(
                rng.uniform(0.05, 0.2, n),
                rng.uniform(0.05, 0.2, n),
                rng.uniform(0.1, 0.5, n),
            )
        x = rng.uniform(0.7, 1.8, n)
        gaps = np.array(
            [abs(exact_residual(x, obj, t) - exact_residual_model(x, obj, t)) for t in taus]
        )
        slope = np.polyfit(np.log(taus), np.log(gaps), 1)[0]
        assert slope >= 1.9
    print("\nPASS criterion 7: residual-model gap shrinks at second order (slope >= 1.9)")


def test_criterion_08_desk_scale_comparison(desk_run):
    assert desk_run["exit_code"] == 0
    assert desk_run["elapsed"] < 300.0
    traces = desk_run["traces"]

    values = {m: np.array([r.f for r in recs]) for m, recs in traces.items()}
    # (a) Armijo-driven multiplicative descent is monotone.
    assert np.all(np.diff(values["eg"]) <= 0.0)
    # (c) The guaranteed-constant-step quotient method is monotone.
    assert np.all(np.diff(values["ipemd"]) <= 0.0)

    # (b) The conjugate-gradient variant reaches 1e-3 relative value first.
    f0 = values["eg"][0]
    f_best = min(v.min() for v in values.values())

    def iters_to(level, method):
        rel = (values[method] - f_best) / (f0 - f_best)
        hit = np.nonzero(rel <= level)[0]
        return int(hit[0]) if hit.size else None

    eg_hit = iters_to(1e-3, "eg")
    cg_hit = iters_to(1e-3, "poicg")
    assert cg_hit is not None
    assert eg_hit is None or cg_hit < eg_hit

    # (d) Without line search the quotient method applies the operator at
    # most as often per iteration as backtracking descent.
    def matvecs_per_iter(method):
        recs = traces[method]
        return recs[-1].matvec_count / recs[-1].k

    assert matvecs_per_iter("ipemd") <= matvecs_per_iter("eg")
    print(
        f"\nPASS criterion 8: desk-scale comparison in {desk_run['elapsed']:.1f}s "
        f"(CG at 1e-3 after {cg_hit} iters vs EG {eg_hit}; "
        f"matvecs/iter {matvecs_per_iter('ipemd'):.2f} vs {matvecs_per_iter('eg'):.2f})"
    )


def test_criterion_09_determinism(desk_run, tmp_path):
    outdir2 = tmp_path / "rerun"
    assert cmd_solve(desk_spec(outdir2)) == 0
    for m in DESK_METHODS:
        a = (desk_run["outdir"] / f"trace_{m}.csv").read_bytes()
        b = (outdir2 / f"trace_{m}.csv").read_bytes()
        assert a == b, f"trace_{m}.csv differs between identical runs"
    print("\nPASS criterion 9: identical seeds reproduce byte-identical traces")


def test_criterion_10_convex_convergence():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        a = rng.uniform(0.5, 3.0, 5)
        x0 = default_x0(5, seed=seed)
        trace = solve(SolverConfig(method=Method.EG), quadratic_objective(a), x0)
        assert trace.records[-1].k <= 300
        err = float(np.max(np.abs(trace.final_point - a)))
        worst = max(worst, err)
        assert err <= 1e-4
    print(f"\nPASS criterion 10: 20/20 seeds within 1e-4 of the minimizer (worst {worst:.2e})")
