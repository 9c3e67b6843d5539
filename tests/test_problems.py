"""The tomography test bed: fidelity, regularizer, projector, phantom, data."""

import gc
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import sparse

from egmin import (
    ArmijoParams,
    Method,
    Objective,
    ProblemInstance,
    SolverConfig,
    SparseOperator,
    build_instance,
    build_projector,
    discrete_gradient,
    discrete_gradient_adjoint,
    full_objective,
    huber,
    huber_tv,
    kl_fidelity,
    make_objective,
    make_phantom,
    simulate_data,
    solve,
)
from egmin.linesearch import constant_step
from egmin.problems import _huber_values, _same_point
from egmin.solvers import default_x0, relative_lipschitz_step
from egmin.verification import fd_gradient_check


class TestKLFidelity:
    def test_scalar_instance(self):
        a = SparseOperator([[1.0]])
        value, grad = kl_fidelity(a, np.array([2.0]), np.array([1.0]))
        assert value == pytest.approx(2.0 * np.log(2.0) - 1.0)
        assert value == pytest.approx(0.386294, abs=1e-6)
        np.testing.assert_allclose(grad, [-1.0])

    def test_consistent_data_is_minimum(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (5, 8)))
        x = rng.uniform(0.5, 2.0, 8)
        b = a._matrix.toarray() @ x
        value, grad = kl_fidelity(a, b, x)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, np.zeros(8), atol=1e-12)

    def test_two_column_consistent(self):
        a = SparseOperator([[1.0, 1.0]])
        value, grad = kl_fidelity(a, np.array([2.0]), np.array([1.0, 1.0]))
        assert value == 0.0
        np.testing.assert_array_equal(grad, [0.0, 0.0])

    def test_counts_one_forward_one_adjoint(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (4, 6)))
        kl_fidelity(a, rng.uniform(0.5, 2.0, 4), rng.uniform(0.5, 2.0, 6))
        assert (a.forward_count, a.adjoint_count) == (1, 1)

    def test_gradient_against_finite_differences(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (6, 9)))
        b = rng.uniform(0.5, 2.0, 6)
        obj = Objective(value_and_grad=lambda x: kl_fidelity(a, b, x))
        reports = fd_gradient_check(obj, rng.uniform(0.5, 2.0, 9))
        assert all(r.passed for r in reports)


class TestHuber:
    def test_at_zero(self):
        assert huber(0.0, 1.0) == (0.0, 0.0)

    def test_quadratic_branch(self):
        assert huber(0.5, 1.0) == pytest.approx((0.125, 0.5))

    def test_linear_branch(self):
        assert huber(2.0, 1.0) == pytest.approx((1.5, 1.0))

    def test_continuity_at_kink(self):
        delta = 0.3
        eps = 1e-12
        v_in, d_in = huber(delta - eps, delta)
        v_out, d_out = huber(delta + eps, delta)
        assert v_in == pytest.approx(v_out, abs=1e-11)
        assert d_in == pytest.approx(d_out, abs=1e-11)

    def test_array_input_and_symmetry(self, rng):
        a = rng.normal(0.0, 2.0, 50)
        value, deriv = huber(a, 0.7)
        v_neg, d_neg = huber(-a, 0.7)
        np.testing.assert_allclose(value, v_neg)
        np.testing.assert_allclose(deriv, -d_neg)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            huber(1.0, 0.0)


class TestDiscreteGradient:
    def test_constant_image(self):
        g = discrete_gradient((3, 4), np.full(12, 2.5))
        np.testing.assert_array_equal(g, np.zeros(24))

    def test_one_by_two(self):
        g = discrete_gradient((1, 2), np.array([0.0, 1.0]))
        np.testing.assert_array_equal(g[2:], [1.0, 0.0])  # horizontal block
        np.testing.assert_array_equal(g[:2], [0.0, 0.0])  # vertical block

    @pytest.mark.parametrize("shape", [(1, 1), (1, 5), (4, 1), (3, 4), (7, 7)])
    def test_adjoint_dot_product(self, shape, rng):
        h, w = shape
        x = rng.normal(size=h * w)
        y = rng.normal(size=2 * h * w)
        lhs = float(np.dot(discrete_gradient(shape, x), y))
        rhs = float(np.dot(x, discrete_gradient_adjoint(shape, y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            discrete_gradient((2, 3), np.zeros(5))
        with pytest.raises(ValueError):
            discrete_gradient_adjoint((2, 3), np.zeros(11))


class TestHuberTV:
    def test_constant_image(self):
        value, grad = huber_tv(np.full(16, 3.0), 0.1, 0.01, (4, 4))
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(16))

    def test_zero_weight(self, rng):
        value, grad = huber_tv(rng.uniform(0.5, 2.0, 16), 0.0, 0.01, (4, 4))
        assert value == 0.0
        np.testing.assert_array_equal(grad, np.zeros(16))

    @pytest.mark.parametrize("lam", [-0.1, np.nan, np.inf])
    def test_rejects_a_weight_that_is_not_finite_and_nonnegative(self, lam):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            huber_tv(np.arange(16.0) + 1.0, lam, 0.01, (4, 4))

    def test_gradient_against_finite_differences(self, rng):
        lam, delta = 0.2, 0.237
        obj = Objective(value_and_grad=lambda x: huber_tv(x, lam, delta, (4, 4)))
        reports = fd_gradient_check(obj, rng.uniform(0.5, 2.0, 16))
        assert all(r.passed for r in reports)

    @pytest.mark.parametrize("lam", [0.01, 0.3, 2.0])
    @pytest.mark.parametrize("delta", [0.25, 1.0, 4.0])
    def test_value_only_path_is_bit_identical(self, lam, delta, rng):
        # With A = I and b = x the KL term is exactly 0, so the objective's
        # value is its TV value alone; the screened call (finite limit)
        # reuses the TV value its screen computed.  Differences at 0, at
        # exactly +-delta, in both branches, and at +-1e200, where the
        # square would overflow to inf.
        image = 10.0 + np.array([
            [0.0, 0.0, delta, 0.0],
            [0.0, -delta, 1e200, 0.0],
            [0.5, 1.5, 1e-3, 3.0],
            [0.75, 0.75, 1e200, 7.0],
        ]).ravel()
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for x in (image, rng.uniform(10.0, 10.0 + 6.0 * delta, 16)):
                want = huber_tv(x, lam, delta, (4, 4))[0]
                for limit in (np.inf, 1e300):
                    instance = ProblemInstance(SparseOperator(np.eye(16)), x, lam, delta, (4, 4))
                    assert make_objective(instance).value(x, limit) == want
        # A difference of -inf gives an infinite value in the kernel too.
        x = np.array([1e308, -1e308, 0.0, 1.0])
        with np.errstate(over="ignore"):
            d = discrete_gradient((2, 2), x)
            kept = [np.empty(8) for _ in range(3)]
            assert lam * float(_huber_values(d, delta, *kept).sum()) == huber_tv(x, lam, delta, (2, 2))[0] == np.inf

    def test_huber_overflow_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            value, deriv = huber(np.array([1e200, -1e200, 1e308]), 10.0)
        np.testing.assert_array_equal(value, [10.0 * (1e200 - 5.0), 10.0 * (1e200 - 5.0), np.inf])
        np.testing.assert_array_equal(deriv, [10.0, -10.0, 10.0])


class TestFullObjective:
    def test_trivial_minimum(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (5, 9)))
        x = rng.uniform(0.5, 2.0, 9)
        instance = ProblemInstance(a, a._matrix.toarray() @ x, 0.0, 0.01, (3, 3))
        value, grad = full_objective(instance, x)
        assert value == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(grad, np.zeros(9), atol=1e-12)

    def test_additivity(self, rng):
        instance, _ = build_instance(8, seed=2)
        x = rng.uniform(0.5, 2.0, instance.A.cols)
        fv, fg = kl_fidelity(instance.A, instance.b, x)
        tv, tg = huber_tv(x, instance.lam, instance.delta, instance.image_shape)
        value, grad = full_objective(instance, x)
        assert value == fv + tv
        np.testing.assert_array_equal(grad, fg + tg)

    def test_gradient_against_finite_differences(self, rng):
        instance, _ = build_instance(8, seed=4)
        obj = Objective(value_and_grad=lambda x: full_objective(instance, x))
        reports = fd_gradient_check(obj, rng.uniform(0.5, 2.0, instance.A.cols))
        assert all(r.passed for r in reports)

    def test_counts_one_forward_one_adjoint(self, rng):
        instance, _ = build_instance(8, seed=9)
        instance.A.reset_counts()
        full_objective(instance, rng.uniform(0.5, 2.0, instance.A.cols))
        assert (instance.A.forward_count, instance.A.adjoint_count) == (1, 1)

    def test_convexity_witness(self, rng):
        instance, _ = build_instance(8, seed=6)
        n = instance.A.cols
        for _ in range(20):
            x1 = rng.uniform(0.3, 2.0, n)
            x2 = rng.uniform(0.3, 2.0, n)
            theta = float(rng.uniform(0.05, 0.95))
            mid = theta * x1 + (1.0 - theta) * x2
            f_mid = full_objective(instance, mid)[0]
            f1 = full_objective(instance, x1)[0]
            f2 = full_objective(instance, x2)[0]
            assert f_mid <= theta * f1 + (1.0 - theta) * f2 + 1e-10

    def test_gradient_not_lipschitz_near_boundary(self):
        # The gradient ratio blows up along a sequence approaching zero.
        a = SparseOperator([[1.0]])
        b = np.array([1.0])

        def grad_at(x):
            return kl_fidelity(a, b, np.array([x]))[1][0]

        k = 1000.0
        x, y = 1.0 / k, 1.0 / (2.0 * k)
        ratio = abs(grad_at(x) - grad_at(y)) / abs(x - y)
        assert ratio > 1e6


class TestMakeObjective:
    def test_value_and_grad_matches_full_objective(self, rng):
        instance, _ = build_instance(8, seed=7)
        obj = make_objective(instance)
        x = rng.uniform(0.5, 2.0, instance.A.cols)
        v1, g1 = obj.value_and_grad(x)
        v2, g2 = full_objective(instance, x)
        assert v1 == pytest.approx(v2, rel=1e-15)
        np.testing.assert_allclose(g1, g2, rtol=1e-15)

    def test_operation_accounting(self, rng):
        instance, _ = build_instance(8, seed=8)
        obj = make_objective(instance)
        x = rng.uniform(0.5, 2.0, instance.A.cols)
        instance.A.reset_counts()
        obj.value(x)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (1, 0)
        # Same point again: cached forward, gradient costs one adjoint.
        obj.value_and_grad(x)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (1, 1)
        # Fresh point: one of each.
        obj.value_and_grad(x * 1.01)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (2, 2)

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("lam", [0.01, 0.0])
    def test_bit_identical_to_full_objective(self, lam, noisy, rng):
        instance, _ = build_instance(16, lam=lam, noisy=noisy, seed=3)
        obj = make_objective(instance)
        n = instance.A.cols
        points = [rng.uniform(0.5, 2.0, n), rng.uniform(1e-6, 1e3, n), np.exp(rng.normal(0.0, 5.0, n))]
        for x in points:
            want_value, want_grad = full_objective(instance, x)
            assert obj.value(x) == want_value
            value, grad = obj.value_and_grad(x)
            assert value == want_value
            assert grad.tobytes() == want_grad.tobytes()
            # A trial rejected on its exact value, one ulp above its limit,
            # leaves x cached: x's gradient again costs no forward product.
            f_far = full_objective(instance, x * 1.5)[0]
            rejected = obj.rejected_by["value"]
            assert obj.value(x * 1.5, np.nextafter(f_far, -np.inf)) == f_far
            assert obj.rejected_by["value"] == rejected + 1
            instance.A.reset_counts()
            assert obj.value_and_grad(x)[1].tobytes() == want_grad.tobytes()
            assert (instance.A.forward_count, instance.A.adjoint_count) == (0, 1)
            assert obj.value(x * 1.5) == f_far

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("method", list(Method))
    def test_solves_match_the_full_objective(self, method, noisy):
        # The reference objective evaluates every trial through the public,
        # validating full_objective, gradient included.
        instance, _ = build_instance(32, noisy=noisy, seed=0)
        reference = Objective(value_and_grad=lambda x: full_objective(instance, x))
        if method is Method.IP_E_MD:
            policy = constant_step(relative_lipschitz_step(instance.b))
        else:
            policy = ArmijoParams()
        config = SolverConfig(method=method, linesearch=policy)
        x0 = default_x0(instance.A.cols, 0)
        with np.errstate(over="ignore", invalid="ignore"):  # noisy poicg ends non_finite
            got = solve(config, make_objective(instance), x0)
            want = solve(config, reference, x0)
        assert got.terminal_status is want.terminal_status
        assert got.final_point.tobytes() == want.final_point.tobytes()
        columns = [[(r.k, r.f, r.riem_grad_norm, r.tau, r.halvings) for r in t.records] for t in (got, want)]
        assert np.array(columns[0]).tobytes() == np.array(columns[1]).tobytes()  # NaN-safe

    def test_same_point_is_array_equal(self):
        # The cache's test compares one coordinate first; empty points and
        # points of another size answer as np.array_equal does.
        x = np.array([1.0, 2.0, 3.0])
        cases = [(x, x.copy()), (x, x[::-1]), (x, x + [0.0, 0.0, 1.0]), (x, x[:2]), (x, np.empty(0)),
                 (np.empty(0), np.empty(0)), (np.empty(0), x), (np.full(3, np.nan), np.full(3, np.nan))]
        for a, b in cases:
            assert bool(_same_point(a, b)) is np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [0.01, 0.0])
    def test_cache_never_goes_stale(self, lam, rng):
        instance, _ = build_instance(16, lam=lam, seed=5)
        n = instance.A.cols
        x1, x2 = rng.uniform(0.5, 2.0, n), rng.uniform(0.5, 2.0, n)
        want_value, want_grad = full_objective(instance, x1)

        def check(obj, x=x1, want=(want_value, want_grad)):
            value, grad = obj.value_and_grad(x)
            assert value == want[0]
            assert grad.tobytes() == want[1].tobytes()

        # Exact at x1, screened at x2: the screen leaves x1's evaluation cached.
        obj = make_objective(instance)
        obj.value(x1)
        obj.value(x2, -1e10)
        assert obj.screened_trials == 1
        instance.A.reset_counts()
        check(obj)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (0, 1)
        # Exact at x1, then at x2: x2 replaces x1.
        obj = make_objective(instance)
        obj.value(x1)
        obj.value(x2)
        instance.A.reset_counts()
        check(obj)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (1, 1)
        # An in-place edit of the evaluated point is seen, at either end,
        # by a value and by a gradient.
        for i in (0, -1):
            x = x1.copy()
            obj = make_objective(instance)
            obj.value(x)
            x[i] *= 2.0
            want = full_objective(instance, x)
            check(obj, x, want)
            obj = make_objective(instance)
            obj.value(x1)
            assert obj.value(x) == want[0]
        # A gradient with no value before it.
        check(make_objective(instance))
        # An evaluation that raises leaves the cached one as it was.
        obj = make_objective(instance)
        obj.value(x1)
        with pytest.raises(ValueError, match="non-finite"):
            obj.value(np.where(np.arange(n) == 3, np.nan, x2))
        instance.A.reset_counts()
        check(obj)
        assert (instance.A.forward_count, instance.A.adjoint_count) == (0, 1)

    @pytest.mark.parametrize("lam", [0.01, 0.0])
    def test_trials_allocate_almost_nothing(self, lam, rng):
        # After the first evaluation has set up the buffers, a trial allocates
        # little beyond the forward projection it caches, and a gradient
        # little beyond the one it returns.
        instance, _ = build_instance(64, lam=lam, seed=2)
        image = instance.A.cols * 8
        obj = make_objective(instance)
        x = rng.uniform(0.5, 2.0, instance.A.cols)
        f = obj.value_and_grad(x)[0]
        points = [x * rng.uniform(0.9, 1.1, x.size) for _ in range(3)]

        def allocated(call):
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                call()
                return tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()

        screened = obj.screened_trials
        assert allocated(lambda: obj.value(points[0], f - 1e6)) <= 1.5 * image
        assert obj.screened_trials == screened + 1
        assert allocated(lambda: obj.value(points[1], f + 1e6)) <= 1.5 * image
        assert allocated(lambda: (obj.value(points[2]), obj.value_and_grad(points[2]))) <= 2.5 * image

    def test_underflowing_forward_projection_is_rejected(self):
        instance = ProblemInstance(
            A=SparseOperator([[1e-10]]), b=[1.0], lam=0.0, delta=0.01, image_shape=(1, 1)
        )
        obj = make_objective(instance)
        with pytest.raises(ValueError, match="strictly positive"):
            obj.value(np.array([1e-320]))  # A x underflows to 0
        with pytest.raises(ValueError, match="strictly positive"):
            obj.value_and_grad(np.array([1e-320]))
        with pytest.raises(ValueError, match="non-finite"):
            obj.value(np.array([np.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            obj.value(np.array([np.nan]))

    def test_a_used_objective_is_freed_without_the_cycle_collector(self):
        # Each solve makes one objective with its buffers; a reference cycle
        # would keep them until the cyclic collector runs, and peak memory
        # would grow with the number of solves.
        instance, _ = build_instance(16, seed=0)
        obj = make_objective(instance)
        solve(SolverConfig(method=Method.EG, max_iterations=5), obj, default_x0(256, 0))
        gc.disable()
        try:
            freed = weakref.ref(obj)
            del obj
            assert freed() is None
        finally:
            gc.enable()

    def test_far_armijo_trials_raise_no_warning(self):
        instance, _ = build_instance(32, noisy=True, seed=0)
        config = SolverConfig(method=Method.POI_CG, linesearch=ArmijoParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace = solve(config, make_objective(instance), default_x0(1024, 1))
        assert np.isfinite(trace.records[-1].f)


class TestProjector:
    def test_axis_aligned_rays_hit_pixel_rows(self):
        # Single angle at theta=0: each detector integrates one pixel row
        # of the constant-1 image, giving exactly n_side per ray.
        a = build_projector(8, undersampling=1 / 8)
        proj = a.forward(np.ones(64))
        np.testing.assert_allclose(proj, np.full(8, 8.0), atol=1e-12)

    def test_row_sums_equal_chord_lengths(self):
        # Independent geometric oracle: the integral of the constant-1
        # image along a ray equals its chord length through the square,
        # computed here by slab intersection only.
        n, n_angles = 8, 5
        a = build_projector(n, undersampling=n_angles / n)
        sums = a.forward(np.ones(n * n))
        h = 0.5 * n
        idx = 0
        offsets = np.arange(n) - 0.5 * (n - 1)
        for ang in range(n_angles):
            theta = 2.0 * np.pi * ang / n_angles
            d = np.array([np.cos(theta), np.sin(theta)])
            for u in offsets:
                p0 = u * np.array([-d[1], d[0]])
                t_lo, t_hi = -np.inf, np.inf
                hit = True
                for p, dd in zip(p0, d):
                    if abs(dd) < 1e-12:
                        if not -h <= p <= h:
                            hit = False
                    else:
                        t1, t2 = (-h - p) / dd, (h - p) / dd
                        t_lo = max(t_lo, min(t1, t2))
                        t_hi = min(t_hi, max(t1, t2))
                chord = max(t_hi - t_lo, 0.0) if hit else 0.0
                if chord > 1e-12:
                    assert sums[idx] == pytest.approx(chord, abs=1e-9)
                    idx += 1
        assert idx == a.rows

    def test_nonnegative_no_zero_rows(self):
        a = build_projector(16)
        dense = a._matrix.toarray()
        assert dense.min() >= 0.0
        assert np.all((dense > 0).sum(axis=1) > 0)

    def test_target_measurement_count(self):
        a = build_projector(64)
        assert abs(a.rows - 0.2 * 64 * 64) <= 64

    def test_adjoint_dot_product(self, rng):
        a = build_projector(8)
        x = rng.normal(size=a.cols)
        y = rng.normal(size=a.rows)
        lhs = float(np.dot(a.forward(x), y))
        rhs = float(np.dot(x, a.adjoint(y)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_rejects_small_images(self):
        with pytest.raises(ValueError, match="^n_side must be at least 4, got 3$"):
            build_projector(3)

    @pytest.mark.parametrize("undersampling", [0.0, 1.5])
    def test_rejects_undersampling_outside_unit_interval(self, undersampling):
        with pytest.raises(ValueError):
            build_projector(8, undersampling=undersampling)


class TestSparseOperator:
    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            SparseOperator([[1.0, -0.5]])

    def test_rejects_nan_entries(self):
        # A NaN entry would pass through every product: [nan, 2.5] for x = 1.
        with pytest.raises(ValueError, match="nonnegative numbers, got nan"):
            SparseOperator(sparse.csr_matrix([[1.0, np.nan], [0.5, 2.0]]))

    def test_rejects_zero_rows(self):
        with pytest.raises(ValueError):
            SparseOperator([[1.0, 2.0], [0.0, 0.0]])

    def test_leaves_its_input_unchanged(self):
        # One explicit zero: the operator drops it, the caller's matrix keeps it.
        m = sparse.csr_matrix(
            (np.array([1.0, 0.0, 2.0]), np.array([0, 1, 1]), np.array([0, 2, 3])), shape=(2, 2)
        )
        a = SparseOperator(m)
        assert a.nnz == 2
        assert m.nnz == 3
        np.testing.assert_array_equal(m.data, [1.0, 0.0, 2.0])
        np.testing.assert_array_equal(m.indices, [0, 1, 1])
        np.testing.assert_array_equal(m.indptr, [0, 2, 3])

    def test_column_sums_are_formed_once_and_uncounted(self, rng):
        dense = rng.uniform(0.1, 1.0, (3, 4))
        a = SparseOperator(dense)
        np.testing.assert_allclose(a.column_sums(), dense.sum(axis=0), rtol=1e-15)
        assert a.column_sums() is a.column_sums()
        assert not a.column_sums().flags.writeable
        assert a.application_count() == 0

    def test_adjoint_reuses_one_transpose_view(self, rng):
        instance, _ = build_instance(16, seed=1)
        a = instance.A
        matrix, transpose = a._matrix, a._transpose
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(matrix, name), getattr(transpose, name))
        y = rng.uniform(0.1, 2.0, a.rows)
        a.reset_counts()
        a._matrix = None  # the adjoint needs the kept view alone
        got = a.adjoint(y)
        assert got.tobytes() == (matrix.T @ y).tobytes()
        assert a._transpose is transpose
        assert (a.forward_count, a.adjoint_count) == (0, 1)

    def test_reset_counts(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (3, 4)))
        a.forward(np.ones(4))
        a.adjoint(np.ones(3))
        assert a.application_count() == 2
        a.reset_counts()
        assert a.application_count() == 0


class TestPhantomAndData:
    def test_deterministic(self):
        np.testing.assert_array_equal(make_phantom(32), make_phantom(32))

    def test_positive_and_bounded(self):
        img = make_phantom(64)
        assert img.shape == (64, 64)
        assert img.min() > 0.0
        assert img.max() <= 1.0

    def test_rejects_small(self):
        with pytest.raises(ValueError, match="^n_side must be at least 4, got 3$"):
            make_phantom(3)

    def test_noiseless_data_is_exact_projection(self):
        a = build_projector(8)
        x = make_phantom(8).ravel()
        b = simulate_data(a, x, seed=0, noisy=False)
        np.testing.assert_array_equal(b, a.forward(x))  # bitwise: same operator path
        np.testing.assert_allclose(b, a._matrix.toarray() @ x, rtol=1e-12)

    def test_noisy_data_reproducible_and_positive(self):
        a = build_projector(8)
        x = make_phantom(8).ravel()
        b1 = simulate_data(a, x, seed=123, noisy=True)
        b2 = simulate_data(a, x, seed=123, noisy=True)
        np.testing.assert_array_equal(b1, b2)
        assert np.all(b1 > 0.0)
        assert np.any(simulate_data(a, x, seed=124, noisy=True) != b1)


class TestProblemInstance:
    def test_validation(self, rng):
        a = SparseOperator(rng.uniform(0.1, 1.0, (4, 9)))
        good = rng.uniform(0.5, 2.0, 4)
        ProblemInstance(a, good, 0.01, 0.01, (3, 3))
        with pytest.raises(ValueError):
            ProblemInstance(a, np.zeros(4), 0.01, 0.01, (3, 3))
        with pytest.raises(ValueError):
            ProblemInstance(a, good, 0.01, 0.01, (2, 3))
        with pytest.raises(ValueError):
            ProblemInstance(a, good, -0.1, 0.01, (3, 3))
        with pytest.raises(ValueError):
            ProblemInstance(a, good, 0.01, 0.0, (3, 3))
        with pytest.raises(ValueError):
            ProblemInstance(a, rng.uniform(0.5, 2.0, 5), 0.01, 0.01, (3, 3))
        # Every entry positive and finite, but not the sum the objective
        # forms: a ValueError, with no overflow warning first.
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite sum"):
                ProblemInstance(a, [1.0, big, big, 1.0], 0.01, 0.01, (3, 3))
