import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import feature_opt, rbf
from sparsemp.feature_opt import BfgsResult, FeatureObjective, bfgs_minimize
from sparsemp.rbf import RbfParams, StackedRbfParams, eval_basis


def flat_objective(N=40, p=3, m=2, seed=0, lambda2=1e-4):
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 1, N)
    W = rng.standard_normal((p, m))
    Y = rng.standard_normal((N, m))
    return FeatureObjective(t, Y, W, lambda2), rng


def random_theta(p, n_blocks, rng):
    mus = rng.uniform(0.1, 0.9, n_blocks * p)
    logs = np.log(rng.uniform(0.01, 0.2, n_blocks * p))
    return np.concatenate([mus, logs])


class TestFeatureObjective:
    def test_theta_size(self):
        obj, _ = flat_objective(p=3)
        assert obj.theta_size == 6

    def test_stacked_theta_size(self):
        rng = np.random.default_rng(0)
        t = np.linspace(0, 1, 10)
        W = rng.standard_normal((4, 2))
        Y = rng.standard_normal((30, 2))
        obj = FeatureObjective(t, Y, W, 1e-4, n_dof_blocks=3)
        assert obj.theta_size == 24

    def test_negative_lambda2_rejected(self):
        with pytest.raises(ValueError, match="lambda2 must be nonnegative"):
            FeatureObjective(np.linspace(0, 1, 10), np.zeros((10, 1)), np.ones((2, 1)), -1e-3)

    def test_theta_of_another_size_rejected(self):
        obj, rng = flat_objective(p=3)
        with pytest.raises(ValueError, match="theta size 4, expected 6"):
            obj.cost_grad(random_theta(2, 1, rng))

    def test_nan_theta_rejected(self):
        obj, rng = flat_objective(p=3)
        theta = random_theta(3, 1, rng)
        theta[4] = np.nan
        with pytest.raises(FloatingPointError, match="non-finite basis values"):
            obj.cost_grad(theta)

    def test_row_count_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rows"):
            FeatureObjective(
                np.linspace(0, 1, 10),
                rng.standard_normal((11, 2)),
                rng.standard_normal((3, 2)),
                0.0,
            )

    def test_one_dimensional_target_and_coefficients_are_one_column(self):
        rng = np.random.default_rng(5)
        t, y, w = np.linspace(0, 1, 10), rng.standard_normal(10), rng.standard_normal(3)
        flat = FeatureObjective(t, y, w, 1e-3)
        column = FeatureObjective(t, y[:, None], w[:, None], 1e-3)
        assert flat.p == 3 and flat.Y.shape == (10, 1) and flat.W.shape == (3, 1)
        theta = column.encode(RbfParams(mu=[0.2, 0.5, 0.8], sigma2=[0.05] * 3))
        np.testing.assert_array_equal(flat.encode(column.decode(theta)), theta)
        f, g = flat.cost_grad(theta)
        f_col, g_col = column.cost_grad(theta)
        assert f == f_col
        np.testing.assert_array_equal(g, g_col)

    def test_cost_matches_direct_evaluation(self):
        obj, rng = flat_objective(seed=1)
        theta = random_theta(3, 1, rng)
        params = obj.decode(theta)
        Phi, Acc = rbf.build_basis(obj.t, params)
        expected = np.sum((obj.Y - Phi @ obj.W) ** 2) + obj.lambda2 * np.sum(
            (Acc @ obj.W) ** 2
        )
        assert obj.cost_grad(theta)[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_gradient_matches_finite_differences(self, seed):
        obj, rng = flat_objective(seed=seed)
        theta = random_theta(3, 1, rng)
        _, g = obj.cost_grad(theta)
        h = 1e-6
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (obj.cost_grad(theta + e)[0] - obj.cost_grad(theta - e)[0]) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[i] - fd) / denom <= 1e-5

    @pytest.mark.parametrize("seed", range(3))
    def test_stacked_gradient_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed + 50)
        N, p, n_blocks, m = 25, 2, 3, 2
        t = np.linspace(0, 1, N)
        W = rng.standard_normal((p, m))
        Y = rng.standard_normal((N * n_blocks, m))
        obj = FeatureObjective(t, Y, W, 1e-3, n_dof_blocks=n_blocks)
        theta = random_theta(p, n_blocks, rng)
        _, g = obj.cost_grad(theta)
        h = 1e-6
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            fd = (obj.cost_grad(theta + e)[0] - obj.cost_grad(theta - e)[0]) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[i] - fd) / denom <= 1e-5

    @pytest.mark.parametrize("n_blocks", range(1, 8))
    def test_batched_cost_grad_matches_block_loop(self, n_blocks):
        rng = np.random.default_rng(100 + n_blocks)
        N, p, m, lam2 = 30, 4, 3, 1e-2
        t = np.linspace(0, 1, N)
        W = rng.standard_normal((p, m))
        Y = rng.standard_normal((N * n_blocks, m))
        obj = FeatureObjective(t, Y, W, lam2, n_dof_blocks=n_blocks)
        theta = random_theta(p, n_blocks, rng)

        params = obj.decode(theta)
        Phi, Acc = rbf.build_basis(t, params)
        f_oracle = np.sum((Y - Phi @ W) ** 2) + lam2 * np.sum((Acc @ W) ** 2)
        gmu, glogs = np.zeros((n_blocks, p)), np.zeros((n_blocks, p))
        for b in range(n_blocks):
            dpm, dpl, dam, dal = rbf.basis_and_partials(
                t, params.mu[b], params.sigma2[b])[2:]
            R = Y[b * N:(b + 1) * N] - Phi[b * N:(b + 1) * N] @ W
            A = Acc[b * N:(b + 1) * N] @ W
            gmu[b] = -2 * np.sum((dpm.T @ R) * W, 1) + 2 * lam2 * np.sum((dam.T @ A) * W, 1)
            glogs[b] = -2 * np.sum((dpl.T @ R) * W, 1) + 2 * lam2 * np.sum((dal.T @ A) * W, 1)
        g_oracle = np.concatenate([gmu.ravel(), glogs.ravel()])

        f, g = obj.cost_grad(theta)
        assert f == pytest.approx(f_oracle, rel=1e-12)
        np.testing.assert_allclose(g, g_oracle, rtol=1e-10, atol=1e-10 * np.abs(g_oracle).max())

    def test_caller_owns_the_gradient(self):
        obj, rng = flat_objective(seed=2)
        theta = random_theta(3, 1, rng)
        _, g0 = obj.cost_grad(theta)
        expected = g0.copy()
        g0[:] = 0.0  # the caller owns what it is handed
        np.testing.assert_array_equal(obj.cost_grad(theta.copy())[1], expected)

    def test_handed_out_gradient_survives_later_evaluations(self):
        obj, rng = flat_objective(seed=3)
        theta = random_theta(3, 1, rng)
        _, g = obj.cost_grad(theta)
        expected = g.copy()
        for _ in range(3):  # each new point refills the kernel workspace
            obj.cost_grad(random_theta(3, 1, rng))
        np.testing.assert_array_equal(g, expected)
        np.testing.assert_array_equal(obj.cost_grad(theta)[1], expected)

    def test_decode_shapes(self):
        obj, rng = flat_objective()
        params = obj.decode(random_theta(3, 1, rng))
        assert isinstance(params, RbfParams)
        rng2 = np.random.default_rng(3)
        t = np.linspace(0, 1, 10)
        stacked_obj = FeatureObjective(
            t, rng2.standard_normal((20, 1)),
            rng2.standard_normal((2, 1)), 0.0, n_dof_blocks=2,
        )
        stacked = stacked_obj.decode(random_theta(2, 2, rng2))
        assert isinstance(stacked, RbfParams)
        assert stacked.n_blocks == 2


def three_block_objective(seed=7):
    """(objective, theta): 3 blocks of 3 features, lambda2 > 0."""
    rng = np.random.default_rng(seed)
    N, p, nb, m = 25, 3, 3, 2
    t = np.linspace(0, 1, N)
    obj = FeatureObjective(t, rng.standard_normal((N * nb, m)),
                           rng.standard_normal((p, m)), 1e-2, n_dof_blocks=nb)
    return obj, random_theta(p, nb, rng)


def block_index(obj, b):
    """Block b's entries of theta: its centers, then its log widths."""
    nb, p = obj.n_blocks, obj.p
    return np.concatenate([b * p + np.arange(p), nb * p + b * p + np.arange(p)])


def block_diagonal(obj, H):
    """The block matrices H (n_blocks, 2p, 2p) as one theta_size square
    matrix in the theta layout."""
    full = np.zeros((obj.theta_size, obj.theta_size))
    for b in range(obj.n_blocks):
        full[np.ix_(block_index(obj, b), block_index(obj, b))] = H[b]
    return full


class TestGaussNewton:
    def test_matches_finite_difference_jacobian(self):
        obj, theta = three_block_objective()
        lam2, t, Y, W = obj.lambda2, obj.t, obj.Y, obj.W

        def residual(th):
            Phi, Acc = rbf.build_basis(t, obj.decode(th))
            return np.concatenate([(Y - Phi @ W).ravel(), np.sqrt(lam2) * (Acc @ W).ravel()])

        h = 1e-6
        J = np.empty((residual(theta).size, theta.size))
        for i in range(theta.size):
            e = np.zeros_like(theta)
            e[i] = h
            J[:, i] = (residual(theta + e) - residual(theta - e)) / (2 * h)
        obj.cost_grad(theta)
        H = obj.gauss_newton()
        assert H.shape == (3, 6, 6)
        expected = J.T @ J
        full = block_diagonal(obj, H)
        for b in range(3):
            block = expected[np.ix_(block_index(obj, b), block_index(obj, b))]
            np.testing.assert_allclose(H[b], block, rtol=0, atol=1e-5 * np.abs(block).max())
        # No curvature between blocks.
        np.testing.assert_array_equal(expected[full == 0.0], 0.0)

    def test_damped_step_solves_each_block(self):
        obj, theta = three_block_objective(seed=8)
        _, g = obj.cost_grad(theta)
        H = obj.gauss_newton()
        damping = 1e-3 * H.diagonal(axis1=1, axis2=2).max()
        step = obj.damped_step(H, g, damping)
        full = block_diagonal(obj, H) + damping * np.eye(obj.theta_size)
        np.testing.assert_allclose(full @ step, -0.5 * g, rtol=0,
                                   atol=1e-10 * np.abs(g).max())

    def test_indefinite_block_gives_no_step(self):
        obj, theta = three_block_objective()
        _, g = obj.cost_grad(theta)
        H = obj.gauss_newton()
        H[2] = -H[2]
        assert obj.damped_step(H, g, 1e-3) is None

    def test_refused_steps_raise_the_damping_until_it_overflows(self):
        obj, theta = three_block_objective()
        obj.damped_step = lambda H, g, damping: None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = bfgs_minimize(obj, theta)
        assert result.line_search_failed and not result.converged
        assert result.n_evals == 1  # no trial point was evaluated
        assert result.cost == result.start_cost


class TestThetaLayout:
    def test_encode_is_centers_then_log_widths_block_by_block(self):
        obj, _ = pinned_problem()
        params = StackedRbfParams(per_dof=[
            RbfParams(mu=np.full(12, 0.1 * b), sigma2=np.full(12, 0.01 * (b + 1)))
            for b in range(3)])
        theta = obj.encode(params)
        np.testing.assert_array_equal(theta[:36], np.repeat([0.0, 0.1, 0.2], 12))
        np.testing.assert_array_equal(
            theta[36:], np.log(np.repeat([0.01, 0.02, 0.03], 12)))

    def test_encode_checks_the_size(self):
        obj, _ = flat_objective(p=3)
        with pytest.raises(ValueError, match="theta size 4, expected 6"):
            obj.encode(RbfParams(mu=[0.1, 0.2], sigma2=[0.01, 0.01]))

    def test_clamp_keeps_centers_within_a_window_and_widths_on_the_floor(self):
        obj = FeatureObjective(np.linspace(1.0, 3.0, 5), np.zeros((5, 1)),
                               np.zeros((2, 1)), 0.0)
        theta = np.array([-5.0, 2.5, 0.0, np.log(rbf.SIGMA2_MIN) - 3.0])
        clamped = obj.clamp(theta)
        np.testing.assert_array_equal(
            clamped, [-1.0, 2.5, 0.0, feature_opt.LOG_S2_MIN])
        assert clamped is not theta and theta[0] == -5.0
        np.testing.assert_array_equal(obj.clamp([6.0, 1.5, -1.0, -1.0])[:2], [5.0, 1.5])

    def test_clamp_caps_log_widths(self):
        obj = FeatureObjective(np.linspace(1.0, 3.0, 5), np.zeros((5, 1)),
                               np.zeros((2, 1)), 0.0)
        theta = np.array([1.0, 2.0, feature_opt.LOG_S2_MAX + 1.0, 1e300])
        np.testing.assert_array_equal(obj.clamp(theta)[2:], feature_opt.LOG_S2_MAX)

    def test_projected_gradient_drops_what_points_out_of_the_box(self):
        obj = FeatureObjective(np.linspace(1.0, 3.0, 5), np.zeros((5, 1)),
                               np.zeros((2, 1)), 0.0)
        lo, hi = obj.box
        theta = np.array([lo[0], hi[1], lo[2], 0.0])
        # Components 0 and 2 push through their bound, 1 points inward.
        g = np.array([2.0, 3.0, 5.0, 4.0])
        assert obj.projected_grad_norm(theta, g) == 5.0
        interior = np.array([2.0, 2.0, 0.0, 0.0])
        assert obj.projected_grad_norm(interior, g) == np.linalg.norm(g)


def uphill_objective(seed=0):
    """(objective, theta0): theta0 fits the data up to noise, and the
    objective hands out its gradient with the sign flipped. Every damped
    step then goes uphill and is rejected, until the damping overflows."""
    obj, rng = flat_objective(seed=seed, lambda2=0.0)
    theta0 = random_theta(3, 1, rng)
    Y = eval_basis(obj.t, obj.decode(theta0)) @ obj.W + 0.1 * rng.standard_normal(obj.Y.shape)
    obj = FeatureObjective(obj.t, Y, obj.W, 0.0)
    cost_grad = obj.cost_grad

    def flipped(theta):
        f, g = cost_grad(theta)
        return f, -g

    obj.cost_grad = flipped
    return obj, theta0


class TestBfgsMinimize:
    def test_quadratic_bowl_via_rbf_fit(self):
        # Fit a single bump generated by known parameters: the optimum
        # recovers them and the cost drops to ~0.
        t = np.linspace(0, 1, 60)
        true = RbfParams(mu=np.array([0.45]), sigma2=np.array([0.03]))
        W = np.array([[1.3]])
        Y = eval_basis(t, true) @ W
        obj = FeatureObjective(t, Y, W, 0.0)
        theta0 = np.array([0.55, np.log(0.05)])
        result = bfgs_minimize(obj, theta0)
        assert isinstance(result, BfgsResult)
        assert result.cost <= 1e-8
        recovered = obj.decode(result.theta)
        assert recovered.mu[0] == pytest.approx(0.45, abs=1e-3)

    def test_never_increases_cost(self):
        obj, rng = flat_objective(seed=4)
        theta0 = random_theta(3, 1, rng)
        result = bfgs_minimize(obj, theta0)
        assert result.cost <= obj.cost_grad(theta0)[0] + 1e-12

    def test_converged_flag_and_grad_tol(self):
        t = np.linspace(0, 1, 60)
        true = RbfParams(mu=np.array([0.45]), sigma2=np.array([0.03]))
        W = np.array([[1.3]])
        Y = eval_basis(t, true) @ W
        obj = FeatureObjective(t, Y, W, 0.0)
        result = bfgs_minimize(obj, np.array([0.5, np.log(0.04)]))
        assert result.converged
        f0 = obj.cost_grad(np.array([0.5, np.log(0.04)]))[0]
        assert result.grad_norm <= 1e-6 * (1.0 + abs(f0)) + 1e-12

    def test_max_iters_respected(self):
        obj, rng = flat_objective(seed=5)
        theta0 = random_theta(3, 1, rng)
        result = bfgs_minimize(obj, theta0, max_iters=2)
        assert result.n_iters <= 2

    def test_projection_applied(self):
        # Data from a center at 3 s on a [0, 1] s window pull a center out
        # of the box [-1, 2] s: projected steps stop it at the bound, and
        # the run goes on fitting the width with the center there.
        t = np.linspace(0, 1, 40)
        true = RbfParams(mu=np.array([3.0]), sigma2=np.array([0.1]))
        W = np.array([[1.0]])
        Y = eval_basis(t, true) @ W
        obj = FeatureObjective(t, Y, W, 0.0)
        result = bfgs_minimize(obj, np.array([1.5, np.log(0.1)]))
        assert result.theta[0] == 2.0
        assert result.converged and result.cost < result.start_cost

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_never_above_start_cost_while_the_box_binds(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(1, 4))
        t = np.linspace(0, 1, 30)
        true = RbfParams(mu=rng.uniform(2.5, 4.0, p), sigma2=rng.uniform(0.2, 1.0, p))
        W = rng.standard_normal((p, 2))
        obj = FeatureObjective(t, eval_basis(t, true) @ W, W, 1e-4)
        theta0 = np.concatenate([rng.uniform(1.2, 1.9, p), np.log(true.sigma2[0])])
        moved, clamp = [], obj.clamp

        def recording_clamp(theta):
            out = clamp(theta)
            moved.append(not np.array_equal(out, theta))
            return out

        obj.clamp = recording_clamp
        result = bfgs_minimize(obj, theta0, max_iters=50)
        assert any(moved)
        assert result.cost <= result.start_cost

    def test_widths_on_the_floor_stay_inside_the_box(self):
        # A unit spike on a 1 ms grid pulls the width below the floor, where
        # the clamp holds it: every point the cost sees lies in the box.
        t = np.linspace(0, 0.04, 41)
        Y = np.zeros((41, 1))
        Y[20, 0] = 1.0
        obj = FeatureObjective(t, Y, np.array([[1.0]]), 0.0)
        seen, cost_grad = [], obj.cost_grad

        def recording_cost_grad(theta):
            seen.append(np.array(theta))
            return cost_grad(theta)

        obj.cost_grad = recording_cost_grad
        result = bfgs_minimize(obj, np.array([0.02, np.log(1e-4)]))
        seen = np.array(seen)
        assert result.theta[1] == feature_opt.LOG_S2_MIN
        assert np.all((seen[:, 0] >= -0.04) & (seen[:, 0] <= 0.08))
        assert np.all((seen[:, 1] >= feature_opt.LOG_S2_MIN)
                      & (seen[:, 1] <= feature_opt.LOG_S2_MAX))

    def test_a_point_on_the_floor_converges(self):
        # The gradient at the floor pushes the width further down; projected
        # onto the box it vanishes, so the run stops there instead of
        # re-proposing clamped steps until the damping overflows.
        t = np.linspace(0, 0.04, 41)
        Y = np.zeros((41, 1))
        Y[20, 0] = 1.0
        obj = FeatureObjective(t, Y, np.array([[1.0]]), 0.0)
        result = bfgs_minimize(obj, np.array([0.02, np.log(1e-4)]))
        assert result.converged and not result.line_search_failed
        assert result.n_evals <= 10
        assert result.theta[1] == feature_opt.LOG_S2_MIN
        assert result.cost == pytest.approx(0.7726372048266514, rel=1e-9)
        assert result.grad_norm <= 1e-6 * (1.0 + result.start_cost)

    def test_line_search_failure_flagged_without_warning(self):
        obj, theta0 = uphill_objective()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = bfgs_minimize(obj, theta0)
        assert result.line_search_failed and not result.converged
        assert result.cost <= obj.cost_grad(theta0)[0]

    def test_non_finite_start_rejected(self):
        obj, _ = flat_objective()
        with pytest.raises(ValueError, match="non-finite"):
            bfgs_minimize(obj, np.full(obj.theta_size, np.nan))

    def test_non_finite_start_cost_rejected(self):
        obj, rng = flat_objective()
        overflowing = FeatureObjective(obj.t, 1e300 * obj.Y, obj.W, obj.lambda2)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(FloatingPointError, match="non-finite cost at the initial point"):
            bfgs_minimize(overflowing, random_theta(3, 1, rng))

    def test_zero_coefficients_flat_objective(self):
        # With W = 0 the cost is constant in theta: the run stops at once.
        rng = np.random.default_rng(6)
        t = np.linspace(0, 1, 20)
        Y = rng.standard_normal((20, 2))
        obj = FeatureObjective(t, Y, np.zeros((2, 2)), 1e-3)
        theta0 = random_theta(2, 1, rng)
        result = bfgs_minimize(obj, theta0)
        assert result.cost == pytest.approx(np.sum(Y ** 2))


def pinned_problem(t_end=1.0):
    """Three DoF blocks of 12 features fitted from perturbed true parameters.

    The true centers lie in [0, 1] s; a window shorter than that lets the
    clamp bind."""
    rng = np.random.default_rng(2024)
    N, p, nb, m = 50, 12, 3, 2
    t = np.linspace(0, t_end, N)
    true = StackedRbfParams(per_dof=[
        RbfParams(mu=np.sort(rng.uniform(0, 1, p)), sigma2=rng.uniform(0.003, 0.02, p))
        for _ in range(nb)])
    W = rng.standard_normal((p, m))
    Y = rbf.build_basis(t, true)[0] @ W + 0.01 * rng.standard_normal((N * nb, m))
    obj = FeatureObjective(t, Y, W, 1e-4, n_dof_blocks=nb)
    return obj, obj.encode(true) + 0.05 * rng.standard_normal(2 * nb * p)


def count_kernel_calls(monkeypatch):
    calls = []
    kernel = feature_opt.basis_and_partials

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(feature_opt, "basis_and_partials", counting)
    return calls


class TestLmPinned:
    """Outcomes recorded when Levenberg-Marquardt replaced BFGS. Both runs
    end on the small-decrease stop before the 40-iteration cap, one kernel
    call per iteration plus the start point's."""

    @pytest.mark.parametrize("t_end, cost, n_iters", [
        (1.0, 64.73724952176818, 36),
        (0.6, 83.46691295566919, 25),
    ])
    def test_converges_before_the_cap(self, t_end, cost, n_iters, monkeypatch):
        obj, theta0 = pinned_problem(t_end)
        calls = count_kernel_calls(monkeypatch)
        result = bfgs_minimize(obj, theta0, max_iters=40)
        assert result.cost == pytest.approx(cost, rel=1e-9)
        assert result.n_iters == n_iters
        assert result.converged and not result.line_search_failed
        assert len(calls) == n_iters + 1


class TestBfgsTelemetry:
    def test_n_evals_counts_kernel_calls(self, monkeypatch):
        obj, theta0 = pinned_problem()
        calls = count_kernel_calls(monkeypatch)
        result = bfgs_minimize(obj, theta0, max_iters=10)
        assert result.n_evals == len(calls)
        assert result.n_evals > result.n_iters  # the start point counts
        assert result.start_cost == obj.cost_grad(theta0)[0]

    def test_one_record_per_call_names_the_exit(self, caplog):
        t = np.linspace(0, 1, 60)
        true = RbfParams(mu=np.array([0.45]), sigma2=np.array([0.03]))
        W = np.array([[1.3]])
        obj = FeatureObjective(t, eval_basis(t, true) @ W, W, 0.0)
        bad, bad_theta0 = uphill_objective()
        runs = [
            (obj, np.array([0.5, np.log(0.04)]), None, "converged"),
            (obj, np.array([0.55, np.log(0.05)]), 2, "max_iters"),
            (bad, bad_theta0, None, "line_search"),
        ]
        for objective, theta0, max_iters, exit_kind in runs:
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="sparsemp.feature_opt"):
                result = bfgs_minimize(objective, theta0, max_iters=max_iters)
            (record,) = caplog.records
            fields = dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))
            assert fields["exit"] == exit_kind
            assert int(fields["dim"]) == theta0.size
            assert int(fields["iters"]) == result.n_iters
            assert int(fields["evals"]) == result.n_evals
            assert record.getMessage().endswith(f"-> {result.cost:.6g}")

    def test_disabled_logger_formats_nothing(self, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="sparsemp.feature_opt")
        monkeypatch.setattr(feature_opt.logger, "debug", pytest.fail)
        obj, theta0 = pinned_problem()
        bfgs_minimize(obj, theta0, max_iters=3)
