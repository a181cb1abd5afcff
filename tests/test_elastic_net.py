from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import elastic_net
from sparsemp.elastic_net import (
    AugmentedProblem,
    ConvergenceError,
    EmptyModelError,
    active_set,
    dual_gap,
    kkt_violation,
    lambda_max,
    objective,
    prune,
    solve,
    to_lasso,
)
from sparsemp.rbf import RbfParams, StackedRbfParams


def random_problem(N=12, p=3, m=2, seed=0, lambda2=0.0):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((N, p))
    acc = rng.standard_normal((N, p))
    y = rng.standard_normal((N, m))
    return to_lasso(phi, acc, y, lambda2)


def brute_force_objective(prob: AugmentedProblem, lambda1: float) -> float:
    """Search all active-set patterns; fixed-point iterate each to 1e-10.

    On each support S the restricted problem min ||Y - Phi_S W_S||_F^2 +
    lambda1 sum ||W_j|| is solved by iterating the stationarity system
    (Phi_S^T Phi_S + (lambda1/2) diag(1/||W_j||)) W_S = Phi_S^T Y from the
    least-squares start. The global optimum's support is one of the
    patterns, so the minimum over patterns is the optimal objective.
    """
    phi, y = prob.phi_a, prob.y_a
    p, m = prob.n_features, prob.n_tasks
    best = float(np.sum(y ** 2))  # empty support
    for S in chain.from_iterable(
        combinations(range(p), k) for k in range(1, p + 1)
    ):
        S = list(S)
        phi_s = phi[:, S]
        W_s, *_ = np.linalg.lstsq(phi_s, y, rcond=None)
        for _ in range(10_000):
            norms = np.maximum(np.linalg.norm(W_s, axis=1), 1e-14)
            A = phi_s.T @ phi_s + np.diag(lambda1 / (2.0 * norms))
            W_new = np.linalg.solve(A, phi_s.T @ y)
            if np.max(np.abs(W_new - W_s)) <= 1e-10:
                W_s = W_new
                break
            W_s = W_new
        resid = y - phi_s @ W_s
        f = float(np.sum(resid ** 2) + lambda1 * np.sum(np.linalg.norm(W_s, axis=1)))
        best = min(best, f)
    return best


class TestToLasso:
    def test_lambda2_zero_keeps_plain_lasso(self):
        rng = np.random.default_rng(0)
        phi = rng.standard_normal((6, 2))
        acc = rng.standard_normal((6, 2))
        y = rng.standard_normal((6, 1))
        prob = to_lasso(phi, acc, y, 0.0)
        assert np.all(prob.phi_a[6:] == 0.0)

    def test_zero_coefficients_residual(self):
        prob = random_problem(seed=1)
        W = np.zeros((prob.n_features, prob.n_tasks))
        resid = prob.y_a - prob.phi_a @ W
        assert np.sum(resid ** 2) == pytest.approx(np.sum(prob.y_a ** 2))

    @pytest.mark.parametrize("seed", range(10))
    def test_augmentation_identity(self, seed):
        rng = np.random.default_rng(seed)
        N, p, m = 8, 3, 2
        phi = rng.standard_normal((N, p))
        acc = rng.standard_normal((N, p))
        y = rng.standard_normal((N, m))
        lam2 = float(rng.uniform(0, 2))
        W = rng.standard_normal((p, m))
        prob = to_lasso(phi, acc, y, lam2)
        lhs = np.sum((prob.y_a - prob.phi_a @ W) ** 2)
        rhs = np.sum((y - phi @ W) ** 2) + lam2 * np.sum((acc @ W) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_lambda2_rejected(self):
        with pytest.raises(ValueError):
            random_problem(lambda2=-1.0)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="incompatible"):
            to_lasso(
                rng.standard_normal((5, 2)),
                rng.standard_normal((6, 2)),
                rng.standard_normal((5, 1)),
                0.0,
            )


class TestLambdaMax:
    def test_zero_target(self):
        prob = AugmentedProblem(
            phi_a=np.eye(3), y_a=np.zeros((3, 2)), n_data_rows=3
        )
        assert lambda_max(prob) == 0.0

    def test_single_orthonormal_feature(self):
        phi = np.zeros((4, 1))
        phi[0, 0] = 1.0
        y = 2.0 * phi
        prob = AugmentedProblem(phi_a=phi, y_a=y, n_data_rows=4)
        # unscaled objective: the critical penalty is 2 |phi^T y| = 4
        assert lambda_max(prob) == pytest.approx(4.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_solution_zero_above_lambda_max(self, seed):
        prob = random_problem(N=20, p=5, m=2, seed=seed)
        lam = 1.001 * lambda_max(prob)
        W = solve(prob, lam)
        assert np.all(W == 0.0)


class TestSolve:
    def test_unregularized_least_squares(self):
        rng = np.random.default_rng(3)
        phi = rng.standard_normal((4, 4)) + 4 * np.eye(4)
        y = rng.standard_normal((4, 2))
        prob = AugmentedProblem(phi_a=phi, y_a=y, n_data_rows=4)
        W = solve(prob, 0.0, tol=1e-12)
        normal_resid = phi.T @ (phi @ W - y)
        assert np.max(np.abs(normal_resid)) <= 1e-8

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_brute_force_oracle(self, seed):
        rng = np.random.default_rng(seed + 100)
        N = int(rng.integers(8, 20))
        p = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        prob = random_problem(N=N, p=p, m=m, seed=seed)
        lam = float(rng.uniform(0.05, 0.6)) * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        f_cd = objective(prob, lam, W)
        f_oracle = brute_force_objective(prob, lam)
        assert f_cd == pytest.approx(f_oracle, abs=1e-6)

    def test_kkt_certificate(self):
        prob = random_problem(N=15, p=4, m=3, seed=7)
        lam = 0.3 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-8)
        assert kkt_violation(prob, lam, W) <= 1e-7

    def test_warm_start_reaches_same_objective(self):
        prob = random_problem(N=15, p=4, m=2, seed=8)
        lam = 0.2 * lambda_max(prob)
        W_cold = solve(prob, lam, tol=1e-10)
        rng = np.random.default_rng(0)
        W_warm = solve(
            prob, lam, tol=1e-10,
            warm_start=rng.standard_normal(W_cold.shape),
        )
        assert objective(prob, lam, W_cold) == pytest.approx(
            objective(prob, lam, W_warm), abs=1e-6
        )

    def test_scaling_homogeneity(self):
        prob = random_problem(N=12, p=3, m=2, seed=9)
        lam = 0.3 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-11)
        doubled = AugmentedProblem(
            phi_a=prob.phi_a, y_a=2.0 * prob.y_a, n_data_rows=prob.n_data_rows
        )
        W2 = solve(doubled, 2.0 * lam, tol=1e-11)
        np.testing.assert_allclose(W2, 2.0 * W, atol=1e-7)

    def test_bad_warm_start_shape(self):
        prob = random_problem(seed=10)
        with pytest.raises(ValueError, match="warm start"):
            solve(prob, 1.0, warm_start=np.zeros((1, 1)))

    def test_negative_lambda1_rejected(self):
        with pytest.raises(ValueError):
            solve(random_problem(), -0.1)

    def test_sweep_budget_error_carries_iterate(self):
        prob = random_problem(N=20, p=5, m=2, seed=11)
        lam = 0.1 * lambda_max(prob)
        with pytest.raises(ConvergenceError) as err:
            solve(prob, lam, tol=1e-14, max_sweeps=1)
        assert err.value.W.shape == (5, 2)
        assert err.value.kkt > 0


class TestKktViolation:
    def test_zero_solution_above_lambda_max(self):
        prob = random_problem(seed=12)
        lam = lambda_max(prob) * 1.5
        W = np.zeros((prob.n_features, prob.n_tasks))
        assert kkt_violation(prob, lam, W) == 0.0

    def test_perturbation_increases_violation(self):
        prob = random_problem(N=15, p=4, m=2, seed=13)
        lam = 0.3 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        base = kkt_violation(prob, lam, W)
        act = active_set(W)
        W_bad = W.copy()
        W_bad[act[0]] += 0.1
        assert kkt_violation(prob, lam, W_bad) > base

    def test_dual_gap_bounds_suboptimality(self):
        prob = random_problem(N=15, p=4, m=2, seed=14)
        lam = 0.3 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        f_star = objective(prob, lam, W)
        rng = np.random.default_rng(1)
        W_rough = W + 0.01 * rng.standard_normal(W.shape)
        gap = dual_gap(prob, lam, W_rough)
        assert objective(prob, lam, W_rough) - f_star <= gap + 1e-9


class TestObjectiveMonotonicity:
    def test_objective_decreases_over_restarts(self):
        # successive solves with ever-tighter tolerance may only descend
        prob = random_problem(N=18, p=4, m=3, seed=15)
        lam = 0.25 * lambda_max(prob)
        last = objective(
            prob, lam, np.zeros((prob.n_features, prob.n_tasks))
        )
        W = None
        for tol in (1e-2, 1e-4, 1e-8):
            W = solve(prob, lam, tol=tol, warm_start=W)
            f = objective(prob, lam, W)
            assert f <= last + 1e-12
            last = f


class TestPrune:
    def test_no_zero_rows_is_identity(self):
        params = RbfParams(mu=np.array([0.1, 0.2]), sigma2=np.array([0.01, 0.02]))
        W = np.array([[1.0, 0.5], [0.3, -0.2]])
        W2, params2 = prune(W, params, 1e-10)
        np.testing.assert_array_equal(W2, W)
        np.testing.assert_array_equal(params2.mu, params.mu)

    def test_zero_row_removed_order_preserved(self):
        params = RbfParams(
            mu=np.linspace(0, 1, 5), sigma2=np.full(5, 0.01)
        )
        W = np.ones((5, 2))
        W[2] = 0.0
        W2, params2 = prune(W, params, 1e-10)
        assert W2.shape == (4, 2)
        np.testing.assert_array_equal(params2.mu, params.mu[[0, 1, 3, 4]])

    def test_matches_active_set_after_solve(self):
        prob = random_problem(N=20, p=5, m=2, seed=16)
        lam = 0.5 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        params = RbfParams(mu=np.linspace(0, 1, 5), sigma2=np.full(5, 0.01))
        W2, _ = prune(W, params, 1e-10)
        assert W2.shape[0] == active_set(W).size

    def test_stacked_params_pruned_in_every_dof(self):
        per_dof = [
            RbfParams(mu=np.array([0.1, 0.5, 0.9]), sigma2=np.full(3, 0.01))
            for _ in range(2)
        ]
        W = np.array([[1.0], [0.0], [2.0]])
        W2, params2 = prune(W, StackedRbfParams(per_dof=per_dof), 1e-10)
        assert params2.n_features == 2
        for p in params2.per_dof:
            np.testing.assert_array_equal(p.mu, [0.1, 0.9])

    def test_empty_model_error(self):
        params = RbfParams(mu=np.array([0.1]), sigma2=np.array([0.01]))
        with pytest.raises(EmptyModelError, match="empty model"):
            prune(np.zeros((1, 2)), params, 1e-10)

    def test_shape_mismatch(self):
        params = RbfParams(mu=np.array([0.1]), sigma2=np.array([0.01]))
        with pytest.raises(ValueError):
            prune(np.zeros((2, 2)), params, 1e-10)


def residual_certificate(prob: AugmentedProblem, lambda1: float, W: np.ndarray):
    """KKT violation, duality gap and objective from the explicit residual.

    R = y_a - phi_a W; the loss gradient is -2 phi_a^T R and the dual point
    is 2cR, scaled so that ||phi_j^T (2cR)|| <= lambda1 for every j.
    """
    R = prob.y_a - prob.phi_a @ W
    grad = -2.0 * prob.phi_a.T @ R
    norms = np.linalg.norm(W, axis=1)
    viol = np.maximum(0.0, np.linalg.norm(grad, axis=1) - lambda1)
    act = norms > 0
    viol[act] = np.linalg.norm(grad[act] + lambda1 * W[act] / norms[act, None], axis=1)
    r2 = float(np.sum(R ** 2))
    primal = r2 + lambda1 * float(np.sum(norms))
    top = float(np.max(np.linalg.norm(grad, axis=1), initial=0.0))
    c = 1.0 if top <= lambda1 else (0.0 if lambda1 == 0.0 else lambda1 / top)
    dual = 2.0 * c * float(np.sum(R * prob.y_a)) - c * c * r2
    return float(np.max(viol, initial=0.0)), max(0.0, primal - dual), primal


@st.composite
def problems(draw, zero_column=False):
    """Random augmented problem; optionally one all-zero design column."""
    N = draw(st.integers(1, 12))
    p = draw(st.integers(1, 5))
    m = draw(st.integers(1, 3))
    lambda2 = draw(st.sampled_from([0.0, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    phi = rng.standard_normal((N, p))
    acc = rng.standard_normal((N, p))
    if zero_column:
        k = draw(st.integers(0, p - 1))
        phi[:, k] = 0.0
        acc[:, k] = 0.0
    return to_lasso(phi, acc, rng.standard_normal((N, m)), lambda2)


@st.composite
def coefficients(draw, prob: AugmentedProblem, zero_rows=False):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    W = rng.standard_normal((prob.n_features, prob.n_tasks))
    if zero_rows:
        W[draw(st.lists(st.integers(0, prob.n_features - 1), min_size=1))] = 0.0
    return W


def assert_matches_residual_oracle(prob, lambda1, W):
    """Gram-form certificate and objective agree with the residual form up
    to round-off at the scale of the terms they cancel."""
    kkt, gap, primal = residual_certificate(prob, lambda1, W)
    size = np.linalg.norm(prob.y_a) + np.linalg.norm(prob.phi_a) * np.linalg.norm(W)
    loss_tol = 1e-9 * (1.0 + size ** 2 + lambda1 * np.sum(np.abs(W)))
    grad_tol = 1e-9 * (1.0 + np.linalg.norm(prob.phi_a) * size + lambda1)
    assert kkt_violation(prob, lambda1, W) == pytest.approx(kkt, abs=grad_tol)
    assert dual_gap(prob, lambda1, W) == pytest.approx(gap, abs=loss_tol)
    assert objective(prob, lambda1, W) == pytest.approx(primal, abs=loss_tol)


PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)


class TestGramFormProperties:
    @PROPERTY
    @given(st.data())
    def test_unpenalized(self, data):
        prob = data.draw(problems())
        assert_matches_residual_oracle(prob, 0.0, data.draw(coefficients(prob)))

    @PROPERTY
    @given(st.data(), st.floats(1.0, 4.0))
    def test_above_lambda_max(self, data, factor):
        prob = data.draw(problems())
        lam = factor * lambda_max(prob)
        assert_matches_residual_oracle(prob, lam, data.draw(coefficients(prob)))
        zero = np.zeros((prob.n_features, prob.n_tasks))
        assert_matches_residual_oracle(prob, lam, zero)
        assert np.all(solve(prob, lam) == 0.0)

    @PROPERTY
    @given(st.data(), st.floats(0.01, 1.5))
    def test_zero_rows(self, data, fraction):
        prob = data.draw(problems())
        W = data.draw(coefficients(prob, zero_rows=True))
        assert_matches_residual_oracle(prob, fraction * lambda_max(prob), W)

    @PROPERTY
    @given(st.data(), st.floats(0.0, 1.5))
    def test_zero_column(self, data, fraction):
        prob = data.draw(problems(zero_column=True))
        lam = fraction * lambda_max(prob)
        assert_matches_residual_oracle(prob, lam, data.draw(coefficients(prob)))
        dead = np.flatnonzero(np.all(prob.phi_a == 0.0, axis=0))
        assert np.all(solve(prob, lam, tol=1e-8)[dead] == 0.0)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        st.integers(8, 16), st.integers(1, 4), st.integers(1, 3),
        st.integers(0, 2**32 - 1), st.floats(0.05, 0.9),
    )
    def test_solve_within_gap_of_brute_force(self, N, p, m, seed, fraction):
        prob = random_problem(N=N, p=p, m=m, seed=seed, lambda2=0.1)
        lam = fraction * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        f_oracle = brute_force_objective(prob, lam)
        slack = 1e-9 * (1.0 + f_oracle)
        assert objective(prob, lam, W) - f_oracle <= dual_gap(prob, lam, W) + slack
