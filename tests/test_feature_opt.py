import logging
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas
from scipy.optimize import line_search

from sparsemp import feature_opt, rbf
from sparsemp.feature_opt import (
    WOLFE_C1,
    WOLFE_C2,
    BfgsResult,
    FeatureObjective,
    _bfgs_update,
    _wolfe_search,
    bfgs_minimize,
)
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

    def test_row_count_checked(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="rows"):
            FeatureObjective(
                np.linspace(0, 1, 10),
                rng.standard_normal((11, 2)),
                rng.standard_normal((3, 2)),
                0.0,
            )

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
        logs = theta[n_blocks * p:]
        floored = rng.random(logs.size) < 0.3
        logs[floored] = np.log(rbf.SIGMA2_MIN) - rng.uniform(0.5, 3.0, floored.sum())

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
        glogs[floored.reshape(n_blocks, p)] = 0.0
        g_oracle = np.concatenate([gmu.ravel(), glogs.ravel()])

        f, g = obj.cost_grad(theta)
        assert f == pytest.approx(f_oracle, rel=1e-12)
        np.testing.assert_allclose(g, g_oracle, rtol=1e-10, atol=1e-10 * np.abs(g_oracle).max())
        assert np.all(g[n_blocks * p:][floored] == 0.0)

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


def product_form_update(H, s, y):
    """Textbook BFGS inverse-Hessian update: V H V' + rho s s'."""
    rho = 1.0 / (y @ s)
    V = np.eye(s.size) - rho * np.outer(s, y)
    return V @ H @ V.T + rho * np.outer(s, s)


class TestBfgsUpdate:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 2**32 - 1))
    def test_matches_product_form(self, dim, seed):
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((dim, dim))
        H = np.asfortranarray(B @ B.T + 0.1 * np.eye(dim))
        s = rng.standard_normal(dim)
        y = rng.standard_normal(dim)
        if y @ s <= 0:
            y = -y
        y += 0.1 * s  # keeps y's away from zero
        expected = product_form_update(H, s, y)
        before = H.copy()
        _bfgs_update(H, s, y)
        assert not np.array_equal(np.triu(H), np.triu(before))  # updated in place
        scale = np.abs(expected).max()
        np.testing.assert_allclose(np.triu(H), np.triu(expected), rtol=0, atol=1e-9 * scale)
        np.testing.assert_allclose(
            blas.dsymv(1.0, H, y), s, rtol=0, atol=1e-9 * scale * np.abs(y).max())


    def test_c_ordered_matrix_rejected(self):
        # f2py would update a copy of a C-ordered H and drop the result
        H, s = np.eye(3) + 0.5, np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="Fortran"):
            _bfgs_update(H, s, s)


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


class TrialLog:
    """A cost_grad function that records each point it is asked about, as a
    whole or, for SciPy's search, as a separate cost and gradient."""

    def __init__(self, cost_grad):
        self._cost_grad, self.trials = cost_grad, []

    def cost_grad(self, x):
        self.trials.append(("cost", x.copy()))
        return self._cost_grad(x)

    def cost(self, x):
        return self.cost_grad(x)[0]

    def grad(self, x):
        self.trials.append(("grad", x.copy()))
        return self._cost_grad(x)[1]


def search_against_scipy(cost_grad, x, p):
    """Runs the in-package search and SciPy's `line_search` as BFGS calls it
    and asserts, bit for bit: the same step and value; one evaluation at
    each of SciPy's cost points, in its order; each SciPy gradient request
    at the cost point just before it; and the gradient at the step. Returns
    the step."""
    f0, g0 = cost_grad(x)
    ours, theirs = TrialLog(cost_grad), TrialLog(cost_grad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha, phi, g = _wolfe_search(ours, x, p, f0, g0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # SciPy warns where the search fails
        expected = line_search(theirs.cost, theirs.grad, x, p, gfk=g0, old_fval=f0,
                               c1=WOLFE_C1, c2=WOLFE_C2, maxiter=50)
    assert (alpha, phi) == (expected[0], expected[3])
    cost_points = [z for kind, z in theirs.trials if kind == "cost"]
    assert len(ours.trials) == len(cost_points)
    for (_, mine), scipys in zip(ours.trials, cost_points):
        np.testing.assert_array_equal(mine, scipys)
    for i, (kind, z) in enumerate(theirs.trials):
        if kind == "grad":
            assert i > 0 and theirs.trials[i - 1][0] == "cost"
            np.testing.assert_array_equal(z, theirs.trials[i - 1][1])
    if alpha is None:
        assert g is None
    else:
        np.testing.assert_array_equal(g, cost_grad(x + alpha * p)[1])
    return alpha


def wolfe_branch_case(branch, rng):
    """(cost_grad, x, p) of a bowl, a quartic or a ramp whose search takes
    `branch`."""
    x = rng.uniform(0.5, 2.0, rng.integers(1, 6))
    if branch == "fifty_doublings":  # a linear cost never bends
        return (lambda z: (x @ z, x)), x, -x
    if branch == "zoom_bisects":  # the quadratic interpolant of a quartic overshoots
        return (lambda z: (0.25 * np.sum(z ** 4), z ** 3)), 3 * x, -(3 * x) ** 3
    curv = {"unit_step": 1.0, "doubling": 0.04, "zoom": 3.0, "zoom_fails": 3.0}[branch]
    if branch == "zoom_fails":  # a slope that never flattens leaves no Wolfe point
        return (lambda z: (0.5 * curv * (z @ z), x)), x, -curv * x
    return (lambda z: (0.5 * curv * (z @ z), curv * z)), x, -curv * x


# The step each branch case ends on.
BRANCH_STEPS = {
    "unit_step": lambda a: a == 1.0,
    "doubling": lambda a: a == 4.0,
    "zoom": lambda a: 0.0 < a < 1.0,
    "zoom_bisects": lambda a: 0.0 < a < 1.0,
    "zoom_fails": lambda a: a is None,
    "fifty_doublings": lambda a: a == 2.0 ** 50,
}


class TestWolfeSearch:
    """The in-package strong-Wolfe search against SciPy's as the oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.floats(-4.0, 2.0))
    def test_matches_scipy_on_rbf_objectives(self, seed, log_scale):
        obj, rng = flat_objective(seed=seed % 1000)
        theta = random_theta(3, 1, np.random.default_rng(seed))
        scale = 10.0 ** log_scale * rng.uniform(0.1, 1.0, theta.size)
        search_against_scipy(obj.cost_grad, theta, -scale * obj.cost_grad(theta)[1])

    @pytest.mark.parametrize("branch", BRANCH_STEPS)
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_on_each_branch(self, branch, seed):
        cost_grad, x, p = wolfe_branch_case(branch, np.random.default_rng(seed))
        assert BRANCH_STEPS[branch](search_against_scipy(cost_grad, x, p))


def uphill_objective(seed=0):
    """(objective, theta0): theta0 fits the data up to noise, and the
    objective hands out its gradient with the sign flipped. BFGS then steps
    uphill, so its first line search finds no Wolfe point."""
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
        # of the box [-1, 2] s: one projected step stops it at the bound.
        t = np.linspace(0, 1, 40)
        true = RbfParams(mu=np.array([3.0]), sigma2=np.array([0.1]))
        W = np.array([[1.0]])
        Y = eval_basis(t, true) @ W
        obj = FeatureObjective(t, Y, W, 0.0)
        result = bfgs_minimize(obj, np.array([1.5, np.log(0.1)]))
        assert result.theta[0] == 2.0
        assert result.n_iters == 1

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

    def test_zero_coefficients_flat_objective(self):
        # With W = 0 the cost is constant in theta: BFGS stops immediately.
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


class TestBfgsPinned:
    """Outcomes recorded before the BLAS update and the workspace kernel."""

    @pytest.mark.parametrize("t_end, cost, kernel_calls", [
        (1.0, 72.94154473533207, 52),    # the clamp never moves an iterate
        (0.6, 117.26778224417254, 97),   # the clamp moves 32 of the 40
    ])
    def test_forty_iterations(self, t_end, cost, kernel_calls, monkeypatch):
        obj, theta0 = pinned_problem(t_end)
        calls = count_kernel_calls(monkeypatch)
        result = bfgs_minimize(obj, theta0, max_iters=40)
        assert result.cost == pytest.approx(cost, rel=1e-9)
        assert result.n_iters == 40
        assert not result.converged and not result.line_search_failed
        assert len(calls) == kernel_calls


class TestBfgsTelemetry:
    def test_n_evals_counts_kernel_calls(self, monkeypatch):
        obj, theta0 = pinned_problem()
        calls = count_kernel_calls(monkeypatch)
        result = bfgs_minimize(obj, theta0, max_iters=10)
        assert result.n_evals == len(calls) == obj.n_evals
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
