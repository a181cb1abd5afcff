import numpy as np
import pytest

from sparsemp.baselines import (
    ALPHA_X,
    ALPHA_Z,
    BETA_Z,
    DmpModel,
    _phase_basis,
    rollout_dmp,
    train_dmp,
    train_ridge,
    uniform_ridge_basis,
)
from sparsemp.rbf import eval_basis
from sparsemp.trainers import evaluate, reconstruct
from sparsemp.trajectory import JointTrajectory


def smooth_demo(N=200, n=2, dt=0.005, seed=0):
    """A reaching-like minimum-jerk profile plus a small bump."""
    rng = np.random.default_rng(seed)
    t = np.arange(N) * dt
    s = t / t[-1]
    base = 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5
    Q = np.empty((N, n))
    for i in range(n):
        amp = rng.uniform(0.5, 1.5)
        Q[:, i] = amp * base + 0.1 * np.sin(2 * np.pi * s * (i + 1))
    return JointTrajectory(t=t, Q=Q)


class TestTrainDmp:
    def test_parameter_count_is_eleven_per_dof(self):
        model = train_dmp(smooth_demo())
        assert model.n_basis == 10
        assert model.params_per_dof() == 11

    def test_default_gains(self):
        assert ALPHA_Z == 25.0
        assert BETA_Z == pytest.approx(6.25)
        assert ALPHA_X == pytest.approx(25.0 / 3.0)

    def test_goal_and_start_taken_from_demo(self):
        demo = smooth_demo(seed=1)
        model = train_dmp(demo)
        np.testing.assert_array_equal(model.y0, demo.Q[0])
        np.testing.assert_array_equal(model.goal, demo.Q[-1])

    def test_phase_centers_decrease_from_one(self):
        model = train_dmp(smooth_demo())
        centers, _ = _phase_basis(model.n_basis, ALPHA_X, model.tau)
        assert centers[0] == pytest.approx(1.0)
        assert np.all(np.diff(centers) < 0)
        assert np.all(centers > 0)

    def test_too_short_demo_rejected(self):
        with pytest.raises(ValueError, match="3 samples"):
            train_dmp(JointTrajectory(t=np.array([0.0, 0.01]), Q=np.zeros((2, 1))))


class TestRolloutDmp:
    def test_tracks_demonstration(self):
        demo = smooth_demo(seed=2)
        model = train_dmp(demo)
        roll = rollout_dmp(model)
        n = demo.n_samples
        rms = np.sqrt(np.mean((roll.Q[:n] - demo.Q) ** 2))
        assert rms <= 0.05

    def test_converges_to_goal(self):
        demo = smooth_demo(seed=3)
        model = train_dmp(demo)
        roll = rollout_dmp(model, duration=3.0 * model.tau)
        assert np.max(np.abs(roll.Q[-1] - model.goal)) <= 1e-2

    def test_goal_override_shifts_endpoint(self):
        model = train_dmp(smooth_demo(seed=4))
        g_new = model.goal + 0.5
        roll = rollout_dmp(model, duration=3.0 * model.tau, g_override=g_new)
        assert np.max(np.abs(roll.Q[-1] - g_new)) <= 1e-2

    def test_start_override_used(self):
        model = train_dmp(smooth_demo(seed=5))
        y0_new = model.y0 + 0.3
        roll = rollout_dmp(model, y0_override=y0_new)
        np.testing.assert_allclose(roll.Q[0], y0_new)

    def test_invalid_rollout_args(self):
        model = train_dmp(smooth_demo())
        with pytest.raises(ValueError):
            rollout_dmp(model, dt=0.0)
        with pytest.raises(ValueError):
            rollout_dmp(model, duration=-1.0)


class TestUniformRidgeBasis:
    def test_layout(self):
        params = uniform_ridge_basis(2.0, n_basis=5)
        np.testing.assert_allclose(params.mu[0], np.linspace(0.0, 2.0, 5))
        spacing = 0.5
        np.testing.assert_allclose(params.sigma2[0], spacing ** 2 / 2.0)

    def test_neighbor_attenuation(self):
        # With sigma^2 = spacing^2 / 2 each kernel decays to exp(-1) at the
        # adjacent center.
        params = uniform_ridge_basis(1.0, n_basis=6)
        Phi = eval_basis(params.mu[0], params)
        off = np.diag(Phi, k=1)
        np.testing.assert_allclose(off, np.exp(-1.0), rtol=1e-12)


class TestTrainRidge:
    def test_parameter_count_is_eleven_per_dof(self):
        model = train_ridge(smooth_demo())
        assert model.rbf_params.n_features + 1 == 11

    def test_unpenalized_solution_satisfies_normal_equations(self):
        t = np.arange(150) * 0.01
        params = uniform_ridge_basis(t[-1], n_basis=10)
        rng = np.random.default_rng(7)
        W0 = rng.standard_normal((10, 2))
        Q = eval_basis(t, params) @ W0 + np.array([0.4, -0.2])
        model = train_ridge(JointTrajectory(t=t, Q=Q), lambda2=0.0)
        Phi = eval_basis(model.t, model.rbf_params)
        resid = (Q - model.intercepts) - Phi @ model.W
        assert np.max(np.abs(Phi.T @ resid)) <= 1e-8

    def test_penalty_shrinks_acc_norm(self):
        demo = smooth_demo(seed=8)
        light = train_ridge(demo, lambda2=1e-6)
        heavy = train_ridge(demo, lambda2=10.0)
        assert (evaluate(heavy, heavy.t, demo.Q)[1].acc_norm
                < evaluate(light, light.t, demo.Q)[1].acc_norm)

    def test_unpenalized_rank_deficient_basis_rejected(self):
        # 5 samples cannot determine 10 basis weights without the penalty
        with pytest.raises(np.linalg.LinAlgError, match="rank-deficient basis"):
            train_ridge(smooth_demo(N=5), n_basis=10, lambda2=0.0)

    def test_negative_penalty_rejected(self):
        with pytest.raises(ValueError):
            train_ridge(smooth_demo(), lambda2=-1.0)

    def test_total_cost_is_residual_plus_acceleration_penalty(self):
        demo = smooth_demo(seed=10)
        model = train_ridge(demo, lambda2=1e-3)
        assert model.mode == "ridge"
        assert model.metadata == {"lambda1": 0.0, "lambda2": 1e-3}
        _, report = evaluate(model, model.t, demo.Q)
        assert report.total_cost == report.res_norm ** 2 + 1e-3 * report.acc_norm ** 2

    def test_reconstruct_default_grid(self):
        demo = smooth_demo(seed=9)
        model = train_ridge(demo)
        rec = reconstruct(model, model.t)
        assert rec.shape == demo.Q.shape
        rms = np.sqrt(np.mean((rec - demo.Q) ** 2))
        assert rms <= 0.1
