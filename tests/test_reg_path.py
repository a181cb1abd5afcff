import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import elastic_net, reg_path
from sparsemp.elastic_net import AugmentedProblem, lambda_max, to_lasso
from sparsemp.reg_path import compute_path, path_row_norms, rank_features


def random_problem(N=20, p=5, m=2, seed=0):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((N, p))
    acc = rng.standard_normal((N, p))
    y = rng.standard_normal((N, m))
    return to_lasso(phi, acc, y, 1e-4)


def orthonormal_problem(correlations, N=None):
    """Diagonal design: feature j's correlation with Y is prescribed."""
    p = len(correlations)
    N = N or p
    phi = np.eye(N)[:, :p]
    y = np.zeros((N, 1))
    y[:p, 0] = correlations
    return AugmentedProblem(phi_a=phi, y_a=y, n_data_rows=N)


class TestComputePath:
    def test_grid_shape_and_descent(self):
        prob = random_problem(seed=1)
        path = compute_path(prob, n_lambdas=20, ratio=1e-2)
        assert path.lambdas.size == 20
        assert np.all(np.diff(path.lambdas) < 0)
        assert len(path.coefs) == 20

    def test_first_point_all_zero(self):
        prob = random_problem(seed=2)
        path = compute_path(prob, n_lambdas=10, ratio=1e-2)
        assert np.all(path.coefs[0] == 0.0)

    def test_every_solution_certified(self):
        prob = random_problem(seed=3)
        tol = 1e-8
        path = compute_path(prob, n_lambdas=15, ratio=1e-2, tol=tol)
        for lam, W in zip(path.lambdas, path.coefs):
            assert elastic_net.kkt_violation(prob, lam, W) <= 10 * tol

    def test_orthonormal_entry_lambdas(self):
        prob = orthonormal_problem([3.0, 1.0, 0.5])
        path = compute_path(prob, n_lambdas=200, ratio=1e-3)
        # entry at 2 |phi_j^T y| within one geometric grid step
        step = path.lambdas[0] / path.lambdas[1]
        ranking = rank_features(path)
        entry = dict(zip(ranking.order, ranking.entry_lambdas))
        for j, corr in enumerate([3.0, 1.0, 0.5]):
            expected = 2.0 * corr
            assert entry[j] <= expected
            assert entry[j] * step ** 2 >= expected

    def test_monotone_active_sets_orthonormal(self):
        prob = orthonormal_problem([3.0, 2.0, 1.0, 0.5])
        path = compute_path(prob, n_lambdas=50, ratio=1e-3)
        sizes = [elastic_net.active_set(W).size for W in path.coefs]
        assert sizes == sorted(sizes)

    def test_endpoint_matches_cold_start(self):
        prob = random_problem(seed=4)
        path = compute_path(prob, n_lambdas=25, ratio=1e-2)
        lam_end = path.lambdas[-1]
        W_cold = elastic_net.solve(prob, lam_end, tol=1e-8)
        f_path = elastic_net.objective(prob, lam_end, path.coefs[-1])
        f_cold = elastic_net.objective(prob, lam_end, W_cold)
        assert f_path == pytest.approx(f_cold, abs=1e-6)

    def test_zero_target_rejected(self):
        prob = AugmentedProblem(
            phi_a=np.eye(3), y_a=np.zeros((3, 1)), n_data_rows=3
        )
        with pytest.raises(ValueError, match="lambda_max"):
            compute_path(prob)

    def test_grid_validation(self):
        prob = random_problem()
        with pytest.raises(ValueError):
            compute_path(prob, n_lambdas=1)
        with pytest.raises(ValueError):
            compute_path(prob, ratio=1.5)

    def test_failed_solve_names_its_lambda(self, monkeypatch):
        # a one-sweep budget: lambda_max's zero certifies after one sweep,
        # the next grid point cannot
        monkeypatch.setattr(elastic_net, "MAX_SWEEPS", 1)
        prob = random_problem()
        second = np.geomspace(lambda_max(prob), 1e-3 * lambda_max(prob), 10)[1]
        with pytest.raises(RuntimeError, match=f"path solve failed at lambda={second:.6g}"):
            compute_path(prob, n_lambdas=10)

    def test_warm_starts_save_sweeps(self, monkeypatch):
        # A sweep budget the warm-started path traverses within, but that a
        # solve from zero at some grid point exhausts.
        monkeypatch.setattr(elastic_net, "MAX_SWEEPS", 15)
        prob = random_problem(N=40, p=8, m=3, seed=5)
        path = compute_path(prob, n_lambdas=30, ratio=1e-2)
        assert len(path.coefs) == 30
        with pytest.raises(elastic_net.ConvergenceError, match="in 15 sweeps"):
            for lam in path.lambdas:
                elastic_net.solve(prob, lam)


class TestLambdaMaxPoint:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(3, 30), st.integers(1, 8), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_solution_is_exactly_zero_at_lambda_max(self, N, p, m, seed):
        # lambda_max and the sweep's zero threshold must round alike, or a
        # round-off row survives at the first grid point and enters there.
        prob = random_problem(N=N, p=p, m=m, seed=seed)
        assert np.all(elastic_net.solve(prob, lambda_max(prob)) == 0.0)
        path = compute_path(prob, n_lambdas=3, ratio=0.5)
        assert elastic_net.active_set(path.coefs[0]).size == 0


class TestRankFeatures:
    def test_single_feature(self):
        prob = orthonormal_problem([2.0])
        ranking = rank_features(compute_path(prob, n_lambdas=30, ratio=1e-2))
        assert ranking.order == [0]

    def test_orthonormal_order(self):
        prob = orthonormal_problem([1.0, 3.0])
        ranking = rank_features(compute_path(prob, n_lambdas=60, ratio=1e-3))
        assert ranking.order == [1, 0]

    def test_entry_lambdas_non_increasing(self):
        prob = random_problem(N=30, p=6, m=2, seed=6)
        ranking = rank_features(compute_path(prob, n_lambdas=40, ratio=1e-3))
        assert np.all(np.diff(ranking.entry_lambdas) <= 0)

    def test_equal_entry_penalties_rank_by_index(self):
        # Features 0 and 2 enter together at the last grid point, feature 2
        # with the larger row; feature 1 enters before them.
        path = reg_path.PathResult(
            lambdas=np.array([8.0, 4.0, 2.0]),
            coefs=[np.array([[0.0], [0.0], [0.0]]),
                   np.array([[0.0], [1.0], [0.0]]),
                   np.array([[0.1], [1.0], [5.0]])],
        )
        ranking = rank_features(path)
        assert ranking.order == [1, 0, 2]
        np.testing.assert_array_equal(ranking.entry_lambdas, [4.0, 2.0, 2.0])

    def test_reentering_feature_keeps_its_first_entry_penalty(self):
        # Feature 0 enters at 4, leaves at 2 and re-enters at 1.
        path = reg_path.PathResult(
            lambdas=np.array([8.0, 4.0, 2.0, 1.0]),
            coefs=[np.array([[0.0, 0.0], [0.0, 0.0]]),
                   np.array([[1.0, 0.0], [0.0, 0.0]]),
                   np.array([[0.0, 0.0], [0.0, 3.0]]),
                   np.array([[0.0, 2.0], [0.0, 3.0]])],
        )
        ranking = rank_features(path)
        assert ranking.order == [0, 1]
        np.testing.assert_array_equal(ranking.entry_lambdas, [4.0, 2.0])

    def test_planted_features_outrank_decoys(self):
        rng = np.random.default_rng(8)
        N, K, decoys = 60, 3, 17
        t = np.linspace(0, 1, N)
        centers = np.array([0.25, 0.5, 0.75])
        widths = np.full(K, 0.004)
        Phi_true = np.exp(-((t[:, None] - centers) ** 2) / (2 * widths))
        W_true = rng.uniform(1.0, 2.0, (K, 2)) * rng.choice([-1, 1], (K, 2))
        Y = Phi_true @ W_true
        # Decoys share the planted width but keep their distance from the
        # planted centers: a decoy sitting on top of a true feature would
        # be indistinguishable from it, and a much wider decoy would win
        # on column norm alone rather than on alignment.
        pool = rng.uniform(0, 1, 200)
        pool = pool[np.min(np.abs(pool[:, None] - centers), axis=1) > 0.08]
        decoy_centers = pool[:decoys]
        decoy_widths = np.full(decoys, 0.004)
        Phi_dec = np.exp(
            -((t[:, None] - decoy_centers) ** 2) / (2 * decoy_widths)
        )
        phi = np.hstack([Phi_true, Phi_dec])
        prob = AugmentedProblem(phi_a=phi, y_a=Y, n_data_rows=N)
        ranking = rank_features(compute_path(prob, n_lambdas=100, ratio=1e-3))
        assert set(ranking.order[:K]) == {0, 1, 2}

    def test_empty_ranking_errors(self):
        # A path whose smallest lambda still sits above lambda_max is
        # impossible by construction, so force the degenerate case directly.
        prob = orthonormal_problem([2.0])
        path = compute_path(prob, n_lambdas=10, ratio=1e-2)
        starved = reg_path.PathResult(
            lambdas=path.lambdas,
            coefs=[np.zeros_like(W) for W in path.coefs],
        )
        with pytest.raises(ValueError, match="nothing to rank"):
            rank_features(starved)


class TestPathRowNorms:
    def test_shape_and_values(self):
        prob = random_problem(seed=9)
        path = compute_path(prob, n_lambdas=12, ratio=1e-2)
        norms = path_row_norms(path)
        assert norms.shape == (12, prob.n_features)
        np.testing.assert_allclose(
            norms[-1], np.linalg.norm(path.coefs[-1], axis=1)
        )
