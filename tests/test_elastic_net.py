import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
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
from sparsemp.rbf import RbfParams, StackedRbfParams, build_basis
from sparsemp.reg_path import compute_path

from brute_force import brute_force_objective


def random_problem(N=12, p=3, m=2, seed=0, lambda2=0.0):
    rng = np.random.default_rng(seed)
    phi = rng.standard_normal((N, p))
    acc = rng.standard_normal((N, p))
    y = rng.standard_normal((N, m))
    return to_lasso(phi, acc, y, lambda2)


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
        with pytest.raises(ValueError, match="incompatible"):  # a 1-D target
            to_lasso(
                rng.standard_normal((5, 2)),
                rng.standard_normal((5, 2)),
                rng.standard_normal(5),
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

    def test_zero_sweep_budget_certifies_the_start_as_it_is(self):
        prob = random_problem(N=20, p=5, m=2, seed=11)
        lam_max = lambda_max(prob)
        for factor in (1.0, 2.0):
            W = solve(prob, factor * lam_max, max_sweeps=0)
            assert W.shape == (5, 2) and not W.any()
        with pytest.raises(ConvergenceError, match="in 0 sweeps"):
            solve(prob, 0.5 * lam_max, max_sweeps=0)


def one_center_per_sample(shift: float = 0.0, dead: int | None = None) -> AugmentedProblem:
    """40 samples, one centre per sample at width^2 0.1: near-duplicate
    columns on which the solve ends on its loose exit after IRLS jumps.
    `dead` zeroes one design column."""
    rng = np.random.default_rng(0)
    t = np.arange(40) * 0.025
    Y = np.column_stack([np.sin(2 * np.pi * t), np.cos(3 * np.pi * t), t ** 2])
    Y = Y + 0.01 * rng.standard_normal(Y.shape)
    phi, acc = build_basis(t, RbfParams(mu=t + shift, sigma2=np.full(t.size, 0.1)))
    if dead is not None:
        phi[:, dead] = acc[:, dead] = 0.0
    return to_lasso(phi, acc, Y, 1e-4)


def exit_kind(prob: AugmentedProblem, lambda1: float, tol: float, W) -> str:
    """The exit of `solve` that W meets, judged by the public certificates."""
    if kkt_violation(prob, lambda1, W) <= 10.0 * tol:
        return "kkt"
    if dual_gap(prob, lambda1, W) <= tol * (1.0 + abs(objective(prob, lambda1, W))):
        return "gap"
    return "loose"


def solve_record(caplog, *args, **kwargs):
    """solve's result and the fields of its one DEBUG record."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="sparsemp.elastic_net"):
        W = solve(*args, **kwargs)
    (record,) = caplog.records
    return W, dict(re.findall(r"(\w+)=(\S+)", record.getMessage()))


class TestSolvePinned:
    """Objective, support and exit of solves on a near-duplicate design,
    recorded before the working-set kernel: a change to how much work each
    sweep or IRLS step does may move round-off, never the iterates. The
    warm solve's counters were recorded before the Newton polish was added:
    this design rejects the polish, so the solve must not change."""

    # sweeps, IRLS steps and capped/all IRLS calls of the warm solve
    WARM_COUNTS = {None: ("522", "1100", "11/11"), 13: ("500", "994", "9/10")}

    @pytest.mark.parametrize("shift, dead, value, support", [
        (0.003, None, 9.086612990665152, [0, 12, 13, 27, 28, 29, 39]),
        # Row 13 is nonzero in the warm start but its column is zero, so
        # the first IRLS step sets it to exactly zero and the restricted
        # problem is sliced again.
        (0.003, 13, 9.086943833487616, [0, 12, 14, 27, 28, 29, 39]),
    ])
    def test_cold_then_warm_on_shifted_basis(self, shift, dead, value, support, caplog):
        prob = one_center_per_sample()
        lam = 1e-3 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-6, max_sweeps=20_000)
        assert objective(prob, lam, W) == pytest.approx(9.089168205716733, rel=1e-9)
        assert active_set(W).tolist() == [0, 12, 13, 14, 27, 29, 30, 39]
        assert exit_kind(prob, lam, 1e-6, W) == "loose"

        shifted = one_center_per_sample(shift, dead)
        W, fields = solve_record(
            caplog, shifted, lam, tol=1e-6, max_sweeps=20_000, warm_start=W)
        assert objective(shifted, lam, W) == pytest.approx(value, rel=1e-9)
        assert active_set(W).tolist() == support
        assert exit_kind(shifted, lam, 1e-6, W) == "loose"
        assert fields["polish"] == "rejected"
        counts = (fields["sweeps"], fields["irls_steps"], fields["irls_capped"])
        assert counts == self.WARM_COUNTS[dead]
        assert fields["exit"] == "loose"


class TestPathPinned:
    """A warm-started 5-point path on the near-duplicate design, recorded
    before the sweeps carried shifted correlations: each point's objective,
    support and solver counters. A change to the bookkeeping of a sweep or
    an IRLS step may move round-off, never the iterates or their count."""

    # objective, support, (polish, sweeps, IRLS steps, capped/all IRLS calls)
    POINTS = [
        (47.78545083742906, [], ("none", "1", "0", "0/1")),
        (33.512711904132814, [8, 33, 34, 35], ("none", "517", "1002", "10/12")),
        (21.8112678876537, [0, 12, 27, 28, 39], ("rejected", "500", "949", "9/10")),
        (11.592673231608803, [0, 12, 27, 28, 39], ("rejected", "500", "1000", "10/10")),
        (9.088720501693796, [0, 12, 13, 14, 15, 16, 17, 21, 24, 25, 26, 27, 28, 39],
         ("rejected", "500", "1000", "10/10")),
    ]

    def test_warm_started_path(self, caplog):
        prob = one_center_per_sample()
        with caplog.at_level(logging.DEBUG, logger="sparsemp.elastic_net"):
            path = compute_path(prob, n_lambdas=5, tol=1e-6, max_sweeps=20_000)
        records = [dict(re.findall(r"(\w+)=(\S+)", r.getMessage())) for r in caplog.records]
        assert len(records) == len(self.POINTS)
        for lam, W, fields, (value, support, counts) in zip(
                path.lambdas, path.coefs, records, self.POINTS):
            assert objective(prob, lam, W) == pytest.approx(value, rel=1e-9)
            assert active_set(W).tolist() == support
            assert (fields["polish"], fields["sweeps"], fields["irls_steps"],
                    fields["irls_capped"]) == counts


def uniform_stacked_basis() -> AugmentedProblem:
    """25 centres at width^2 0.02 spread over a 5 s window, shared by 3 DoF,
    fitting 3 demos of six planted bumps with no acceleration penalty: a
    well-conditioned design on which Newton converges on each support."""
    rng = np.random.default_rng(2)
    t = np.linspace(0.0, 5.0, 40)
    centres, amplitudes = rng.uniform(0.5, 4.5, 6), 2.0 ** -np.arange(6)
    Y = np.vstack([np.column_stack([
        sum(a * (1.0 + 0.1 * d) * np.exp(-(t - c - 0.3 * i) ** 2 / 0.3)
            for a, c in zip(amplitudes, centres))
        for d in range(3)]) for i in range(3)])
    Y += 0.01 * rng.standard_normal(Y.shape)
    basis = RbfParams(mu=np.linspace(0.0, 5.0, 25), sigma2=np.full(25, 0.02))
    phi, acc = build_basis(t, StackedRbfParams(per_dof=[basis] * 3))
    return to_lasso(phi, acc, Y, 0.0)


class TestHandoffPinned:
    """A warm-started 10-point path on a well-conditioned design. Each
    point's objective and support were recorded before the solve handed
    off to Newton after its cycles, when two of the points where the
    support grows ended on the gap exit after about 60 sweeps. With the
    hand-off, every point after the first is certified by the KKT exit."""

    # objective, support
    POINTS = [
        (146.13555417793265, []),
        (133.64216145201266, [8, 9, 10]),
        (107.3813197763545, [7, 8, 9, 10, 11]),
        (81.75490018387956, [6, 7, 8, 9, 10, 11, 12]),
        (61.69467133392973, [*range(5, 14), 18, 19, 20]),
        (46.962970491665885, list(range(4, 22))),
        (36.87370130022271, list(range(4, 23))),
        (30.33324997161278, list(range(3, 24))),
        (26.22407998721562, list(range(3, 24))),
        (23.690111909004578, list(range(2, 24))),
    ]

    def test_growth_points_end_on_kkt(self, caplog):
        prob = uniform_stacked_basis()
        with caplog.at_level(logging.DEBUG, logger="sparsemp.elastic_net"):
            path = compute_path(prob, n_lambdas=10, ratio=1e-2, tol=1e-8)
        records = [dict(re.findall(r"(\w+)=(\S+)", r.getMessage())) for r in caplog.records]
        assert len(records) == len(self.POINTS)
        for lam, W, (value, support) in zip(path.lambdas, path.coefs, self.POINTS):
            assert objective(prob, lam, W) == pytest.approx(value, rel=1e-9)
            assert active_set(W).tolist() == support
        assert [f["exit"] for f in records[1:]] == ["kkt"] * (len(records) - 1)


class TestSolveTelemetry:
    @pytest.mark.parametrize("case", ["random", "near_duplicate"])
    def test_one_record_per_solve_names_the_exit(self, case, caplog):
        if case == "random":
            prob, tol = random_problem(N=15, p=4, m=3, seed=7), 1e-8
            lam = 0.3 * lambda_max(prob)
        else:
            prob, tol = one_center_per_sample(), 1e-6
            lam = 1e-3 * lambda_max(prob)
        W, fields = solve_record(caplog, prob, lam, tol=tol, max_sweeps=20_000)
        assert fields["exit"] == exit_kind(prob, lam, tol, W)
        assert float(fields["kkt"]) == pytest.approx(
            kkt_violation(prob, lam, W), rel=1e-3)
        assert float(fields["gap"]) == pytest.approx(
            dual_gap(prob, lam, W), rel=1e-3, abs=1e-12)
        assert int(fields["sweeps"]) >= 1
        steps, (capped, calls) = int(fields["irls_steps"]), fields["irls_capped"].split("/")
        assert int(capped) <= int(calls) and 100 * int(capped) <= steps

    def test_polish_exit_kkt(self, caplog):
        # A warm start at a tight optimum: the polish certifies it unswept.
        prob, tol = random_problem(N=15, p=4, m=3, seed=7), 1e-8
        lam = 0.3 * lambda_max(prob)
        W0 = solve(prob, lam, tol=1e-12)
        W, fields = solve_record(caplog, prob, lam, tol=tol, warm_start=W0)
        assert fields["polish"] == "kkt" and int(fields["newton_steps"]) >= 1
        assert (fields["sweeps"], fields["irls_steps"], fields["exit"]) == ("0", "0", "kkt")
        assert exit_kind(prob, lam, tol, W) == "kkt"
        assert objective(prob, lam, W) <= objective(prob, lam, W0)

    def test_polish_rejected_on_a_dead_column(self, caplog):
        # Row 0 of the start is nonzero but its column is zero: the Newton
        # system is singular along that row, so the polish leaves W alone
        # and the sweeps set the row to zero.
        rng = np.random.default_rng(4)
        phi, acc = rng.standard_normal((15, 4)), rng.standard_normal((15, 4))
        phi[:, 0] = acc[:, 0] = 0.0
        prob = to_lasso(phi, acc, rng.standard_normal((15, 3)), 0.5)
        lam = 0.3 * lambda_max(prob)
        start = rng.standard_normal((4, 3))
        W, fields = solve_record(caplog, prob, lam, tol=1e-8, warm_start=start)
        assert fields["polish"] == "rejected" and int(fields["sweeps"]) >= 1
        assert exit_kind(prob, lam, 1e-8, W) == fields["exit"]
        assert np.all(W[0] == 0.0)

    def test_cold_start_is_not_polished(self, caplog):
        prob = random_problem(N=15, p=4, m=3, seed=7)
        _, fields = solve_record(caplog, prob, 0.3 * lambda_max(prob))
        assert (fields["polish"], fields["newton_steps"]) == ("none", "0")

    def test_disabled_logger_formats_nothing(self, caplog, monkeypatch):
        caplog.set_level(logging.INFO, logger="sparsemp.elastic_net")
        monkeypatch.setattr(elastic_net.logger, "debug", pytest.fail)
        prob = random_problem(seed=3)
        solve(prob, 0.3 * lambda_max(prob))


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
        W2, params2 = prune(W, params)
        np.testing.assert_array_equal(W2, W)
        np.testing.assert_array_equal(params2.mu, params.mu)

    def test_zero_row_removed_order_preserved(self):
        params = RbfParams(
            mu=np.linspace(0, 1, 5), sigma2=np.full(5, 0.01)
        )
        W = np.ones((5, 2))
        W[2] = 0.0
        W2, params2 = prune(W, params)
        assert W2.shape == (4, 2)
        np.testing.assert_array_equal(params2.mu, params.mu[:, [0, 1, 3, 4]])

    def test_matches_active_set_after_solve(self):
        prob = random_problem(N=20, p=5, m=2, seed=16)
        lam = 0.5 * lambda_max(prob)
        W = solve(prob, lam, tol=1e-10)
        params = RbfParams(mu=np.linspace(0, 1, 5), sigma2=np.full(5, 0.01))
        W2, _ = prune(W, params)
        assert W2.shape[0] == active_set(W).size

    def test_stacked_params_pruned_in_every_dof(self):
        per_dof = [
            RbfParams(mu=np.array([0.1, 0.5, 0.9]), sigma2=np.full(3, 0.01))
            for _ in range(2)
        ]
        W = np.array([[1.0], [0.0], [2.0]])
        W2, params2 = prune(W, StackedRbfParams(per_dof=per_dof))
        assert params2.n_features == 2
        for mu in params2.mu:
            np.testing.assert_array_equal(mu, [0.1, 0.9])

    def test_empty_model_error(self):
        params = RbfParams(mu=np.array([0.1]), sigma2=np.array([0.01]))
        with pytest.raises(EmptyModelError, match="empty model"):
            prune(np.zeros((1, 2)), params)

    def test_shape_mismatch(self):
        params = RbfParams(mu=np.array([0.1]), sigma2=np.array([0.01]))
        with pytest.raises(ValueError):
            prune(np.zeros((2, 2)), params)


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


def restricted_objective(G, C, lambda1, W):
    """F on the nonzero rows, without the constant ||Y_a||^2."""
    return float(-2.0 * np.vdot(W, C) + np.vdot(W, G @ W)
                 + lambda1 * np.sum(np.linalg.norm(W, axis=1)))


class TestNewtonPolish:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 3), st.floats(0.0, 5.0),
           st.integers(0, 2**32 - 1))
    def test_system_matches_finite_differences(self, a, m, lambda1, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((a + 3, a))
        G, C = X.T @ X + 0.1 * np.eye(a), rng.standard_normal((a, m))
        # rows kept well away from zero, where the penalty is not smooth
        Z = rng.standard_normal((a, m))
        W = Z * (rng.uniform(0.5, 2.0, a) / np.linalg.norm(Z, axis=1))[:, None]
        grad, delta = elastic_net._newton_step(
            G, C - G @ W, W, np.linalg.norm(W, axis=1), lambda1)

        n, h = a * m, 1e-4
        f = lambda w: restricted_objective(G, C, lambda1, w.reshape(a, m))
        w, E = W.reshape(-1), np.eye(n) * h
        grad_fd = np.array([(f(w + E[i]) - f(w - E[i])) / (2 * h) for i in range(n)])
        H_fd = np.array([[
            (f(w + E[i] + E[j]) - f(w + E[i] - E[j])
             - f(w - E[i] + E[j]) + f(w - E[i] - E[j])) / (4 * h * h)
            for j in range(n)] for i in range(n)])
        scale = 1.0 + np.max(np.abs(H_fd))
        np.testing.assert_allclose(grad.reshape(-1), grad_fd, atol=1e-6 * scale)
        # The step solves the finite-difference Newton system to within what
        # the differencing error of H_fd allows through its conditioning.
        step_fd = np.linalg.solve(H_fd, -grad.reshape(-1))
        atol = 1e-6 * np.linalg.cond(H_fd) * (1.0 + np.max(np.abs(step_fd)))
        np.testing.assert_allclose(delta.reshape(-1), step_fd, atol=atol)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 3), st.floats(0.02, 0.9),
           st.integers(0, 2**32 - 1), st.booleans())
    def test_warm_start_never_ends_above_its_start(self, p, m, fraction, seed, near):
        prob = random_problem(N=20, p=p, m=m, seed=seed, lambda2=0.1)
        lam = fraction * lambda_max(prob)
        if near:  # the optimum of a nearby penalty, as along a path
            start = solve(prob, 1.2 * lam, tol=1e-10)
        else:
            start = np.random.default_rng(seed).standard_normal((p, m))
        f_start = objective(prob, lam, start)
        W = solve(prob, lam, tol=1e-8, warm_start=start)
        assert objective(prob, lam, W) <= f_start + 1e-12 * (1.0 + abs(f_start))

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 8), st.integers(1, 3), st.floats(0.05, 0.9),
           st.integers(0, 2**32 - 1))
    def test_round_off_from_an_optimum_is_polished_unswept(
            self, caplog, p, m, fraction, seed):
        # At a certified optimum moved by round-off, the descent test compares
        # two round-off quantities; the polish must certify it all the same.
        prob = random_problem(N=20, p=p, m=m, seed=seed, lambda2=0.1)
        lam = fraction * lambda_max(prob)
        W0 = solve(prob, lam, tol=1e-12)
        noise = np.random.default_rng(seed).standard_normal(W0.shape)
        W, fields = solve_record(caplog, prob, lam, tol=1e-8,
                                 warm_start=W0 * (1.0 + 1e-14 * noise))
        if W0.any():
            assert (fields["polish"], fields["sweeps"]) == ("kkt", "0")
        assert exit_kind(prob, lam, 1e-8, W) == "kkt"
