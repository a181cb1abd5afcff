import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import elastic_net, feature_opt, policy, rbf, trainers
from sparsemp.elastic_net import EmptyModelError
from sparsemp.rbf import RbfParams, StackedRbfParams
from sparsemp.trainers import (
    FitReport,
    TrainedPrimitive,
    TrainerConfig,
    evaluate,
    reconstruct,
    scale_penalties,
    select_penalties_cv,
    train_clsdp,
    train_lsdp,
    training_data,
)
from sparsemp.trajectory import DemoSet, JointTrajectory, synth_demoset


def small_config(**kw):
    base = dict(epsilon=1e-8, max_outer_iters=30)
    base.update(kw)
    return TrainerConfig(**base)


class TestTrainerConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainerConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            TrainerConfig(lambda1=-1.0)
        with pytest.raises(ValueError):
            TrainerConfig(lambda2=-0.5)
        with pytest.raises(ValueError):
            TrainerConfig(initial_p=0)
        with pytest.raises(ValueError):
            TrainerConfig(restarts=0)
        with pytest.raises(ValueError, match="lambda1_fraction must be positive"):
            TrainerConfig(lambda1_fraction=0.0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            TrainerConfig(seed=-1)

    @pytest.mark.parametrize("field", ["max_outer_iters", "bfgs_max_iters"])
    def test_negative_iteration_budget_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            TrainerConfig(**{field: -1})

    def test_descent_check_has_no_switch(self):
        assert TrainerConfig().check_invariants is True
        with pytest.raises(TypeError):
            TrainerConfig(check_invariants=False)


class TestScalePenalties:
    def test_unchanged_when_residual_constant(self):
        assert scale_penalties(2.0, 3.0, 1.5, 1.5) == (2.0, 3.0)

    def test_half_residual_quarters_penalties(self):
        lam1, lam2 = scale_penalties(2.0, 4.0, 0.5, 1.0)
        assert lam1 == pytest.approx(0.5)
        assert lam2 == pytest.approx(1.0)

    def test_monotone_under_shrinking_residuals(self):
        lam1, lam2 = 1.0, 1.0
        r = [4.0, 3.0, 2.0, 1.0]
        for r_prev, r_k in zip(r, r[1:]):
            new1, new2 = scale_penalties(lam1, lam2, r_k, r_prev)
            assert new1 <= lam1 and new2 <= lam2
            lam1, lam2 = new1, new2

    def test_floor_applies(self):
        lam1, lam2 = scale_penalties(1.0, 1.0, 1e-12, 1.0, 1e-6, 1e-6)
        assert lam1 == 1e-6 and lam2 == 1e-6

    def test_zero_previous_residual_rejected(self):
        with pytest.raises(ValueError):
            scale_penalties(1.0, 1.0, 1.0, 0.0)


def shifted(demos: DemoSet, t0: float, dt: float) -> DemoSet:
    """The same joint samples on the grid t0, t0 + dt, ..."""
    return DemoSet(demos=[JointTrajectory(t=t0 + np.arange(d.n_samples) * dt, Q=d.Q)
                          for d in demos.demos])


class TestTrainingData:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 0.05))
    def test_layouts_on_any_origin_and_step(self, small_fixture, t0, dt):
        demos = shifted(small_fixture[0], t0, dt)
        demo = demos.demos[0]
        t, Y, intercepts, n_blocks = training_data(demo)
        assert t[0] == 0.0
        assert n_blocks == 1
        np.testing.assert_allclose(Y + intercepts, demo.Q, atol=1e-12)

        t, Y, intercepts, n_blocks = training_data(demos)
        assert t[0] == 0.0
        assert n_blocks == demos.n_dof
        N = demos.n_samples
        # DoF-major: row N*i + k is sample k of DoF i, one column per demo.
        stack = np.stack([d.Q.T.reshape(-1) for d in demos.demos], axis=1)
        np.testing.assert_allclose(Y + np.repeat(intercepts, N, axis=0), stack, atol=1e-12)


class TestTrainLsdp:
    def test_constant_demo_reduces_to_intercepts(self):
        t = np.arange(80) * 0.01
        Q = np.tile([0.3, -1.2], (80, 1))
        prim = train_lsdp(JointTrajectory(t=t, Q=Q), small_config())
        assert np.count_nonzero(np.linalg.norm(prim.W, axis=1)) == 0
        rec = reconstruct(prim, t)
        np.testing.assert_allclose(rec, Q, atol=1e-12)

    def test_noise_free_recovery_small(self, small_fixture):
        demos, truth = small_fixture
        demo = demos.demos[0]
        # a stiffer sparsity penalty keeps the survivor count near the
        # planted size while the annealing still reaches a tight fit
        prim = train_lsdp(demo, small_config(lambda1_fraction=1e-2))
        rec = reconstruct(prim, demo.t)
        rms = np.sqrt(np.mean((rec - demo.Q) ** 2))
        assert rms <= 1e-2
        assert prim.W.shape[0] <= 2 * truth.W.shape[0]

    def test_trace_descent_invariants(self, small_fixture):
        demos, _ = small_fixture
        prim = train_lsdp(demos.demos[0], small_config())
        trace = prim.metadata["trace"]
        assert trace, "training recorded no iterations"
        slack = trainers.DESCENT_SLACK
        for row in trace:
            assert row["smooth_cost_after_bfgs"] <= row[
                "smooth_cost_before_bfgs"
            ] + slack * (1 + abs(row["smooth_cost_before_bfgs"]))
            assert row["cost_after_en"] <= row["cost_before_en"] + slack * (
                1 + abs(row["cost_before_en"])
            )
        counts = [row["n_features"] for row in trace]
        assert counts == sorted(counts, reverse=True)

    def test_over_regularized_raises_empty_model(self, small_fixture):
        demos, _ = small_fixture
        demo = demos.demos[0]
        centered = demo.Q - demo.Q.mean(axis=0)
        params = RbfParams(
            mu=demo.t.copy(), sigma2=np.full(demo.n_samples, 0.1)
        )
        Phi, Acc = rbf.build_basis(demo.t, params)
        lam_max = elastic_net.lambda_max(
            elastic_net.to_lasso(Phi, Acc, centered, 0.0)
        )
        with pytest.raises(EmptyModelError, match="initial regression"):
            train_lsdp(demo, small_config(lambda1=2.0 * lam_max))

    def test_pruned_to_empty_names_the_iteration(self, small_fixture, monkeypatch):
        prune, calls = elastic_net.prune, []

        def prune_empty_at_second_call(W, params):
            calls.append(1)
            if len(calls) == 2:
                raise EmptyModelError("empty model: all features pruned")
            return prune(W, params)

        monkeypatch.setattr(trainers.elastic_net, "prune", prune_empty_at_second_call)
        with pytest.raises(EmptyModelError,
                           match=r"all features pruned \(iteration 1\)"):
            train_lsdp(small_fixture[0].demos[0], small_config(bfgs_max_iters=2))

    def test_metadata_fields(self, small_fixture):
        demos, _ = small_fixture
        demo = demos.demos[0]
        prim = train_lsdp(demo, small_config(seed=7, bfgs_max_iters=5))
        md = prim.metadata
        assert prim.t.size == demo.n_samples
        assert prim.n_dof == demo.n_dof
        assert prim.n_demos == 1
        # The primitive carries its shape; metadata is the fit record only.
        assert not {"n_samples", "n_dof", "n_demos", "dt", "duration"} & md.keys()
        assert md["seed"] == 7
        assert md["res_norm"] >= 0.0
        assert md["n_outer_iters"] == len(md["trace"])
        for row in md["trace"]:
            assert 0 <= row["bfgs_iters"] <= 5
            assert isinstance(row["bfgs_converged"], bool)
            assert isinstance(row["bfgs_line_search_failed"], bool)
            assert isinstance(row["bfgs_evals"], int)
            assert row["bfgs_evals"] >= row["bfgs_iters"]


class TestFitPenalties:
    """A policy records the penalties its coefficients were fit with."""

    @pytest.mark.parametrize("mode", ["lsdp", "clsdp"])
    @pytest.mark.parametrize("iters", [0, 1, 6])
    def test_total_cost_on_its_demos_is_its_final_cost(self, noisy_fixture, mode, iters):
        demos, _ = noisy_fixture
        data = demos if mode == "clsdp" else demos.demos[0]
        train = train_clsdp if mode == "clsdp" else train_lsdp
        config = TrainerConfig(max_outer_iters=iters, bfgs_max_iters=20, initial_p=30)
        prim = train(data, config)
        md, trace = prim.metadata, prim.metadata["trace"]
        assert bool(trace) == bool(iters)
        assert md["lambda1"] == (trace[-1]["lambda1"] if trace else md["lambda1_init"])
        _, report = evaluate(prim, prim.t, trainers.reference(data))
        assert report.total_cost == pytest.approx(md["final_cost"], rel=1e-12)


class TestDataType:
    @pytest.mark.parametrize("mode, expected, given_type", [
        ("lsdp", "JointTrajectory", "DemoSet"), ("clsdp", "DemoSet", "JointTrajectory"),
    ])
    def test_wrong_data_type_rejected_before_training(
        self, small_fixture, monkeypatch, mode, expected, given_type
    ):
        def fit(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr(trainers, "_fit", fit)
        demos, _ = small_fixture
        train, data = ((train_lsdp, demos) if mode == "lsdp"
                       else (train_clsdp, demos.demos[0]))
        with pytest.raises(TypeError,
                           match=f"train_{mode} expects a {expected}, got a {given_type}"):
            train(data, small_config())


class TestRestarts:
    def test_two_restarts_never_cost_more_and_repeat_byte_for_byte(
        self, noisy_fixture, tmp_path
    ):
        demo = noisy_fixture[0].demos[0]
        config = dict(max_outer_iters=3, bfgs_max_iters=10, initial_p=30, seed=4)
        single = train_lsdp(demo, TrainerConfig(**config))
        paths = [tmp_path / "first.json", tmp_path / "second.json"]
        for path in paths:
            policy.save_policy(path, train_lsdp(demo, TrainerConfig(restarts=2, **config)))
        # run 0 of every restart set is the unjittered single run
        best = policy.load_policy(paths[0])
        assert best.metadata["final_cost"] <= single.metadata["final_cost"]
        assert best.metadata["restarts"] == 2
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestTrainingError:
    """A failed elastic-net step names the outer iteration it failed in."""

    @staticmethod
    def patch_warm_solve(monkeypatch, warm_solve):
        """Let the initial (cold) regression solve; replace every warm one."""
        solve = elastic_net.solve

        def patched(prob, lambda1, warm_start=None, **kwargs):
            if warm_start is None:
                return solve(prob, lambda1, **kwargs)
            return warm_solve(warm_start)

        monkeypatch.setattr(trainers.elastic_net, "solve", patched)

    def test_cost_increase(self, small_fixture, monkeypatch):
        self.patch_warm_solve(monkeypatch, np.zeros_like)
        with pytest.raises(trainers.TrainingError,
                           match="iteration 1: elastic net increased the cost"):
            train_lsdp(small_fixture[0].demos[0], small_config(bfgs_max_iters=2))

    def test_solver_convergence_failure(self, small_fixture, monkeypatch):
        def fail(W):
            raise elastic_net.ConvergenceError(
                "coordinate descent did not converge in 1 sweeps", W=W, kkt=1.0)

        self.patch_warm_solve(monkeypatch, fail)
        with pytest.raises(trainers.TrainingError,
                           match="iteration 1: coordinate descent did not converge"):
            train_lsdp(small_fixture[0].demos[0], small_config(bfgs_max_iters=2))


class TestTrainClsdp:
    def test_single_demo_single_dof_matches_lsdp(self):
        demos, _ = synth_demoset(
            n_demos=1, n_dof=1, n_samples=100, dt=0.01, k_features=2,
            noise=0.0, seed=11,
        )
        cfg = small_config()
        single = train_lsdp(demos.demos[0], cfg)
        coupled = train_clsdp(demos, cfg)
        assert coupled.metadata["final_cost"] == pytest.approx(
            single.metadata["final_cost"], abs=1e-8
        )

    def test_coupled_shapes(self, small_fixture):
        demos, _ = small_fixture
        prim = train_clsdp(demos, small_config())
        assert prim.mode == "clsdp"
        assert isinstance(prim.rbf_params, RbfParams)
        assert prim.rbf_params.n_blocks == demos.n_dof
        assert prim.W.shape[1] == demos.n_demos
        assert prim.intercepts.shape == (demos.n_dof, demos.n_demos)

    def test_one_dof_evaluates_and_round_trips(self, tmp_path):
        demos, _ = synth_demoset(
            n_demos=2, n_dof=1, n_samples=80, dt=0.01, k_features=2,
            noise=0.0, seed=12,
        )
        prim = train_clsdp(demos, small_config(max_outer_iters=3))
        assert prim.rbf_params.n_blocks == prim.n_dof == 1
        recon, report = evaluate(prim, prim.t, trainers.reference(demos))
        assert recon.shape == (80, 1, 2) and np.isfinite(report.total_cost)
        path = tmp_path / "clsdp.json"
        policy.save_policy(path, prim)
        back = policy.load_policy(path)
        np.testing.assert_array_equal(reconstruct(back, back.t), reconstruct(prim, prim.t))

    def test_trace_counts_every_kernel_evaluation(self, small_fixture, monkeypatch):
        calls = []
        kernel = feature_opt.basis_and_partials

        def counting(*args, **kwargs):
            calls.append(1)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(feature_opt, "basis_and_partials", counting)
        demos, _ = small_fixture
        prim = train_clsdp(demos, small_config(max_outer_iters=3, bfgs_max_iters=10))
        trace = prim.metadata["trace"]
        assert trace and len(calls) == sum(row["bfgs_evals"] for row in trace)

    def test_coupling_reduces_total_coefficients(self, small_fixture):
        demos, _ = small_fixture
        cfg = small_config()
        coupled = train_clsdp(demos, cfg)
        total_coupled = coupled.W.shape[0] * demos.n_demos
        total_single = sum(
            train_lsdp(demo, cfg).W.shape[0] * demo.n_dof
            for demo in demos.demos
        )
        assert total_coupled < total_single


class TestReconstructEvaluate:
    def test_out_of_window_rejected(self, small_fixture):
        demos, _ = small_fixture
        prim = train_lsdp(demos.demos[0], small_config())
        with pytest.raises(ValueError, match="outside"):
            reconstruct(prim, demos.demos[0].t + 10.0)

    def test_res_norm_matches_recomputation(self, small_fixture):
        demos, _ = small_fixture
        demo = demos.demos[0]
        prim = train_lsdp(demo, small_config())
        rec, report = evaluate(prim, demo.t, reference=demo.Q)
        direct = float(np.linalg.norm(demo.Q - rec))
        assert isinstance(report, FitReport)
        assert report.res_norm == pytest.approx(direct, abs=1e-12)
        assert report.nnz == np.count_nonzero(prim.W)

    def test_reference_of_another_shape_rejected(self, small_fixture):
        demos, _ = small_fixture
        demo = demos.demos[0]
        prim = train_lsdp(demo, small_config(max_outer_iters=0))
        with pytest.raises(ValueError, match=r"reference shape \(120, 2\) does not match "
                                             r"reconstruction \(120, 3\)"):
            evaluate(prim, demo.t, demo.Q[:, :2])

    def test_zero_coefficient_primitive(self):
        t = np.arange(50) * 0.01
        params = RbfParams(mu=np.array([0.2]), sigma2=np.array([0.05]))
        prim = TrainedPrimitive(
            mode="lsdp",
            intercepts=np.array([1.0, -2.0]),
            rbf_params=params,
            W=np.zeros((1, 2)),
            t=t,
        )
        rec, report = evaluate(prim, t, np.tile([1.0, -2.0], (50, 1)))
        np.testing.assert_allclose(rec, np.tile([1.0, -2.0], (50, 1)))
        assert report.nnz == 0
        assert report.acc_norm == 0.0

    @pytest.mark.parametrize("mode", ["lsdp", "clsdp"])
    def test_reference_has_the_reconstruction_layout(self, small_fixture, mode):
        demos, _ = small_fixture
        data = demos if mode == "clsdp" else demos.demos[0]
        t, Y, intercepts, n_blocks = training_data(data)
        params = RbfParams(mu=t[:2], sigma2=np.full(2, 0.05))
        prim = TrainedPrimitive(
            mode=mode, intercepts=intercepts, t=t, W=np.zeros((2, Y.shape[1])),
            rbf_params=params if n_blocks == 1 else StackedRbfParams([params] * n_blocks),
        )
        ref = trainers.reference(data)
        assert ref.shape == reconstruct(prim, prim.t).shape
        # 3 DoF and 3 demos: the shape alone does not show which axis holds the demos
        last = ref[..., -1] if mode == "clsdp" else ref
        np.testing.assert_array_equal(last, demos.demos[-1 if mode == "clsdp" else 0].Q)

    def test_coupled_reconstruction_shape(self, small_fixture):
        demos, _ = small_fixture
        prim = train_clsdp(demos, small_config())
        rec = reconstruct(prim, demos.demos[0].t)
        assert rec.shape == (demos.n_samples, demos.n_dof, demos.n_demos)


class TestSelectPenaltiesCv:
    def test_returns_grid_member_deterministically(self, small_fixture):
        demos, _ = small_fixture
        demo = demos.demos[0]
        grid = [(0.5, 1e-6), (0.05, 1e-6), (5.0, 1e-6)]
        cfg = small_config(initial_p=40)
        first = select_penalties_cv(demo, grid, folds=3, config=cfg)
        second = select_penalties_cv(demo, grid, folds=3, config=cfg)
        assert first in grid
        assert first == second

    def test_time_origin_does_not_change_the_pick(self, small_fixture):
        demos, _ = small_fixture
        late = shifted(demos, 5.0, demos.dt)
        grid = [(0.5, 1e-6), (0.05, 1e-6), (5.0, 1e-6), (0.05, 1e-3)]
        cfg = small_config(initial_p=20)
        assert select_penalties_cv(late, grid, folds=3, config=cfg) == \
            select_penalties_cv(demos, grid, folds=3, config=cfg)

    def test_validation(self, small_fixture):
        demos, _ = small_fixture
        with pytest.raises(ValueError, match="folds"):
            select_penalties_cv(demos.demos[0], [(1.0, 0.0)], folds=1)
        with pytest.raises(ValueError, match="grid"):
            select_penalties_cv(demos.demos[0], [], folds=3)
        # 5 samples in 3 folds: the first fold holds a single sample
        short = JointTrajectory(t=demos.demos[0].t[:5], Q=demos.demos[0].Q[:5])
        with pytest.raises(ValueError, match="degenerate fold: fewer than 2 samples"):
            select_penalties_cv(short, [(1.0, 0.0)], folds=3)
