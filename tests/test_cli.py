import json

import numpy as np
import pytest

from sparsemp import baselines, cli, policy, trainers
from sparsemp.cli import main
from sparsemp.elastic_net import to_lasso
from sparsemp.rbf import build_basis
from sparsemp.reg_path import compute_path
from sparsemp.trajectory import (
    JointTrajectory,
    load_trajectory_csv,
    save_trajectory_csv,
)


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("fixture")
    code = run(
        "synth", "--out", str(out), "--seed", "5", "--demos", "2",
        "--dof", "2", "--samples", "60", "--rate", "100",
        "--features", "2", "--noise", "0.005",
    )
    assert code == 0
    return out


class TestSynth:
    def test_outputs_exist(self, fixture_dir):
        assert (fixture_dir / "demo_1.csv").exists()
        assert (fixture_dir / "demo_2.csv").exists()
        assert (fixture_dir / "stream.csv").exists()
        assert (fixture_dir / "ground_truth_1.json").exists()

    def test_demo_shape(self, fixture_dir):
        demo = load_trajectory_csv(fixture_dir / "demo_1.csv")
        assert demo.n_samples == 60
        assert demo.n_dof == 2
        assert demo.dt == pytest.approx(0.01)

    def test_ground_truth_flagged_and_accurate(self, fixture_dir):
        doc = json.loads((fixture_dir / "ground_truth_1.json").read_text())
        assert doc["ground_truth"] is True
        prim = policy.load_policy(fixture_dir / "ground_truth_1.json")
        demo = load_trajectory_csv(fixture_dir / "demo_1.csv")
        from sparsemp.trainers import reconstruct

        resid = demo.Q - reconstruct(prim, demo.t)
        # ground truth differs from the demo only by the injected noise
        assert np.sqrt(np.mean(resid ** 2)) <= 0.01

    def test_deterministic(self, tmp_path, fixture_dir):
        again = tmp_path / "again"
        code = run(
            "synth", "--out", str(again), "--seed", "5", "--demos", "2",
            "--dof", "2", "--samples", "60", "--rate", "100",
            "--features", "2", "--noise", "0.005",
        )
        assert code == 0
        for name in ("demo_1.csv", "stream.csv", "ground_truth_2.json"):
            assert (again / name).read_bytes() == (fixture_dir / name).read_bytes()


class TestSegment:
    def test_stream_recut(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "cuts"
        code = run(
            "segment", str(fixture_dir / "stream.csv"),
            "--out-dir", str(out), "--count", "2",
            "--window", "0.6", "--rate", "100",
        )
        assert code == 0
        assert (out / "demo_1.csv").exists() and (out / "demo_2.csv").exists()
        printed = capsys.readouterr().out
        assert "peak index" in printed
        cut = load_trajectory_csv(out / "demo_1.csv")
        assert cut.n_samples == 60

    def test_bad_count_is_usage_error(self, fixture_dir, tmp_path):
        code = run(
            "segment", str(fixture_dir / "stream.csv"),
            "--out-dir", str(tmp_path), "--count", "0",
            "--window", "0.6", "--rate", "100",
        )
        assert code == 2

    def test_rate_mismatch_fails(self, fixture_dir, tmp_path):
        code = run(
            "segment", str(fixture_dir / "stream.csv"),
            "--out-dir", str(tmp_path), "--count", "2",
            "--window", "0.6", "--rate", "250",
        )
        assert code == 1


@pytest.mark.parametrize("command, flag, value, message", [
    ("synth", "--rate", "0", "--rate must be positive"),
    ("synth", "--demos", "0", "--demos must be >= 1"),
    ("synth", "--samples", "1", "--samples must be >= 2"),
    ("synth", "--dof", "0", "--dof must be >= 1"),
    ("synth", "--features", "0", "--features must be >= 1"),
    ("synth", "--seed", "-1", "--seed must be >= 0"),
    ("segment", "--window", "0", "--window must be positive"),
    ("segment", "--window", "-1", "--window must be positive"),
    ("segment", "--rate", "0", "--rate must be positive"),
])
def test_synth_and_segment_out_of_range_flag_is_usage_error(
    command, flag, value, message, tmp_path, capsys
):
    # checked before anything is read or written: the stream does not exist
    out = tmp_path / "out"
    argv = (["--out", str(out)] if command == "synth" else
            [str(tmp_path / "missing.csv"), "--out-dir", str(out), "--count", "2"])
    code = run(command, *argv, flag, value)
    assert code == 2
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_method_is_a_parser_error(tmp_path, capsys):
    code = run("train", "pca", str(tmp_path / "demo.csv"), "--out", str(tmp_path / "p.json"))
    assert code == 2
    assert "invalid choice: 'pca'" in capsys.readouterr().err


TRAIN_FLAG_CASES = [
    ("lsdp", "--restarts", "0", "restarts must be >= 1"),
    ("lsdp", "--epsilon", "-1", "epsilon must be positive"),
    ("lsdp", "--initial-p", "0", "initial_p must be >= 1"),
    ("lsdp", "--max-iters", "-1", "max_outer_iters must be >= 0"),
    ("lsdp", "--bfgs-iters", "-1", "bfgs_max_iters must be >= 0"),
    ("lsdp", "--seed", "-1", "seed must be >= 0"),
    ("dmp", "--n-basis", "1", "--n-basis must be >= 2 for dmp"),
    ("dmp", "--n-basis", "0", "--n-basis must be >= 2 for dmp"),
    ("ridge", "--n-basis", "0", "--n-basis must be >= 1 for ridge"),
    ("ridge", "--lambda2", "-1", "lambda2 must be nonnegative"),
]


class TestTrain:
    def test_lsdp_writes_policy(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "lsdp.json"
        code = run(
            "train", "lsdp", str(fixture_dir / "demo_1.csv"),
            "--out", str(out),
        )
        assert code == 0
        assert "method=lsdp" in capsys.readouterr().out
        model = policy.load_policy(out)
        assert model.mode == "lsdp"

    def test_clsdp_couples_demo_columns(self, fixture_dir, tmp_path):
        out = tmp_path / "clsdp.json"
        code = run(
            "train", "clsdp",
            str(fixture_dir / "demo_1.csv"), str(fixture_dir / "demo_2.csv"),
            "--out", str(out),
        )
        assert code == 0
        model = policy.load_policy(out)
        assert model.mode == "clsdp"
        assert model.W.shape[1] == 2

    def test_lsdp_rejects_multiple_demos(self, fixture_dir, tmp_path):
        code = run(
            "train", "lsdp",
            str(fixture_dir / "demo_1.csv"), str(fixture_dir / "demo_2.csv"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2

    def test_lsdp_rejects_multiple_demos_before_cross_validation(
        self, fixture_dir, tmp_path, monkeypatch, capsys
    ):
        def cross_validation(*args, **kwargs):
            raise AssertionError("cross-validation started")

        monkeypatch.setattr(trainers, "select_penalties_cv", cross_validation)
        code = run(
            "train", "lsdp",
            str(fixture_dir / "demo_1.csv"), str(fixture_dir / "demo_2.csv"),
            "--cv-folds", "3", "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "exactly one demonstration" in capsys.readouterr().err

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_cv_folds_below_two_is_usage_error(self, folds, fixture_dir, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = run(
            "train", "lsdp", str(fixture_dir / "demo_1.csv"),
            "--cv-folds", folds, "--out", str(out),
        )
        assert code == 2
        assert "usage error: --cv-folds must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method, flag, value, message", TRAIN_FLAG_CASES,
                             ids=["-".join(case[1:]) for case in TRAIN_FLAG_CASES])  # flag-value-message
    def test_out_of_range_flag_is_usage_error(
        self, method, flag, value, message, fixture_dir, tmp_path, capsys
    ):
        code = run("train", method, str(fixture_dir / "demo_1.csv"),
                   "--out", str(tmp_path / "p.json"), flag, value)
        assert code == 2
        assert f"usage error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "p.json").exists()

    def test_clsdp_rejects_demos_on_different_time_origins(
        self, fixture_dir, tmp_path, capsys
    ):
        demo = load_trajectory_csv(fixture_dir / "demo_2.csv")
        late = tmp_path / "late.csv"
        save_trajectory_csv(late, JointTrajectory(t=demo.t + 5.0, Q=demo.Q))
        code = run(
            "train", "clsdp", str(fixture_dir / "demo_1.csv"), str(late),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert "usage error: demo 1 starts at t=5" in capsys.readouterr().err

    def test_cv_folds_pick_the_initial_penalties_from_the_grid(self, fixture_dir, tmp_path):
        out = tmp_path / "lsdp.json"
        code = run("train", "lsdp", str(fixture_dir / "demo_1.csv"), "--out", str(out),
                   "--cv-folds", "3", "--max-iters", "2", "--initial-p", "20")
        assert code == 0
        md = policy.load_policy(out).metadata
        assert (md["lambda1_init"], md["lambda2_init"]) in cli.CV_GRID

    def test_dmp_reports_params_per_dof(self, fixture_dir, tmp_path, capsys):
        out = tmp_path / "dmp.json"
        code = run(
            "train", "dmp", str(fixture_dir / "demo_1.csv"), "--out", str(out)
        )
        assert code == 0
        assert "params per DoF: 11" in capsys.readouterr().out

    def test_ridge_policy_round_trip(self, fixture_dir, tmp_path):
        out = tmp_path / "ridge.json"
        code = run(
            "train", "ridge", str(fixture_dir / "demo_1.csv"), "--out", str(out)
        )
        assert code == 0
        model = policy.load_policy(out)
        assert model.rbf_params.n_features + 1 == 11

    def test_ridge_eval_counts_weights_and_intercept_per_dof(self, fixture_dir, tmp_path,
                                                             capsys):
        out = str(tmp_path / "ridge.json")
        demo = str(fixture_dir / "demo_1.csv")
        assert run("train", "ridge", demo, "--out", out, "--n-basis", "7") == 0
        capsys.readouterr()
        assert run("eval", out, "--demos", demo) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[:2] == ["ridge", str((7 + 1) * 2)]

    def test_ridge_file_of_the_older_layout_evals_as_a_new_one(self, fixture_dir, tmp_path,
                                                               capsys):
        new = tmp_path / "ridge.json"
        demo = str(fixture_dir / "demo_1.csv")
        assert run("train", "ridge", demo, "--out", str(new)) == 0
        model = policy.load_policy(new)
        old = tmp_path / "ridge_old.json"
        old.write_text(json.dumps({
            "schema_version": 1, "method": "ridge", "dt": model.dt,
            "duration": (model.t.size - 1) * model.dt, "n": 2, "d": 1, "n_samples": model.t.size,
            "intercepts": model.intercepts.tolist(),
            "centers": model.rbf_params.mu[0].tolist(),
            "widths": model.rbf_params.sigma2[0].tolist(),
            "coefficients": {"n_features": 10, "n_tasks": 2,
                             "active_rows": list(range(10)), "values": model.W.tolist()},
            "lambda2": 1e-4,
        }))
        capsys.readouterr()
        assert run("eval", str(new), str(old), "--demos", demo) == 0
        header, row_new, row_old = capsys.readouterr().out.splitlines()
        assert row_old == row_new
        assert policy.load_policy(old).metadata == model.metadata

    def test_ridge_trains_with_the_lambda2_given_even_zero(self, fixture_dir, tmp_path):
        out = tmp_path / "ridge.json"
        code = run("train", "ridge", str(fixture_dir / "demo_1.csv"), "--out", str(out),
                   "--lambda2", "0")
        assert code == 0
        assert policy.load_policy(out).metadata["lambda2"] == 0.0

    def test_verbose_logs_each_solve_to_stderr(self, fixture_dir, tmp_path, capsys):
        demo = str(fixture_dir / "demo_1.csv")
        out = str(tmp_path / "lsdp.json")
        assert run("train", "lsdp", demo, "--out", out, "--max-iters", "1", "-v") == 0
        err = capsys.readouterr().err
        assert "solve: p=" in err and "exit=" in err
        assert "polish=" in err and "newton_steps=" in err and "handoffs=" in err
        assert run("train", "lsdp", demo, "--out", out, "--max-iters", "1") == 0
        assert "solve:" not in capsys.readouterr().err

    def test_verbose_logs_each_outer_iteration(self, fixture_dir, tmp_path, capsys):
        demo = str(fixture_dir / "demo_1.csv")
        out = tmp_path / "lsdp.json"
        assert run("train", "lsdp", demo, "--out", str(out), "--max-iters", "3", "-v") == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("fit: ")]
        trace = policy.load_policy(out).metadata["trace"]
        assert len(lines) == len(trace) >= 2
        for k, (line, row) in enumerate(zip(lines, trace), start=1):
            assert f"iteration={k} n_features={row['n_features']} " in line
            assert f"bfgs_iters={row['bfgs_iters']} " in line and "res_norm=" in line

    def test_verbose_logs_each_bfgs_run(self, fixture_dir, tmp_path, capsys):
        demo = str(fixture_dir / "demo_1.csv")
        out = str(tmp_path / "lsdp.json")
        assert run("train", "lsdp", demo, "--out", out, "--max-iters", "1", "-v") == 0
        err = capsys.readouterr().err
        assert err.count("bfgs: dim=") == 1 and "evals=" in err

    @pytest.mark.parametrize("method", ["dmp", "ridge"])
    def test_baseline_train_and_eval_agree(self, method, fixture_dir, tmp_path, capsys):
        demo = str(fixture_dir / "demo_1.csv")
        out = str(tmp_path / f"{method}.json")
        assert run("train", method, demo, "--out", out) == 0
        trained = dict(
            field.split("=") for field in capsys.readouterr().out.split()
            if "=" in field
        )
        assert run("eval", out, "--demos", demo) == 0
        row = capsys.readouterr().out.splitlines()[1].split(",")
        assert row[0] == method
        assert (row[2], row[3]) == (trained["acc_norm"], trained["res_norm"])

    def test_missing_input_fails(self, tmp_path):
        code = run(
            "train", "lsdp", str(tmp_path / "nope.csv"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1


@pytest.fixture(scope="module")
def trained(fixture_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    lsdp = out / "lsdp.json"
    assert run(
        "train", "lsdp", str(fixture_dir / "demo_1.csv"), "--out", str(lsdp)
    ) == 0
    dmp = out / "dmp.json"
    assert run(
        "train", "dmp", str(fixture_dir / "demo_1.csv"), "--out", str(dmp)
    ) == 0
    return lsdp, dmp


class TestRankEval:
    def test_rank_prints_ordering(self, fixture_dir, trained, tmp_path, capsys):
        lsdp, _ = trained
        csv_out = tmp_path / "path.csv"
        code = run(
            "rank", str(lsdp), str(fixture_dir / "demo_1.csv"),
            "--grid", "40", "--out", str(csv_out),
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "rank 1: feature" in printed
        header = csv_out.read_text().splitlines()[0]
        assert header == "lambda,feature_index,row_norm"

    def test_rank_rejects_dmp(self, fixture_dir, trained):
        _, dmp = trained
        code = run("rank", str(dmp), str(fixture_dir / "demo_1.csv"))
        assert code == 1

    def test_rank_rejects_ridge(self, fixture_dir, tmp_path, capsys):
        ridge = str(tmp_path / "ridge.json")
        assert run("train", "ridge", str(fixture_dir / "demo_1.csv"), "--out", ridge) == 0
        capsys.readouterr()
        assert run("rank", ridge, str(fixture_dir / "demo_1.csv")) == 1
        assert capsys.readouterr().err == "error: ranking undefined for this method\n"

    def test_rank_out_cells_parse_as_the_path_numbers(self, fixture_dir, trained, tmp_path):
        lsdp, _ = trained
        csv_out = tmp_path / "path.csv"
        demo = str(fixture_dir / "demo_1.csv")
        assert run("rank", str(lsdp), demo, "--grid", "8", "--out", str(csv_out)) == 0
        rows = [line.split(",") for line in csv_out.read_text().splitlines()[1:]]
        lambdas = [float(lam) for lam, _, _ in rows]
        assert all(float(norm) >= 0.0 for _, _, norm in rows)
        # the path `rank` builds: the policy's basis at its lambda2, on its demo
        model = policy.load_policy(lsdp)
        _, Y, _, _ = trainers.training_data(load_trajectory_csv(demo))
        Phi, PhiAcc = build_basis(model.t, model.rbf_params)
        prob = to_lasso(Phi, PhiAcc, Y, model.metadata["lambda2"])
        path = compute_path(prob, n_lambdas=8, ratio=1e-3)
        p = model.rbf_params.n_features
        assert lambdas == [float(lam) for lam in path.lambdas for _ in range(p)]

    @pytest.mark.parametrize("flag, value, message", [
        ("--grid", "1", "--grid must be >= 2"),
        ("--ratio", "0", "--ratio must lie in (0, 1)"),
        ("--ratio", "1.5", "--ratio must lie in (0, 1)"),
    ])
    def test_out_of_range_flag_is_usage_error(
        self, flag, value, message, fixture_dir, tmp_path, capsys
    ):
        # checked before anything is read: the policy file does not exist
        code = run("rank", str(tmp_path / "missing.json"),
                   str(fixture_dir / "demo_1.csv"), flag, value)
        assert code == 2
        assert f"usage error: {message}" in capsys.readouterr().err

    def test_one_joint_clsdp_trains_evaluates_and_ranks(self, tmp_path):
        code = run(
            "synth", "--out", str(tmp_path), "--seed", "5", "--demos", "2",
            "--dof", "1", "--samples", "60", "--rate", "100", "--features", "2",
        )
        assert code == 0
        demos = [str(tmp_path / "demo_1.csv"), str(tmp_path / "demo_2.csv")]
        prim = str(tmp_path / "clsdp.json")
        assert run("train", "clsdp", *demos, "--out", prim, "--max-iters", "3") == 0
        assert run("eval", prim, "--demos", *demos) == 0
        assert run("rank", prim, *demos, "--grid", "10") == 0

    @pytest.mark.parametrize("command", ["rank", "eval"])
    def test_clsdp_needs_as_many_demos_as_it_couples(
        self, command, fixture_dir, tmp_path, capsys
    ):
        demos = [str(fixture_dir / "demo_1.csv"), str(fixture_dir / "demo_2.csv")]
        prim = str(tmp_path / "clsdp.json")
        assert run("train", "clsdp", *demos, "--out", prim, "--max-iters", "2") == 0
        capsys.readouterr()
        argv = [prim, demos[0]] if command == "rank" else [prim, "--demos", demos[0]]
        assert run(command, *argv) == 1
        assert "dimension mismatch on demos axis: policy couples 2, got 1" in (
            capsys.readouterr().err)

    def test_eval_reports_all_policies(self, fixture_dir, trained, tmp_path, capsys):
        lsdp, dmp = trained
        out = tmp_path / "report.csv"
        code = run(
            "eval", str(lsdp), str(dmp),
            "--demos", str(fixture_dir / "demo_1.csv"),
            "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,nnz,acc_norm,res_norm,total_cost"
        assert lines[1].startswith("lsdp,")
        assert lines[2].startswith("dmp,")

    @pytest.mark.parametrize("method, demo, message", [
        ("ridge", "wide", "dimension mismatch on DoF axis: policy has 2, got 3"),
        ("dmp", "wide", "dimension mismatch on DoF axis: policy has 2, got 3"),
        ("ridge", "short", "dimension mismatch on time axis"),
        ("lsdp", "short", "dimension mismatch on time axis"),
        ("dmp", "short", None),  # a DMP's residual covers the common prefix
    ])
    def test_eval_checks_every_policy_against_its_demos(
        self, method, demo, message, fixture_dir, tmp_path, capsys
    ):
        source = load_trajectory_csv(fixture_dir / "demo_1.csv")
        other = (JointTrajectory(t=source.t, Q=np.column_stack([source.Q, source.Q[:, 0]]))
                 if demo == "wide" else JointTrajectory(t=source.t[:40], Q=source.Q[:40]))
        save_trajectory_csv(tmp_path / "other.csv", other)
        prim = str(tmp_path / f"{method}.json")
        assert run("train", method, str(fixture_dir / "demo_1.csv"), "--out", prim,
                   "--max-iters", "2") == 0
        capsys.readouterr()
        code = run("eval", prim, "--demos", str(tmp_path / "other.csv"))
        if message is None:
            assert code == 0 and capsys.readouterr().out.splitlines()[1].startswith("dmp,")
        else:
            assert code == 1
            assert f"error: {message}\n" == capsys.readouterr().err

    @pytest.mark.parametrize("method", ["lsdp", "clsdp"])
    def test_primitive_file_of_the_older_layout_evals_as_a_new_one(
        self, method, fixture_dir, tmp_path, capsys
    ):
        # Before the header held n_samples, metadata did, with the shape.
        demos = [str(fixture_dir / "demo_1.csv")]
        if method == "clsdp":
            demos.append(str(fixture_dir / "demo_2.csv"))
        new = tmp_path / "new.json"
        assert run("train", method, *demos, "--out", str(new), "--max-iters", "2") == 0
        doc, model = json.loads(new.read_text()), policy.load_policy(new)
        old = tmp_path / "old.json"
        old.write_text(json.dumps({
            "schema_version": 1, "method": method, "dt": model.dt,
            "duration": (model.t.size - 1) * model.dt, "n": 2, "d": len(demos),
            "intercepts": doc["intercepts"], "centers": doc["centers"],
            "widths": doc["widths"], "coefficients": doc["coefficients"],
            "metadata": {"n_samples": model.t.size, "n_dof": 2, "n_demos": len(demos),
                         "dt": model.dt, "duration": (model.t.size - 1) * model.dt,
                         **doc["metadata"]},
        }))
        capsys.readouterr()
        assert run("eval", str(new), str(old), "--demos", *demos) == 0
        header, row_new, row_old = capsys.readouterr().out.splitlines()
        assert row_old == row_new
        np.testing.assert_array_equal(policy.load_policy(old).t, model.t)

    @pytest.mark.parametrize("method", ["lsdp", "clsdp"])
    def test_coefficient_block_that_states_its_shape_evals_as_a_new_one(
        self, method, fixture_dir, tmp_path, capsys
    ):
        # Older coefficient blocks also held n_features and n_tasks; the
        # basis and the intercepts fix both.
        demos = [str(fixture_dir / "demo_1.csv")]
        if method == "clsdp":
            demos.append(str(fixture_dir / "demo_2.csv"))
        new = tmp_path / "new.json"
        assert run("train", method, *demos, "--out", str(new), "--max-iters", "2") == 0
        doc, model = json.loads(new.read_text()), policy.load_policy(new)
        assert sorted(doc["coefficients"]) == ["active_rows", "values"]
        doc["coefficients"] = {"n_features": int(model.W.shape[0]),
                               "n_tasks": int(model.W.shape[1]), **doc["coefficients"]}
        old = tmp_path / "old.json"
        old.write_text(json.dumps(doc))
        np.testing.assert_array_equal(policy.load_policy(old).W, model.W)
        capsys.readouterr()
        assert run("eval", str(new), str(old), "--demos", *demos) == 0
        header, row_new, row_old = capsys.readouterr().out.splitlines()
        assert row_old == row_new

    def test_dmp_file_of_the_older_layout_evals_as_a_new_one(self, fixture_dir, trained,
                                                             tmp_path, capsys):
        # Before, a DMP file also held tau, its gains and its phase basis.
        _, new = trained
        model = policy.load_policy(new)
        centers, widths = baselines._phase_basis(model.n_basis, baselines.ALPHA_X,
                                                  model.tau)
        old = tmp_path / "dmp_old.json"
        old.write_text(json.dumps({
            "schema_version": 1, "method": "dmp", "dt": model.dt, "duration": model.tau,
            "n": 2, "d": 1, "weights": model.weights.tolist(), "goal": model.goal.tolist(),
            "y0": model.y0.tolist(), "tau": model.tau,
            "alpha_z": 25.0, "beta_z": 6.25, "alpha_x": 25.0 / 3.0,
            "phase_centers": centers.tolist(), "phase_widths": widths.tolist(),
        }))
        demo = str(fixture_dir / "demo_1.csv")
        capsys.readouterr()
        assert run("eval", str(new), str(old), "--demos", demo) == 0
        header, row_new, row_old = capsys.readouterr().out.splitlines()
        assert row_old == row_new

    @pytest.mark.parametrize("kind, field", [(0, "coefficients"), (1, "goal")])
    def test_eval_names_the_file_and_the_field_it_lacks(self, kind, field, fixture_dir,
                                                        trained, tmp_path, capsys):
        doc = json.loads(trained[kind].read_text())
        del doc[field]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("eval", str(path), "--demos", str(fixture_dir / "demo_1.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: policy file lacks field '{field}'\n")

    def test_eval_missing_policy_fails(self, fixture_dir, tmp_path):
        code = run(
            "eval", str(tmp_path / "nope.json"),
            "--demos", str(fixture_dir / "demo_1.csv"),
        )
        assert code == 1
