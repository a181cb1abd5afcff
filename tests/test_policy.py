import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsemp import policy
from sparsemp.baselines import train_dmp, train_ridge
from sparsemp.rbf import RbfParams, StackedRbfParams
from sparsemp.trainers import (
    TrainedPrimitive,
    TrainerConfig,
    evaluate,
    train_clsdp,
    train_lsdp,
)
from sparsemp.trajectory import DemoSet, JointTrajectory


def random_primitive(rng, mode="lsdp"):
    p = int(rng.integers(1, 8))
    n = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    N = int(rng.integers(10, 40))
    dt = float(rng.uniform(0.001, 0.02))
    t = np.arange(N) * dt
    if mode == "clsdp":
        params = StackedRbfParams(per_dof=[
            RbfParams(
                mu=rng.uniform(0, t[-1], p),
                sigma2=rng.uniform(1e-4, 0.2, p),
            )
            for _ in range(n)
        ])
        W = rng.standard_normal((p, d))
        intercepts = rng.standard_normal((n, d))
    else:
        params = RbfParams(
            mu=rng.uniform(0, t[-1], p), sigma2=rng.uniform(1e-4, 0.2, p)
        )
        W = rng.standard_normal((p, n))
        intercepts = rng.standard_normal(n)
    # zero out some rows so the sparse storage path is exercised
    kill = rng.random(p) < 0.3
    W[kill] = 0.0
    return TrainedPrimitive(
        mode=mode,
        intercepts=intercepts,
        rbf_params=params,
        W=W,
        t=t,
        metadata={
            "n_samples": N,
            "n_dof": n,
            "n_demos": d if mode == "clsdp" else 1,
            "dt": dt,
            "duration": float(t[-1]),
            "res_norm": float(rng.uniform(0, 1)),
            "lambda1": float(rng.uniform(0, 1)),
            "lambda2": float(rng.uniform(0, 1)),
        },
    )


def smooth_demo(N=120, n=2, dt=0.01):
    t = np.arange(N) * dt
    s = t / t[-1]
    Q = np.column_stack([np.sin(np.pi * s), 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5])
    return JointTrajectory(t=t, Q=Q[:, :n])


class TestPrimitiveRoundTrip:
    @pytest.mark.parametrize("mode", ["lsdp", "clsdp"])
    def test_bit_exact(self, tmp_path, mode):
        rng = np.random.default_rng(0)
        for case in range(20):
            prim = random_primitive(rng, mode)
            path = tmp_path / f"{mode}_{case}.json"
            policy.save_policy(path, prim)
            back = policy.load_policy(path)
            assert back.mode == prim.mode
            np.testing.assert_array_equal(back.W, prim.W)
            np.testing.assert_array_equal(back.intercepts, prim.intercepts)
            np.testing.assert_array_equal(back.t, prim.t)
            np.testing.assert_array_equal(back.rbf_params.mu, prim.rbf_params.mu)
            np.testing.assert_array_equal(back.rbf_params.sigma2, prim.rbf_params.sigma2)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(1)
        prim = random_primitive(rng)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        policy.save_policy(a, prim)
        policy.save_policy(b, prim)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_rows_not_stored(self, tmp_path):
        params = RbfParams(mu=np.array([0.1, 0.2, 0.3]), sigma2=np.full(3, 0.05))
        W = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]])
        prim = TrainedPrimitive(
            mode="lsdp",
            intercepts=np.zeros(2),
            rbf_params=params,
            W=W,
            t=np.arange(10) * 0.01,
            metadata={"n_samples": 10},
        )
        path = tmp_path / "p.json"
        policy.save_policy(path, prim)
        doc = json.loads(path.read_text())
        assert doc["coefficients"]["active_rows"] == [0, 2]
        back = policy.load_policy(path)
        np.testing.assert_array_equal(back.W, W)

    def test_ground_truth_flag(self, tmp_path):
        rng = np.random.default_rng(2)
        prim = random_primitive(rng)
        path = tmp_path / "gt.json"
        policy.save_policy(path, prim, ground_truth=True)
        doc = json.loads(path.read_text())
        assert doc["ground_truth"] is True
        assert doc["schema_version"] == policy.SCHEMA_VERSION


def round_trip_residual(demo, tmp_path):
    """evaluate's residual of an lsdp fit to demo, before and after a
    save/load round trip, each on the policy's own time grid."""
    prim = train_lsdp(demo, TrainerConfig(initial_p=6, max_outer_iters=1,
                                           bfgs_max_iters=2))
    path = tmp_path / "p.json"
    policy.save_policy(path, prim)
    back = policy.load_policy(path)
    _, before = evaluate(prim, prim.t, demo.Q)
    _, after = evaluate(back, back.t, demo.Q)
    return before.res_norm, after.res_norm


class TestTimeOrigin:
    def test_late_demo_means_the_same_after_reload(self, tmp_path):
        # A demo recorded from t = 5 s: the policy's grid starts at 0, as
        # the loaded one is rebuilt, so both reconstruct the same motion.
        demo = smooth_demo()
        late = JointTrajectory(t=demo.t + 5.0, Q=demo.Q)
        before, after = round_trip_residual(late, tmp_path)
        assert after == pytest.approx(before, rel=1e-9)
        assert before == pytest.approx(round_trip_residual(demo, tmp_path)[0], rel=1e-6)

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 0.05))
    def test_round_trip_any_origin_and_step(self, tmp_path_factory, t0, dt):
        demo = smooth_demo(N=40, dt=dt)
        demo = JointTrajectory(t=t0 + demo.t, Q=demo.Q)
        before, after = round_trip_residual(demo, tmp_path_factory.mktemp("rt"))
        assert after == pytest.approx(before, rel=1e-9, abs=1e-12)


class TestBaselineRoundTrip:
    def test_dmp_bit_exact(self, tmp_path):
        model = train_dmp(smooth_demo())
        path = tmp_path / "dmp.json"
        policy.save_policy(path, model)
        back = policy.load_policy(path)
        np.testing.assert_array_equal(back.weights, model.weights)
        np.testing.assert_array_equal(back.goal, model.goal)
        np.testing.assert_array_equal(back.y0, model.y0)
        assert back.tau == model.tau
        assert back.alpha_z == model.alpha_z
        np.testing.assert_array_equal(back.centers, model.centers)
        np.testing.assert_array_equal(back.widths, model.widths)

    def test_ridge_bit_exact(self, tmp_path):
        model = train_ridge(smooth_demo())
        path = tmp_path / "ridge.json"
        policy.save_policy(path, model)
        back = policy.load_policy(path)
        np.testing.assert_array_equal(back.W, model.W)
        np.testing.assert_array_equal(back.intercepts, model.intercepts)
        np.testing.assert_array_equal(back.rbf_params.mu, model.rbf_params.mu)
        np.testing.assert_array_equal(back.rbf_params.sigma2, model.rbf_params.sigma2)
        assert back.metadata == model.metadata
        np.testing.assert_array_equal(back.t, model.t)


def drop_last_dof(doc):
    doc["centers"], doc["widths"] = doc["centers"][:-1], doc["widths"][:-1]


def drop_a_feature_of_dof_1(doc):
    doc["centers"][0], doc["widths"][0] = doc["centers"][0][:-1], doc["widths"][0][:-1]


class TestSchemaGuards:
    def test_unsupported_schema_version(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema_version": 99, "method": "lsdp"}))
        with pytest.raises(ValueError, match="schema_version"):
            policy.load_policy(path)

    def test_unknown_method(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"schema_version": policy.SCHEMA_VERSION, "method": "svm"})
        )
        with pytest.raises(ValueError, match="method"):
            policy.load_policy(path)

    @pytest.mark.parametrize("edit, message", [
        (drop_last_dof, r"intercepts have shape \(2, 3\), expected \(1, 3\)"),
        (drop_a_feature_of_dof_1, "inconsistent feature counts across DoFs"),
    ])
    def test_hand_edited_basis_rejected(self, tmp_path, edit, message):
        prim = TrainedPrimitive(
            mode="clsdp",
            intercepts=np.zeros((2, 3)),
            rbf_params=StackedRbfParams([RbfParams(mu=[0.1, 0.2], sigma2=[0.05, 0.05])] * 2),
            W=np.ones((2, 3)),
            t=np.arange(10) * 0.01,
            metadata={"n_samples": 10},
        )
        path = tmp_path / "p.json"
        policy.save_policy(path, prim)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            policy.load_policy(path)

    def test_unserializable_object_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            policy.save_policy(tmp_path / "x.json", object())


def arrays_in(obj) -> list:
    if isinstance(obj, dict):
        return arrays_in(list(obj.values()))
    if isinstance(obj, list):
        return [a for item in obj for a in arrays_in(item)]
    return [obj] if isinstance(obj, np.ndarray) else []


def test_no_metadata_value_is_an_array():
    # A policy's metadata is written as it is: scalars and lists of records.
    demo = smooth_demo()
    demos = DemoSet(demos=[demo, JointTrajectory(t=demo.t, Q=demo.Q[::-1].copy())])
    config = TrainerConfig(max_outer_iters=2, initial_p=20)
    for prim in (train_lsdp(demo, config), train_clsdp(demos, config), train_ridge(demo)):
        assert arrays_in(prim.metadata) == []
