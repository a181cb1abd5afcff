import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sparsemp import cli, policy
from sparsemp.baselines import rollout_dmp, train_dmp, train_ridge
from sparsemp.rbf import RbfParams, StackedRbfParams
from sparsemp.trainers import (
    TrainedPrimitive,
    TrainerConfig,
    evaluate,
    reconstruct,
    reference,
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

    @pytest.mark.parametrize("metadata", [{}, {"n_samples": 7}])
    def test_grid_comes_from_the_header(self, tmp_path, metadata):
        # Neither an empty metadata nor a stale n_samples in it moves the grid.
        prim = TrainedPrimitive(
            mode="lsdp", intercepts=np.zeros(1),
            rbf_params=RbfParams(mu=np.array([0.02]), sigma2=np.array([0.01])),
            W=np.ones((1, 1)), t=np.arange(5) * 0.01, metadata=metadata,
        )
        path = tmp_path / "p.json"
        policy.save_policy(path, prim)
        back = policy.load_policy(path)
        np.testing.assert_array_equal(back.t, prim.t)
        assert back.metadata == metadata


def demo_data(mode, t0=0.0, N=120, dt=0.01):
    """smooth_demo recorded from t0: the demo itself for lsdp, for clsdp a
    set of it and its time reversal."""
    demo = smooth_demo(N=N, dt=dt)
    demo = JointTrajectory(t=t0 + demo.t, Q=demo.Q)
    if mode == "lsdp":
        return demo
    return DemoSet(demos=[demo, JointTrajectory(t=demo.t, Q=demo.Q[::-1].copy())])


def round_trip(data, tmp_path):
    """A short fit to data (clsdp for a set, else lsdp) and its reload."""
    train = train_clsdp if isinstance(data, DemoSet) else train_lsdp
    prim = train(data, TrainerConfig(initial_p=6, max_outer_iters=1, bfgs_max_iters=2))
    path = tmp_path / "p.json"
    policy.save_policy(path, prim)
    return prim, policy.load_policy(path)


def assert_same_after_reload(prim, back):
    np.testing.assert_array_equal(back.t, prim.t)
    np.testing.assert_array_equal(reconstruct(back, back.t), reconstruct(prim, prim.t))


class TestTimeOrigin:
    def test_late_demo_means_the_same_after_reload(self, tmp_path):
        # Demos recorded from t = 5 s: the policy's grid starts at 0 and is
        # built as the loaded one is rebuilt, so both reconstruct the same
        # motion bit for bit, and the fit is the one made from t = 0.
        for mode in ("lsdp", "clsdp"):
            data = demo_data(mode, t0=5.0)
            prim, back = round_trip(data, tmp_path)
            assert_same_after_reload(prim, back)
            at_zero, _ = round_trip(demo_data(mode), tmp_path)
            res = evaluate(prim, prim.t, reference(data))[1].res_norm
            assert res == pytest.approx(
                evaluate(at_zero, at_zero.t, reference(data))[1].res_norm, rel=1e-6)

    @pytest.mark.parametrize("mode", ["lsdp", "clsdp"])
    @pytest.mark.parametrize("t0", [5.0, 0.1, -37.3, 123.456])
    def test_reload_is_bit_identical_from_any_origin(self, tmp_path, mode, t0):
        assert_same_after_reload(*round_trip(demo_data(mode, t0), tmp_path))

    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(st.floats(-100.0, 100.0), st.floats(1e-3, 0.05))
    def test_round_trip_any_origin_and_step(self, tmp_path_factory, t0, dt):
        for mode in ("lsdp", "clsdp"):
            prim, back = round_trip(demo_data(mode, t0, N=40, dt=dt),
                                    tmp_path_factory.mktemp("rt"))
            assert_same_after_reload(prim, back)


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
        assert back.dt == model.dt

    def test_dmp_rolls_out_bit_identically_after_reload(self, tmp_path):
        model = train_dmp(smooth_demo())
        path = tmp_path / "dmp.json"
        policy.save_policy(path, model)
        np.testing.assert_array_equal(rollout_dmp(policy.load_policy(path)).Q,
                                      rollout_dmp(model).Q)

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


def drop_a_width_of_dof_1(doc):
    doc["widths"][0] = doc["widths"][0][:-1]


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
        (drop_a_width_of_dof_1, "policy field 'widths' has inconsistent feature counts"),
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

    @pytest.mark.parametrize("keys, value, field", [
        (("coefficients", "active_rows", 0), -1, "coefficients.active_rows"),
        (("coefficients", "active_rows", 0), 5, "coefficients.active_rows"),
        (("coefficients", "values", 0), [1.0], "coefficients.values"),
        (("n_samples",), 2.5, "n_samples"),
        (("dt",), float("nan"), "dt"),
        (("dt",), 0.0, "dt"),
    ], ids=["negative_row", "row_past_the_end", "short_value_row", "fractional_n_samples",
            "nan_dt", "zero_dt"])
    def test_corrupt_grid_or_coefficients_rejected(self, tmp_path, keys, value, field):
        prim = TrainedPrimitive(
            mode="lsdp",
            intercepts=np.zeros(3),
            rbf_params=RbfParams(mu=[0.1, 0.2], sigma2=[0.05, 0.05]),
            W=np.arange(6.0).reshape(2, 3),
            t=np.arange(10) * 0.01,
        )
        path = tmp_path / "p.json"
        policy.save_policy(path, prim)
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: policy field '{field}'")):
            policy.load_policy(path)

    @pytest.mark.parametrize("method, keys, value, field", [
        ("lsdp", ("intercepts", 0), float("nan"), "intercepts"),
        ("lsdp", ("coefficients", "values", 0, 1), float("inf"), "coefficients.values"),
        ("lsdp", ("coefficients", "values", 0, 1), [1.0, 2.0], "coefficients.values"),
        ("lsdp", ("metadata", "lambda1"), float("nan"), "metadata.lambda1"),
        ("lsdp", ("metadata", "lambda2"), -1.0, "metadata.lambda2"),
        ("dmp", ("weights", 0, 0), float("nan"), "weights"),
        ("dmp", ("weights", 1), [1.0, 2.0], "weights"),
        ("dmp", ("goal", 0), float("inf"), "goal"),
        ("dmp", ("y0",), [0.0], "y0"),
        ("dmp", ("duration",), 0.0, "duration"),
        ("dmp", ("duration",), float("nan"), "duration"),
        ("lsdp", ("centers", 0), float("nan"), "centers"),
        ("lsdp", ("centers", 1), float("inf"), "centers"),
        ("lsdp", ("centers", 0), [0.1, 0.2], "centers"),
        ("lsdp", ("centers",), [[0.1, 0.2]], "centers"),
        ("lsdp", ("widths", 0), float("nan"), "widths"),
        ("lsdp", ("widths", 1), 1e-7, "widths"),
        ("lsdp", ("widths", 1), -0.5, "widths"),
        ("lsdp", ("widths",), [0.05], "widths"),
        ("clsdp", ("centers", 1, 0), float("-inf"), "centers"),
        ("clsdp", ("centers",), [0.1, 0.2], "centers"),
        ("clsdp", ("widths", 0, 1), 0.0, "widths"),
    ], ids=["nan_intercept", "inf_value", "ragged_value_row", "nan_lambda1",
            "negative_lambda2", "nan_dmp_weight", "ragged_dmp_weights", "inf_dmp_goal",
            "short_dmp_y0", "zero_dmp_duration", "nan_dmp_duration", "nan_center",
            "inf_center", "nested_lsdp_center", "per_dof_lsdp_centers", "nan_width",
            "width_below_the_floor", "negative_width", "short_widths", "inf_clsdp_center",
            "flat_clsdp_centers", "zero_clsdp_width"])
    def test_non_finite_or_misshapen_value_rejected(self, tmp_path, method, keys, value,
                                                    field):
        model = train_dmp(smooth_demo()) if method == "dmp" else TrainedPrimitive(
            mode=method,
            intercepts=np.zeros((2, 3)) if method == "clsdp" else np.zeros(3),
            rbf_params=StackedRbfParams([RbfParams(mu=[0.1, 0.2], sigma2=[0.05, 0.05])]
                                        * (2 if method == "clsdp" else 1)),
            W=np.arange(6.0).reshape(2, 3),
            t=np.arange(10) * 0.01,
            metadata={"lambda1": 0.1, "lambda2": 1e-4},
        )
        path = tmp_path / "p.json"
        policy.save_policy(path, model)
        doc = json.loads(path.read_text())
        target = doc
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: policy field '{field}' must be")):
            policy.load_policy(path)

    @pytest.mark.parametrize("edit, field", [
        (lambda doc: [doc], "(top level)"),
        (lambda doc: {**doc, "metadata": "x"}, "metadata"),
        (lambda doc: {**doc, "metadata": [1.0]}, "metadata"),
        (lambda doc: {**doc, "coefficients": []}, "coefficients"),
    ], ids=["list_document", "string_metadata", "list_metadata", "list_coefficients"])
    def test_non_object_rejected(self, tmp_path, edit, field):
        path = tmp_path / "p.json"
        policy.save_policy(path, random_primitive(np.random.default_rng(0)))
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: policy field '{field}' must be a JSON object")):
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


@pytest.fixture(scope="module")
def saved_policies(tmp_path_factory):
    """(document, demos) of an lsdp, a clsdp, a ridge and a DMP policy file, as
    `save_policy` writes them, and a directory for edited copies."""
    demo = smooth_demo(N=60)
    demos = DemoSet(demos=[demo, JointTrajectory(t=demo.t, Q=demo.Q[::-1].copy())])
    one = DemoSet(demos=[demo])
    config = TrainerConfig(max_outer_iters=2, initial_p=10)
    out = tmp_path_factory.mktemp("policies")
    saved = []
    for model, data in ((train_lsdp(demo, config), one), (train_clsdp(demos, config), demos),
                        (train_ridge(demo), one), (train_dmp(demo), one)):
        policy.save_policy(out / "p.json", model)
        saved.append((json.loads((out / "p.json").read_text()), data))
    return saved, out


def numeric_nodes(node, at=()) -> list:
    """(path, is_list) of every number and every list of numbers in a document."""
    if isinstance(node, dict):
        return [x for key, value in node.items() for x in numeric_nodes(value, at + (key,))]
    if isinstance(node, list):
        inner = [x for i, value in enumerate(node) for x in numeric_nodes(value, at + (i,))]
        flat = node and all(type(value) in (int, float) for value in node)
        return inner + ([(at, True)] if flat else [])
    return [(at, False)] if type(node) in (int, float) else []


def canonical(doc) -> str:
    # Compared as text: a NaN leaf is "NaN" on both sides, though NaN != NaN.
    return json.dumps(doc, sort_keys=True)


class TestEditedFiles:
    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_a_file_loads_as_itself_or_names_the_file(self, saved_policies, data):
        # One number or list of numbers of a saved file is replaced. Either the
        # load fails with a ValueError that starts with the file's path and
        # names a field the edit touched, or the policy saves back to the
        # edited document and evaluates to finite numbers.
        saved, out = saved_policies
        doc, demos = data.draw(st.sampled_from(saved))
        doc = json.loads(json.dumps(doc))
        at, is_list = data.draw(st.sampled_from(numeric_nodes(doc)))
        target = doc
        for key in at[:-1]:
            target = target[key]
        if is_list:
            size = len(target[at[-1]])
            value = [0.5] * data.draw(st.integers(0, size + 2).filter(lambda k: k != size))
        else:
            value = data.draw(st.one_of(
                st.sampled_from([float("nan"), float("inf"), -float("inf")]),
                st.floats(-5.0, -0.1), st.floats(0.1, 0.9)))
        target[at[-1]] = value
        path = out / "edited.json"
        path.write_text(json.dumps(doc))
        try:
            model = policy.load_policy(path)
        except ValueError as err:
            touched = {".".join(key for key in at[:i] if isinstance(key, str))
                       for i in range(1, len(at) + 1)}
            assert str(err).startswith(f"{path}: ")
            assert any(f"'{name}'" in str(err) for name in touched), (str(err), at)
            return
        policy.save_policy(out / "back.json", model)
        assert canonical(json.loads((out / "back.json").read_text())) == canonical(doc)
        method, *numbers = cli._policy_metrics(model, demos)
        assert np.all(np.isfinite(numbers))
