"""End-to-end acceptance checks on the pinned synthetic fixture.

The fixture plants K = 12 RBF features (seed 42) in a 5-demonstration,
7-DoF, 500-sample demo set and drives every check from it: solver
optimality against a brute-force oracle, gradient fidelity, alternating
descent, sparse recovery, coupling economy, feature ranking, baseline
orderings, pipeline determinism, and serialization. Each test prints one
PASS/FAIL line with its headline numbers.
"""

import time

import numpy as np
import pytest

from sparsemp import baselines, elastic_net, policy, rbf, reg_path
from sparsemp.cli import main as cli_main
from sparsemp.elastic_net import AugmentedProblem, to_lasso
from sparsemp.feature_opt import FeatureObjective
from sparsemp.rbf import RbfParams, StackedRbfParams
from sparsemp.trainers import (
    TrainedPrimitive,
    TrainerConfig,
    evaluate,
    train_clsdp,
    train_lsdp,
)
from sparsemp.trajectory import center, synth_demoset

from brute_force import brute_force_objective

SEED = 42
N_SAMPLES = 500
N_DOF = 7
N_DEMOS = 5
K = 12
DT = 0.01
NOISE = 0.01

# Sparse-recovery runs anneal the penalties far enough down to de-bias the
# surviving coefficient rows; comparison runs use a heavier acceleration
# penalty so the fits stay smooth on noisy data.
RECOVERY_CONFIG = dict(lambda1_fraction=1e-4, max_outer_iters=100,
                       bfgs_max_iters=200)
LSDP_SMOOTH_CONFIG = dict(lambda2=1e-4, max_outer_iters=20, bfgs_max_iters=30)
CLSDP_SMOOTH_CONFIG = dict(lambda2=3e-2, max_outer_iters=40,
                           bfgs_max_iters=100)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


def _margin(value: float, bound: float, unit: str = "") -> str:
    """`value` against its upper `bound`, with the headroom as a share of the bound."""
    return f"{value:.3g}{unit} <= {bound:.3g}{unit} (margin {1.0 - value / bound:.1%})"


def fixture_geometry():
    rng = np.random.default_rng(SEED)
    centers = np.linspace(0.5, 4.5, K) + rng.uniform(-0.1, 0.1, K)
    widths = np.full(K, 0.25)
    return centers, widths


@pytest.fixture(scope="module")
def fixture_sets():
    centers, widths = fixture_geometry()
    kwargs = dict(n_demos=N_DEMOS, n_dof=N_DOF, n_samples=N_SAMPLES, dt=DT,
                  k_features=K, seed=SEED, centers=centers, widths=widths)
    clean, truth = synth_demoset(noise=0.0, **kwargs)
    noisy, _ = synth_demoset(noise=NOISE, **kwargs)
    return clean, noisy, truth, centers, widths


@pytest.fixture(scope="module")
def lsdp_noisy_models(fixture_sets):
    """Per-demo models with the smoothing config, with training times."""
    _, noisy, *_ = fixture_sets
    config = TrainerConfig(**LSDP_SMOOTH_CONFIG)
    models, times = [], []
    for demo in noisy.demos:
        start = time.perf_counter()
        models.append(train_lsdp(demo, config))
        times.append(time.perf_counter() - start)
    return models, times


@pytest.fixture(scope="module")
def clsdp_noisy_model(fixture_sets):
    _, noisy, *_ = fixture_sets
    start = time.perf_counter()
    model = train_clsdp(noisy, TrainerConfig(**CLSDP_SMOOTH_CONFIG))
    return model, time.perf_counter() - start


@pytest.fixture(scope="module")
def recovery_models(fixture_sets):
    clean, noisy, *_ = fixture_sets
    config = TrainerConfig(**RECOVERY_CONFIG)
    return train_lsdp(clean.demos[0], config), train_lsdp(noisy.demos[0], config)


def random_instance(rng):
    n = int(rng.integers(4, 21))
    p = int(rng.integers(1, 5))
    m = int(rng.integers(1, 4))
    phi = rng.standard_normal((n, p))
    acc = rng.standard_normal((n, p))
    y = rng.standard_normal((n, m))
    lambda2 = float(rng.uniform(0, 0.5))
    return to_lasso(phi, acc, y, lambda2)


def test_criterion_01_elastic_net_matches_oracle():
    rng = np.random.default_rng(11)
    tol = 1e-8
    start = time.perf_counter()
    worst_gap, worst_kkt = 0.0, 0.0
    for _ in range(50):
        prob = random_instance(rng)
        lam1 = float(rng.uniform(0.05, 0.7)) * elastic_net.lambda_max(prob)
        W = elastic_net.solve(prob, lam1, tol=tol)
        f = elastic_net.objective(prob, lam1, W)
        f_star = brute_force_objective(prob, lam1)
        worst_gap = max(worst_gap, f - f_star)
        worst_kkt = max(worst_kkt, elastic_net.kkt_violation(prob, lam1, W))
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and worst_kkt <= 10 * tol and elapsed < 10.0
    _report(1, "elastic net vs brute force", ok,
            f"max objective gap {_margin(worst_gap, 1e-6)}, "
            f"max KKT {_margin(worst_kkt, 10 * tol)}, {_margin(elapsed, 10.0, ' s')}")


def test_criterion_02_lambda_max_closure():
    rng = np.random.default_rng(23)
    start = time.perf_counter()
    all_zero = True
    for _ in range(20):
        prob = random_instance(rng)
        lam_max = elastic_net.lambda_max(prob)
        W = elastic_net.solve(prob, 1.001 * lam_max, tol=1e-10)
        all_zero = all_zero and bool(np.all(W == 0.0))
    elapsed = time.perf_counter() - start
    ok = all_zero and elapsed < 5.0
    _report(2, "lambda_max closure", ok,
            f"all solutions exactly zero: {all_zero}, {elapsed:.1f}s")


def test_criterion_03_gradient_fidelity():
    rng = np.random.default_rng(37)
    start = time.perf_counter()
    worst = 0.0
    for case in range(20):
        nb = 1 if case % 2 == 0 else int(rng.integers(2, 4))
        n = int(rng.integers(15, 40))
        p = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        t = np.sort(rng.uniform(0, 1, n))
        Y = rng.standard_normal((nb * n, m))
        W = rng.standard_normal((p, m))
        lam2 = float(rng.uniform(0, 0.1))
        obj = FeatureObjective(t, Y, W, lam2, nb)
        theta = np.concatenate([
            rng.uniform(0.1, 0.9, nb * p),           # centers
            np.log(rng.uniform(1e-2, 0.3, nb * p)),  # log squared widths
        ])
        _, g = obj.cost_grad(theta)
        h = 1e-6
        g_fd = np.empty_like(g)
        for i in range(theta.size):
            plus, minus = theta.copy(), theta.copy()
            plus[i] += h
            minus[i] -= h
            g_fd[i] = (obj.cost_grad(plus)[0] - obj.cost_grad(minus)[0]) / (2 * h)
        rel = np.linalg.norm(g_fd - g) / max(1.0, np.linalg.norm(g))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-5 and elapsed < 30.0
    _report(3, "analytic vs finite-difference gradient", ok,
            f"max relative error {_margin(worst, 1e-5)}, {_margin(elapsed, 30.0, ' s')}")


def _trace_monotone(model: TrainedPrimitive) -> tuple[bool, bool]:
    trace = model.metadata["trace"]
    slack = 1e-7
    descent = all(
        row["smooth_cost_after_bfgs"]
        <= row["smooth_cost_before_bfgs"] + slack * (1 + abs(row["smooth_cost_before_bfgs"]))
        and row["cost_after_en"]
        <= row["cost_before_en"] + slack * (1 + abs(row["cost_before_en"]))
        for row in trace
    )
    counts = [row["n_features"] for row in trace]
    return descent, all(a >= b for a, b in zip(counts, counts[1:]))


def test_criterion_04_alternating_descent(lsdp_noisy_models, clsdp_noisy_model):
    models, times = lsdp_noisy_models
    clsdp, clsdp_time = clsdp_noisy_model
    lsdp_descent, lsdp_mono = _trace_monotone(models[0])
    cl_descent, cl_mono = _trace_monotone(clsdp)
    elapsed = times[0] + clsdp_time
    ok = (lsdp_descent and lsdp_mono and cl_descent and cl_mono
          and elapsed < 300.0)
    _report(4, "alternating descent", ok,
            f"descent lsdp/clsdp {lsdp_descent}/{cl_descent}, "
            f"counts monotone {lsdp_mono}/{cl_mono}, training {elapsed:.0f}s")


def test_coupled_fit_refines_the_basis_down_to_the_noise(clsdp_noisy_model):
    # A refinement that finds no descent step leaves the basis where it
    # is, and the coupled fit then stalls far above the noise.
    clsdp, _ = clsdp_noisy_model
    trace = clsdp.metadata["trace"]
    stalled = [row["iteration"] for row in trace if row["bfgs_line_search_failed"]]
    assert stalled == []
    noise_norm = NOISE * np.sqrt(N_SAMPLES * N_DOF * N_DEMOS)
    assert clsdp.metadata["res_norm"] <= 1.1 * noise_norm


def test_criterion_05_sparse_recovery(fixture_sets, recovery_models):
    clean, noisy, *_ = fixture_sets
    model_clean, model_noisy = recovery_models
    results = []
    for model, demoset in ((model_clean, clean), (model_noisy, noisy)):
        demo = demoset.demos[0]
        recon, _ = evaluate(model, demo.t, reference=demo.Q)
        rms = float(np.sqrt(np.mean((recon - demo.Q) ** 2)))
        results.append((rms, model.W.shape[0]))
    (rms_clean, p_clean), (rms_noisy, p_noisy) = results
    ok = (rms_clean <= 1e-3 and p_clean <= 2 * K
          and rms_noisy <= 0.015 and p_noisy <= 2 * K)
    _report(5, "sparse recovery", ok,
            f"noise-free rms {_margin(rms_clean, 1e-3, ' rad')} with "
            f"{_margin(p_clean, 2 * K)} features, noisy rms "
            f"{_margin(rms_noisy, 0.015, ' rad')} with {_margin(p_noisy, 2 * K)} features")


def test_criterion_06_coupling_economy(lsdp_noisy_models, clsdp_noisy_model):
    models, _ = lsdp_noisy_models
    clsdp, _ = clsdp_noisy_model
    lsdp_total = sum(m.W.shape[0] * m.W.shape[1] for m in models)
    coupled_total = clsdp.W.shape[0] * clsdp.W.shape[1]
    ok = coupled_total < lsdp_total
    _report(6, "coupling economy", ok,
            f"coupled stores {coupled_total} coefficients vs "
            f"{lsdp_total} summed over {N_DEMOS} uncoupled runs "
            f"(reference anchor: 37 vs 16.8x7)")


def test_criterion_07_ranking_sanity(fixture_sets):
    clean, _, truth, centers, widths = fixture_sets
    demo = clean.demos[0]
    diff = demo.t[:, None] - centers[None, :]
    phi = np.exp(-diff ** 2 / (2 * widths))
    Y = center(demo).centered
    prob = AugmentedProblem(phi_a=phi, y_a=Y, n_data_rows=demo.t.size)
    path = reg_path.compute_path(prob, n_lambdas=100, ratio=1e-3)
    ranking = reg_path.rank_features(path)
    top_k = set(ranking.order[:K])
    all_planted = top_k == set(range(K))
    lams = ranking.entry_lambdas
    non_increasing = bool(np.all(lams[:-1] >= lams[1:]))
    ok = all_planted and non_increasing
    _report(7, "ranking sanity", ok,
            f"top {K} ranks = planted features: {all_planted}, "
            f"entry penalties non-increasing: {non_increasing}")


def test_criterion_08_baseline_orderings(fixture_sets, lsdp_noisy_models,
                                         clsdp_noisy_model):
    _, noisy, *_ = fixture_sets
    demo = noisy.demos[0]
    models, _ = lsdp_noisy_models
    clsdp, _ = clsdp_noisy_model

    _, lsdp_report = evaluate(models[0], demo.t, reference=demo.Q)
    acc_lsdp = lsdp_report.acc_norm
    # The coupled model's demo-0 column, so that every leg is a fit of demo 0.
    _, phi_acc = rbf.build_basis(demo.t, clsdp.rbf_params)
    acc_clsdp = float(np.linalg.norm(phi_acc @ clsdp.W[:, 0]))

    dmp = baselines.train_dmp(demo)
    rollout = baselines.rollout_dmp(dmp)
    acc_dmp = float(np.linalg.norm(np.gradient(
        np.gradient(rollout.Q, rollout.dt, axis=0), rollout.dt, axis=0)))
    settled = baselines.rollout_dmp(dmp, duration=3 * dmp.tau)
    goal_err = float(np.max(np.abs(settled.Q[-1] - dmp.goal)))

    ridge = baselines.train_ridge(demo, lambda2=1e-4)
    acc_ridge = evaluate(ridge, ridge.t, reference=demo.Q)[1].acc_norm

    params_ok = dmp.params_per_dof() == 11 and ridge.rbf_params.n_features + 1 == 11
    ordering = (acc_dmp > acc_ridge
                and acc_ridge > acc_lsdp and acc_ridge > acc_clsdp)
    ok = ordering and params_ok and goal_err <= 1e-2
    _report(8, "baseline orderings", ok,
            f"acc dmp {acc_dmp:.1f} > ridge {acc_ridge:.1f} (margin "
            f"{1.0 - acc_ridge / acc_dmp:.1%}) > lsdp {acc_lsdp:.1f} / clsdp "
            f"{acc_clsdp:.1f} (margin {1.0 - max(acc_lsdp, acc_clsdp) / acc_ridge:.1%}), "
            f"11 params per DoF: {params_ok}, goal error {goal_err:.1e} rad")


def _run_pipeline(root):
    root.mkdir()
    cuts = root / "cuts"
    steps = [
        ["synth", "--out", str(root), "--seed", "7", "--demos", "2",
         "--dof", "2", "--samples", "120", "--rate", "100",
         "--features", "3", "--noise", "0.005"],
        ["segment", str(root / "stream.csv"), "--out-dir", str(cuts),
         "--count", "2", "--window", "1.2", "--rate", "100"],
        ["train", "clsdp", str(cuts / "demo_1.csv"), str(cuts / "demo_2.csv"),
         "--out", str(root / "policy.json"), "--max-iters", "8",
         "--bfgs-iters", "30", "--seed", "0"],
        ["rank", str(root / "policy.json"), str(cuts / "demo_1.csv"),
         str(cuts / "demo_2.csv"), "--grid", "40",
         "--out", str(root / "path.csv")],
        ["eval", str(root / "policy.json"), "--demos",
         str(cuts / "demo_1.csv"), str(cuts / "demo_2.csv"),
         "--out", str(root / "report.csv")],
    ]
    for argv in steps:
        assert cli_main(argv) == 0, f"pipeline step failed: {argv[0]}"
    return {name: (root / name).read_bytes()
            for name in ("policy.json", "path.csv", "report.csv")}


def test_criterion_09_pipeline_determinism(tmp_path, capsys):
    start = time.perf_counter()
    first = _run_pipeline(tmp_path / "run1")
    second = _run_pipeline(tmp_path / "run2")
    elapsed = time.perf_counter() - start
    capsys.readouterr()  # drop the CLI chatter; keep only the verdict
    identical = first == second
    ok = identical and elapsed < 600.0
    _report(9, "pipeline determinism", ok,
            f"byte-identical policy/path/report: {identical}, {elapsed:.0f}s")


def _random_primitive(rng):
    mode = "lsdp" if rng.random() < 0.5 else "clsdp"
    p = int(rng.integers(1, 8))
    n = int(rng.integers(1, 5))
    d = int(rng.integers(1, 4))
    n_samples = int(rng.integers(10, 40))
    dt = float(rng.uniform(0.001, 0.02))
    t = np.arange(n_samples) * dt
    if mode == "clsdp":
        params = StackedRbfParams(per_dof=[
            RbfParams(mu=rng.uniform(0, t[-1], p),
                      sigma2=rng.uniform(1e-4, 0.2, p))
            for _ in range(n)
        ])
        W = rng.standard_normal((p, d))
        intercepts = rng.standard_normal((n, d))
    else:
        params = RbfParams(mu=rng.uniform(0, t[-1], p),
                           sigma2=rng.uniform(1e-4, 0.2, p))
        W = rng.standard_normal((p, n))
        intercepts = rng.standard_normal(n)
    W[rng.random(p) < 0.3] = 0.0
    return TrainedPrimitive(
        mode=mode, intercepts=intercepts, rbf_params=params, W=W, t=t,
        metadata={
            "n_samples": n_samples,
            "n_dof": n,
            "n_demos": d if mode == "clsdp" else 1,
            "dt": dt,
            "duration": float(t[-1]),
            "res_norm": float(rng.uniform(0, 1)),
            "lambda1": float(rng.uniform(0, 1)),
            "lambda2": float(rng.uniform(0, 1)),
        },
    )


def test_criterion_10_serialization_round_trip(tmp_path):
    rng = np.random.default_rng(101)
    ok = True
    for case in range(100):
        prim = _random_primitive(rng)
        path = tmp_path / f"prim_{case}.json"
        policy.save_policy(path, prim)
        back = policy.load_policy(path)
        same = (back.mode == prim.mode
                and np.array_equal(back.W, prim.W)
                and np.array_equal(back.intercepts, prim.intercepts)
                and np.array_equal(back.t, prim.t)
                and np.array_equal(back.rbf_params.mu, prim.rbf_params.mu)
                and np.array_equal(back.rbf_params.sigma2, prim.rbf_params.sigma2))
        ok = ok and same
    _report(10, "serialization round trip", ok,
            f"100 random primitives bit-exact: {ok}")
