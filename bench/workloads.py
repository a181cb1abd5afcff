"""The benchmark's workloads: inputs, the timed op, its checks, its quality.

Every input is drawn from the acceptance-fixture geometry -- 12 planted
centers jittered around an even 0.5..4.5 s spread, 0.25 s^2 widths, noise
0.01, 7 DoF, a 5 s window -- with a seed derived from the workload seed in
place of the fixture's 42. Instance 0 of a round uses the workload seed
itself. A round holds several independent instances, so that the figures of
one seed average over several fixture draws rather than hang on one: the
training cost of a single draw varies by about a fifth from draw to draw.
The sizes are smaller than the acceptance fixture's so that a round fits in
about 30 s on a 2-CPU machine.

Why these workloads:

* ``lsdp_dense`` -- one center per sample makes near-duplicate columns, the
  design the paper's default produces. Elastic Net solves crawl there and
  nearly all end on the loose sqrt(tol) exit; solver and screening work
  shows here, BFGS work (theta has at most 2p entries) barely does.
* ``clsdp_sparse`` -- a coupled fit from 24 uniform centers per DoF. The
  dense BFGS over 2 * 7 * p basis parameters dominates; the Elastic Net sees
  a tall, well-conditioned design and meets its strict certificate.
* ``rank_path`` -- the warm-started regularization path and ranking on a
  fixed uniform basis; all Elastic Net, no trainer and no BFGS. The input is
  built without training, so every commit receives the same problem, and a
  trainer-only change should leave this workload unchanged.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from sparsemp import elastic_net, policy, rbf, reg_path, trainers, trajectory

WINDOW_S = 5.0
N_DOF = 7
K_FEATURES = 12
PLANTED_WIDTH = 0.25
NOISE = 0.01
# A fit leaving this share of the data's RMS unexplained is broken.
RES_RMS_CEILING = 0.25


def fixture(seed: int, n_demos: int, n_samples: int) -> trajectory.DemoSet:
    """Noisy demos on the acceptance-fixture geometry, resampled to n_samples."""
    rng = np.random.default_rng(seed)
    centers = np.linspace(0.5, 4.5, K_FEATURES) + rng.uniform(-0.1, 0.1, K_FEATURES)
    demos, _ = trajectory.synth_demoset(
        n_demos=n_demos, n_dof=N_DOF, n_samples=n_samples,
        dt=WINDOW_S / n_samples, k_features=K_FEATURES, noise=NOISE, seed=seed,
        centers=centers, widths=np.full(K_FEATURES, PLANTED_WIDTH),
    )
    return demos


def instance_seeds(seed: int, count: int) -> list[int]:
    """Independent fixture seeds for the instances of one round."""
    states = np.random.SeedSequence(seed).generate_state(count)
    return [seed] + [int(s) for s in states[1:]]


@dataclass
class Workload:
    name: str
    build: Callable[[int], list]                 # seed -> instances
    op: Callable[[Any, str], Any]                # (instance, scratch dir) -> output
    check: Callable[[Any, Any], list[str]]       # -> failed checks, empty if fine
    quality: Callable[[list, list], dict]        # (instances, outputs) -> metrics


# ------------------------------------------------------------------ trainers

@dataclass
class TrainerInstance:
    data: Any                  # JointTrajectory (lsdp) or DemoSet (clsdp)
    t: np.ndarray
    reference: np.ndarray      # raw demonstrations, shaped like the reconstruction
    energy: float              # ||Y - intercepts||_F^2, the cost of the empty model


@dataclass
class TrainerOutput:
    prim: Any
    recon: np.ndarray
    loaded: Any


def _trainer_workload(name: str, train: str, build, config: dict) -> Workload:
    def op(inst: TrainerInstance, scratch: str) -> TrainerOutput:
        cfg = trainers.TrainerConfig(**config)
        prim = getattr(trainers, train)(inst.data, cfg)
        recon, _ = trainers.evaluate(prim, inst.t, inst.reference)
        path = os.path.join(scratch, "policy.json")
        policy.save_policy(path, prim)
        return TrainerOutput(prim, recon, policy.load_policy(path))

    def check(inst: TrainerInstance, out: TrainerOutput) -> list[str]:
        failed = []
        counts = [row["n_features"] for row in out.prim.metadata["trace"]]
        if any(b > a for a, b in zip(counts, counts[1:])):
            failed.append(f"feature count grew along the trace: {counts}")
        if not np.array_equal(trainers.reconstruct(out.loaded, inst.t), out.recon):
            failed.append("loaded policy does not reconstruct bit-identically")
        rms = math.sqrt(float(np.mean((inst.reference - out.recon) ** 2)))
        ceiling = RES_RMS_CEILING * math.sqrt(inst.energy / inst.reference.size)
        if not rms < ceiling:
            failed.append(f"res_rms {rms:.3g} above the ceiling {ceiling:.3g}")
        return failed

    def quality(instances: list, outputs: list) -> dict:
        sq = sum(float(np.sum((i.reference - o.recon) ** 2)) for i, o in zip(instances, outputs))
        size = sum(i.reference.size for i in instances)
        # final_cost over the empty model's cost: a ratio with a long upper
        # tail across fixture draws, so the round reports its geometric mean.
        return {
            "objective": statistics.geometric_mean(
                o.prim.metadata["final_cost"] / i.energy for i, o in zip(instances, outputs)),
            "res_rms": math.sqrt(sq / size),
            "n_coef": float(np.mean([o.prim.W.size for o in outputs])),
        }

    if not trainers.TrainerConfig(**config).check_invariants:
        raise ValueError("the trainer's descent invariants must stay on in every op")
    return Workload(name, build, op, check, quality)


LSDP_SAMPLES = 50           # one center per sample: p0 = 50
LSDP_INSTANCES = 9
LSDP_CONFIG = dict(lambda2=1e-4, max_outer_iters=4, bfgs_max_iters=30)


def build_lsdp(seed: int) -> list[TrainerInstance]:
    out = []
    for s in instance_seeds(seed, LSDP_INSTANCES):
        demo = fixture(s, 1, LSDP_SAMPLES).demos[0]
        centered = trajectory.center(demo).centered
        out.append(TrainerInstance(demo, demo.t, demo.Q, float(np.sum(centered ** 2))))
    return out


CLSDP_SAMPLES = 100
CLSDP_DEMOS = 5
CLSDP_INSTANCES = 7
CLSDP_CONFIG = dict(initial_p=24, lambda2=3e-2, max_outer_iters=10, bfgs_max_iters=40)


def build_clsdp(seed: int) -> list[TrainerInstance]:
    out = []
    for s in instance_seeds(seed, CLSDP_INSTANCES):
        demos = fixture(s, CLSDP_DEMOS, CLSDP_SAMPLES)
        _, centered = trajectory.center_stacked(trajectory.stack_demoset(demos))
        reference = np.stack([d.Q for d in demos.demos], axis=2)
        out.append(TrainerInstance(demos, demos.demos[0].t, reference,
                                   float(np.sum(centered.Y ** 2))))
    return out


# ------------------------------------------------------------------ rank_path

RANK_SAMPLES = 100
RANK_DEMOS = 5
RANK_INSTANCES = 7
RANK_CENTERS = 25           # per DoF, evenly spread over the window
RANK_SIGMA2 = 0.02
RANK_LAMBDA2 = 3e-2
RANK_GRID = 50
RANK_RATIO = 1e-3
RANK_TOL = 1e-8


def build_rank(seed: int) -> list:
    out = []
    for s in instance_seeds(seed, RANK_INSTANCES):
        demos = fixture(s, RANK_DEMOS, RANK_SAMPLES)
        _, centered = trajectory.center_stacked(trajectory.stack_demoset(demos))
        t = demos.demos[0].t
        basis = rbf.RbfParams(mu=np.linspace(t[0], t[-1], RANK_CENTERS),
                              sigma2=np.full(RANK_CENTERS, RANK_SIGMA2))
        params = rbf.StackedRbfParams(per_dof=[basis] * N_DOF)
        phi, phi_acc = rbf.build_basis(t, params)
        out.append(elastic_net.to_lasso(phi, phi_acc, centered.Y, RANK_LAMBDA2))
    return out


def rank_op(prob, scratch: str):
    path = reg_path.compute_path(prob, n_lambdas=RANK_GRID, ratio=RANK_RATIO, tol=RANK_TOL)
    return path, reg_path.rank_features(path)


def rank_check(prob, out) -> list[str]:
    path, ranking = out
    failed = []
    if not np.all(np.diff(path.lambdas) < 0):
        failed.append("lambda grid does not strictly descend")
    if np.any(np.diff(ranking.entry_lambdas) > 0):
        failed.append("entry penalties increase along the ranking")
    bound = math.sqrt(RANK_TOL)
    for lam, W in zip(path.lambdas, path.coefs):
        primal = elastic_net.objective(prob, lam, W)
        if elastic_net.dual_gap(prob, lam, W) > bound * (1.0 + abs(primal)):
            failed.append(f"gap above the sqrt(tol) bound at lambda={lam:.6g}")
    return failed


def rank_quality(instances: list, outputs: list) -> dict:
    """Path objective over the empty model's, per grid point; data residual
    and stored coefficients (active rows x tasks) at the smallest lambda."""
    rel, sq, size, coef = [], 0.0, 0, []
    for prob, (path, _) in zip(instances, outputs):
        energy = float(np.sum(prob.y_a ** 2))
        total = sum(elastic_net.objective(prob, lam, W) for lam, W in zip(path.lambdas, path.coefs))
        rel.append(total / (path.lambdas.size * energy))
        rows = prob.n_data_rows
        W = path.coefs[-1]
        sq += float(np.sum((prob.y_a[:rows] - prob.phi_a[:rows] @ W) ** 2))
        size += rows * prob.n_tasks
        coef.append(elastic_net.active_set(W).size * prob.n_tasks)
    return {"objective": statistics.geometric_mean(rel), "res_rms": math.sqrt(sq / size),
            "n_coef": float(np.mean(coef))}


WORKLOADS = {
    w.name: w for w in (
        _trainer_workload("lsdp_dense", "train_lsdp", build_lsdp, LSDP_CONFIG),
        _trainer_workload("clsdp_sparse", "train_clsdp", build_clsdp, CLSDP_CONFIG),
        Workload("rank_path", build_rank, rank_op, rank_check, rank_quality),
    )
}
