"""Alternating sparse-regression / feature-refinement training loop.

The loop repeats: refine basis parameters by Levenberg-Marquardt at fixed
coefficients (`feature_opt.bfgs_minimize`), re-solve the multi-task elastic
net at fixed basis, anneal the penalties, prune dead features. After
iteration k both penalties are their initial values times
max((r_k / r_0)^2, PENALTY_FLOOR_FACTOR), r_k the fit residual and r_0 that
of the opening regression, so they settle exactly when the residual does.
The two models run the same loop and differ only in the data layout
`training_data` builds: the single-demonstration variant
shares one basis across the DoFs and fits one coefficient column per DoF;
the coupled variant stacks demonstrations DoF-major so the columns are
demonstrations and the basis adapts per DoF, making the coefficient count
independent of the number of joints.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from . import elastic_net, feature_opt, rbf, trajectory
from .elastic_net import EmptyModelError
from .rbf import RbfParams
from .trajectory import DemoSet, JointTrajectory

logger = logging.getLogger(__name__)

PENALTY_FLOOR_FACTOR = 1e-12  # the anneal never takes a penalty below this share
DESCENT_SLACK = 1e-7
INITIAL_SIGMA2 = 0.1
# Looser than the solver's own default: the every-sample initialization
# makes the design nearly rank-deficient, where a 1e-8 certificate is
# out of reach of any sweep budget.
SOLVE_TOL = 1e-6
MAX_SWEEPS = 20_000
# One DEBUG record per outer iteration, filled from its trace row.
ITERATION_RECORD = (
    "fit: iteration=%(iteration)d n_features=%(n_features)d "
    "smooth_cost=%(smooth_cost_before_bfgs).6g->%(smooth_cost_after_bfgs).6g "
    "bfgs_iters=%(bfgs_iters)d bfgs_converged=%(bfgs_converged)s "
    "bfgs_line_search_failed=%(bfgs_line_search_failed)s bfgs_evals=%(bfgs_evals)d "
    "cost=%(cost_before_en).6g->%(cost_after_en).6g res_norm=%(res_norm).6g "
    "lambda1=%(lambda1).6g"
)


class TrainingError(RuntimeError):
    """A training loop failed; the message names the outer iteration."""


@dataclass
class TrainerConfig:
    """Knobs of the alternating loop; None means derive a default.

    The solver tolerance, sweep budget and initial width are the module
    constants SOLVE_TOL, MAX_SWEEPS and INITIAL_SIGMA2; pruning uses
    `elastic_net.TOL_PRUNE`, and the basis refinement stops on
    `feature_opt.COST_TOL_REL` (the square root of SOLVE_TOL) or
    `feature_opt.GRAD_TOL_REL`. `bfgs_max_iters` caps that refinement's
    Levenberg-Marquardt iterations; it keeps the name of the BFGS it replaced.
    The elastic-net descent check runs in every outer iteration; the class
    attribute `check_invariants` (not a field) records that it always does.
    """

    lambda1: float | None = None          # default lambda1_fraction * lambda_max
    lambda1_fraction: float = 1e-3        # used only when lambda1 is None
    lambda2: float | None = None          # default 1e-6 * lambda1
    epsilon: float = 1e-6                 # |f_k - f_{k-1}| convergence gate
    max_outer_iters: int = 50
    initial_p: int | None = None          # default: one center per sample
    restarts: int = 1
    seed: int = 0
    bfgs_max_iters: int | None = None
    check_invariants: ClassVar[bool] = True

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.lambda1 is not None and self.lambda1 < 0:
            raise ValueError("lambda1 must be nonnegative")
        if self.lambda1_fraction <= 0:
            raise ValueError("lambda1_fraction must be positive")
        if self.lambda2 is not None and self.lambda2 < 0:
            raise ValueError("lambda2 must be nonnegative")
        if self.initial_p is not None and self.initial_p < 1:
            raise ValueError("initial_p must be >= 1")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_outer_iters < 0:
            raise ValueError("max_outer_iters must be >= 0")
        if self.bfgs_max_iters is not None and self.bfgs_max_iters < 0:
            raise ValueError("bfgs_max_iters must be >= 0")


@dataclass
class TrainedPrimitive:
    """The exported policy: intercepts + basis parameters + coefficients."""

    mode: str                              # "lsdp", "clsdp" or "ridge"
    intercepts: np.ndarray                 # (n,), or (n, d) for clsdp
    rbf_params: RbfParams                  # 1 block, or n blocks for clsdp
    W: np.ndarray                          # p x n, or p x d for clsdp
    t: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        n_blocks, n_tasks = self.rbf_params.n_blocks, self.W.shape[1]
        if self.W.shape[0] != self.rbf_params.n_features:
            raise ValueError("coefficient rows and feature count disagree")
        if self.mode != "clsdp" and n_blocks != 1:
            raise ValueError(f"{self.mode} shares one basis block, got {n_blocks}")
        expected = (n_blocks, n_tasks) if self.mode == "clsdp" else (n_tasks,)
        if np.shape(self.intercepts) != expected:
            raise ValueError(
                f"{self.mode} intercepts have shape {np.shape(self.intercepts)}, "
                f"expected {expected} from {n_blocks} basis block(s) and "
                f"{n_tasks} coefficient column(s)"
            )

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def n_dof(self) -> int:
        return self.intercepts.shape[0]

    @property
    def n_demos(self) -> int:
        return self.W.shape[1] if self.mode == "clsdp" else 1


@dataclass(frozen=True)
class FitReport:
    nnz: int                # nonzero coefficient entries
    acc_norm: float         # Frobenius norm of the reconstructed accelerations
    res_norm: float         # Frobenius norm of the fit residual
    total_cost: float


def training_data(
    data: JointTrajectory | DemoSet,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """The layout of each model: time grid, centered targets, intercepts, blocks.

    One demonstration (lsdp) is centered per DoF column and gets one basis
    block. A demonstration set (clsdp) is stacked DoF-major, one column per
    demo and one row block per DoF, and each block of each column is
    centered. The grid is `arange(N) * dt`, measured from the first sample
    and built as a loaded policy rebuilds it from `(n_samples, dt)`, so a
    policy means the same after save/load whatever its demos' time origin.
    """
    if isinstance(data, DemoSet):
        intercepts, stacked = trajectory.center_stacked(trajectory.stack_demoset(data))
        Y, n_blocks = stacked.Y, data.n_dof
    else:
        centered = trajectory.center(data)
        Y, intercepts, n_blocks = centered.centered, centered.intercepts, 1
    return np.arange(data.n_samples) * data.dt, Y, intercepts, n_blocks


def reference(data: JointTrajectory | DemoSet) -> np.ndarray:
    """The raw demonstrations in the layout `reconstruct` returns: (N, n) for
    one demonstration, (N, n, d) for a set, with the demos on the last axis."""
    if isinstance(data, DemoSet):
        return np.stack([demo.Q for demo in data.demos], axis=2)
    return data.Q


def _initial_centers(t: np.ndarray, config: TrainerConfig) -> np.ndarray:
    if config.initial_p is None:
        return np.asarray(t, dtype=float).copy()
    return np.linspace(t[0], t[-1], config.initial_p)


def _uniform_basis(mu0: np.ndarray, n_blocks: int) -> RbfParams:
    """Centers mu0 at the initial width, the same in each of n_blocks blocks."""
    return RbfParams(mu=np.tile(mu0, (n_blocks, 1)),
                     sigma2=np.full((n_blocks, mu0.size), INITIAL_SIGMA2))


def penalty_scale(r_k: float, r_0: float) -> float:
    """The factor on both initial penalties after an iteration with residual
    r_k: max((r_k / r_0)^2, PENALTY_FLOOR_FACTOR), r_0 the opening residual."""
    return max((r_k / max(r_0, np.finfo(float).tiny)) ** 2, PENALTY_FLOOR_FACTOR)


def _fit(
    t: np.ndarray,
    Y: np.ndarray,
    mu0: np.ndarray,
    n_blocks: int,
    config: TrainerConfig,
) -> tuple[RbfParams, np.ndarray, dict]:
    """One run of the alternating loop on centered data.

    Returns the basis, the coefficients and the run's record, which is the
    policy's metadata.
    """
    params = _uniform_basis(mu0, n_blocks)
    record = {
        "final_cost": 0.0, "res_norm": 0.0, "n_outer_iters": 0,
        "lambda1": 0.0, "lambda2": 0.0, "lambda1_init": 0.0, "lambda2_init": 0.0,
        "seed": config.seed, "epsilon": config.epsilon, "restarts": config.restarts,
        "trace": [],
    }
    Phi, PhiAcc = rbf.build_basis(t, params)
    lam_max0 = elastic_net.lambda_max(
        elastic_net.to_lasso(Phi, PhiAcc, Y, 0.0)
    )
    if lam_max0 <= 1e-12 * (1.0 + float(np.linalg.norm(Y))):
        # Pure-intercept data (up to centering round-off): nothing to fit.
        return params.select(np.array([0])), np.zeros((1, Y.shape[1])), record

    lam1 = (
        config.lambda1
        if config.lambda1 is not None
        else config.lambda1_fraction * lam_max0
    )
    lam2 = config.lambda2 if config.lambda2 is not None else 1e-6 * lam1
    record.update(lambda1=lam1, lambda2=lam2, lambda1_init=lam1, lambda2_init=lam2)
    lam1_init, lam2_init = lam1, lam2

    prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
    try:
        W = elastic_net.solve(prob, lam1, tol=SOLVE_TOL, max_sweeps=MAX_SWEEPS)
    except elastic_net.ConvergenceError as err:
        raise TrainingError(f"initial regression: {err}") from err
    f_k = elastic_net.objective(prob, lam1, W)
    r_k = r_0 = float(np.linalg.norm(Y - Phi @ W))
    try:
        W, params = elastic_net.prune(W, params)
    except EmptyModelError as err:
        raise EmptyModelError(f"{err} (initial regression)") from err

    trace = record["trace"]
    for k in range(1, config.max_outer_iters + 1):
        objective = feature_opt.FeatureObjective(t, Y, W, lam2, n_blocks)
        result = feature_opt.bfgs_minimize(
            objective, objective.encode(params), max_iters=config.bfgs_max_iters,
        )
        params = objective.decode(result.theta)

        Phi, PhiAcc = rbf.build_basis(t, params)
        prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
        f_before_en = elastic_net.objective(prob, lam1, W)
        try:
            W_new = elastic_net.solve(
                prob, lam1, tol=SOLVE_TOL, max_sweeps=MAX_SWEEPS, warm_start=W,
            )
        except elastic_net.ConvergenceError as err:
            raise TrainingError(f"iteration {k}: {err}") from err
        f_after_en = elastic_net.objective(prob, lam1, W_new)
        if f_after_en > f_before_en + DESCENT_SLACK * (1.0 + abs(f_before_en)):
            raise TrainingError(
                f"iteration {k}: elastic net increased the cost "
                f"({f_before_en:.6g} -> {f_after_en:.6g})"
            )
        W = W_new

        r_k = float(np.linalg.norm(Y - Phi @ W))
        converged = abs(f_after_en - f_k) < config.epsilon
        f_k = f_after_en
        trace.append({
            "iteration": k,
            "n_features": params.n_features,
            "smooth_cost_before_bfgs": result.start_cost,
            "smooth_cost_after_bfgs": result.cost,
            "bfgs_iters": result.n_iters,
            "bfgs_converged": result.converged,
            "bfgs_line_search_failed": result.line_search_failed,
            "bfgs_evals": result.n_evals,
            "cost_before_en": f_before_en,
            "cost_after_en": f_after_en,
            "res_norm": r_k,
            "lambda1": lam1,
        })
        logger.debug(ITERATION_RECORD, trace[-1])

        record.update(lambda1=lam1, lambda2=lam2)  # the penalties W was fit with
        scale = penalty_scale(r_k, r_0)
        lam1, lam2 = lam1_init * scale, lam2_init * scale
        try:
            W, params = elastic_net.prune(W, params)
        except EmptyModelError as err:
            raise EmptyModelError(f"{err} (iteration {k})") from err
        if converged:
            break

    record.update(final_cost=f_k, res_norm=r_k, n_outer_iters=len(trace))
    return params, W, record


def _train(mode: str, data: JointTrajectory | DemoSet,
           config: TrainerConfig | None) -> TrainedPrimitive:
    """Run the loop from the initial centers, then from `config.restarts - 1`
    jittered copies of them, and keep the cheapest run."""
    expected = DemoSet if mode == "clsdp" else JointTrajectory
    if not isinstance(data, expected):
        raise TypeError(f"train_{mode} expects a {expected.__name__}, "
                        f"got a {type(data).__name__}")
    config = config or TrainerConfig()
    t, Y, intercepts, n_blocks = training_data(data)
    mu0 = _initial_centers(t, config)
    rng = np.random.default_rng(config.seed)
    dt = float(t[1] - t[0])
    runs = (
        _fit(t, Y, mu0 if r == 0 else mu0 + rng.uniform(-2 * dt, 2 * dt, size=mu0.size),
             n_blocks, config)
        for r in range(config.restarts)
    )
    params, W, record = min(runs, key=lambda run: run[2]["final_cost"])
    return TrainedPrimitive(mode=mode, intercepts=intercepts, rbf_params=params,
                            W=W, t=t, metadata=record)


def train_lsdp(demo: JointTrajectory, config: TrainerConfig | None = None) -> TrainedPrimitive:
    """Learn a shared sparse basis for one demonstration (columns = DoFs)."""
    return _train("lsdp", demo, config)


def train_clsdp(demos: DemoSet, config: TrainerConfig | None = None) -> TrainedPrimitive:
    """Learn per-DoF bases with coefficients coupled across demonstrations."""
    return _train("clsdp", demos, config)


def reconstruct(prim: TrainedPrimitive, t: np.ndarray) -> np.ndarray:
    """Basis expansion plus intercepts; (N, n) or (N, n, d) for coupled."""
    t = np.asarray(t, dtype=float)
    if t.min() < prim.t[0] - 1e-12 or t.max() > prim.t[-1] + 1e-12:
        raise ValueError("evaluation times outside the trained window")
    Y = rbf.eval_basis(t, prim.rbf_params) @ prim.W
    if prim.mode != "clsdp":
        return Y + prim.intercepts
    # DoF-major rows: block i is DoF i, reordered to (N, n, d).
    return Y.reshape(prim.n_dof, t.size, -1).transpose(1, 0, 2) + prim.intercepts


def evaluate(
    prim: TrainedPrimitive,
    t: np.ndarray,
    reference: np.ndarray,
) -> tuple[np.ndarray, FitReport]:
    """Reconstruct at `t` and report fit metrics against `reference`, the
    raw (uncentered) trajectories in the shape of the reconstruction."""
    recon = reconstruct(prim, t)
    _, PhiAcc = rbf.build_basis(t, prim.rbf_params)
    acc_norm = float(np.linalg.norm(PhiAcc @ prim.W))
    nnz = int(np.count_nonzero(prim.W))
    reference = np.asarray(reference, dtype=float)
    if reference.shape != recon.shape:
        raise ValueError(
            f"reference shape {reference.shape} does not match "
            f"reconstruction {recon.shape}"
        )
    res_norm = float(np.linalg.norm(reference - recon))
    lam1 = prim.metadata.get("lambda1", 0.0)
    lam2 = prim.metadata.get("lambda2", 0.0)
    total = (
        res_norm ** 2
        + lam1 * float(np.sum(np.linalg.norm(prim.W, axis=1)))
        + lam2 * acc_norm ** 2
    )
    return recon, FitReport(
        nnz=nnz, acc_norm=acc_norm, res_norm=res_norm, total_cost=total
    )


def select_penalties_cv(
    data: JointTrajectory | DemoSet,
    grid: list[tuple[float, float]],
    folds: int,
    config: TrainerConfig | None = None,
) -> tuple[float, float]:
    """Pick the penalty pair with the lowest mean held-out residual.

    Folds are contiguous blocks of time samples; the fit uses the initial
    (uniform) features only, matching the regression that opens training.
    """
    if folds < 2:
        raise ValueError("need at least 2 folds")
    if not grid:
        raise ValueError("empty penalty grid")
    config = config or TrainerConfig()
    t, Y, _, n_blocks = training_data(data)
    N = t.size
    bounds = np.linspace(0, N, folds + 1).astype(int)
    if np.any(np.diff(bounds) < 2):
        raise ValueError("degenerate fold: fewer than 2 samples")
    params = _uniform_basis(_initial_centers(t, config), n_blocks)
    Phi, PhiAcc = rbf.build_basis(t, params)

    def block_rows(sample_idx):
        return np.concatenate([sample_idx + N * b for b in range(n_blocks)])

    scores = []
    for lam1, lam2 in grid:
        fold_resid = []
        for f in range(folds):
            test_idx = np.arange(bounds[f], bounds[f + 1])
            train = block_rows(np.setdiff1d(np.arange(N), test_idx))
            test = block_rows(test_idx)
            prob = elastic_net.to_lasso(Phi[train], PhiAcc[train], Y[train], lam2)
            W = elastic_net.solve(prob, lam1, tol=SOLVE_TOL, max_sweeps=MAX_SWEEPS)
            fold_resid.append(np.linalg.norm(Y[test] - Phi[test] @ W))
        scores.append(float(np.mean(fold_resid)))
    best = int(np.argmin(scores))
    return grid[best]
