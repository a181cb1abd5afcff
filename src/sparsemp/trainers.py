"""Alternating sparse-regression / feature-refinement training loops.

Both trainers repeat: refine basis parameters by BFGS at fixed
coefficients, re-solve the multi-task elastic net at fixed basis, rescale
the penalties with the squared residual ratio, prune dead features.
The single-demonstration variant shares one basis across the DoFs and fits
one coefficient column per DoF; the coupled variant stacks demonstrations
so the columns are demonstrations and the basis adapts per DoF, making the
coefficient count independent of the number of joints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import elastic_net, feature_opt, rbf, trajectory
from .elastic_net import AugmentedProblem, EmptyModelError
from .rbf import RbfParams, StackedRbfParams
from .trajectory import DemoSet, JointTrajectory

PENALTY_FLOOR_FACTOR = 1e-12
DESCENT_SLACK = 1e-7


class TrainingError(RuntimeError):
    """A training loop failed; the message names the outer iteration."""


@dataclass
class TrainerConfig:
    """Knobs for the alternating loops; None means derive a default."""

    lambda1: float | None = None          # default lambda1_fraction * lambda_max
    lambda1_fraction: float = 1e-3        # used only when lambda1 is None
    lambda2: float | None = None          # default 1e-6 * lambda1
    epsilon: float = 1e-6                 # |f_k - f_{k-1}| convergence gate
    max_outer_iters: int = 50
    initial_p: int | None = None          # default: one center per sample
    initial_sigma2: float = 0.1
    restarts: int = 1
    seed: int = 0
    # Looser than the solver's own default: the every-sample initialization
    # makes the design nearly rank-deficient, where a 1e-8 certificate is
    # out of reach of any sweep budget.
    tol: float = 1e-6
    max_sweeps: int = 20_000
    tol_prune: float = 1e-10
    grad_tol: float | None = None
    bfgs_max_iters: int | None = None
    check_invariants: bool = True

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


@dataclass
class TrainedPrimitive:
    """The exported policy: intercepts + basis parameters + coefficients."""

    mode: str                              # "lsdp" or "clsdp"
    intercepts: np.ndarray                 # (n,) or (n, d)
    rbf_params: RbfParams | StackedRbfParams
    W: np.ndarray                          # p x n (lsdp) or p x d (clsdp)
    t: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.W.shape[0] != self.rbf_params.n_features:
            raise ValueError("coefficient rows and feature count disagree")

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])

    @property
    def n_dof(self) -> int:
        if self.mode == "clsdp":
            return self.rbf_params.n_dof
        return self.W.shape[1]

    @property
    def n_demos(self) -> int:
        return self.W.shape[1] if self.mode == "clsdp" else 1


@dataclass(frozen=True)
class FitReport:
    nnz: int                # nonzero coefficient entries
    acc_norm: float         # Frobenius norm of the reconstructed accelerations
    res_norm: float         # Frobenius norm of the fit residual
    total_cost: float


def scale_penalties(
    lambda1: float,
    lambda2: float,
    r_k: float,
    r_prev: float,
    lambda1_floor: float = 0.0,
    lambda2_floor: float = 0.0,
) -> tuple[float, float]:
    """Rescale both penalties by the squared residual ratio, with floors."""
    if r_prev <= 0:
        raise ValueError("previous residual must be positive")
    ratio = (r_k / r_prev) ** 2
    return max(lambda1 * ratio, lambda1_floor), max(lambda2 * ratio, lambda2_floor)


def _initial_params(t: np.ndarray, config: TrainerConfig) -> tuple[np.ndarray, float]:
    if config.initial_p is None:
        mu0 = np.asarray(t, dtype=float).copy()
    else:
        mu0 = np.linspace(t[0], t[-1], config.initial_p)
    return mu0, config.initial_sigma2


def _make_clamp(t: np.ndarray, n_blocks: int, p_holder: list[int]):
    """Center clamp to [t_min - T, t_max + T] and the log-width floor."""
    t0, t1 = float(t[0]), float(t[-1])
    T = t1 - t0
    log_floor = math.log(rbf.SIGMA2_MIN)

    def clamp(theta: np.ndarray) -> np.ndarray:
        p = p_holder[0]
        out = theta.copy()
        k = n_blocks * p
        np.clip(out[:k], t0 - T, t1 + T, out=out[:k])
        np.maximum(out[k:], log_floor, out=out[k:])
        return out

    return clamp


@dataclass
class _FitResult:
    params: RbfParams | StackedRbfParams
    W: np.ndarray
    final_cost: float
    res_norm: float
    n_outer: int
    lambda1: float
    lambda2: float
    lambda1_init: float
    lambda2_init: float
    trace: list = field(default_factory=list)


def _data_residual(prob: AugmentedProblem, W: np.ndarray) -> float:
    rows = prob.n_data_rows
    resid = prob.y_a[:rows] - prob.phi_a[:rows] @ W
    return float(np.linalg.norm(resid))


def _fit(
    t: np.ndarray,
    Y: np.ndarray,
    mu0: np.ndarray,
    sigma2_0: float,
    n_blocks: int,
    config: TrainerConfig,
) -> _FitResult:
    """One run of the alternating loop on centered data."""
    p0 = mu0.size
    if n_blocks == 1:
        params: RbfParams | StackedRbfParams = RbfParams(
            mu=mu0, sigma2=np.full(p0, sigma2_0)
        )
    else:
        params = StackedRbfParams(
            per_dof=[
                RbfParams(mu=mu0.copy(), sigma2=np.full(p0, sigma2_0))
                for _ in range(n_blocks)
            ]
        )

    Phi, PhiAcc = rbf.build_basis(t, params)
    lam_max0 = elastic_net.lambda_max(
        elastic_net.to_lasso(Phi, PhiAcc, Y, 0.0)
    )
    if lam_max0 <= 1e-12 * (1.0 + float(np.linalg.norm(Y))):
        # Pure-intercept data (up to centering round-off): nothing to fit.
        trimmed = params.select(np.array([0]))
        return _FitResult(
            params=trimmed,
            W=np.zeros((1, Y.shape[1])),
            final_cost=0.0,
            res_norm=0.0,
            n_outer=0,
            lambda1=0.0,
            lambda2=0.0,
            lambda1_init=0.0,
            lambda2_init=0.0,
        )

    lam1 = (
        config.lambda1
        if config.lambda1 is not None
        else config.lambda1_fraction * lam_max0
    )
    lam2 = config.lambda2 if config.lambda2 is not None else 1e-6 * lam1
    lam1_init, lam2_init = lam1, lam2
    floor1 = PENALTY_FLOOR_FACTOR * lam1
    floor2 = PENALTY_FLOOR_FACTOR * lam2

    prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
    W = elastic_net.solve(
        prob, lam1, tol=config.tol, max_sweeps=config.max_sweeps
    )
    try:
        W, params = elastic_net.prune(W, params, config.tol_prune)
    except EmptyModelError as err:
        raise EmptyModelError(f"{err} (initial regression)") from err
    Phi, PhiAcc = rbf.build_basis(t, params)
    prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
    f_prev = elastic_net.objective(prob, lam1, W)
    r_prev = _data_residual(prob, W)
    if r_prev == 0.0:
        r_prev = np.finfo(float).tiny

    p_holder = [params.n_features]
    clamp = _make_clamp(t, n_blocks, p_holder)

    trace: list[dict] = []
    n_outer = 0
    for k in range(1, config.max_outer_iters + 1):
        n_outer = k
        p_holder[0] = params.n_features

        objective = feature_opt.FeatureObjective(t, Y, W, lam2, n_blocks)
        theta0 = params.to_theta()
        f_smooth0 = objective.cost(theta0)
        result = feature_opt.bfgs_minimize(
            objective,
            theta0,
            max_iters=config.bfgs_max_iters,
            grad_tol=config.grad_tol,
            project=clamp,
        )
        if config.check_invariants and result.cost > f_smooth0 + DESCENT_SLACK * (
            1.0 + abs(f_smooth0)
        ):
            raise TrainingError(
                f"iteration {k}: BFGS increased the cost "
                f"({f_smooth0:.6g} -> {result.cost:.6g})"
            )
        params = objective.decode(result.theta)

        Phi, PhiAcc = rbf.build_basis(t, params)
        prob = elastic_net.to_lasso(Phi, PhiAcc, Y, lam2)
        f_before_en = elastic_net.objective(prob, lam1, W)
        try:
            W_new = elastic_net.solve(
                prob, lam1, tol=config.tol,
                max_sweeps=config.max_sweeps, warm_start=W,
            )
        except elastic_net.ConvergenceError as err:
            raise TrainingError(f"iteration {k}: {err}") from err
        f_after_en = elastic_net.objective(prob, lam1, W_new)
        if config.check_invariants and f_after_en > f_before_en + DESCENT_SLACK * (
            1.0 + abs(f_before_en)
        ):
            raise TrainingError(
                f"iteration {k}: elastic net increased the cost "
                f"({f_before_en:.6g} -> {f_after_en:.6g})"
            )
        W = W_new

        r_k = _data_residual(prob, W)
        f_k = f_after_en
        trace.append({
            "iteration": k,
            "n_features": params.n_features,
            "smooth_cost_before_bfgs": f_smooth0,
            "smooth_cost_after_bfgs": result.cost,
            "cost_before_en": f_before_en,
            "cost_after_en": f_after_en,
            "res_norm": r_k,
            "lambda1": lam1,
        })
        converged = abs(f_k - f_prev) < config.epsilon

        lam1, lam2 = scale_penalties(lam1, lam2, r_k, max(r_prev, np.finfo(float).tiny),
                                     floor1, floor2)
        try:
            W, params = elastic_net.prune(W, params, config.tol_prune)
        except EmptyModelError as err:
            raise EmptyModelError(f"{err} (iteration {k})") from err

        f_prev, r_prev = f_k, r_k
        if converged:
            break

    return _FitResult(
        params=params,
        W=W,
        final_cost=f_prev,
        res_norm=r_prev,
        n_outer=n_outer,
        lambda1=lam1,
        lambda2=lam2,
        lambda1_init=lam1_init,
        lambda2_init=lam2_init,
        trace=trace,
    )


def _run_with_restarts(t, Y, mu0, sigma2_0, n_blocks, config) -> _FitResult:
    rng = np.random.default_rng(config.seed)
    dt = float(t[1] - t[0])
    best: _FitResult | None = None
    for r in range(config.restarts):
        mu_r = mu0 if r == 0 else mu0 + rng.uniform(-2 * dt, 2 * dt, size=mu0.size)
        result = _fit(t, Y, mu_r, sigma2_0, n_blocks, config)
        if best is None or result.final_cost < best.final_cost:
            best = result
    return best


def train_lsdp(demo: JointTrajectory, config: TrainerConfig | None = None) -> TrainedPrimitive:
    """Learn a shared sparse basis for one demonstration (columns = DoFs)."""
    config = config or TrainerConfig()
    centered = trajectory.center(demo)
    mu0, sigma2_0 = _initial_params(demo.t, config)
    result = _run_with_restarts(demo.t, centered.centered, mu0, sigma2_0, 1, config)
    metadata = _metadata(result, demo.n_samples, demo.n_dof, 1, demo.dt,
                         demo.duration, config)
    return TrainedPrimitive(
        mode="lsdp",
        intercepts=centered.intercepts,
        rbf_params=result.params,
        W=result.W,
        t=demo.t.copy(),
        metadata=metadata,
    )


def train_clsdp(demos: DemoSet, config: TrainerConfig | None = None) -> TrainedPrimitive:
    """Learn per-DoF bases with coefficients coupled across demonstrations."""
    config = config or TrainerConfig()
    stacked = trajectory.stack_demoset(demos)
    intercepts, centered = trajectory.center_stacked(stacked)
    t = demos.demos[0].t
    mu0, sigma2_0 = _initial_params(t, config)
    result = _run_with_restarts(
        t, centered.Y, mu0, sigma2_0, demos.n_dof, config
    )
    metadata = _metadata(result, demos.n_samples, demos.n_dof, demos.n_demos,
                         demos.dt, demos.demos[0].duration, config)
    return TrainedPrimitive(
        mode="clsdp",
        intercepts=intercepts,
        rbf_params=result.params,
        W=result.W,
        t=t.copy(),
        metadata=metadata,
    )


def _metadata(result: _FitResult, N, n, d, dt, duration, config) -> dict:
    return {
        "n_samples": N,
        "n_dof": n,
        "n_demos": d,
        "dt": dt,
        "duration": duration,
        "final_cost": result.final_cost,
        "res_norm": result.res_norm,
        "n_outer_iters": result.n_outer,
        "lambda1": result.lambda1,
        "lambda2": result.lambda2,
        "lambda1_init": result.lambda1_init,
        "lambda2_init": result.lambda2_init,
        "seed": config.seed,
        "epsilon": config.epsilon,
        "restarts": config.restarts,
        "trace": result.trace,
    }


def reconstruct(prim: TrainedPrimitive, t: np.ndarray) -> np.ndarray:
    """Basis expansion plus intercepts; (N, n) or (N, n, d) for coupled."""
    t = np.asarray(t, dtype=float)
    if t.min() < prim.t[0] - 1e-12 or t.max() > prim.t[-1] + 1e-12:
        raise ValueError("evaluation times outside the trained window")
    if prim.mode == "lsdp":
        Phi = rbf.eval_basis(t, prim.rbf_params)
        return Phi @ prim.W + prim.intercepts
    N = t.size
    n, d = prim.rbf_params.n_dof, prim.W.shape[1]
    out = np.empty((N, n, d))
    for i, params_i in enumerate(prim.rbf_params.per_dof):
        block = rbf.eval_basis(t, params_i) @ prim.W
        out[:, i, :] = block + prim.intercepts[i]
    return out


def evaluate(
    prim: TrainedPrimitive,
    t: np.ndarray,
    reference: np.ndarray | None = None,
) -> tuple[np.ndarray, FitReport]:
    """Reconstruct at `t` and report fit metrics.

    `reference` (raw, uncentered, same shape as the reconstruction) yields a
    freshly computed residual norm; without it the training residual stored
    in the metadata is reported.
    """
    recon = reconstruct(prim, t)
    _, PhiAcc = rbf.build_basis(t, prim.rbf_params)
    acc_norm = float(np.linalg.norm(PhiAcc @ prim.W))
    nnz = int(np.count_nonzero(prim.W))
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != recon.shape:
            raise ValueError(
                f"reference shape {reference.shape} does not match "
                f"reconstruction {recon.shape}"
            )
        res_norm = float(np.linalg.norm(reference - recon))
    else:
        res_norm = float(prim.metadata.get("res_norm", np.nan))
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

    if isinstance(data, DemoSet):
        stacked = trajectory.stack_demoset(data)
        _, centered = trajectory.center_stacked(stacked)
        Y = centered.Y
        t = data.demos[0].t
        n_blocks = data.n_dof
    else:
        cent = trajectory.center(data)
        Y = cent.centered
        t = data.t
        n_blocks = 1

    N = t.size
    bounds = np.linspace(0, N, folds + 1).astype(int)
    if np.any(np.diff(bounds) < 2):
        raise ValueError("degenerate fold: fewer than 2 samples")
    mu0, sigma2_0 = _initial_params(t, config)

    def block_rows(sample_idx):
        return np.concatenate([sample_idx + N * b for b in range(n_blocks)])

    scores = []
    for lam1, lam2 in grid:
        fold_resid = []
        for f in range(folds):
            test_idx = np.arange(bounds[f], bounds[f + 1])
            train_idx = np.setdiff1d(np.arange(N), test_idx)
            if n_blocks == 1:
                params = RbfParams(mu=mu0, sigma2=np.full(mu0.size, sigma2_0))
            else:
                params = StackedRbfParams(per_dof=[
                    RbfParams(mu=mu0, sigma2=np.full(mu0.size, sigma2_0))
                    for _ in range(n_blocks)
                ])
            Phi_tr, Acc_tr = _basis_rows(t, train_idx, params, n_blocks)
            Phi_te, _ = _basis_rows(t, test_idx, params, n_blocks)
            Y_tr = Y[block_rows(train_idx)]
            Y_te = Y[block_rows(test_idx)]
            prob = elastic_net.to_lasso(Phi_tr, Acc_tr, Y_tr, lam2)
            W = elastic_net.solve(prob, lam1, tol=config.tol,
                                  max_sweeps=config.max_sweeps)
            elastic_net.prune(W, params, config.tol_prune)  # raises on empty
            fold_resid.append(np.linalg.norm(Y_te - Phi_te @ W))
        scores.append(float(np.mean(fold_resid)))
    best = int(np.argmin(scores))
    return grid[best]


def _basis_rows(t, sample_idx, params, n_blocks):
    t_sub = t[sample_idx]
    if n_blocks == 1:
        return rbf.eval_basis(t_sub, params), rbf.eval_basis_accel(t_sub, params)
    return rbf.stack_basis(t_sub, params)
