"""Comparison methods: dynamic movement primitives and fixed-basis ridge.

Both use ten basis functions per DoF by default. The DMP learns a forcing
term on top of a critically damped goal attractor; the ridge baseline fits
uniformly spaced time-domain RBFs with an l2 penalty on accelerations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rbf import RbfParams, build_basis
from .trainers import TrainedPrimitive, training_data
from .trajectory import JointTrajectory

ALPHA_Z = 25.0  # DMP gains of Ijspeert et al. (2013), critically damped
BETA_Z = ALPHA_Z / 4.0
ALPHA_X = ALPHA_Z / 3.0


@dataclass
class DmpModel:
    """Per-DoF attractor dynamics with a phase-gated forcing term. The gains
    are the module constants; the phase basis derives from them and tau."""

    weights: np.ndarray        # n x n_basis, C-ordered
    goal: np.ndarray           # (n,)
    y0: np.ndarray             # (n,)
    tau: float                 # the demonstration's duration
    dt: float

    @property
    def n_dof(self) -> int:
        return self.weights.shape[0]

    @property
    def n_basis(self) -> int:
        return self.weights.shape[1]

    def params_per_dof(self) -> int:
        # forcing weights plus the goal position
        return self.n_basis + 1


def _phase_basis(n_basis: int, alpha_x: float, tau: float):
    """Normalized-RBF centers/widths laid out evenly in time, mapped to phase."""
    t_centers = np.linspace(0.0, tau, n_basis)
    centers = np.exp(-alpha_x * t_centers / tau)
    diffs = np.diff(centers)
    widths = np.empty(n_basis)
    widths[:-1] = 1.0 / (2.0 * diffs ** 2)
    widths[-1] = widths[-2]
    return centers, widths


def _forcing_design(x: np.ndarray, centers, widths) -> np.ndarray:
    """Rows are psi_i(x) * x / sum_i psi_i(x)."""
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)
    return psi * x[:, None] / np.sum(psi, axis=1, keepdims=True)


def train_dmp(
    demo: JointTrajectory,
    n_basis: int = 10,
) -> DmpModel:
    """Fit the forcing weights to the demonstration's attractor residual.

    Velocities and accelerations come from central differences; the target
    forcing is f* = tau^2 ydd - ALPHA_Z (BETA_Z (g - y) - tau yd), fit per
    DoF by least squares on the phase-gated normalized basis.
    """
    if demo.n_samples < 3:
        raise ValueError("need at least 3 samples to differentiate")
    tau = demo.duration
    dt = demo.dt
    Q = demo.Q
    y0 = Q[0].copy()
    goal = Q[-1].copy()

    yd = np.gradient(Q, dt, axis=0)
    ydd = np.gradient(yd, dt, axis=0)
    f_target = tau ** 2 * ydd - ALPHA_Z * (BETA_Z * (goal - Q) - tau * yd)

    x = np.exp(-ALPHA_X * (demo.t - demo.t[0]) / tau)
    M = _forcing_design(x, *_phase_basis(n_basis, ALPHA_X, tau))
    weights, *_ = np.linalg.lstsq(M, f_target, rcond=None)
    # C order, as a loaded model holds it: the rollout's product rounds alike.
    return DmpModel(weights=np.ascontiguousarray(weights.T), goal=goal, y0=y0,
                    tau=tau, dt=dt)


def rollout_dmp(
    model: DmpModel,
    duration: float | None = None,
    dt: float | None = None,
    y0_override: np.ndarray | None = None,
    g_override: np.ndarray | None = None,
) -> JointTrajectory:
    """Integrate the canonical and transformation systems (explicit Euler)."""
    dt = model.dt if dt is None else dt
    duration = model.tau if duration is None else duration
    if dt <= 0 or duration <= 0:
        raise ValueError("dt and duration must be positive")
    y = (model.y0 if y0_override is None else np.asarray(y0_override, float)).copy()
    g = model.goal if g_override is None else np.asarray(g_override, float)
    tau = model.tau

    centers, widths = _phase_basis(model.n_basis, ALPHA_X, tau)
    n_steps = int(round(duration / dt))
    t = np.arange(n_steps + 1) * dt
    out = np.empty((n_steps + 1, model.n_dof))
    out[0] = y
    v = np.zeros(model.n_dof)
    x = 1.0
    for k in range(n_steps):
        f = _forcing_design(np.array([x]), centers, widths)[0] @ model.weights.T
        a = (ALPHA_Z * (BETA_Z * (g - y) - tau * v) + f) / tau ** 2
        v = v + dt * a
        y = y + dt * v
        x = x + dt * (-ALPHA_X * x / tau)
        out[k + 1] = y
    return JointTrajectory(t=t, Q=out)


def uniform_ridge_basis(duration: float, n_basis: int = 10) -> RbfParams:
    """Centers spread uniformly; adjacent kernels cross at exp(-1/2)."""
    centers = np.linspace(0.0, duration, n_basis)
    spacing = duration / (n_basis - 1) if n_basis > 1 else duration
    sigma2 = np.full(n_basis, spacing ** 2 / 2.0)
    return RbfParams(mu=centers, sigma2=sigma2)


def train_ridge(
    demo: JointTrajectory, n_basis: int = 10, lambda2: float = 1e-4
) -> TrainedPrimitive:
    """Closed-form fit of (Phi^T Phi + lambda2 Acc^T Acc) W = Phi^T Y: a
    one-block primitive of mode "ridge", with no l1 term."""
    if lambda2 < 0:
        raise ValueError("lambda2 must be nonnegative")
    t, Yc, intercepts, _ = training_data(demo)
    params = uniform_ridge_basis(demo.duration, n_basis)
    Phi, Acc = build_basis(t, params)

    A = Phi.T @ Phi + lambda2 * (Acc.T @ Acc)
    if lambda2 == 0.0 and np.linalg.matrix_rank(Phi) < n_basis:
        raise np.linalg.LinAlgError("singular normal matrix: rank-deficient basis")
    W = np.linalg.solve(A, Phi.T @ Yc)
    return TrainedPrimitive(
        mode="ridge", intercepts=intercepts, rbf_params=params, W=W, t=t,
        metadata={"lambda1": 0.0, "lambda2": float(lambda2)},
    )
