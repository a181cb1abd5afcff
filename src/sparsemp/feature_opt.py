"""Nonlinear refinement of the basis parameters at fixed coefficients.

Minimizes ||Y - Phi(theta) W||_F^2 + lambda2 ||PhiAcc(theta) W||_F^2 over
theta = (centers, log squared widths) by Levenberg-Marquardt. The sparsity
penalty does not depend on theta and is added back by the caller when
reporting total cost.

The cost is a sum of squares, r(theta) = [vec(Y - Phi W); sqrt(lambda2)
vec(PhiAcc W)], and column j of a block's Phi depends only on feature j's
center and width. So the Gauss-Newton matrix J'J is block-diagonal over the
DoF blocks, and within a block it is the Hadamard product of the Gram
matrix of the parameter partials with W W' (Nocedal & Wright, Numerical
Optimization, ch. 10), PSD by the Schur product theorem. Each damped step
is one batched NumPy solve of the 2p x 2p systems of all blocks.

The theta layout lives here only: `FeatureObjective.encode`, `decode`,
`box`, and the block view of `gauss_newton` and `damped_step`.

Each cost/gradient evaluation covers all DoF blocks with one batched kernel
call (`rbf.basis_and_partials`) into a workspace that `FeatureObjective`
allocates once, and contracts the parameter partials with the N x m
residuals first, so no N x p product is formed. The Gauss-Newton matrices
are built from the same workspace, only at accepted points.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rbf import SIGMA2_MIN, RbfParams, basis_and_partials

logger = logging.getLogger(__name__)

LOG_S2_MAX = 50.0  # keeps exp() finite; widths this large are already flat
LOG_S2_MIN = math.log(SIGMA2_MIN)
GRAD_TOL_REL = 1e-6  # relative |g| gate
# A step that lowers the cost by at most this share of it ends the run: the
# square root of the trainers' solver tolerance, the accuracy of the loose
# certificate that the following Elastic Net solve may end on.
COST_TOL_REL = 1e-3
DAMPING_INIT = 1e-3  # initial damping, relative to the largest diagonal of J'J


class FeatureObjective:
    """Smooth part of the training cost as a function of theta.

    Y has one row block of N samples per basis block: a single block
    shared by all DoFs (tasks = DoF columns of Y), or one block per DoF
    (DoF-major row blocks, tasks = demonstrations). Y, W and lambda2 are
    fixed for the object's life.
    """

    def __init__(
        self,
        t: np.ndarray,
        Y: np.ndarray,
        W: np.ndarray,
        lambda2: float,
        n_dof_blocks: int = 1,
    ):
        self.t = np.asarray(t, dtype=float)
        # A 1-D target or coefficient vector is a single task: one column.
        Y, W = np.asarray(Y, dtype=float), np.asarray(W, dtype=float)
        self.Y = Y[:, None] if Y.ndim == 1 else Y
        self.W = W[:, None] if W.ndim == 1 else W
        if lambda2 < 0:
            raise ValueError("lambda2 must be nonnegative")
        self.lambda2 = float(lambda2)
        self.n_blocks = n_dof_blocks
        self.N = self.t.size
        if self.Y.shape[0] != self.N * self.n_blocks:
            raise ValueError(
                f"target has {self.Y.shape[0]} rows, expected "
                f"{self.N * self.n_blocks}"
            )
        self.p = self.W.shape[0]
        self._work = np.empty((6, self.n_blocks, self.N, self.p))

    @property
    def theta_size(self) -> int:
        return 2 * self.n_blocks * self.p

    def split_theta(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n_blocks x p centers, n_blocks x p squared widths)."""
        nb, p = self.n_blocks, self.p
        mus = theta[: nb * p].reshape(nb, p)
        s2 = np.exp(theta[nb * p:].reshape(nb, p))
        return mus, s2

    def encode(self, params: RbfParams) -> np.ndarray:
        """theta = [all centers, all log squared widths], block by block."""
        theta = np.concatenate([params.mu.reshape(-1), np.log(params.sigma2).reshape(-1)])
        if theta.size != self.theta_size:
            raise ValueError(f"theta size {theta.size}, expected {self.theta_size}")
        return theta

    def decode(self, theta: np.ndarray) -> RbfParams:
        mus, s2 = self.split_theta(theta)
        return RbfParams(mu=mus, sigma2=s2)

    @cached_property
    def box(self) -> tuple[np.ndarray, np.ndarray]:
        """The refinement's one bound, (lower, upper) in the theta layout:
        the centers within [t_0 - T, t_end + T], T the window length, and
        the log widths within [LOG_S2_MIN, LOG_S2_MAX]."""
        t0, t1 = float(self.t[0]), float(self.t[-1])
        n_mu = self.n_blocks * self.p
        return (np.repeat([t0 - (t1 - t0), LOG_S2_MIN], n_mu),
                np.repeat([t1 + (t1 - t0), LOG_S2_MAX], n_mu))

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """A copy of theta clipped to `box`; every trial point passes through."""
        return np.clip(np.asarray(theta, dtype=float), *self.box)

    def projected_grad_norm(self, theta: np.ndarray, g: np.ndarray) -> float:
        """The norm of g without the components that point out of `box`
        where theta sits on its bound, the stationarity measure of the
        bound-constrained problem (Kanzow, Yamashita & Fukushima 2004, J.
        Comput. Appl. Math. 172); in the interior it is |g|."""
        lo, hi = self.box
        out = ((theta <= lo) & (g > 0)) | ((theta >= hi) & (g < 0))
        return float(np.linalg.norm(np.where(out, 0.0, g)))

    def cost_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and gradient at theta, from one kernel evaluation."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.theta_size:
            raise ValueError(f"theta size {theta.size}, expected {self.theta_size}")
        mus, s2 = self.split_theta(theta)
        nb, N, W, lam2 = self.n_blocks, self.N, self.W, self.lambda2
        work = self._work
        basis_and_partials(self.t, mus, s2, out=work)
        if not np.all(np.isfinite(work[0])):
            raise FloatingPointError("non-finite basis values")
        R = self.Y.reshape(nb, N, -1) - work[0] @ W
        A = work[1] @ W
        f = float(np.sum(R ** 2) + lam2 * np.sum(A ** 2))
        # sum_n dPhi[n, j] (R W')[n, j] = sum_t W[j, t] (dPhi' R)[j, t]: the
        # partials meet the N x m residuals first, so no N x p product forms.
        G = (lam2 * (work[4:].swapaxes(-1, -2) @ A)  # (2, nb, p, m): mu, log s2
             - work[2:4].swapaxes(-1, -2) @ R)
        g = 2.0 * np.sum(G * W, axis=-1)
        return f, g.reshape(-1)

    def gauss_newton(self) -> np.ndarray:
        """The Gauss-Newton matrices J_b'J_b of the blocks, (n_blocks, 2p, 2p),
        at the point of the latest `cost_grad` call, whose workspace they read.

        Block b's variables are its p centers, then its p log widths. With
        D_b and E_b the N x 2p partials of Phi_b and PhiAcc_b, the matrix is
        (D_b'D_b + lambda2 E_b'E_b) * tile(W W', 2 x 2).
        """
        nb, N, p = self.n_blocks, self.N, self.p
        # K_b = [D_b; sqrt(lambda2) E_b], stacked so that one batched product
        # gives every block's D_b'D_b + lambda2 E_b'E_b.
        K = np.empty((nb, 2, N, 2, p))
        K[...] = self._work[2:].reshape(2, 2, nb, N, p).transpose(2, 0, 3, 1, 4)
        K[:, 1] *= math.sqrt(self.lambda2)
        K = K.reshape(nb, 2 * N, 2 * p)
        H = K.swapaxes(-1, -2) @ K
        H *= np.tile(self.W @ self.W.T, (2, 2))
        return H

    def damped_step(self, H: np.ndarray, g: np.ndarray, damping: float) -> np.ndarray | None:
        """The Levenberg-Marquardt step delta with (H_b + damping I) delta_b =
        -g_b / 2 in every block, in the theta layout; None if a damped block
        is singular or shows negative curvature (delta_b' rhs_b < 0), which
        a PSD H never does but round-off can. g is `cost_grad`'s gradient
        and H `gauss_newton`'s matrices."""
        nb, p = self.n_blocks, self.p
        A = H.copy()
        A.reshape(nb, -1)[:, :: 2 * p + 1] += damping  # the diagonals
        rhs = -0.5 * g.reshape(2, nb, p).swapaxes(0, 1).reshape(nb, 2 * p)
        try:
            step = np.linalg.solve(A, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            return None
        if (np.einsum("bi,bi->b", step, rhs) < 0.0).any():
            return None
        return step.reshape(nb, 2, p).swapaxes(0, 1).reshape(-1)


@dataclass
class BfgsResult:
    theta: np.ndarray
    cost: float
    grad_norm: float  # of the projected gradient, `projected_grad_norm`
    n_iters: int
    converged: bool
    line_search_failed: bool  # the damping overflowed: no step lowered the cost
    n_evals: int  # kernel evaluations during the run, the start point's included
    start_cost: float  # the cost at theta0


def bfgs_minimize(
    objective: FeatureObjective,
    theta0: np.ndarray,
    max_iters: int | None = None,
) -> BfgsResult:
    """Levenberg-Marquardt on the blockwise Gauss-Newton matrices.

    The textbook recipe (Madsen, Nielsen & Tingleff, Methods for Non-Linear
    Least Squares Problems, 2004, Alg. 3.16). The damping starts at
    DAMPING_INIT times the largest diagonal entry of J'J over all blocks.
    Each iteration solves for one damped step (`objective.damped_step`),
    projects the trial point with `objective.clamp` and accepts it only if
    the cost falls. After an accepted step the damping follows Nielsen's
    update, mu *= max(1/3, 1 - (2 rho - 1)^3) with rho the ratio of the
    actual to the predicted decrease; after a rejected one it grows by a
    factor that doubles with each rejection in a row. Every trial point is
    one kernel evaluation and counts as an iteration.

    The run converges when an accepted step lowers the cost by at most
    COST_TOL_REL of it, or when the projected gradient's norm
    (`objective.projected_grad_norm`) is at most GRAD_TOL_REL (1 + |f(theta0)|),
    so a point on the bound of the box can converge. It fails, flagged
    `line_search_failed`, when the damping overflows: no step however
    short lowers the cost. The returned point is the last accepted one, so
    its cost is never above the start cost. The name and the result's
    fields are those of the BFGS this replaced, which the trace keys and
    the trainer option `bfgs_max_iters` still carry. Emits one DEBUG
    record on the `sparsemp.feature_opt` logger per call.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite initial point")
    if max_iters is None:
        max_iters = 100 * max(1, objective.p)

    f, g = objective.cost_grad(theta)
    n_evals = 1
    if not np.isfinite(f):
        raise FloatingPointError("non-finite cost at the initial point")
    f0 = f
    grad_tol = GRAD_TOL_REL * (1.0 + abs(f))
    converged = objective.projected_grad_norm(theta, g) <= grad_tol
    failed = False
    if not converged:
        H = objective.gauss_newton()
        mu = DAMPING_INIT * float(np.max(np.diagonal(H, axis1=-2, axis2=-1)))
        nu = 2.0
    it = 0
    while not (converged or failed) and it < max_iters:
        it += 1
        delta = objective.damped_step(H, g, mu)
        if delta is not None:
            trial = objective.clamp(theta + delta)
            f_new, g_new = objective.cost_grad(trial)
            n_evals += 1
        if delta is not None and f_new < f:
            # rho's denominator is the predicted decrease delta'(mu delta - g/2).
            rho = (f - f_new) / float(delta @ (mu * delta - 0.5 * g))
            converged = (f - f_new <= COST_TOL_REL * f
                         or objective.projected_grad_norm(trial, g_new) <= grad_tol)
            theta, f, g = trial, f_new, g_new
            if not converged:
                H = objective.gauss_newton()
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3)
                nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
            failed = not math.isfinite(mu)
    if logger.isEnabledFor(logging.DEBUG):
        exit_kind = "converged" if converged else "line_search" if failed else "max_iters"
        logger.debug("bfgs: dim=%d iters=%d evals=%d exit=%s f=%.6g -> %.6g",
                     theta.size, it, n_evals, exit_kind, f0, f)
    return BfgsResult(
        theta=theta,
        cost=f,
        grad_norm=objective.projected_grad_norm(theta, g),
        n_iters=it,
        converged=bool(converged),
        line_search_failed=failed,
        n_evals=n_evals,
        start_cost=f0,
    )
