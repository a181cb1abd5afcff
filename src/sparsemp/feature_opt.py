"""Nonlinear refinement of the basis parameters at fixed coefficients.

Minimizes ||Y - Phi(theta) W||_F^2 + lambda2 ||PhiAcc(theta) W||_F^2 over
theta = (centers, log squared widths) with dense BFGS and a strong-Wolfe
line search. The sparsity penalty does not depend on theta and is added
back by the caller when reporting total cost.

Each cost/gradient evaluation covers all DoF blocks with one batched kernel
call (`rbf.basis_and_partials`), and `FeatureObjective` keeps the last
evaluated point, so the line search's separate cost and gradient requests
at one trial point, and the re-evaluation at the accepted point, cost one
kernel evaluation. The inverse-Hessian update is the O(dim^2) rank-two form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import line_search as _wolfe_line_search

from .rbf import SIGMA2_MIN, RbfParams, StackedRbfParams, basis_and_partials

CURVATURE_EPS = 1e-12
LOG_S2_MAX = 50.0  # keeps exp() finite; widths this large are already flat
# Messages of scipy's line-search warnings; a failed search is handled as
# a terminal state, so they only add noise.
_LINE_SEARCH_WARNINGS = r"(The line search algorithm|Rounding errors prevent the line search)"


class FeatureObjective:
    """Smooth part of the training cost as a function of theta.

    Handles both the flat layout (one parameter set shared by all DoFs,
    tasks = DoF columns of Y) and the stacked layout (one set per DoF,
    DoF-major row blocks of Y, tasks = demonstrations). Y, W and lambda2
    are fixed for the object's life: the last evaluated point is cached.
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
        self.Y = np.atleast_2d(np.asarray(Y, dtype=float))
        self.W = np.atleast_2d(np.asarray(W, dtype=float))
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
        self._last: tuple[np.ndarray, float, np.ndarray] | None = None

    @property
    def theta_size(self) -> int:
        return 2 * self.n_blocks * self.p

    def split_theta(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n_blocks x p centers, n_blocks x p squared widths)."""
        nb, p = self.n_blocks, self.p
        mus = theta[: nb * p].reshape(nb, p)
        s2 = np.exp(np.minimum(theta[nb * p:].reshape(nb, p), LOG_S2_MAX))
        return mus, s2

    def decode(self, theta: np.ndarray) -> RbfParams | StackedRbfParams:
        mus, s2 = self.split_theta(theta)
        s2 = np.maximum(s2, SIGMA2_MIN)
        if self.n_blocks == 1:
            return RbfParams(mu=mus[0], sigma2=s2[0])
        return StackedRbfParams(
            per_dof=[RbfParams(mu=mus[i], sigma2=s2[i]) for i in range(self.n_blocks)]
        )

    def cost(self, theta: np.ndarray) -> float:
        return self.cost_grad(theta)[0]

    def grad(self, theta: np.ndarray) -> np.ndarray:
        return self.cost_grad(theta)[1]

    def cost_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and gradient at theta; repeated calls at the last point are free."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.theta_size:
            raise ValueError(f"theta size {theta.size}, expected {self.theta_size}")
        if self._last is not None and np.array_equal(theta, self._last[0]):
            return self._last[1], self._last[2].copy()
        mus, s2 = self.split_theta(theta)
        nb, N, W, lam2 = self.n_blocks, self.N, self.W, self.lambda2
        floor_free = s2 >= SIGMA2_MIN  # the log-width gradient is 0 where the floor binds
        phi, acc, dpm, dpl, dam, dal = basis_and_partials(
            self.t, mus, np.maximum(s2, SIGMA2_MIN)
        )
        if not np.all(np.isfinite(phi)):
            raise FloatingPointError("non-finite basis values")
        R = self.Y.reshape(nb, N, -1) - phi @ W
        A = acc @ W
        f = float(np.sum(R ** 2) + lam2 * np.sum(A ** 2))
        RW = -2.0 * (R @ W.T)
        AW = (2.0 * lam2) * (A @ W.T)
        gmu = np.sum(dpm * RW + dam * AW, axis=1)
        glogs = np.sum(dpl * RW + dal * AW, axis=1) * floor_free
        g = np.concatenate([gmu.reshape(-1), glogs.reshape(-1)])
        self._last = (theta.copy(), f, g)
        return f, g.copy()


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """BFGS inverse-Hessian update in place, in O(dim^2); needs y's > 0.

    Expands H <- V H V' + rho s s' with V = I - rho s y' and rho = 1 / y's
    (Nocedal & Wright, Numerical Optimization, eq. 6.17) into
    H += (rho + rho^2 y'Hy) s s' - rho (Hy s' + s Hy'), written as
    s w' + w s' so that a symmetric H stays exactly symmetric.
    """
    rho = 1.0 / (y @ s)
    Hy = H @ y
    w = (0.5 * (rho + rho * rho * (y @ Hy))) * s - rho * Hy
    H += np.outer(s, w) + np.outer(w, s)


@dataclass
class BfgsResult:
    theta: np.ndarray
    cost: float
    grad_norm: float
    n_iters: int
    converged: bool
    line_search_failed: bool


def bfgs_minimize(
    objective: FeatureObjective,
    theta0: np.ndarray,
    max_iters: int | None = None,
    grad_tol: float | None = None,
    c1: float = 1e-4,
    c2: float = 0.9,
    project=None,
) -> BfgsResult:
    """Dense BFGS with a strong-Wolfe line search.

    Returns the best iterate seen; a line-search failure ends the run with
    the best-so-far, flagged. `project` (if given) is applied to each
    accepted iterate, e.g. to clamp centers back into the data window.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite initial point")
    dim = theta.size
    if max_iters is None:
        max_iters = 100 * max(1, objective.p)

    f, g = objective.cost_grad(theta)
    if not np.isfinite(f):
        raise FloatingPointError("non-finite cost at the initial point")
    if grad_tol is None:
        grad_tol = 1e-6 * (1.0 + abs(f))

    best_theta, best_f = theta.copy(), f
    H = np.eye(dim)
    first_step = True
    ls_failed = False
    converged = np.linalg.norm(g) <= grad_tol
    it = 0
    while not converged and it < max_iters:
        d = -H @ g
        if d @ g >= 0:
            # Safeguard: reset to steepest descent if H lost definiteness.
            H = np.eye(dim)
            d = -g
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message=_LINE_SEARCH_WARNINGS, category=RuntimeWarning
            )
            alpha, _, _, f_new, _, _ = _wolfe_line_search(
                objective.cost, objective.grad, theta, d, gfk=g, old_fval=f,
                c1=c1, c2=c2, maxiter=50,
            )
        if alpha is None:
            ls_failed = True
            break
        s = alpha * d
        theta_new = theta + s
        if project is not None:
            projected = project(theta_new)
            if not np.array_equal(projected, theta_new):
                theta_new = projected
                s = theta_new - theta
        f_new, g_new = objective.cost_grad(theta_new)
        y = g_new - g
        ys = y @ s
        if ys > CURVATURE_EPS:
            if first_step:
                H = (ys / (y @ y)) * np.eye(dim)
                first_step = False
            _bfgs_update(H, s, y)
        theta, f, g = theta_new, f_new, g_new
        if f < best_f:
            best_f, best_theta = f, theta.copy()
        it += 1
        converged = np.linalg.norm(g) <= grad_tol
    return BfgsResult(
        theta=best_theta,
        cost=best_f,
        grad_norm=float(np.linalg.norm(g)),
        n_iters=it,
        converged=bool(converged),
        line_search_failed=ls_failed,
    )
