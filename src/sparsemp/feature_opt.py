"""Nonlinear refinement of the basis parameters at fixed coefficients.

Minimizes ||Y - Phi(theta) W||_F^2 + lambda2 ||PhiAcc(theta) W||_F^2 over
theta = (centers, log squared widths) with dense BFGS and a strong-Wolfe
line search. The sparsity penalty does not depend on theta and is added
back by the caller when reporting total cost.

The theta layout lives here only: `FeatureObjective.encode`, `decode` and
`clamp`. So does the line search (`_wolfe_search`): it mirrors SciPy's
`line_search_wolfe2` bit for bit for the one way BFGS calls it, so nothing
in the package loads `scipy.optimize`.

Each cost/gradient evaluation covers all DoF blocks with one batched kernel
call (`rbf.basis_and_partials`) into a workspace that `FeatureObjective`
allocates once, and contracts the parameter partials with the N x m
residuals first, so no N x p product is formed. The line search asks for
cost and gradient together, once per trial point, and BFGS takes both at
the accepted step from it. The inverse Hessian is kept as the upper
triangle of a Fortran-ordered array and updated in place by the O(dim^2)
BLAS rank-two form, so a BFGS iteration allocates nothing of size dim^2.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import blas

from .rbf import SIGMA2_MIN, RbfParams, basis_and_partials

logger = logging.getLogger(__name__)

CURVATURE_EPS = 1e-12
LOG_S2_MAX = 50.0  # keeps exp() finite; widths this large are already flat
LOG_S2_MIN = math.log(SIGMA2_MIN)
# Strong-Wolfe constants (Nocedal & Wright's for quasi-Newton), relative |g| gate.
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
GRAD_TOL_REL = 1e-6


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
        self._work = np.empty((6, self.n_blocks, self.N, self.p))
        self.n_evals = 0  # kernel evaluations, one per cost_grad call

    @property
    def theta_size(self) -> int:
        return 2 * self.n_blocks * self.p

    def split_theta(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(n_blocks x p centers, n_blocks x p squared widths)."""
        nb, p = self.n_blocks, self.p
        mus = theta[: nb * p].reshape(nb, p)
        s2 = np.exp(np.minimum(theta[nb * p:].reshape(nb, p), LOG_S2_MAX))
        return mus, s2

    def encode(self, params: RbfParams) -> np.ndarray:
        """theta = [all centers, all log squared widths], block by block."""
        theta = np.concatenate([params.mu.reshape(-1), np.log(params.sigma2).reshape(-1)])
        if theta.size != self.theta_size:
            raise ValueError(f"theta size {theta.size}, expected {self.theta_size}")
        return theta

    def decode(self, theta: np.ndarray) -> RbfParams:
        mus, s2 = self.split_theta(theta)
        return RbfParams(mu=mus, sigma2=np.maximum(s2, SIGMA2_MIN))

    def clamp(self, theta: np.ndarray) -> np.ndarray:
        """A copy of theta with the centers clipped to [t_0 - T, t_end + T],
        T the window length, and the log widths raised to LOG_S2_MIN."""
        t0, t1 = float(self.t[0]), float(self.t[-1])
        n_mu = self.n_blocks * self.p
        out = np.array(theta, dtype=float)
        np.clip(out[:n_mu], t0 - (t1 - t0), t1 + (t1 - t0), out=out[:n_mu])
        np.maximum(out[n_mu:], LOG_S2_MIN, out=out[n_mu:])
        return out

    def cost_grad(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Cost and gradient at theta, from one kernel evaluation."""
        theta = np.asarray(theta, dtype=float)
        if theta.size != self.theta_size:
            raise ValueError(f"theta size {theta.size}, expected {self.theta_size}")
        self.n_evals += 1
        mus, s2 = self.split_theta(theta)
        nb, N, W, lam2 = self.n_blocks, self.N, self.W, self.lambda2
        floor_free = s2 >= SIGMA2_MIN  # the log-width gradient is 0 where the floor binds
        work = self._work
        basis_and_partials(self.t, mus, np.maximum(s2, SIGMA2_MIN), out=work)
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
        g[1] *= floor_free
        return f, g.reshape(-1)


def _bfgs_update(H: np.ndarray, s: np.ndarray, y: np.ndarray) -> None:
    """BFGS inverse-Hessian update in place, in O(dim^2); needs y's > 0.

    Expands H <- V H V' + rho s s' with V = I - rho s y' and rho = 1 / y's
    (Nocedal & Wright, Numerical Optimization, eq. 6.17) into
    H += (rho + rho^2 y'Hy) s s' - rho (Hy s' + s Hy'), written as the
    symmetric rank-two term s w' + w s'. H must be a Fortran-ordered float
    array of which only the upper triangle is read and written (BLAS
    dsymv/dsyr2).
    """
    rho = 1.0 / (y @ s)
    Hy = blas.dsymv(1.0, H, y)
    w = (0.5 * (rho + rho * rho * (y @ Hy))) * s - rho * Hy
    if blas.dsyr2(1.0, s, w, a=H, overwrite_a=True) is not H:
        raise ValueError("H must be a Fortran-ordered float64 array")


def _wolfe_search(objective: FeatureObjective, x: np.ndarray, p: np.ndarray,
                  f0: float, g0: np.ndarray):
    """Strong-Wolfe step along p from x: (alpha, f, g) at the accepted step,
    or (None, None, None).

    Each trial makes one `objective.cost_grad(x + alpha p)` call, which
    gives phi(alpha) and phi'(alpha) = g . p. This is Nocedal & Wright's
    Algorithm 3.5 (Numerical Optimization, 1999, pp. 59-61) as SciPy's
    `line_search_wolfe2` writes it, cut to the way `bfgs_minimize` calls
    it: c1 = WOLFE_C1, c2 = WOLFE_C2, first trial 1, no step bound. The
    trials, their order and their arithmetic are SciPy's, so the steps are
    bit for bit the same. The step doubles for at most 50 trials; if none
    brackets a Wolfe point, the last trial is returned. SciPy's guard
    against a zero step is left out: doubled from 1, the step never is.
    """
    def phi(a):
        f, g = objective.cost_grad(x + a * p)
        return f, np.dot(g, p), g

    dphi0 = np.dot(g0, p)
    a0, phi_a0, dphi_a0 = 0, f0, dphi0
    a1 = 1.0
    phi_a1, dphi_a1, g1 = phi(a1)
    for i in range(50):
        if phi_a1 > f0 + WOLFE_C1 * a1 * dphi0 or (phi_a1 >= phi_a0 and i > 0):
            return _zoom(phi, f0, dphi0, a0, a1, phi_a0, phi_a1, dphi_a0)
        if abs(dphi_a1) <= -WOLFE_C2 * dphi0:
            return a1, phi_a1, g1
        if dphi_a1 >= 0:
            return _zoom(phi, f0, dphi0, a1, a0, phi_a1, phi_a0, dphi_a1)
        a0, phi_a0, dphi_a0 = a1, phi_a1, dphi_a1
        a1 = 2 * a1
        phi_a1, dphi_a1, g1 = phi(a1)
    return a1, phi_a1, g1


def _zoom(phi, f0, dphi0, a_lo, a_hi, phi_lo, phi_hi, dphi_lo):
    """Algorithm 3.6: shrink the bracket to a strong-Wolfe step, trying the
    cubic, then the quadratic interpolant, then bisection; gives up
    (None, None, None) after 11 trials."""
    a_rec, phi_rec = 0, f0
    for i in range(11):
        dalpha = a_hi - a_lo
        a, b = (a_hi, a_lo) if dalpha < 0 else (a_lo, a_hi)
        cchk, qchk = 0.2 * dalpha, 0.1 * dalpha
        a_j = None if i == 0 else _cubicmin(a_lo, phi_lo, dphi_lo, a_hi, phi_hi, a_rec, phi_rec)
        if a_j is None or a_j > b - cchk or a_j < a + cchk:
            a_j = _quadmin(a_lo, phi_lo, dphi_lo, a_hi, phi_hi)
            if a_j is None or a_j > b - qchk or a_j < a + qchk:
                a_j = a_lo + 0.5 * dalpha
        phi_aj, dphi_aj, g_j = phi(a_j)
        if phi_aj > f0 + WOLFE_C1 * a_j * dphi0 or phi_aj >= phi_lo:
            a_rec, phi_rec = a_hi, phi_hi
            a_hi, phi_hi = a_j, phi_aj
            continue
        if abs(dphi_aj) <= -WOLFE_C2 * dphi0:
            return a_j, phi_aj, g_j
        if dphi_aj * (a_hi - a_lo) >= 0:
            a_rec, phi_rec = a_hi, phi_hi
            a_hi, phi_hi = a_lo, phi_lo
        else:
            a_rec, phi_rec = a_lo, phi_lo
        a_lo, phi_lo, dphi_lo = a_j, phi_aj, dphi_aj
    return None, None, None


def _cubicmin(a, fa, fpa, b, fb, c, fc):
    """Minimizer of the cubic through (a, fa), (b, fb), (c, fc) with slope
    fpa at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db, dc = b - a, c - a
            denom = (db * dc) ** 2 * (db - dc)
            d1 = np.array([[dc ** 2, -db ** 2], [-dc ** 3, db ** 3]])
            A, B = np.dot(d1, np.asarray([fb - fa - fpa * db, fc - fa - fpa * dc]))
            A /= denom
            B /= denom
            xmin = a + (-B + np.sqrt(B * B - 3 * A * fpa)) / (3 * A)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


def _quadmin(a, fa, fpa, b, fb):
    """Minimizer of the quadratic through (a, fa), (b, fb) with slope fpa
    at a, or None."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        try:
            db = b - a * 1.0
            B = (fb - fa - fpa * db) / (db * db)
            xmin = a - fpa / (2.0 * B)
        except ArithmeticError:
            return None
    return xmin if np.isfinite(xmin) else None


@dataclass
class BfgsResult:
    theta: np.ndarray
    cost: float
    grad_norm: float
    n_iters: int
    converged: bool
    line_search_failed: bool
    n_evals: int  # kernel evaluations during the run, the start point's included
    start_cost: float  # the cost at theta0


def bfgs_minimize(
    objective: FeatureObjective,
    theta0: np.ndarray,
    max_iters: int | None = None,
) -> BfgsResult:
    """Dense BFGS with a strong-Wolfe line search.

    The search is `_wolfe_search`, which takes the steps SciPy's
    `line_search_wolfe2` takes with c1 = WOLFE_C1, c2 = WOLFE_C2 and
    maxiter = 50, so no run loads `scipy.optimize`. Each accepted iterate
    is projected with `objective.clamp`; the cost and gradient there are
    the line search's unless the clamp moved the point. Returns the best
    iterate seen, so the cost is never above the start cost; a line-search
    failure ends the run with the best-so-far, flagged. The run converges
    when the gradient norm is at most GRAD_TOL_REL (1 + |f(theta0)|).
    Emits one DEBUG record on the `sparsemp.feature_opt` logger per call.
    """
    theta = np.asarray(theta0, dtype=float).copy()
    if not np.all(np.isfinite(theta)):
        raise ValueError("non-finite initial point")
    dim = theta.size
    if max_iters is None:
        max_iters = 100 * max(1, objective.p)

    evals0 = objective.n_evals
    f, g = objective.cost_grad(theta)
    if not np.isfinite(f):
        raise FloatingPointError("non-finite cost at the initial point")
    grad_tol = GRAD_TOL_REL * (1.0 + abs(f))

    f0, best_theta, best_f = f, theta.copy(), f
    # Inverse Hessian: Fortran-ordered, only its upper triangle is kept;
    # None stands for the identity until a curvature pair arrives.
    H = None
    first_step = True
    ls_failed = False
    converged = np.linalg.norm(g) <= grad_tol
    it = 0
    while not converged and it < max_iters:
        d = -g if H is None else blas.dsymv(-1.0, H, g)
        if d @ g >= 0:
            # Safeguard: reset to steepest descent if H lost definiteness.
            H = None
            d = -g
        alpha, f_new, g_new = _wolfe_search(objective, theta, d, f, g)
        if alpha is None:
            ls_failed = True
            break
        s = alpha * d
        theta_new = theta + s  # the search's point, bit for bit
        projected = objective.clamp(theta_new)
        if not np.array_equal(projected, theta_new):
            theta_new = projected
            s = theta_new - theta
            f_new, g_new = objective.cost_grad(theta_new)
        y = g_new - g
        ys = y @ s
        if ys > CURVATURE_EPS:
            if H is None:
                H = np.eye(dim, order="F")
                if first_step:
                    H *= ys / (y @ y)
                    first_step = False
            _bfgs_update(H, s, y)
        theta, f, g = theta_new, f_new, g_new
        if f < best_f:
            best_f, best_theta = f, theta.copy()
        it += 1
        converged = np.linalg.norm(g) <= grad_tol
    n_evals = objective.n_evals - evals0
    if logger.isEnabledFor(logging.DEBUG):
        exit_kind = "converged" if converged else "line_search" if ls_failed else "max_iters"
        logger.debug("bfgs: dim=%d iters=%d evals=%d exit=%s f=%.6g -> %.6g",
                     dim, it, n_evals, exit_kind, f0, best_f)
    return BfgsResult(
        theta=best_theta,
        cost=best_f,
        grad_norm=float(np.linalg.norm(g)),
        n_iters=it,
        converged=bool(converged),
        line_search_failed=ls_failed,
        n_evals=n_evals,
        start_cost=f0,
    )
