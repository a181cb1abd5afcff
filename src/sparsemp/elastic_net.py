"""Weighted multi-task elastic net via an augmented multi-task lasso.

The objective, in its unscaled form, is

    F(W) = ||Y - Phi W||_F^2 + lambda1 ||W||_21 + lambda2 ||PhiAcc W||_F^2.

Stacking Phi_a = [Phi; sqrt(lambda2) PhiAcc] over Y_a = [Y; 0] absorbs the
acceleration penalty into the squared loss, leaving a multi-task lasso. It
is solved in covariance form (glmnet's "covariance updates"): block
coordinate descent and the optimality certificate only ever need the Gram
matrix G = Phi_a^T Phi_a (p x p), the correlations C = Phi_a^T Y_a and the
energy ||Y_a||^2, so no step touches a row of the design. Each certificate
check computes G W afresh. Rows outside the working set are zero, so the
sweeps work on a contiguous copy W_w of the working-set rows alone: row k's
block target is e_k = C_k - G_off[k] W_w, with G_off = G_ww less its
diagonal, read as one product of the row [-G_off[k], unit row k] with the
stacked [W_w; C_w]. IRLS takes D_w = C_w - G_ww W_w and works on the
nonzero rows' blocks of G, C and D_w, so a step costs no more than the
working set.
A warm start is first polished by Newton steps on its nonzero rows (a x a
systems only), which certifies a path point whose support is right unswept;
if they converged but the support grew, cycles hand off to them before IRLS.
All linear algebra is NumPy's: every system is small and dense.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .rbf import RbfParams

logger = logging.getLogger(__name__)

TOL_PRUNE = 1e-10  # coefficient rows at or below this norm are pruned
IRLS_MAX_STEPS = 100  # per irls_refine call
NEWTON_MAX_STEPS = 8  # per newton_polish call
MAX_SWEEPS = 20_000  # per solve call
# Near-duplicate columns can make the last feature enter at a crawl that never
# reaches the strict certificate. After this many sweeps without one, a duality
# gap at the sqrt(tol) scale -- still a hard bound on the remaining objective
# decrease -- is accepted instead of burning the budget on negligible progress.
LOOSE_AFTER = 500


class ConvergenceError(RuntimeError):
    """MAX_SWEEPS sweeps spent; carries the last iterate and its KKT residual."""

    def __init__(self, message: str, W: np.ndarray, kkt: float):
        super().__init__(message)
        self.W = W
        self.kkt = kkt


class EmptyModelError(RuntimeError):
    """Every feature was pruned away (over-regularization)."""


@dataclass(frozen=True)
class AugmentedProblem:
    """Design [Phi; sqrt(lambda2) PhiAcc] with target [Y; 0].

    The Gram-form quantities are computed on first use and then shared by
    every solve on the problem, so the arrays must not change afterwards.
    """

    phi_a: np.ndarray
    y_a: np.ndarray
    n_data_rows: int

    @property
    def n_features(self) -> int:
        return self.phi_a.shape[1]

    @property
    def n_tasks(self) -> int:
        return self.y_a.shape[1]

    @cached_property
    def gram(self) -> np.ndarray:
        """G = Phi_a^T Phi_a, exactly symmetric."""
        return self.phi_a.T @ self.phi_a

    @cached_property
    def corr(self) -> np.ndarray:
        """C = Phi_a^T Y_a, one row per feature."""
        return self.phi_a.T @ self.y_a

    @cached_property
    def energy(self) -> float:
        """||Y_a||_F^2, the loss of the all-zero model."""
        return float(np.sum(self.y_a ** 2))


def to_lasso(
    phi: np.ndarray, phi_acc: np.ndarray, y: np.ndarray, lambda2: float
) -> AugmentedProblem:
    """Augment the design so the acceleration penalty becomes squared loss."""
    if lambda2 < 0:
        raise ValueError("lambda2 must be nonnegative")
    y = np.asarray(y, dtype=float)
    y = y[:, None] if y.ndim == 1 else y  # a single target is one column
    if phi.shape != phi_acc.shape or phi.shape[0] != y.shape[0]:
        raise ValueError(
            f"incompatible shapes: Phi {phi.shape}, PhiAcc {phi_acc.shape}, Y {y.shape}"
        )
    phi_a = np.vstack([phi, np.sqrt(lambda2) * phi_acc])
    y_a = np.vstack([y, np.zeros((phi_acc.shape[0], y.shape[1]))])
    return AugmentedProblem(phi_a=phi_a, y_a=y_a, n_data_rows=phi.shape[0])


def lambda_max(prob: AugmentedProblem) -> float:
    """Smallest penalty for which the all-zero solution is optimal.

    KKT at W = 0 for the unscaled objective requires
    ||2 phi_j^T Y_a||_2 <= lambda1 for every feature j. The norm is taken as
    `solve`'s sweep takes it, so a cold solve at lambda_max stays exactly zero.
    """
    return 2.0 * max((math.sqrt(c.dot(c)) for c in prob.corr), default=0.0)


def objective(prob: AugmentedProblem, lambda1: float, W: np.ndarray) -> float:
    """Unscaled elastic-net objective in augmented form."""
    resid = prob.y_a - prob.phi_a @ W
    return float(np.sum(resid ** 2) + lambda1 * np.sum(np.linalg.norm(W, axis=1)))


def _row_norms(X: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a 2-D array."""
    return np.sqrt(np.einsum("ij,ij->i", X, X))


def _certificate(
    prob: AugmentedProblem, lambda1: float, W: np.ndarray, GW: np.ndarray
) -> tuple[np.ndarray, float, float]:
    """Per-feature KKT residuals, duality gap and primal value at W.

    With R = Y_a - Phi_a W, everything follows from D = Phi_a^T R = C - GW:
    the gradient of the loss is -2D and ||R||^2 = ||Y_a||^2 - <W, C + D>.
    The dual point is the scaled residual 2cR with c chosen to make it
    feasible (||phi_j^T (2cR)||_2 <= lambda1 for every j); using
    <R, Y_a> = ||R||^2 + <W, D>, its gap is
    (1 - c)^2 ||R||^2 + lambda1 ||W||_21 - 2c <W, D>, which keeps the
    cancellation against ||Y_a||^2 out of the gap as c approaches 1.
    """
    D = prob.corr - GW
    corr = _row_norms(D)
    row_norms = _row_norms(W)
    active = row_norms > 0
    viol = np.maximum(0.0, 2.0 * corr - lambda1)
    if np.any(active):
        Ga = lambda1 * W[active] / row_norms[active, None] - 2.0 * D[active]
        viol[active] = _row_norms(Ga)
    top = float(np.max(2.0 * corr, initial=0.0))
    c = 1.0 if top <= lambda1 else lambda1 / top
    r2 = max(0.0, prob.energy - float(np.sum(W * (prob.corr + D))))
    penalty = lambda1 * float(np.sum(row_norms))
    gap = (1.0 - c) ** 2 * r2 + penalty - 2.0 * c * float(np.sum(W * D))
    return viol, max(0.0, gap), r2 + penalty


def kkt_violation(prob: AugmentedProblem, lambda1: float, W: np.ndarray) -> float:
    """Max blockwise stationarity residual; 0 at an exact optimum."""
    viol, _, _ = _certificate(prob, lambda1, W, prob.gram @ W)
    return float(np.max(viol, initial=0.0))


def dual_gap(prob: AugmentedProblem, lambda1: float, W: np.ndarray) -> float:
    """Duality gap of the multi-task lasso; upper-bounds F(W) - F(W*)."""
    _, gap, _ = _certificate(prob, lambda1, W, prob.gram @ W)
    return gap


def _newton_step(G_aa, D_a, W_a, norms, lambda1: float):
    """Gradient g = lambda1 U - 2 D_A of F on the nonzero rows A, u_j = w_j /
    ||w_j||, and the step d solving H d = -g, or None if a system is singular.
    H is M (x) I_m - sum_j c_j e_j e_j^T (x) u_j u_j^T, c_j = lambda1 / ||w_j||,
    M = 2 G_AA + diag(c); by Woodbury d = M^-1 (-g + diag(z) U), K z = rowdot(U,
    M^-1 (-g)), a x a systems only. K = diag(1/c) - M^-1 o (U U^T) is solved as
    S K S, S = diag(sqrt c), so that lambda1 = 0 needs no special case. H is PSD,
    so the caller rejects a step whose decrement -g'd is negative."""
    a, U, c = norms.size, W_a / norms[:, None], lambda1 / norms
    grad = lambda1 * U - 2.0 * D_a
    M = 2.0 * G_aa
    M.reshape(-1)[:: a + 1] += c
    SU = np.sqrt(c)[:, None] * U
    try:
        M_inv = np.linalg.inv(M)
        X = M_inv @ -grad
        SKS = np.subtract(np.eye(a), M_inv * (SU @ SU.T))
        y = np.linalg.solve(SKS, np.einsum("ij,ij->i", SU, X))
    except np.linalg.LinAlgError:
        return grad, None
    return grad, X + M_inv @ (y[:, None] * SU)


def solve(
    prob: AugmentedProblem,
    lambda1: float,
    tol: float = 1e-8,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """Block coordinate descent with group soft-thresholding, in Gram form.

    Blocks are whole coefficient rows (one feature across all tasks); the
    update of row j needs only D[j] = phi_j^T R = C[j] - (G W)[j]. Cyclic
    sweeps run over a working set grown by worst KKT violation, outside which
    every row is zero, so a block update costs O(|work| m); an IRLS jump on
    the nonzero rows accelerates near-duplicate designs. Returns once the KKT
    residual certifies the iterate (kkt_violation <= 10 tol) or the duality
    gap drops below tol scale; degenerate designs where neither certificate
    is attainable fall back to a sqrt(tol)-scale gap bound after LOOSE_AFTER
    sweeps. Logs one DEBUG record per call.

    A warm start is first polished by Newton steps on its nonzero rows, each
    lowering F without zeroing a row, strictly unless the decrement is at the
    round-off level of F; W is written only if it gets there within a few
    steps. That point is optimal on those rows alone, so the solve returns only
    on the KKT exit; else each cycle sweeps until the nonzero rows stay put and
    polishes them again, with IRLS only where that polish is rejected.
    """
    if lambda1 < 0:
        raise ValueError("lambda1 must be nonnegative")
    p, m = prob.n_features, prob.n_tasks
    if warm_start is not None:
        W = np.array(warm_start, dtype=float)
        if W.shape != (p, m):
            raise ValueError(f"warm start shape {W.shape}, expected {(p, m)}")
    else:
        W = np.zeros((p, m))

    G, C = prob.gram, prob.corr
    irls_steps = irls_calls = irls_capped = 0

    def sweep(W_w, WC, blocks, nonzero) -> float:
        # W_w is the top half of WC = [W_w; C_w], and blocks holds each
        # working-set row's (W_w row view, h_k, G_kk) with h_k = [-G_off[k],
        # unit row k]: row k's block target e_k = d_k + G_kk w_k = C_k -
        # G_off[k] W_w is the one product h_k WC, zero row or not. nonzero
        # flags the rows of W_w that are not all zero.
        W_old = W_w.copy()
        for k, (w, h, g_kk) in enumerate(blocks):
            if g_kk == 0.0:
                continue
            e = h.dot(WC)
            zn = math.sqrt(e.dot(e))
            if 2.0 * zn <= lambda1:  # the row is, or becomes, zero
                if nonzero[k]:
                    w[...] = 0.0
                    nonzero[k] = False
                continue
            np.multiply(e, (1.0 - lambda1 / (2.0 * zn)) / g_kk, out=w)
            nonzero[k] = True
        # Each row moves at most once per sweep: this is the max |delta|.
        return float(np.maximum.reduce(np.abs(W_w - W_old), axis=None))

    def irls_refine(idx, G_ww, D_w) -> None:
        # Near-duplicate basis columns make plain coordinate descent crawl;
        # solving the smooth restricted problem on the current active rows by
        # iteratively reweighted least squares jumps straight to its optimum.
        # Only descent steps are accepted, and the surrounding full sweeps
        # still certify optimality, so the minimizer is unchanged. D_w is
        # not written back: the next cycle rebuilds it from a fresh G W.
        nonlocal irls_steps, irls_calls, irls_capped
        norms = _row_norms(W[idx])
        a = np.flatnonzero(norms > 0)
        rows, norms, W_a, D_a = idx[a], norms[a], W[idx[a]], D_w[a]
        G_aa, C_a = G_ww[np.ix_(a, a)], C[idx[a]]
        # The system matrix G_AA + diag(lambda1 / (2 ||w_j||)) is built in
        # one reused buffer.
        A, half_lam = np.empty_like(G_aa), 0.5 * lambda1
        penalty = lambda1 * float(norms.sum())
        f = prob.energy - float(np.vdot(W_a, C_a + D_a)) + penalty
        steps = 0
        while rows.size and steps < IRLS_MAX_STEPS:
            steps += 1
            np.copyto(A, G_aa)
            A.reshape(-1)[:: rows.size + 1] += half_lam / norms
            try:
                W_s = np.linalg.solve(A, C_a)
            except np.linalg.LinAlgError:
                break
            delta = W_s - W_a
            D_trial = D_a - G_aa @ delta
            norms_s = np.sqrt(np.add.reduce(W_s * W_s, axis=1))
            penalty_s = lambda1 * float(norms_s.sum())
            # With D = C - GW, F(W) = ||Y_a||^2 - <W, C + D> + penalty, and
            # F(W + delta) - F(W) = -<delta, D + D_trial> + penalty change
            # is differenced directly rather than through ||Y_a||^2.
            f_change = penalty_s - penalty - float(np.vdot(delta, D_a + D_trial))
            if f_change >= -1e-15 * (1.0 + abs(f)):
                break
            W_a, D_a, norms, penalty, f = W_s, D_trial, norms_s, penalty_s, f + f_change
            if np.maximum.reduce(np.abs(delta), axis=None) <= tol:
                break
            if not norms.all():  # a row reached exactly zero: drop it
                W[rows] = W_a
                keep = norms > 0
                rows, W_a, D_a, norms = rows[keep], W_a[keep], D_a[keep], norms[keep]
                G_aa, C_a = G_aa[np.ix_(keep, keep)], C_a[keep]
                A, penalty = np.empty_like(G_aa), lambda1 * float(norms.sum())
        W[rows] = W_a
        irls_calls, irls_steps = irls_calls + 1, irls_steps + steps
        irls_capped += steps == IRLS_MAX_STEPS

    def newton_polish() -> tuple[str, int]:
        rows = np.flatnonzero(W.any(axis=1))
        if not rows.size:
            return "none", 0
        G_aa, C_a, W_a = G[np.ix_(rows, rows)], C[rows], W[rows]
        D_a, norms = C_a - G_aa @ W_a, _row_norms(W_a)
        f_tol = 1e-15 * (1.0 + abs(prob.energy - float(np.vdot(W_a, C_a + D_a))
                                   + lambda1 * norms.sum()))
        for steps in range(1, NEWTON_MAX_STEPS + 1):
            grad, delta = _newton_step(G_aa, D_a, W_a, norms, lambda1)
            # H is PSD, so a negative decrement is a numerical failure.
            if delta is None or (decrement := -float(np.vdot(grad, delta))) < 0.0:
                return "rejected", steps
            W_s, D_s = W_a + delta, D_a - G_aa @ delta
            norms_s = _row_norms(W_s)
            # F(W + delta) < F(W) through D as in irls_refine, with ||w + d|| -
            # ||w|| = <2w + d, d> / (||w + d|| + ||w||); at round-off it may fail.
            grow = np.einsum("ij,ij->i", 2.0 * W_a + delta, delta) / (norms_s + norms)
            descent = lambda1 * grow.sum() < np.vdot(delta, D_a + D_s)
            if not (norms_s.all() and (descent or decrement <= f_tol)):
                return "rejected", steps
            W_a, D_a, norms = W_s, D_s, norms_s
            if decrement <= f_tol:
                W[rows] = W_a
                return "polished", steps
        return "rejected", NEWTON_MAX_STEPS

    def certified() -> tuple[str | None, float, float]:
        """Exit met ("kkt", "gap", "loose" or None), max KKT residual, gap.

        The gap exits cover degenerate designs where block updates crawl:
        they bound the remaining objective decrease, which callers rely on.
        """
        viol, gap, primal = _certificate(prob, lambda1, W, G @ W)
        worst = int(np.argmax(viol)) if viol.size else 0
        kkt = float(viol[worst]) if viol.size else 0.0
        if kkt <= 10.0 * tol:
            return "kkt", kkt, gap
        if gap <= tol * (1.0 + abs(primal)):
            return "gap", kkt, gap
        if sweeps >= LOOSE_AFTER and gap <= np.sqrt(tol) * (1.0 + abs(primal)):
            return "loose", kkt, gap
        # Grow the working set by every strong violator (up to 10 per
        # cycle) so entry is not serialized one feature per cycle.
        in_work = set(work)
        candidates = np.argsort(viol)[::-1][:10]
        for j in candidates:
            j = int(j)
            if viol[j] > 0.5 * viol[worst] and j not in in_work:
                work.append(j)
        return None, kkt, gap

    work = list(np.flatnonzero(W.any(axis=1)))
    if not work:
        # Seed with the most correlated feature so the first cycle has
        # something to sweep over.
        work = [int(np.argmax(_row_norms(C)))]

    sweeps = 0
    kind = None
    polish, newton_steps = newton_polish()
    if polish == "polished":
        kind, kkt, gap = certified()
        polish, kind = ("kkt", kind) if kind == "kkt" else ("continued", None)
    handoff, handoffs = polish == "continued", []
    while kind is None and sweeps < MAX_SWEEPS:
        # W is zero outside work, so G_ww, C_w and W_w hold all a sweep reads.
        idx = np.array(work)
        G_ww, C_w = G[np.ix_(idx, idx)], C[idx]
        g = np.diagonal(G_ww)
        WC = np.concatenate([W[idx], C_w])
        W_w = WC[: idx.size]
        h_rows = np.concatenate([np.diag(g) - G_ww, np.eye(idx.size)], axis=1)
        blocks = list(zip(W_w, h_rows, g.tolist()))
        nonzero = W_w.any(axis=1).tolist()
        for _ in range(min(50, MAX_SWEEPS - sweeps)):
            support = list(nonzero)
            change = sweep(W_w, WC, blocks, nonzero)
            sweeps += 1
            if change <= tol or (handoff and nonzero == support):
                break
        W[idx] = W_w
        if handoff:
            outcome, steps = newton_polish()
            handoffs.append(outcome == "polished")
            newton_steps += steps
        if not (handoff and handoffs[-1]):
            irls_refine(idx, G_ww, C_w - G_ww @ W_w)
        kind, kkt, gap = certified()
    if logger.isEnabledFor(logging.DEBUG):
        logger.debug("solve: p=%d polish=%s newton_steps=%d sweeps=%d irls_steps=%d "
                     "irls_capped=%d/%d handoffs=%d/%d exit=%s kkt=%.3e gap=%.3e", p,
                     polish, newton_steps, sweeps, irls_steps, irls_capped, irls_calls,
                     sum(handoffs), len(handoffs), kind or "none", kkt, gap)
    if kind is not None:
        return W
    raise ConvergenceError(
        f"coordinate descent did not converge in {MAX_SWEEPS} sweeps "
        f"(KKT violation {kkt:.3e})",
        W=W,
        kkt=kkt,
    )


def active_set(W: np.ndarray, tol: float = 0.0) -> np.ndarray:
    """Indices of rows with nonzero (above-tol) Euclidean norm."""
    return np.flatnonzero(np.linalg.norm(W, axis=1) > tol)


def prune(
    W: np.ndarray,
    params: RbfParams,
) -> tuple[np.ndarray, RbfParams]:
    """Drop features whose coefficient rows are at most TOL_PRUNE in norm.

    Removal is permanent: the matching centers and widths disappear from the
    model, so a pruned feature can never re-enter.
    """
    if W.shape[0] != params.n_features:
        raise ValueError(
            f"coefficients have {W.shape[0]} rows but params hold "
            f"{params.n_features} features"
        )
    keep = active_set(W, TOL_PRUNE)
    if not keep.size:
        raise EmptyModelError("empty model: all features pruned")
    return W[keep], params.select(keep)
