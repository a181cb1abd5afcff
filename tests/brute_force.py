"""Brute-force oracle for the multi-task elastic net, shared by the test suites."""

from itertools import chain, combinations

import numpy as np

from sparsemp.elastic_net import AugmentedProblem


def brute_force_objective(prob: AugmentedProblem, lambda1: float) -> float:
    """Search all active-set patterns; fixed-point iterate each to 1e-10.

    On each support S the restricted problem min ||Y - Phi_S W_S||_F^2 +
    lambda1 sum ||W_j|| is solved by iterating the stationarity system
    (Phi_S^T Phi_S + (lambda1/2) diag(1/||W_j||)) W_S = Phi_S^T Y from the
    least-squares start. The global optimum's support is one of the
    patterns, so the minimum over patterns is the optimal objective.
    """
    phi, y = prob.phi_a, prob.y_a
    p = prob.n_features
    best = float(np.sum(y ** 2))  # empty support
    for S in chain.from_iterable(
        combinations(range(p), k) for k in range(1, p + 1)
    ):
        S = list(S)
        phi_s = phi[:, S]
        W_s, *_ = np.linalg.lstsq(phi_s, y, rcond=None)
        for _ in range(10_000):
            norms = np.maximum(np.linalg.norm(W_s, axis=1), 1e-14)
            A = phi_s.T @ phi_s + np.diag(lambda1 / (2.0 * norms))
            W_new = np.linalg.solve(A, phi_s.T @ y)
            if np.max(np.abs(W_new - W_s)) <= 1e-10:
                W_s = W_new
                break
            W_s = W_new
        resid = y - phi_s @ W_s
        f = float(np.sum(resid ** 2) + lambda1 * np.sum(np.linalg.norm(W_s, axis=1)))
        best = min(best, f)
    return best
