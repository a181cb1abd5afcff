"""Regularization path over a geometric penalty grid, with feature ranking.

The path starts at the critical penalty (all-zero solution) and descends by
a fixed ratio, warm-starting each solve from the previous one. A path is its
grid and its coefficients; supports and entry penalties derive from them.
The grid penalty at which a feature's coefficient row first becomes nonzero
orders the features by how early they are recruited, which is the
importance ranking; features entering at the same grid point share an entry
penalty and are ordered by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import elastic_net
from .elastic_net import AugmentedProblem


@dataclass(frozen=True)
class PathResult:
    lambdas: np.ndarray                 # strictly descending grid
    coefs: list[np.ndarray]             # one p x m matrix per grid point


@dataclass(frozen=True)
class FeatureRanking:
    order: list[int]                    # rank 1 first (largest entry penalty)
    entry_lambdas: np.ndarray           # aligned with `order`, non-increasing


def compute_path(
    prob: AugmentedProblem,
    n_lambdas: int = 100,
    ratio: float = 1e-3,
    tol: float = 1e-8,
) -> PathResult:
    """Warm-started homotopy from lambda_max down to ratio * lambda_max."""
    if n_lambdas < 2:
        raise ValueError("grid needs at least 2 points")
    if not (0.0 < ratio < 1.0):
        raise ValueError("ratio must lie in (0, 1)")
    lam_max = elastic_net.lambda_max(prob)
    if lam_max == 0.0:
        raise ValueError("zero target: path undefined (lambda_max = 0)")
    lambdas = np.geomspace(lam_max, ratio * lam_max, n_lambdas)

    coefs: list[np.ndarray] = []
    W = None
    for lam in lambdas:
        try:
            W = elastic_net.solve(prob, lam, tol=tol, warm_start=W)
        except elastic_net.ConvergenceError as err:
            raise RuntimeError(f"path solve failed at lambda={lam:.6g}") from err
        coefs.append(W.copy())
    return PathResult(lambdas=lambdas, coefs=coefs)


def rank_features(path: PathResult) -> FeatureRanking:
    """Order the features active at the smallest penalty by entry penalty,
    the first grid penalty at which a feature's row is nonzero."""
    active = path_row_norms(path) > 0
    final = np.flatnonzero(active[-1])
    if final.size == 0:
        raise ValueError("nothing to rank: no active features at the smallest lambda")
    entries = path.lambdas[np.argmax(active[:, final], axis=0)]
    order_idx = np.lexsort((final, -entries))
    return FeatureRanking(order=[int(final[i]) for i in order_idx],
                          entry_lambdas=entries[order_idx])


def path_row_norms(path: PathResult) -> np.ndarray:
    """len(lambdas) x p matrix of per-feature row norms along the path."""
    return np.stack([np.linalg.norm(W, axis=1) for W in path.coefs])
