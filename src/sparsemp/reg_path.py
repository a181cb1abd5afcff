"""Regularization path over a geometric penalty grid, with feature ranking.

The path starts at the critical penalty (all-zero solution) and descends by
a fixed ratio, warm-starting each solve from the previous one. The grid
penalty at which a feature's coefficient row first becomes nonzero orders
the features by how early they are recruited, which is the importance
ranking; features entering at the same grid point form one tie group.
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
    entry_lambda: np.ndarray            # per feature; nan if never active
    active_sets: list[np.ndarray]


@dataclass(frozen=True)
class FeatureRanking:
    order: list[int]                    # rank 1 first (largest entry penalty)
    entry_lambdas: np.ndarray           # aligned with `order`, non-increasing
    tie_groups: list[list[int]]         # features entering at the same grid point


def compute_path(
    prob: AugmentedProblem,
    n_lambdas: int = 100,
    ratio: float = 1e-3,
    tol: float = 1e-8,
    max_sweeps: int = 10_000,
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

    p = prob.n_features
    coefs: list[np.ndarray] = []
    active_sets: list[np.ndarray] = []
    entry = np.full(p, np.nan)
    W = None
    for lam in lambdas:
        try:
            W = elastic_net.solve(
                prob, lam, tol=tol, max_sweeps=max_sweeps, warm_start=W
            )
        except elastic_net.ConvergenceError as err:
            raise RuntimeError(f"path solve failed at lambda={lam:.6g}") from err
        coefs.append(W.copy())
        act = elastic_net.active_set(W)
        active_sets.append(act)
        newly = act[np.isnan(entry[act])]
        entry[newly] = lam
    return PathResult(
        lambdas=lambdas,
        coefs=coefs,
        entry_lambda=entry,
        active_sets=active_sets,
    )


def rank_features(path: PathResult) -> FeatureRanking:
    """Order the features active at the smallest penalty by entry penalty."""
    final_active = path.active_sets[-1]
    if final_active.size == 0:
        raise ValueError("nothing to rank: no active features at the smallest lambda")
    entries = path.entry_lambda[final_active]
    order_idx = np.lexsort((final_active, -entries))
    order = [int(final_active[i]) for i in order_idx]
    entry_sorted = entries[order_idx]

    tie_groups: list[list[int]] = []
    group_lambda = None
    for feat, lam in zip(order, entry_sorted):
        if tie_groups and lam == group_lambda:
            tie_groups[-1].append(feat)
        else:
            tie_groups.append([feat])
            group_lambda = lam
    return FeatureRanking(order=order, entry_lambdas=entry_sorted, tie_groups=tie_groups)


def path_row_norms(path: PathResult) -> np.ndarray:
    """len(lambdas) x p matrix of per-feature row norms along the path."""
    return np.stack([np.linalg.norm(W, axis=1) for W in path.coefs])
