"""Squared-exponential basis: values, time-accelerations, parameter partials.

The kernel is k(t; mu, s2) = exp(-(t - mu)^2 / (2 s2)). Widths are carried
as squared widths s2 and optimized in log space so positivity never needs a
constraint. The coupled variant stacks one parameter set per DoF, block by
block along the rows. `basis_and_partials` is the one kernel behind the
basis refinement: values, accelerations and parameter partials for all
DoF blocks in one call, optionally into a caller-owned workspace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA2_MIN = 1e-6


@dataclass(frozen=True)
class RbfParams:
    """Centers (s) and squared widths (s^2) of p basis functions."""

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if mu.shape != sigma2.shape or mu.ndim != 1 or mu.size < 1:
            raise ValueError(f"inconsistent parameter shapes: {mu.shape}, {sigma2.shape}")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma2))):
            raise ValueError("non-finite basis parameters")
        if np.any(sigma2 < SIGMA2_MIN):
            raise ValueError(f"width below sigma2_min={SIGMA2_MIN}")

    @property
    def n_features(self) -> int:
        return self.mu.size

    def to_theta(self) -> np.ndarray:
        """Optimization vector [mu, log sigma2]."""
        return np.concatenate([self.mu, np.log(self.sigma2)])

    def select(self, keep: np.ndarray) -> "RbfParams":
        return RbfParams(mu=self.mu[keep], sigma2=self.sigma2[keep])


@dataclass(frozen=True)
class StackedRbfParams:
    """One RbfParams set per DoF, all sharing the feature count p."""

    per_dof: list[RbfParams]

    def __post_init__(self):
        if len(self.per_dof) < 1:
            raise ValueError("need at least one DoF")
        p = self.per_dof[0].n_features
        if any(params.n_features != p for params in self.per_dof):
            raise ValueError("inconsistent feature counts across DoFs")

    @property
    def n_dof(self) -> int:
        return len(self.per_dof)

    @property
    def n_features(self) -> int:
        return self.per_dof[0].n_features

    def to_theta(self) -> np.ndarray:
        """Stacked vector [mu_1, ..., mu_n, log s2_1, ..., log s2_n]."""
        mus = np.concatenate([params.mu for params in self.per_dof])
        logs = np.concatenate([np.log(params.sigma2) for params in self.per_dof])
        return np.concatenate([mus, logs])

    def select(self, keep: np.ndarray) -> "StackedRbfParams":
        return StackedRbfParams(per_dof=[params.select(keep) for params in self.per_dof])


def eval_basis(t: np.ndarray, params: RbfParams) -> np.ndarray:
    """N x p matrix of kernel evaluations."""
    u = np.asarray(t, dtype=float)[:, None] - params.mu[None, :]
    return np.exp(-(u ** 2) / (2.0 * params.sigma2[None, :]))


def eval_basis_accel(t: np.ndarray, params: RbfParams) -> np.ndarray:
    """Analytic second time derivative of eval_basis."""
    u = np.asarray(t, dtype=float)[:, None] - params.mu[None, :]
    s2 = params.sigma2[None, :]
    phi = np.exp(-(u ** 2) / (2.0 * s2))
    return phi * (u ** 2 / s2 ** 2 - 1.0 / s2)


def basis_and_partials(
    t: np.ndarray, mu: np.ndarray, s2: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, ...]:
    """Kernel values, time-accelerations and their parameter partials.

    mu and s2 (squared widths) have shape (..., p), e.g. one row per DoF
    block. Returns (Phi, Acc, dPhi/dmu, dPhi/dlogs2, dAcc/dmu, dAcc/dlogs2),
    each of shape (..., N, p); column j depends only on feature j. They are
    the six slices of one (6, ..., N, p) array, which is `out` when given:
    the slices double as scratch, so a repeated call allocates nothing of
    size N x p.
    """
    t = np.asarray(t, dtype=float)
    mu = np.asarray(mu, dtype=float)[..., None, :]
    inv = 1.0 / np.asarray(s2, dtype=float)[..., None, :]
    shape = (6,) + np.broadcast_shapes(mu.shape, inv.shape)[:-2] + (t.size, mu.shape[-1])
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"workspace is {out.dtype} {out.shape}, expected float64 {shape}")
    phi, acc, dpm, dpl, dam, dal = out
    # With u = t - mu, a = u / s2, q = u^2 / s2 and g = (q - 1) / s2:
    # Acc = Phi g, dPhi/dmu = Phi a, dPhi/dlogs2 = Phi q / 2,
    # dAcc/dmu = dPhi/dmu (g - 2 / s2),
    # dAcc/dlogs2 = (dPhi/dlogs2 (q - 5) + Phi) / s2.
    u, a, q, g = dpm, dpl, dal, dam
    np.subtract(t[:, None], mu, out=u)
    np.multiply(u, inv, out=a)
    np.multiply(u, a, out=q)
    np.exp(np.multiply(q, -0.5, out=phi), out=phi)
    np.multiply(np.subtract(q, 1.0, out=g), inv, out=g)
    np.multiply(phi, g, out=acc)
    np.multiply(phi, a, out=dpm)  # u and a are dead from here on
    np.multiply(np.multiply(q, 0.5, out=dpl), phi, out=dpl)
    np.subtract(q, 5.0, out=dal)
    dal *= dpl
    dal += phi
    dal *= inv
    np.subtract(g, 2.0 * inv, out=dam)
    dam *= dpm
    return tuple(out)


def eval_basis_param_grads(
    t: np.ndarray, params: RbfParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partials of Phi and its acceleration w.r.t. mu and log sigma2.

    Returns (dPhi/dmu, dPhi/dlogs2, dAcc/dmu, dAcc/dlogs2), each N x p;
    column j depends only on feature j's parameters.
    """
    return basis_and_partials(t, params.mu, params.sigma2)[2:]


def stack_basis(
    t: np.ndarray, stacked: StackedRbfParams
) -> tuple[np.ndarray, np.ndarray]:
    """(N*n) x p basis and acceleration, DoF block i from per_dof[i]."""
    N = np.asarray(t).size
    n, p = stacked.n_dof, stacked.n_features
    Phi = np.empty((N * n, p))
    PhiAcc = np.empty((N * n, p))
    for i, params in enumerate(stacked.per_dof):
        block = slice(N * i, N * (i + 1))
        Phi[block] = eval_basis(t, params)
        PhiAcc[block] = eval_basis_accel(t, params)
    return Phi, PhiAcc


def build_basis(
    t: np.ndarray, params: RbfParams | StackedRbfParams
) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the flat or stacked evaluation."""
    if isinstance(params, StackedRbfParams):
        return stack_basis(t, params)
    return eval_basis(t, params), eval_basis_accel(t, params)
