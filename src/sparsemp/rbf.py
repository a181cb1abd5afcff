"""Squared-exponential basis: values, time-accelerations, parameter partials.

The kernel is k(t; mu, s2) = exp(-(t - mu)^2 / (2 s2)). Widths are carried
as squared widths s2 and optimized in log space so positivity never needs a
constraint. The coupled variant stacks one parameter set per DoF, block by
block along the rows.
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

    @staticmethod
    def from_theta(theta: np.ndarray) -> "RbfParams":
        theta = np.asarray(theta, dtype=float)
        p = theta.size // 2
        return RbfParams(mu=theta[:p], sigma2=np.exp(theta[p:]))

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

    @staticmethod
    def from_theta(theta: np.ndarray, n_dof: int) -> "StackedRbfParams":
        theta = np.asarray(theta, dtype=float)
        p = theta.size // (2 * n_dof)
        mus = theta[: n_dof * p].reshape(n_dof, p)
        logs = theta[n_dof * p:].reshape(n_dof, p)
        return StackedRbfParams(
            per_dof=[RbfParams(mu=mus[i], sigma2=np.exp(logs[i])) for i in range(n_dof)]
        )

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


def eval_basis_param_grads(
    t: np.ndarray, params: RbfParams
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partials of Phi and its acceleration w.r.t. mu and log sigma2.

    Returns (dPhi/dmu, dPhi/dlogs2, dAcc/dmu, dAcc/dlogs2), each N x p;
    column j depends only on feature j's parameters.
    """
    u = np.asarray(t, dtype=float)[:, None] - params.mu[None, :]
    s2 = params.sigma2[None, :]
    phi = np.exp(-(u ** 2) / (2.0 * s2))
    g = u ** 2 / s2 ** 2 - 1.0 / s2

    dphi_dmu = phi * (u / s2)
    dphi_dlogs = phi * (u ** 2 / (2.0 * s2))
    dacc_dmu = phi * (u / s2 * g - 2.0 * u / s2 ** 2)
    dacc_dlogs = phi * (u ** 2 / (2.0 * s2) * g - 2.0 * u ** 2 / s2 ** 2 + 1.0 / s2)
    return dphi_dmu, dphi_dlogs, dacc_dmu, dacc_dlogs


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
