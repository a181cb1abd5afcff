"""Squared-exponential basis: values, time-accelerations, parameter partials.

The kernel is k(t; mu, s2) = exp(-(t - mu)^2 / (2 s2)). Widths are carried
as squared widths s2 and optimized in log space so positivity never needs a
constraint. `RbfParams` is the one parameter type: n_blocks rows of p
centers and widths, one row per DoF of a coupled model and a single row
for a basis shared by all DoFs. The basis matrices stack the blocks along
their rows. `basis_and_partials` is the one implementation of the kernel:
values, accelerations and parameter partials for all blocks in one call,
optionally into a caller-owned workspace. `build_basis` and `eval_basis`
run only its first half, the values and accelerations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGMA2_MIN = 1e-6


@dataclass(frozen=True)
class RbfParams:
    """Centers (s) and squared widths (s^2), (n_blocks, p) each.

    Block i is DoF i's basis in a coupled model, or the one basis that a
    single-demonstration or ridge model shares across its DoFs. A 1-D
    input is one block.
    """

    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        mu = np.atleast_2d(np.asarray(self.mu, dtype=float))
        sigma2 = np.atleast_2d(np.asarray(self.sigma2, dtype=float))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma2", sigma2)
        if mu.shape != sigma2.shape or mu.ndim != 2 or mu.size < 1:
            raise ValueError(f"inconsistent parameter shapes: {mu.shape}, {sigma2.shape}")
        if not (np.isfinite(mu).all() and np.isfinite(sigma2).all()):
            raise ValueError("non-finite basis parameters")
        if (sigma2 < SIGMA2_MIN).any():
            raise ValueError(f"width below sigma2_min={SIGMA2_MIN}")

    @property
    def n_blocks(self) -> int:
        return self.mu.shape[0]

    @property
    def n_features(self) -> int:
        return self.mu.shape[1]

    def select(self, keep: np.ndarray) -> "RbfParams":
        """The features `keep` of every block."""
        return RbfParams(mu=self.mu[:, keep], sigma2=self.sigma2[:, keep])


def StackedRbfParams(per_dof: list[RbfParams]) -> RbfParams:
    """The blocks of per_dof[0], per_dof[1], ... stacked into one RbfParams."""
    if len({params.n_features for params in per_dof}) > 1:
        raise ValueError("inconsistent feature counts across DoFs")
    return RbfParams(mu=np.concatenate([params.mu for params in per_dof]),
                     sigma2=np.concatenate([params.sigma2 for params in per_dof]))


def _values(t, mu, inv, phi, acc, a, g, q) -> None:
    """The kernel's first half: Phi and Acc for times t (N,), centers mu and
    inverse squared widths inv (..., 1, p). With u = t - mu it leaves
    a = u / s2, g = (q - 1) / s2 and q = u^2 / s2 in their buffers."""
    np.subtract(t[:, None], mu, out=g)  # u, until g is formed
    np.multiply(g, inv, out=a)
    np.multiply(g, a, out=q)
    np.exp(np.multiply(q, -0.5, out=phi), out=phi)
    np.multiply(np.subtract(q, 1.0, out=g), inv, out=g)
    np.multiply(phi, g, out=acc)


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
    a, g, q = dpl, dam, dal
    _values(t, mu, inv, phi, acc, a, g, q)
    np.multiply(phi, a, out=dpm)  # a is dead from here on
    np.multiply(np.multiply(q, 0.5, out=dpl), phi, out=dpl)
    np.subtract(q, 5.0, out=dal)
    dal *= dpl
    dal += phi
    dal *= inv
    np.subtract(g, 2.0 * inv, out=dam)
    dam *= dpm
    return tuple(out)


def build_basis(t: np.ndarray, params: RbfParams) -> tuple[np.ndarray, np.ndarray]:
    """Basis values and their time-accelerations, each (n_blocks*N) x p,
    block i in rows N*i to N*(i+1). Equal to the first two slices of
    `basis_and_partials`."""
    mu, s2 = params.mu, params.sigma2
    t, p = np.asarray(t, dtype=float), mu.shape[-1]
    shape = mu.shape[:-1] + (t.size, p)
    phi, acc = np.empty((2,) + shape)  # scratch apart, so it is freed on return
    _values(t, mu[..., None, :], 1.0 / s2[..., None, :], phi, acc, *np.empty((3,) + shape))
    return phi.reshape(-1, p), acc.reshape(-1, p)


def eval_basis(t: np.ndarray, params: RbfParams) -> np.ndarray:
    """The basis values of `build_basis`."""
    return build_basis(t, params)[0]
