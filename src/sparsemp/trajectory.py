"""Demonstration ingestion: segmentation, centering, stacking, synthesis.

A demonstration is a uniformly sampled joint-space recording. Multiple
demonstrations are stacked DoF-major into a single matrix whose columns
are the individual demonstrations, so that one set of features can be
shared across all of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rbf import RbfParams, eval_basis

DT_UNIFORMITY_TOL = 1e-9


class SegmentationError(ValueError):
    """Raised when the requested number of demonstrations cannot be cut."""


@dataclass(frozen=True)
class JointTrajectory:
    """One demonstration: time grid plus an N x n matrix of joint angles."""

    t: np.ndarray
    Q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        Q = np.asarray(self.Q, dtype=float)
        if Q.ndim == 1:
            Q = Q[:, None]
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "Q", Q)
        if t.ndim != 1 or t.shape[0] != Q.shape[0]:
            raise ValueError(f"time grid and joint matrix disagree: {t.shape} vs {Q.shape}")
        if Q.shape[0] < 2 or Q.shape[1] < 1:
            raise ValueError(f"need at least 2 samples and 1 DoF, got {Q.shape}")
        if not (np.isfinite(t).all() and np.isfinite(Q).all()):
            raise ValueError("non-finite values in trajectory")
        steps = np.diff(t)
        if (steps <= 0).any():
            raise ValueError("time grid must be strictly increasing")
        if steps.max() - steps.min() > DT_UNIFORMITY_TOL:
            raise ValueError("non-uniform sampling")

    @property
    def n_samples(self) -> int:
        return self.Q.shape[0]

    @property
    def n_dof(self) -> int:
        return self.Q.shape[1]

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0])

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0])


@dataclass(frozen=True)
class DemoSet:
    """A list of dimension-compatible demonstrations (shared N, n, dt, t0)."""

    demos: list[JointTrajectory]

    def __post_init__(self):
        if len(self.demos) < 1:
            raise ValueError("need at least one demonstration")
        ref = self.demos[0]
        for k, demo in enumerate(self.demos[1:], start=1):
            if demo.n_samples != ref.n_samples or demo.n_dof != ref.n_dof:
                raise ValueError(
                    f"demo {k} shape {demo.Q.shape} incompatible with {ref.Q.shape}"
                )
            if abs(demo.dt - ref.dt) > DT_UNIFORMITY_TOL:
                raise ValueError(f"demo {k} dt {demo.dt} incompatible with {ref.dt}")
            if abs(demo.t[0] - ref.t[0]) > DT_UNIFORMITY_TOL:
                raise ValueError(f"demo {k} starts at t={demo.t[0]:.6g} s, demo 0 at "
                                 f"t={ref.t[0]:.6g} s; demos must share one time grid")

    @property
    def n_demos(self) -> int:
        return len(self.demos)

    @property
    def n_samples(self) -> int:
        return self.demos[0].n_samples

    @property
    def n_dof(self) -> int:
        return self.demos[0].n_dof

    @property
    def dt(self) -> float:
        return self.demos[0].dt


@dataclass(frozen=True)
class CenteredData:
    """Column means (intercepts) plus the mean-removed data."""

    intercepts: np.ndarray
    centered: np.ndarray


@dataclass(frozen=True)
class StackedData:
    """DoF-major vertical stack of a demo set: N*n rows by d columns.

    Sample k of DoF i of demo j lives at row N*i + k, column j.
    """

    Y: np.ndarray
    n_samples: int
    n_dof: int

    def __post_init__(self):
        if self.Y.shape[0] != self.n_samples * self.n_dof:
            raise ValueError(
                f"stacked matrix has {self.Y.shape[0]} rows, "
                f"expected {self.n_samples * self.n_dof}"
            )


def center(traj: JointTrajectory) -> CenteredData:
    """Remove per-joint means; the means become the intercepts."""
    intercepts = traj.Q.mean(axis=0)
    return CenteredData(intercepts=intercepts, centered=traj.Q - intercepts)


def center_stacked(stacked: StackedData) -> tuple[np.ndarray, StackedData]:
    """Center each DoF block of each demo column independently.

    Returns the n x d intercept matrix and the centered stack, so that
    reconstruction is exact per demonstration.
    """
    N, n = stacked.n_samples, stacked.n_dof
    blocks = stacked.Y.reshape(n, N, -1)
    intercepts = blocks.mean(axis=1)
    centered = (blocks - intercepts[:, None, :]).reshape(N * n, -1)
    return intercepts, StackedData(Y=centered, n_samples=N, n_dof=n)


def stack_demoset(demos: DemoSet) -> StackedData:
    """Stack demonstrations DoF-major into an (N*n) x d matrix."""
    N, n = demos.n_samples, demos.n_dof
    Y = np.stack([demo.Q.T for demo in demos.demos], axis=-1).reshape(N * n, -1)
    return StackedData(Y=Y, n_samples=N, n_dof=n)


def joint_speed(Q: np.ndarray, dt: float) -> np.ndarray:
    """Euclidean norm across joints of the central-difference velocity."""
    V = np.gradient(Q, dt, axis=0)
    return np.linalg.norm(V, axis=1)


def segment_demonstrations(
    stream: JointTrajectory, count: int, window: float
) -> tuple[DemoSet, list[int]]:
    """Cut `count` fixed-duration windows centered on the largest velocity peaks.

    Peaks are scored by the joint-space speed (central differences); candidates
    are taken in descending score with earliest-time tie-break, suppressing any
    candidate closer than one window length to an already selected peak.
    Windows that would extend past either end of the stream are rejected
    rather than truncated.

    Returns the demo set plus the selected peak indices (in selection order).
    """
    if count < 1:
        raise ValueError("demonstration count must be >= 1")
    if window <= 0:
        raise ValueError("window must be positive")
    dt = stream.dt
    length = int(round(window / dt))
    if length < 2:
        raise ValueError(f"window of {window} s holds fewer than 2 samples at dt={dt}")
    N = stream.n_samples
    speed = joint_speed(stream.Q, dt)

    half = length // 2
    # Admissible peak positions: the full window must fit inside the stream.
    lo, hi = half, N - (length - half)
    candidates = np.arange(lo, hi + 1)
    if candidates.size == 0:
        raise SegmentationError("stream shorter than one window: found 0 of "
                                f"{count} requested demonstrations")
    # Descending speed, earliest index wins ties.
    order = candidates[np.lexsort((candidates, -speed[candidates]))]

    selected: list[int] = []
    for idx in order:
        if all(abs(idx - s) >= length for s in selected):
            selected.append(int(idx))
            if len(selected) == count:
                break
    if len(selected) < count:
        raise SegmentationError(
            f"fewer than {count} separable peaks: found {len(selected)}"
        )

    t_local = np.arange(length) * dt
    demos = []
    for idx in selected:
        start = idx - half
        demos.append(JointTrajectory(t=t_local, Q=stream.Q[start:start + length]))
    return DemoSet(demos=demos), selected


@dataclass(frozen=True)
class PlantedModel:
    """Ground truth behind a synthetic demo set."""

    centers: np.ndarray            # (K,) seconds
    widths: np.ndarray             # (K,) squared widths, seconds^2
    W: np.ndarray                  # (K, n, d) coefficients
    intercepts: np.ndarray         # (n, d)
    noise: float
    seed: int


def synth_demoset(
    n_demos: int = 5,
    n_dof: int = 7,
    n_samples: int = 500,
    dt: float = 0.002,
    k_features: int = 12,
    coef_scale: float = 1.0,
    noise: float = 0.01,
    seed: int = 0,
    centers: np.ndarray | None = None,
    widths: np.ndarray | None = None,
) -> tuple[DemoSet, PlantedModel]:
    """Generate demonstrations from a planted sparse RBF model.

    Each demo column is the planted basis expansion plus i.i.d. Gaussian
    noise; the ground truth is returned alongside. Deterministic per seed.
    """
    if k_features < 1:
        raise ValueError("need at least one planted feature")
    rng = np.random.default_rng(seed)
    t = np.arange(n_samples) * dt
    duration = t[-1]
    if centers is None:
        centers = np.sort(rng.uniform(0.1 * duration, 0.9 * duration, size=k_features))
    else:
        centers = np.asarray(centers, dtype=float)
    if widths is None:
        widths = np.full(k_features, 0.1)
    else:
        widths = np.asarray(widths, dtype=float)

    W = coef_scale * rng.standard_normal((k_features, n_dof, n_demos))
    intercepts = rng.uniform(-1.0, 1.0, size=(n_dof, n_demos))

    Phi = eval_basis(t, RbfParams(mu=centers, sigma2=widths))
    demos = []
    for j in range(n_demos):
        Q = Phi @ W[:, :, j] + intercepts[:, j]
        Q = Q + noise * rng.standard_normal(Q.shape)
        demos.append(JointTrajectory(t=t, Q=Q))
    truth = PlantedModel(
        centers=centers, widths=widths, W=W, intercepts=intercepts,
        noise=noise, seed=seed,
    )
    return DemoSet(demos=demos), truth


def load_trajectory_csv(path) -> JointTrajectory:
    """Read a `time,q1,...,qn` delimited file (seconds, radians)."""
    data = np.genfromtxt(path, delimiter=",", names=True)
    names = data.dtype.names
    if names is None or names[0] != "time":
        raise ValueError(f"{path}: expected header 'time,q1,...,qn'")
    cols = np.stack([data[name] for name in names], axis=1)
    if np.any(~np.isfinite(cols)):
        raise ValueError(f"{path}: missing or non-numeric samples are rejected")
    return JointTrajectory(t=cols[:, 0], Q=cols[:, 1:])


def save_trajectory_csv(path, traj: JointTrajectory) -> None:
    """Write the `time,q1,...,qn` format with round-trip-exact decimals."""
    header = "time," + ",".join(f"q{i + 1}" for i in range(traj.n_dof))
    rows = np.column_stack([traj.t, traj.Q])
    np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.17g")
