"""Dimension-generic geometric primitives and the shared data model.

Everything here works for d in {2, 3}. Values are immutable after
construction (arrays are frozen), so they can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import (
    DegenerateFrame,
    NonMonotoneTimestamps,
    ValidationError,
)

_WORLD_Z = np.array([0.0, 0.0, 1.0])
_WORLD_Y = np.array([0.0, 1.0, 0.0])


def _frozen(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _check_dim(d: int) -> None:
    if d not in (2, 3):
        raise ValidationError(f"workspace dimension must be 2 or 3, got {d}")


@dataclass(frozen=True)
class Pose:
    """A position plus a proper orthonormal orientation."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "position", _frozen(self.position))
        object.__setattr__(self, "rotation", _frozen(self.rotation))
        d = self.position.shape[0]
        _check_dim(d)
        R = self.rotation
        if R.shape != (d, d):
            raise ValidationError(f"rotation shape {R.shape} != ({d}, {d})")
        tol = DEFAULT_TOLERANCES.orthonormal
        if not np.all(np.isfinite(self.position)) or not np.all(np.isfinite(R)):
            raise ValidationError("pose entries must be finite")
        if np.max(np.abs(R.T @ R - np.eye(d))) > tol:
            raise ValidationError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > tol:
            raise ValidationError("rotation must have determinant +1")

    @property
    def dim(self) -> int:
        return self.position.shape[0]

    @property
    def x_axis(self) -> np.ndarray:
        return self.rotation[:, 0]

    def compose(self, other: "Pose") -> "Pose":
        return Pose(self.position + self.rotation @ other.position,
                    self.rotation @ other.rotation)

    def inverse(self) -> "Pose":
        Rt = self.rotation.T
        return Pose(-Rt @ self.position, Rt)

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.position + self.rotation @ np.asarray(point, dtype=float)

    @staticmethod
    def identity(d: int) -> "Pose":
        return Pose(np.zeros(d), np.eye(d))


@dataclass(frozen=True)
class Trajectory:
    """Timestamped positions with optional per-sample velocities."""

    points: np.ndarray        # (n, d)
    timestamps: np.ndarray    # (n,), strictly increasing seconds
    velocities: Optional[np.ndarray] = None

    def __post_init__(self):
        object.__setattr__(self, "points", _frozen(self.points))
        object.__setattr__(self, "timestamps", _frozen(self.timestamps))
        pts, ts = self.points, self.timestamps
        if pts.ndim != 2 or pts.shape[0] < 2:
            raise ValidationError("trajectory needs at least 2 points")
        _check_dim(pts.shape[1])
        if ts.shape != (pts.shape[0],):
            raise ValidationError("timestamps must match point count")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(ts)):
            raise ValidationError("trajectory entries must be finite")
        if np.any(np.diff(ts) <= 0):
            raise NonMonotoneTimestamps("timestamps must be strictly increasing")
        if self.velocities is not None:
            v = _frozen(self.velocities)
            object.__setattr__(self, "velocities", v)
            if v.shape != pts.shape:
                raise ValidationError("velocities must match points shape")
            if not np.all(np.isfinite(v)):
                raise ValidationError("velocities must be finite")

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def start(self) -> np.ndarray:
        return self.points[0]

    @property
    def end(self) -> np.ndarray:
        return self.points[-1]

    def arc_length(self) -> float:
        return float(np.sum(np.linalg.norm(np.diff(self.points, axis=0), axis=1)))

    def median_dt(self) -> float:
        return float(np.median(np.diff(self.timestamps)))


@dataclass(frozen=True)
class GeometricDescriptor:
    """Entry/exit pose pair constraining a segment's endpoints."""

    enter: Optional[Pose] = None
    exit: Optional[Pose] = None

    def __post_init__(self):
        if self.enter is None and self.exit is None:
            raise ValidationError("descriptor needs an enter or exit pose")
        if self.enter is not None and self.exit is not None:
            if self.enter.dim != self.exit.dim:
                raise ValidationError("descriptor poses must share a dimension")

    @property
    def dim(self) -> int:
        pose = self.enter if self.enter is not None else self.exit
        return pose.dim


@dataclass(frozen=True)
class GaussianComponent:
    """One weighted Gaussian of a mixture."""

    prior: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _frozen(self.mean))
        object.__setattr__(self, "covariance", _frozen(self.covariance))
        if not (0.0 < self.prior <= 1.0):
            raise ValidationError(f"prior must be in (0, 1], got {self.prior}")
        d = self.mean.shape[0]
        _check_dim(d)
        S = self.covariance
        if S.shape != (d, d):
            raise ValidationError("covariance shape mismatch")
        if np.max(np.abs(S - S.T)) > 1e-9:
            raise ValidationError("covariance must be symmetric")
        if np.linalg.eigvalsh(S)[0] <= 0:
            raise ValidationError("covariance must be positive definite")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def frame_from_two_points(origin: np.ndarray, toward: np.ndarray) -> Pose:
    """Pose at `origin` whose x-axis points at `toward`.

    The remaining axes are completed deterministically: in 2D the y-axis is
    the 90-degree CCW rotation of x; in 3D the y-axis comes from crossing x
    with world z (or world y when x is nearly vertical), and z = x cross y.
    """
    origin = np.asarray(origin, dtype=float)
    toward = np.asarray(toward, dtype=float)
    delta = toward - origin
    norm = np.linalg.norm(delta)
    if norm <= DEFAULT_TOLERANCES.degenerate_point:
        raise DegenerateFrame("frame endpoints coincide")
    x = delta / norm
    d = origin.shape[0]
    if d == 2:
        y = np.array([-x[1], x[0]])
        R = np.column_stack([x, y])
    else:
        aux = _WORLD_Y if abs(x @ _WORLD_Z) > 0.99 else _WORLD_Z
        y = np.cross(x, aux)
        y = y / np.linalg.norm(y)
        z = np.cross(x, y)
        R = np.column_stack([x, y, z])
    return Pose(origin, R)


def joint_diameter(joints: np.ndarray) -> float:
    """Twice the largest distance of the joints from their mean."""
    return 2.0 * float(np.max(np.linalg.norm(
        joints - joints.mean(axis=0), axis=1)))


def compute_velocities(traj: Trajectory) -> Trajectory:
    """Forward finite differences; the terminal velocity is the zero vector.

    The demonstration ends at the attractor, so zero terminal velocity is
    the consistent training signal.
    """
    pts, ts = traj.points, traj.timestamps
    dt = np.diff(ts)[:, None]
    vel = np.zeros_like(pts)
    vel[:-1] = np.diff(pts, axis=0) / dt
    return Trajectory(pts, ts, vel)
