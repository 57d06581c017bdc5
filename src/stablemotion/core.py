"""Dimension-generic geometric primitives and the shared data model.

Everything here works for d in {2, 3}. Values are immutable after
construction (arrays are frozen), so they can be shared freely across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DegenerateFrame,
    NonMonotoneTimestamps,
    ValidationError,
)

# the least separation of two points that span a frame or a link
DEGENERATE_POINT = 1e-9
# how many joint diameters a loaded joint or component mean, or a
# descriptor position, may lie from the chain
REACH = 1e3
# R^T R = I check on Pose rotations
_ORTHONORMAL = 1e-9

_WORLD_Z = np.array([0.0, 0.0, 1.0])
_WORLD_Y = np.array([0.0, 1.0, 0.0])
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _frozen(a) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _orthonormal(R: np.ndarray, tol: float) -> bool:
    """Whether R^T R = I to within tol, for one (d, d) matrix or a stack.
    An entry past 1 + tol fails first, so the product cannot overflow."""
    d = R.shape[-1]
    return bool(np.abs(R).max() <= 1.0 + tol and np.abs(
        R.swapaxes(-1, -2) @ R - np.eye(d)).max() <= tol)


def _pow2_scale(a: np.ndarray, axis=None) -> np.ndarray:
    """A power of two within a factor 2 of the largest |entry| (1 where
    all are zero): dividing by it is exact and leaves every entry in
    [-2, 2], so sums and squares of a few entries cannot overflow."""
    top = np.abs(a).max(axis=axis, keepdims=axis is not None)
    return np.ldexp(1.0, np.frexp(np.where(top > 0, top, 1.0))[1] - 1)


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
        if not np.all(np.isfinite(self.position)) or not np.all(np.isfinite(R)):
            raise ValidationError("pose entries must be finite")
        if not _orthonormal(R, _ORTHONORMAL):
            raise ValidationError("rotation is not orthonormal")
        if abs(np.linalg.det(R) - 1.0) > _ORTHONORMAL:
            raise ValidationError("rotation must have determinant +1")

    @property
    def dim(self) -> int:
        return self.position.shape[0]

    @property
    def x_axis(self) -> np.ndarray:
        return self.rotation[:, 0]


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


def frame_rotations(origins: np.ndarray, towards: np.ndarray) -> np.ndarray:
    """Rotations (n, d, d) whose x-axis points from each row of `origins`
    (n, d) at the same row of `towards`.

    The remaining axes are completed deterministically: in 2D the y-axis is
    the 90-degree CCW rotation of x; in 3D the y-axis comes from crossing x
    with world z (or world y when x is nearly vertical), and z = x cross y.
    """
    origins = np.asarray(origins, dtype=float)
    towards = np.asarray(towards, dtype=float)
    if origins.ndim != 2 or towards.shape != origins.shape:
        raise ValidationError("frame ends must be two (n, d) arrays")
    _check_dim(origins.shape[1])
    if not (np.all(np.isfinite(origins)) and np.all(np.isfinite(towards))):
        raise ValidationError("frame ends must be finite")
    # in units of each row's largest end, so the difference cannot overflow
    s = np.maximum(_pow2_scale(origins, axis=1), _pow2_scale(towards, axis=1))
    delta = towards / s - origins / s
    norm = np.linalg.norm(delta, axis=1, keepdims=True)
    if np.any(norm <= DEGENERATE_POINT / s):
        raise DegenerateFrame("frame endpoints coincide")
    x = delta / norm
    if origins.shape[1] == 2:
        return np.stack([x, np.stack([-x[:, 1], x[:, 0]], axis=1)], axis=2)
    aux = np.where(np.abs(x[:, 2:]) > 0.99, _WORLD_Y, _WORLD_Z)
    y = _cross(x, aux)
    y /= np.linalg.norm(y, axis=1, keepdims=True)
    return np.stack([x, y, _cross(x, y)], axis=2)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross products of (n, 3) stacks (np.cross's formula,
    without its axis handling, which costs more than the products)."""
    return a[:, _NEXT] * b[:, _PREV] - a[:, _PREV] * b[:, _NEXT]


def frame_from_two_points(origin: np.ndarray, toward: np.ndarray) -> Pose:
    """Pose at `origin` whose x-axis points at `toward`: a batch of one of
    `frame_rotations`."""
    origin = np.asarray(origin, dtype=float)
    return Pose(origin, frame_rotations(
        origin[None], np.asarray(toward, dtype=float)[None])[0])


def joint_diameter(joints: np.ndarray) -> float:
    """Twice the largest distance of the joints from their mean."""
    return 2.0 * float(np.max(np.linalg.norm(
        joints - joints.mean(axis=0), axis=1)))


def compute_velocities(traj: Trajectory) -> Trajectory:
    """Forward finite differences; the terminal velocity is the zero vector.

    The demonstration ends at the attractor, so zero terminal velocity is
    the consistent training signal. A sampling interval with no finite
    reciprocal (`ProfileConfig`'s rule for dt), or a velocity that
    overflows, is a ValidationError.
    """
    pts, ts = traj.points, traj.timestamps
    dt = np.diff(ts)[:, None]
    # the shortest interval has the largest reciprocal
    if not math.isfinite(1.0 / float(dt.min())):
        raise ValidationError(
            f"sampling interval {dt.min():g} has no finite reciprocal")
    vel = np.zeros_like(pts)
    with np.errstate(over="ignore"):  # Trajectory rejects an inf velocity
        vel[:-1] = np.diff(pts, axis=0) / dt
    return Trajectory(pts, ts, vel)
