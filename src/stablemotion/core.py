"""Dimension-generic geometric primitives and the shared data model.

Everything here works for d in {2, 3}. Values are immutable after
construction (arrays are frozen), so they can be shared freely across
threads.

A position (a pose's position, trajectory points, a mean, an attractor,
joints, fit data, a query state) is within B = 1e100 in every coordinate,
or the reader refuses it. Two have ||x - y||^2 <= 12 B^2 < 1e-100 F, F the
largest float: no distance overflows, nor one scaled by EM's precisions
(<= 1e12). A policy's S, G and P_B keep ||z_k||^2 <= 8 d^3 B^2 / S^2, a
velocity <= 2 K d G B (K <= 1e12) and y^T P y <= 4 d^2 P_B B^2 below 1e-5 F.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DegenerateFrame,
    NonMonotoneTimestamps,
    ValidationError,
)

# the least separation of two points that span a frame or a link
DEGENERATE_POINT = 1e-9
# the most points of a profile or a sampled field: each holds one row per
# point
_MAX_POINTS = 10 ** 6
# R^T R = I check on Pose rotations
_ORTHONORMAL = 1e-9
_MAX_FLOAT = float(np.finfo(float).max)
# B; a policy's least sd S, largest gain G and largest certificate entry P_B
_POSITION_BOUND = 1e100
_THINNEST_SD = 1e4 * _POSITION_BOUND / math.sqrt(_MAX_FLOAT)
_GAIN_BOUND = 1e-18 * _MAX_FLOAT / _POSITION_BOUND
_CERTIFICATE_BOUND = 1e-8 * _MAX_FLOAT / _POSITION_BOUND ** 2

_WORLD_Z = np.array([0.0, 0.0, 1.0])
_WORLD_Y = np.array([0.0, 1.0, 0.0])
_NEXT, _PREV = [1, 2, 0], [2, 0, 1]


def _has_bool(value) -> bool:
    """Whether value, or an entry of it at any depth of lists and tuples,
    is a bool or a numpy bool: numpy reads one among numbers as 0 or 1."""
    if isinstance(value, (list, tuple)):
        return any(map(_has_bool, value))
    return isinstance(value, bool) or getattr(value, "dtype", None) == bool


def _floats(a, name: str, copy=None) -> np.ndarray:
    """a as a float array; entries that are not real numbers (a string,
    even a numeral, a bool or None among them), or ragged rows, are a
    ValidationError, not numpy's bare ValueError or a conversion. Only a
    list or tuple is walked for bools: an array of them has their dtype."""
    try:
        arr = np.asarray(a)
    except ValueError:  # ragged rows
        arr = np.asarray(None)
    if arr.dtype.kind not in "iuf" or (
            isinstance(a, (list, tuple)) and _has_bool(a)):
        raise ValidationError(f"{name} must be real numbers")
    return np.array(arr, dtype=float, copy=copy)


def _fits(have: tuple, shape: tuple) -> bool:
    """Whether an array of shape `have` matches the pattern `shape`: None
    matches any length and "d" a workspace dimension, 2 or 3, the same at
    each place."""
    if len(have) != len(shape):
        return False
    d = None
    for n, want in zip(have, shape):
        if want == "d":
            if n not in (2, 3) or d not in (None, n):
                return False
            d = n
        elif want is not None and n != want:
            return False
    return True


def _array(a, name: str, shape: tuple, copy=None,
           position=False) -> np.ndarray:
    """The one reader of an array a caller hands the library: `_floats`
    of a, of the pattern `shape` (see `_fits`), every entry finite, and
    at most B in magnitude if a position, or a ValidationError."""
    arr = _floats(a, name, copy)
    # an exact shape is one comparison
    if arr.shape != shape and not _fits(arr.shape, shape):
        dims = ", ".join("n" if w is None else str(w) for w in shape)
        raise ValidationError(
            f"{name} has shape {arr.shape}, expected ({dims}"
            f"{',' * (len(shape) == 1)}){', d = 2 or 3' * ('d' in shape)}")
    top = _POSITION_BOUND if position else _MAX_FLOAT
    if np.count_nonzero(np.abs(arr) <= top) < arr.size:  # NaN fails too
        raise ValidationError(f"{name} must be finite" + (
            f", every entry at most {top:g} in magnitude" if position else ""))
    return arr


def _rows(a, name: str, d: int) -> np.ndarray:
    """`_array` of a batch of states (n, d); one state (d,) is a batch of
    one."""
    arr = _floats(a, name)
    return _array(arr[None] if arr.ndim == 1 else arr, name, (None, d),
                  position=True)


def _covariances(a, name: str, shape: tuple, copy=None) -> np.ndarray:
    """`_array` of a stack of covariances of the pattern `shape`, each
    symmetric within 1e-9 and factored by Cholesky, as the policy kernel
    factors it, or a ValidationError: the one check of a covariance."""
    covs = _array(a, name, shape, copy)
    with np.errstate(over="ignore"):  # covariances are not bounded
        if not (np.abs(covs - covs.swapaxes(-1, -2)) <= 1e-9).all():
            raise ValidationError("covariance must be symmetric")
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ValidationError("covariance must be positive definite") from None
    return covs


def _frozen(a, name: str, shape: tuple, position=False) -> np.ndarray:
    """`_array`'s copy of a, which cannot be written: a value's own."""
    out = _array(a, name, shape, copy=True, position=position)
    out.setflags(write=False)
    return out


def _orthonormal(R: np.ndarray, tol: float) -> bool:
    """Whether R^T R = I to within tol, for one (d, d) matrix or a stack.
    An entry past 1 + tol fails first, so the product cannot overflow."""
    d = R.shape[-1]
    return bool(np.abs(R).max() <= 1.0 + tol and np.abs(
        R.swapaxes(-1, -2) @ R - np.eye(d)).max() <= tol)


def _check_number(name: str, value, count: bool = False) -> None:
    """value is an int (a numpy integer too) if a count, else a real
    number; a bool is neither."""
    if isinstance(value, bool) or not isinstance(
            value, numbers.Integral if count else numbers.Real):
        raise ValidationError(f"{name} must be "
                              f"{'an int' if count else 'a number'}, "
                              f"got {value!r}")


def _check_numbers(obj, counts=(), reals=()) -> None:
    """`_check_number` on each field of `obj` named in `counts` or
    `reals`."""
    for name in counts + reals:
        _check_number(name, getattr(obj, name), name in counts)


def _check_interval(dt) -> None:
    """dt, a real number, is a positive finite interval whose reciprocal
    is finite (finite differences divide by it), or a ValidationError."""
    if not 0 < dt <= _MAX_FLOAT:
        raise ValidationError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(1.0 / dt):
        raise ValidationError(f"dt = {dt} has no finite reciprocal")


def _link_lengths(joints: np.ndarray) -> np.ndarray:
    """The (m - 1,) distances between consecutive joints (m, d); a link no
    longer than the degenerate-point tolerance has no direction."""
    lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
    if not np.all(lengths > DEGENERATE_POINT):
        raise DegenerateFrame(f"a link is no longer than "
                              f"{DEGENERATE_POINT:g}")
    return lengths


@dataclass(frozen=True)
class Pose:
    """A position plus a proper orthonormal orientation."""

    position: np.ndarray
    rotation: np.ndarray

    def __post_init__(self):
        position = _frozen(self.position, "position", ("d",), position=True)
        R = _frozen(self.rotation, "rotation", position.shape * 2)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "rotation", R)
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
        pts = _frozen(self.points, "points", (None, "d"), position=True)
        if len(pts) < 2:
            raise ValidationError("trajectory needs at least 2 points")
        ts = _frozen(self.timestamps, "timestamps", pts.shape[:1])
        if np.any(np.diff(ts) <= 0):
            raise NonMonotoneTimestamps("timestamps must be strictly increasing")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "timestamps", ts)
        if self.velocities is not None:
            object.__setattr__(self, "velocities", _frozen(
                self.velocities, "velocities", pts.shape))

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
    """One weighted Gaussian of a mixture: a batch of one of `from_stack`,
    so that every component has passed the one check."""

    prior: float
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        [c] = self.from_stack([self.prior], [self.mean], [self.covariance])
        self.__dict__.update(c.__dict__)

    @classmethod
    def from_stack(cls, priors, means, covariances) -> list:
        """The components of (K,) priors in (0, 1], (K, d) means within B
        and (K, d, d) covariances, d = 2 or 3, all finite, the covariances
        read by `_covariances`: one check of the whole stack."""
        priors = _array(priors, "priors", (None,)).tolist()
        K = len(priors)
        if not K:
            raise ValidationError("need K >= 1 components")
        means = _frozen(means, "(K, d) means", (K, "d"), position=True)
        covs = _covariances(covariances, "(K, d, d) covariances",
                            means.shape + means.shape[1:], copy=True)
        covs.setflags(write=False)
        if not all(0.0 < p <= 1.0 for p in priors):
            raise ValidationError(f"priors must be in (0, 1], got {priors}")
        out = []
        for prior, mean, cov in zip(priors, means, covs):
            c = object.__new__(cls)
            c.__dict__.update(prior=prior, mean=mean, covariance=cov)
            out.append(c)
        return out

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def _stack(components: Sequence[GaussianComponent]) -> tuple:
    """The (K, d) means and (K, d, d) covariances of a component list."""
    return (np.array([c.mean for c in components]),
            np.array([c.covariance for c in components]))


def frame_rotations(origins: np.ndarray, towards: np.ndarray) -> np.ndarray:
    """Rotations (n, d, d) whose x-axis points from each row of `origins`
    (n, d) at the same row of `towards`.

    The remaining axes are completed deterministically: in 2D the y-axis is
    the 90-degree CCW rotation of x; in 3D the y-axis comes from crossing x
    with world z (or world y when x is nearly vertical), and z = x cross y.
    """
    origins = _array(origins, "origins", (None, "d"), position=True)
    towards = _array(towards, "towards", origins.shape, position=True)
    delta = towards - origins
    norm = np.linalg.norm(delta, axis=1, keepdims=True)
    if np.any(norm <= DEGENERATE_POINT):
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
    return Pose(origin, frame_rotations([origin], [toward])[0])


def joint_diameter(joints: np.ndarray) -> float:
    """Twice the largest distance of the joints from their mean."""
    return 2.0 * float(np.max(np.linalg.norm(
        joints - joints.mean(axis=0), axis=1)))


def _forward_velocities(pts: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Forward differences of points (n, d) at timestamps (n,), the last
    row 0; an overflow is left inf, for `Trajectory` to reject."""
    dt = np.diff(ts)[:, None]
    # the shortest interval has the largest reciprocal
    if not math.isfinite(1.0 / float(dt.min())):
        raise ValidationError(
            f"sampling interval {dt.min():g} has no finite reciprocal")
    vel = np.zeros_like(pts)
    with np.errstate(over="ignore"):  # velocities grow as 1 / dt
        vel[:-1] = np.diff(pts, axis=0) / dt
    return vel


def compute_velocities(traj: Trajectory) -> Trajectory:
    """Forward finite differences; the terminal velocity is the zero vector.

    The demonstration ends at the attractor, so zero terminal velocity is
    the consistent training signal. A sampling interval with no finite
    reciprocal (`ProfileConfig`'s rule for dt), or a velocity that
    overflows, is a ValidationError.
    """
    return Trajectory(traj.points, traj.timestamps,
                      _forward_velocities(traj.points, traj.timestamps))
