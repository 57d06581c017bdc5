"""Regenerate a timed trajectory through re-positioned chain joints.

The profile runs straight from joint to joint, each joint at the index
its share of the polyline's length gives it. Uniform timestamps and
finite differences then give the velocity targets for policy
re-estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (_MAX_POINTS, Trajectory, _array, _check_interval,
                   _check_numbers, _forward_velocities, _link_lengths)
from .errors import IndexCollision, ValidationError


@dataclass(frozen=True)
class ProfileConfig:
    p: int                # number of points
    dt: float             # uniform sampling interval, seconds

    def __post_init__(self):
        _check_numbers(self, counts=("p",), reals=("dt",))
        if not 2 <= self.p <= _MAX_POINTS:  # one row per point
            raise ValidationError(f"need 2 to {_MAX_POINTS} profile points")
        _check_interval(self.dt)
        if not math.isfinite(float(self.dt) * (self.p - 1)):  # last stamp
            raise ValidationError(f"dt (p - 1) overflows at p = {self.p}")

    @staticmethod
    def for_demo(demo: Trajectory) -> "ProfileConfig":
        """Match the source demo's length and median sampling interval."""
        return ProfileConfig(p=len(demo), dt=demo.median_dt())


def regenerate_profile(joints: np.ndarray, cfg: ProfileConfig) -> Trajectory:
    """Timed trajectory of cfg.p points through the joints (m, d), m >= 2,
    with derived velocities.

    Joint q sits at index floor(lambda_q (p - 1)), lambda_q its share of
    the polyline's length up to it, and the points between two joints run
    straight from one to the other. A link with no direction is a
    DegenerateFrame, as in a chain, and two joints on one index an
    IndexCollision.
    """
    joints = _array(joints, "joints", (None, "d"), position=True)
    if len(joints) < 2:
        raise ValidationError(f"need m >= 2 joints, got {len(joints)}")
    p = cfg.p
    cum = np.concatenate([[0.0], np.cumsum(_link_lengths(joints))])
    idx = np.floor(cum / cum[-1] * (p - 1)).astype(int)
    if len(np.unique(idx)) != len(idx):
        raise IndexCollision(
            f"{len(idx)} joints collide on a {p}-point profile")

    # piecewise-linear interpolation at the joint indices (the first is 0,
    # the last p-1)
    points = np.column_stack([np.interp(np.arange(p), idx, joints[:, a])
                              for a in range(joints.shape[1])])
    timestamps = cfg.dt * np.arange(p)
    return Trajectory(points, timestamps,
                      _forward_velocities(points, timestamps))
