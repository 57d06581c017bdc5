"""Seeded inputs: demonstrations, re-targeting descriptors, rollout starts.

Every generator takes a ``numpy.random.Generator``; the workloads derive
one stream per item from ``(seed, tag, index)``, so the same seed always
gives the same inputs, and adding an item never changes another's.

The seed places each demonstration with a random rotation and offset and
draws the descriptors and the rollout starts. The shapes themselves do not
depend on the seed: EM's log-likelihood, and so its stopping point, is
invariant to rotation and offset, so every seed asks for the same amount
of fitting work and the timings differ from seed to seed only by noise.
"""

from __future__ import annotations

import zlib

import numpy as np

from stablemotion import (
    GeometricDescriptor,
    Pose,
    Trajectory,
    compute_velocities,
)

LENGTHS = (200, 1000)


def stream(seed: int, tag: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode()), index])


def random_rotation(rng: np.random.Generator, d: int) -> np.ndarray:
    if d == 2:
        a = rng.uniform(0.0, 2.0 * np.pi)
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def axis_rotation(rng: np.random.Generator, d: int,
                  max_angle: float) -> np.ndarray:
    """A rotation by an angle in [-max_angle, max_angle] about a random
    axis (the plane's normal in 2-D)."""
    a = rng.uniform(-max_angle, max_angle)
    if d == 2:
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
    k = rng.normal(size=3)
    k /= np.linalg.norm(k)
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + np.sin(a) * K + (1.0 - np.cos(a)) * K @ K


def _s_curve(t):
    return np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t)])


def _arc(t):
    ang = 0.5 * np.pi * t
    return np.column_stack([np.sin(ang), 1.0 - np.cos(ang)])


def _zigzag(t):
    return np.column_stack([t, 0.25 * np.abs(((4.0 * t) % 2.0) - 1.0)])


def _helix(t):
    return np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t), t])


SHAPES = {"s_curve": _s_curve, "arc": _arc, "zigzag": _zigzag,
          "helix": _helix}


def demo(shape: str, n: int, rng: np.random.Generator,
         rotate: bool = True) -> Trajectory:
    """An n-point, 4-second demonstration of a named shape, randomly
    rotated (unless ``rotate`` is false) and offset."""
    t = np.linspace(0.0, 1.0, n)
    pts = SHAPES[shape](t)
    d = pts.shape[1]
    if rotate:
        pts = pts @ random_rotation(rng, d).T
    offset = rng.uniform(-1.0, 1.0, size=d)
    return compute_velocities(Trajectory(pts + offset, 4.0 * t))


def diameter(points: np.ndarray) -> float:
    """Diagonal of the axis-aligned bounding box."""
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def moved_pose(pose: Pose, rng: np.random.Generator, reach: float,
               max_angle: float = np.deg2rad(30.0)) -> Pose:
    """The pose moved by a random vector of length in [reach/2, reach]
    and rotated by up to max_angle."""
    return Pose(pose.position + shift(rng, pose.dim, reach),
                axis_rotation(rng, pose.dim, max_angle) @ pose.rotation)


def moved_descriptor(base: GeometricDescriptor, rng: np.random.Generator,
                     reach: float) -> GeometricDescriptor:
    return GeometricDescriptor(moved_pose(base.enter, rng, reach),
                               moved_pose(base.exit, rng, reach))


def shift(rng: np.random.Generator, d: int, reach: float) -> np.ndarray:
    """A random vector of length in [reach/2, reach]."""
    v = rng.normal(size=d)
    return v * rng.uniform(0.5, 1.0) * reach / np.linalg.norm(v)


def box_starts(points: np.ndarray, n: int,
               rng: np.random.Generator) -> np.ndarray:
    """n states uniform in the points' bounding box padded by 25% of its
    diagonal on every side."""
    pad = 0.25 * diameter(points)
    lo = points.min(axis=0) - pad
    hi = points.max(axis=0) + pad
    return rng.uniform(lo, hi, size=(n, points.shape[1]))
