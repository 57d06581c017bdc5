"""Splitting demonstrations at via-points, stitching chains, and
executing multi-segment plans with one-hot activation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from .chain import ElasticChain
from .core import (GaussianComponent, GeometricDescriptor, Trajectory,
                   _MAX_FLOAT, _array, _check_number, _stack,
                   joint_diameter)
from .errors import (
    ChainGapTooLarge,
    NonMonotoneViaPoints,
    ValidationError,
    ViaPointNotOnDemo,
)
from .gmm import OrderedGmm
from .policy import LpvDsPolicy
from .profile import ProfileConfig

# how far apart one chain's end and the next one's start, and one
# segment's attractor and the next one's start, may lie
_CHAIN_GAP = 1e-6
_ATTRACTOR_CONTINUITY = 1e-6


@dataclass(frozen=True)
class Segment:
    chain: ElasticChain
    descriptor: GeometricDescriptor
    policy: LpvDsPolicy

    def __post_init__(self):
        if not self.chain.dim == self.descriptor.dim == self.policy.dim:
            raise ValidationError("a segment's parts must share a dimension")


@dataclass(frozen=True)
class TaskPlan:
    """Segments executed in turn; the executor moves to the next segment
    within `switch_radius` of the current one's attractor, 1% of the
    diameter of all the segments' joints (at least 1e-14)."""

    segments: Tuple[Segment, ...]
    switch_radius: float = field(init=False)

    def __post_init__(self):
        if not self.segments:
            raise ValidationError("plan needs at least one segment")
        if len({s.chain.dim for s in self.segments}) > 1:
            raise ValidationError("plan segments of different dimensions")
        for a, b in zip(self.segments, self.segments[1:]):
            gap = np.linalg.norm(a.policy.attractor - b.chain.joints[0])
            if gap > _ATTRACTOR_CONTINUITY:
                raise ValidationError(
                    f"segment attractor and next start differ by {gap:.3e}")
        joints = np.vstack([s.chain.joints for s in self.segments])
        object.__setattr__(self, "switch_radius",
                           0.01 * max(joint_diameter(joints), 1e-12))

    @property
    def final_attractor(self) -> np.ndarray:
        return self.segments[-1].policy.attractor


class PlanExecutor:
    """Owns the mutable segment cursor for one rollout of a plan."""

    def __init__(self, plan: TaskPlan):
        self.plan = plan
        self.cursor = 0

    def column(self, Y: np.ndarray) -> np.ndarray:
        """Velocity (d, 1) at one state column Y (d, 1): the active
        segment's kernel, after monotone proximity switching."""
        segments, r = self.plan.segments, self.plan.switch_radius
        while self.cursor < len(segments) - 1:
            e = Y[:, 0] - segments[self.cursor].policy.attractor
            if e @ e >= r * r:
                break
            self.cursor += 1
        return segments[self.cursor].policy.kernel(Y)

    def step(self, xi: np.ndarray) -> Tuple[np.ndarray, int]:
        """One-hot policy evaluation at one state (d,): a batch of one
        of `column`. Returns the velocity and the active segment."""
        x = _array(xi, "state", self.plan.final_attractor.shape, position=True)
        return self.column(x[:, None])[:, 0], self.cursor


def split_demo(traj: Trajectory, via_points: Sequence[np.ndarray],
               radius: float) -> list:
    """Cut the demo at each via-point's closest-approach index, which
    must lie within `radius`, a positive finite number, of the
    via-point."""
    via_points = _array(via_points, "via_points", (None, traj.dim),
                        position=True)
    if len(via_points) == 0:
        raise ValidationError("need at least one via-point")
    _check_number("radius", radius)
    # before any comparison with a distance: an int past the largest
    # float cannot be converted to one, and an inf radius takes any point
    if not 0 < radius <= _MAX_FLOAT:
        raise ValidationError("radius must be positive and finite")
    pts = traj.points
    indices = []
    for v in via_points:
        dist = np.linalg.norm(pts - v, axis=1)
        i = int(np.argmin(dist))
        if dist[i] > radius:
            raise ViaPointNotOnDemo(
                f"via-point {v} is {dist[i]:.3g} from the demo (radius {radius})")
        indices.append(i)
    if np.any(np.diff(indices) <= 0):
        raise NonMonotoneViaPoints(f"split indices {indices} not increasing")
    if indices[0] == 0 or indices[-1] == len(traj) - 1:
        raise NonMonotoneViaPoints("via-points must be interior to the demo")

    bounds = [0] + indices + [len(traj) - 1]
    out = []
    for a, b in zip(bounds, bounds[1:]):
        out.append(Trajectory(pts[a:b + 1], traj.timestamps[a:b + 1]))
    return out


def stitch_chains(chains: Sequence[ElasticChain]) -> ElasticChain:
    """Concatenate chains sharing endpoints into one chain.

    Shared boundary joints are deduplicated and priors renormalized so the
    stitched mixture is again a valid chain, its components in the chains'
    order. Its timing keeps the chains' total sample count (each shared
    joint's sample counted once) and total duration.
    """
    if not chains:
        raise ValidationError("nothing to stitch")
    if len({ch.dim for ch in chains}) > 1:
        raise ValidationError("chains of different dimensions")
    joints = [chains[0].joints]
    for prev, nxt in zip(chains, chains[1:]):
        gap = np.linalg.norm(prev.joints[-1] - nxt.joints[0])
        if gap > _CHAIN_GAP:
            raise ChainGapTooLarge(
                f"endpoint gap {gap:.3e} exceeds {_CHAIN_GAP}")
        joints.append(nxt.joints[1:])
    all_joints = np.vstack(joints)

    comps = [c for ch in chains for c in ch.components.components]
    total = sum(c.prior for c in comps)
    p = sum(ch.timing.p for ch in chains) - (len(chains) - 1)
    duration = sum((ch.timing.p - 1) * ch.timing.dt for ch in chains)
    return ElasticChain(OrderedGmm(tuple(GaussianComponent.from_stack(
        [c.prior / total for c in comps], *_stack(comps)))),
        all_joints, ProfileConfig(p, duration / (p - 1)))
