"""The articulated Gaussian chain and its constrained re-targeting.

An ordered mixture is condensed into joints (precision-weighted means of
neighboring components, plus the demo endpoints). Each component's mean
and covariance eigenbasis are stored relative to its preceding joint
frame, so after the joints are re-positioned by a constrained Laplacian
edit the full mixture can be reconstructed at the new geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    _frozen,
    frame_from_two_points,
    frame_rotations,
    joint_diameter,
)
from .errors import (RankDeficientSystem, SingularCovariance,
                     ValidationError, ZeroLengthChain)
from .gmm import OrderedGmm


@dataclass(frozen=True)
class LinkFrames:
    """Every component's parameters in the frame of its link (joint k
    toward joint k+1), stacked over the K links."""

    local_mean: np.ndarray        # (K, d): R_k^T (mu_k - joint_k)
    local_eigvecs: np.ndarray     # (K, d, d) columns: covariance eigenbasis
                                  # in frame coords
    eigvals: np.ndarray           # (K, d)
    along_index: np.ndarray       # (K,): eigenvector most aligned with the
                                  # link axis

    def __post_init__(self):
        for name in ("local_mean", "local_eigvecs", "eigvals"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "along_index",
                           _frozen(self.along_index, dtype=int))
        d = self.local_mean.shape[1]
        if not np.all((0 <= self.along_index) & (self.along_index < d)):
            raise ValidationError("link frame along_index must be an axis "
                                  "index")

    def __len__(self) -> int:
        return self.local_mean.shape[0]

    def stretched(self, ratio: np.ndarray) -> "LinkFrames":
        """The frames of links whose lengths are scaled by `ratio` (K,):
        the local mean's along-link coordinate scales by the ratio and
        the along-link eigenvalue (a variance) by its square."""
        mean = self.local_mean.copy()
        mean[:, 0] *= ratio
        vals = self.eigvals.copy()
        vals[np.arange(len(self)), self.along_index] *= ratio ** 2
        return LinkFrames(mean, self.local_eigvecs, vals, self.along_index)


@dataclass(frozen=True)
class ElasticChain:
    components: OrderedGmm
    joints: np.ndarray            # (K+1, d)
    link_frames: LinkFrames
    # (K,) distances between consecutive joints, derived from them
    link_lengths: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K, d = len(self.components), self.components.dim
        if self.joints.shape != (K + 1, d):
            raise ValidationError(
                "chain needs K+1 joints of the components' dimension")
        object.__setattr__(self, "link_lengths", np.linalg.norm(
            np.diff(self.joints, axis=0), axis=1))
        if not np.all(self.link_lengths > 0):
            raise ZeroLengthChain("links must have positive length")

    @property
    def dim(self) -> int:
        return self.joints.shape[1]

    def start_pose(self) -> Pose:
        """Frame at the first joint, x-axis along the first link."""
        return frame_from_two_points(self.joints[0], self.joints[1])

    def end_pose(self) -> Pose:
        """Frame at the last joint, x-axis along the incoming link."""
        j = self.joints
        return Pose(j[-1], frame_from_two_points(j[-2], j[-1]).rotation)

    def endpoint_descriptor(self) -> GeometricDescriptor:
        return GeometricDescriptor(enter=self.start_pose(), exit=self.end_pose())


def _stack(components: Sequence[GaussianComponent]):
    """The (K, d) means and (K, d, d) covariances of a component list."""
    return (np.array([c.mean for c in components]),
            np.array([c.covariance for c in components]))


def gaussian_joints(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Means (K-1, d) of the products of consecutive Gaussians of (K, d)
    means and (K, d, d) covariances (precision-weighted means)."""
    try:
        prec = np.linalg.inv(covs)
        st = np.linalg.inv(prec[:-1] + prec[1:])
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    pm = (prec @ means[..., None])[..., 0]
    return (st @ (pm[:-1] + pm[1:])[..., None])[..., 0]


def gaussian_joint(g1: GaussianComponent, g2: GaussianComponent) -> np.ndarray:
    """Mean of the product of two Gaussians: a batch of one of
    `gaussian_joints`."""
    return gaussian_joints(*_stack([g1, g2]))[0]


def link_frames(components: Sequence[GaussianComponent],
                joints: np.ndarray) -> LinkFrames:
    """Every component's mean and covariance eigenbasis in its link frame,
    from one stacked eigendecomposition.

    Each eigenvector's sign is fixed so that its link-x coordinate is
    nonnegative; when it is orthogonal to the link, its link-y coordinate
    breaks the tie.
    """
    R_t = frame_rotations(joints[:-1], joints[1:]).swapaxes(1, 2)
    means, covs = _stack(components)
    vals, vecs = np.linalg.eigh(covs)
    local = R_t @ vecs
    ref = np.where(np.abs(local[:, 0]) > 1e-9, local[:, 0], local[:, 1])
    local *= np.where(ref < 0, -1.0, 1.0)[:, None, :]
    return LinkFrames(local_mean=(R_t @ (means - joints[:-1])[..., None])[..., 0],
                      local_eigvecs=local, eigvals=vals,
                      along_index=np.argmax(np.abs(local[:, 0]), axis=1))


def build_chain(gmm: OrderedGmm, demo: Trajectory) -> ElasticChain:
    """Joints = demo start, K-1 Gaussian products, demo end; frames per link."""
    joints = np.vstack([demo.start, gaussian_joints(*_stack(gmm.components)),
                        demo.end])
    return chain_from_state(gmm.components, joints)


def build_laplacian(m: int) -> np.ndarray:
    """Path-graph Laplacian, unit weights: rows sum to 0, diagonal 1."""
    if m < 2:
        raise ValidationError("need at least 2 waypoints")
    L = np.eye(m)
    L[0, 1] = -1.0
    L[m - 1, m - 2] = -1.0
    for i in range(1, m - 1):
        L[i, i - 1] = -0.5
        L[i, i + 1] = -0.5
    return L


def _solve_pinned(L: np.ndarray, delta: np.ndarray, pins: dict) -> np.ndarray:
    """min ||L x - delta||^2 s.t. x[i] = pins[i], by variable elimination."""
    m, d = delta.shape
    pinned = sorted(pins)
    free = [i for i in range(m) if i not in pins]
    x = np.zeros((m, d))
    for i in pinned:
        x[i] = pins[i]
    if free:
        rhs = delta - L[:, pinned] @ x[pinned]
        sol, _, rank, _ = np.linalg.lstsq(L[:, free], rhs, rcond=None)
        x[free] = sol
    return x


def solve_constrained_edit(joints0: np.ndarray,
                           o_start: Optional[Pose], o_end: Optional[Pose]
                           ) -> Tuple[np.ndarray, dict]:
    """Re-position the joints to satisfy new endpoint frames.

    The first (and/or last) two joints are pinned: the endpoint goes to the
    descriptor position, and its neighbor sits one original link length
    along the descriptor x-axis, so the identity edit is exact. The
    interior minimises the residual of the joints' path-graph Laplacian
    coordinates, solved as an exact equality-constrained linear
    least-squares. Returns (new_joints, pins), pins mapping each pinned
    joint index to its target.
    """
    joints0 = np.asarray(joints0, dtype=float)
    m = joints0.shape[0]
    if o_start is None and o_end is None:
        raise ValidationError("at least one descriptor pose is required")
    link_lengths = np.linalg.norm(np.diff(joints0, axis=0), axis=1)

    # a target far outside the chain's workspace would be edited in the
    # rounding of its coordinates, and stretch the links past overflow
    centre = joints0.mean(axis=0)
    reach = DEFAULT_TOLERANCES.reach * joint_diameter(joints0)
    for pose in (p for p in (o_start, o_end) if p is not None):
        far = np.abs(pose.position - centre)
        if far.max() > reach or np.linalg.norm(far) > reach:
            raise ValidationError(
                f"a descriptor position lies more than "
                f"{DEFAULT_TOLERANCES.reach:g} joint diameters from the chain")

    L = build_laplacian(m)
    pins: dict = {}

    def _pin(i: int, target: np.ndarray) -> None:
        if i in pins and np.linalg.norm(pins[i] - target) > \
                DEFAULT_TOLERANCES.constraint_exactness:
            raise RankDeficientSystem(
                f"joint {i} pinned to conflicting targets "
                f"(residual {np.linalg.norm(pins[i] - target):.3e})")
        pins[i] = np.asarray(target, dtype=float)

    if o_start is not None:
        _pin(0, o_start.position)
        _pin(1, o_start.position + link_lengths[0] * o_start.x_axis)
    if o_end is not None:
        _pin(m - 1, o_end.position)
        _pin(m - 2, o_end.position - link_lengths[-1] * o_end.x_axis)

    return _solve_pinned(L, L @ joints0, pins), pins


def _recovered(chain: ElasticChain, new_joints: np.ndarray):
    """(frames, components) of the chain re-posed at
    `new_joints`: its link frames carried along the new links, stretched
    by the length ratios, and mapped back to world coordinates."""
    new_joints = np.asarray(new_joints, dtype=float)
    if new_joints.shape != chain.joints.shape:
        raise ValidationError("joint count mismatch")
    R = frame_rotations(new_joints[:-1], new_joints[1:])
    lengths = np.linalg.norm(np.diff(new_joints, axis=0), axis=1)
    frames = chain.link_frames.stretched(lengths / chain.link_lengths)
    means = new_joints[:-1] + (R @ frames.local_mean[..., None])[..., 0]
    vecs = R @ frames.local_eigvecs
    covs = (vecs * frames.eigvals[:, None, :]) @ vecs.swapaxes(1, 2)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    comps = [GaussianComponent(c.prior, m, S) for c, m, S in
             zip(chain.components.components, means, covs)]
    return frames, comps


def recover_gmm(chain: ElasticChain, new_joints: np.ndarray) -> list:
    """Rebuild the mixture at new joint positions.

    Per component: the joint frame is recreated along the new link, the
    stored local mean's along-link coordinate and the along-link
    eigenvalue are scaled by the length ratio (variance by its square),
    and everything is mapped back to world coordinates. Priors are
    unchanged.
    """
    return _recovered(chain, new_joints)[1]


def chain_from_state(components: Sequence[GaussianComponent],
                     joints: np.ndarray) -> ElasticChain:
    """Assemble a chain from already-ordered components and known joints,
    deriving its link frames."""
    joints = np.asarray(joints, dtype=float)
    return ElasticChain(OrderedGmm(tuple(components)), joints,
                        link_frames(components, joints))


def transform_chain(chain: ElasticChain,
                    descriptor: GeometricDescriptor) -> Tuple[ElasticChain, list]:
    """End-to-end re-targeting: Laplacian edit then parameter recovery.
    The new chain carries the old link frames, stretched, instead of
    deriving them again from the components it has just built."""
    new_joints, _ = solve_constrained_edit(chain.joints, descriptor.enter,
                                           descriptor.exit)
    frames, comps = _recovered(chain, new_joints)
    return ElasticChain(OrderedGmm(tuple(comps)), new_joints, frames), comps
