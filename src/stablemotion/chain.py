"""The articulated Gaussian chain and its constrained re-targeting.

An ordered mixture is condensed into joints (precision-weighted means of
neighboring components, plus the demo endpoints). Each component's mean
and covariance eigenbasis are stored relative to its preceding joint
frame, so after the joints are re-positioned by a constrained Laplacian
edit the full mixture can be reconstructed at the new geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    frame_from_two_points,
)
from .errors import (RankDeficientSystem, SingularCovariance,
                     ValidationError, ZeroLengthChain)
from .gmm import OrderedGmm


@dataclass(frozen=True)
class LinkFrame:
    """A component's parameters expressed in its preceding joint frame."""

    local_mean: np.ndarray        # R^T (mu - joint)
    local_eigvecs: np.ndarray     # columns: covariance eigenbasis in frame coords
    eigvals: np.ndarray
    along_index: int              # eigenvector most aligned with the link axis


@dataclass(frozen=True)
class ElasticChain:
    components: OrderedGmm
    joints: np.ndarray            # (K+1, d)
    link_frames: Tuple[LinkFrame, ...]
    link_lengths: np.ndarray      # (K,)

    def __post_init__(self):
        K, d = len(self.components), self.components.dim
        if self.joints.shape != (K + 1, d):
            raise ValidationError(
                "chain needs K+1 joints of the components' dimension")
        if self.link_lengths.shape != (K,):
            raise ValidationError("chain needs K link lengths")
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


def gaussian_joint(g1: GaussianComponent, g2: GaussianComponent) -> np.ndarray:
    """Mean of the product of two Gaussians (precision-weighted mean)."""
    try:
        p1 = np.linalg.inv(g1.covariance)
        p2 = np.linalg.inv(g2.covariance)
        st = np.linalg.inv(p1 + p2)
    except np.linalg.LinAlgError as exc:
        raise SingularCovariance(str(exc)) from exc
    return st @ (p1 @ g1.mean + p2 @ g2.mean)


def _canonical_eig(cov: np.ndarray, frame_rot: np.ndarray):
    """Eigendecomposition with a deterministic sign convention.

    Each eigenvector's sign is fixed so its dot with the link x-axis is
    nonnegative; if orthogonal to it, the frame y-axis breaks the tie.
    """
    vals, vecs = np.linalg.eigh(cov)
    x_axis = frame_rot[:, 0]
    y_axis = frame_rot[:, 1]
    for i in range(vecs.shape[1]):
        dx = vecs[:, i] @ x_axis
        ref = dx if abs(dx) > 1e-9 else vecs[:, i] @ y_axis
        if ref < 0:
            vecs[:, i] = -vecs[:, i]
    return vals, vecs


def _link_frame_for(component: GaussianComponent, joint: np.ndarray,
                    next_joint: np.ndarray) -> LinkFrame:
    frame = frame_from_two_points(joint, next_joint)
    R = frame.rotation
    vals, vecs = _canonical_eig(component.covariance, R)
    local_vecs = R.T @ vecs
    along = int(np.argmax(np.abs(local_vecs[0, :])))
    return LinkFrame(local_mean=R.T @ (component.mean - joint),
                     local_eigvecs=local_vecs,
                     eigvals=vals,
                     along_index=along)


def build_chain(gmm: OrderedGmm, demo: Trajectory) -> ElasticChain:
    """Joints = demo start, K-1 Gaussian products, demo end; frames per link."""
    comps = gmm.components
    K = len(comps)
    joints = [np.asarray(demo.start, dtype=float)]
    for k in range(K - 1):
        joints.append(gaussian_joint(comps[k], comps[k + 1]))
    joints.append(np.asarray(demo.end, dtype=float))
    joints = np.array(joints)
    lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
    frames = tuple(
        _link_frame_for(comps[k], joints[k], joints[k + 1]) for k in range(K))
    return ElasticChain(gmm, joints, frames, lengths)


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
                           o_start: Optional[Pose], o_end: Optional[Pose],
                           link_lengths: Optional[np.ndarray] = None
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
    if link_lengths is None:
        link_lengths = np.linalg.norm(np.diff(joints0, axis=0), axis=1)

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


def recover_gmm(chain: ElasticChain, new_joints: np.ndarray) -> list:
    """Rebuild the mixture at new joint positions.

    Per component: the joint frame is recreated along the new link, the
    stored local mean's along-link coordinate and the along-link
    eigenvalue are scaled by the length ratio (variance by its square),
    and everything is mapped back to world coordinates. Priors are
    unchanged.
    """
    new_joints = np.asarray(new_joints, dtype=float)
    if new_joints.shape != chain.joints.shape:
        raise ValidationError("joint count mismatch")
    out = []
    for k, (comp, lf) in enumerate(zip(chain.components.components,
                                       chain.link_frames)):
        frame = frame_from_two_points(new_joints[k], new_joints[k + 1])
        R = frame.rotation
        ratio = np.linalg.norm(new_joints[k + 1] - new_joints[k]) / \
            chain.link_lengths[k]
        local_mean = lf.local_mean.copy()
        local_mean[0] *= ratio
        mean = new_joints[k] + R @ local_mean
        vals = lf.eigvals.copy()
        vals[lf.along_index] *= ratio ** 2
        vecs = R @ lf.local_eigvecs
        cov = (vecs * vals) @ vecs.T
        out.append(GaussianComponent(comp.prior, mean, 0.5 * (cov + cov.T)))
    return out


def chain_from_state(components: Sequence[GaussianComponent],
                     joints: np.ndarray,
                     order_scores: Optional[Sequence[float]] = None) -> ElasticChain:
    """Assemble a chain from already-ordered components and known joints."""
    joints = np.asarray(joints, dtype=float)
    K = len(components)
    if order_scores is None:
        order_scores = tuple((k + 0.5) / K for k in range(K))
    gmm = OrderedGmm(tuple(components), tuple(order_scores))
    lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
    frames = tuple(
        _link_frame_for(components[k], joints[k], joints[k + 1])
        for k in range(K))
    return ElasticChain(gmm, joints, frames, lengths)


def transform_chain(chain: ElasticChain,
                    descriptor: GeometricDescriptor) -> Tuple[ElasticChain, list]:
    """End-to-end re-targeting: Laplacian edit then parameter recovery."""
    new_joints, _ = solve_constrained_edit(
        chain.joints, descriptor.enter, descriptor.exit,
        link_lengths=chain.link_lengths)
    comps = recover_gmm(chain, new_joints)
    new_chain = chain_from_state(comps, new_joints,
                                 chain.components.order_scores)
    return new_chain, comps
