"""The articulated Gaussian chain and its constrained re-targeting.

An ordered mixture is condensed into joints (precision-weighted means of
neighboring components, plus the demo endpoints); the chain stores only
the components, the joints and the demo's timing. After the joints are
re-positioned by a constrained Laplacian edit, each component is
re-posed with its link: turned by the least rotation from the link's old
direction to its new one, and stretched along it by the ratio of its
lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    _cross,
    _frozen,
    _link_lengths,
    _stack,
    frame_from_two_points,
    joint_diameter,
)
from .errors import DegenerateFrame, ValidationError
from .gmm import OrderedGmm
from .profile import ProfileConfig

# how far apart two targets for one pinned joint may lie
_CONSTRAINT_EXACTNESS = 1e-9
# how many joint diameters a component mean or a descriptor position may
# lie from the last joint, and a covariance spread
REACH = 1e3
# the least sd of a component, in joint diameters (fitted ones stay above
# 1e-4); with links longer than 1e-9 no covariance determinant underflows
_THINNEST = 1e-8


@dataclass(frozen=True)
class ElasticChain:
    components: OrderedGmm
    joints: np.ndarray            # (K+1, d)
    timing: ProfileConfig         # the source demo's length and interval
    # (K,) distances between consecutive joints, and their diameter, the
    # unit of the workspace rules, both derived from them
    link_lengths: np.ndarray = field(init=False, repr=False, compare=False)
    diameter: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # joints and means are positions, within B, so no link length or
        # reach overflows; the spread test runs before the eigenvalues
        K, d = len(self.components), self.components.dim
        joints = _frozen(self.joints, "joints", (K + 1, d), position=True)
        object.__setattr__(self, "joints", joints)
        object.__setattr__(self, "link_lengths", _link_lengths(joints))
        means, covs = _stack(self.components.components)
        diameter = joint_diameter(joints)
        object.__setattr__(self, "diameter", diameter)
        reach = REACH * diameter
        _check_reach("a component mean", means, joints, reach)
        if np.abs(covs).max() > reach ** 2:
            raise ValidationError(f"a component spreads over more than "
                                  f"{REACH:g} joint diameters")
        if np.linalg.eigvalsh(covs)[:, 0].min() < (_THINNEST * diameter) ** 2:
            raise ValidationError(
                f"a component is thinner than {_THINNEST:g} joint diameters")

    @property
    def dim(self) -> int:
        return self.joints.shape[1]

    def endpoint_descriptor(self) -> GeometricDescriptor:
        j = self.joints
        return GeometricDescriptor(
            enter=frame_from_two_points(j[0], j[1]),
            exit=Pose(j[-1], frame_from_two_points(j[-2], j[-1]).rotation))


def _check_reach(what: str, points: np.ndarray, joints: np.ndarray,
                 reach: float) -> None:
    """No row of points (n, d) lies farther than reach from joints[-1],
    the attractor of each policy estimated on them; else a ValidationError."""
    if np.linalg.norm(points - joints[-1], axis=1).max() > reach:
        raise ValidationError(f"{what} lies more than {REACH:g} joint "
                              f"diameters from the attractor")


def _gaussian_joints(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Means (K-1, d) of the products of consecutive Gaussians of (K, d)
    means and (K, d, d) covariances (precision-weighted means)."""
    prec = np.linalg.inv(covs)
    st = np.linalg.inv(prec[:-1] + prec[1:])
    pm = (prec @ means[..., None])[..., 0]
    return (st @ (pm[:-1] + pm[1:])[..., None])[..., 0]


def build_chain(gmm: OrderedGmm, demo: Trajectory) -> ElasticChain:
    """Joints = demo start, K-1 Gaussian products, demo end; its timing."""
    return ElasticChain(gmm, np.vstack([
        demo.start, _gaussian_joints(*_stack(gmm.components)), demo.end]),
        ProfileConfig.for_demo(demo))


def _laplacian(m: int) -> np.ndarray:
    """Path-graph Laplacian of m >= 2 joints, unit weights: rows sum to 0,
    diagonal 1."""
    L = np.eye(m) - 0.5 * (np.eye(m, k=1) + np.eye(m, k=-1))
    L[0, 1] = L[-1, -2] = -1.0
    return L


def _laplacian_edit(chain: ElasticChain,
                    descriptor: GeometricDescriptor) -> np.ndarray:
    """The chain's joints (m, d) re-positioned to satisfy the descriptor's
    endpoint frames.

    The first (and/or last) two joints are pinned: the endpoint goes to the
    descriptor position, and its neighbor sits one link length along the
    descriptor x-axis, so the identity edit is exact. The pinned joints
    take their targets exactly; the free ones minimise the residual of the
    joints' path-graph Laplacian coordinates, by eliminating the pinned
    ones and one linear least-squares solve. In a chain of at most 3
    joints both ends pin a joint, and targets for it more than 1e-9 apart
    are a ValidationError: the descriptor asks for two places of one
    joint.
    """
    if descriptor.dim != chain.dim:
        raise ValidationError("descriptor and chain dimensions differ")
    o_start, o_end = descriptor.enter, descriptor.exit
    joints0, link_lengths = chain.joints, chain.link_lengths
    m = len(joints0)
    # a target far outside the chain's workspace would be edited in the
    # rounding of its coordinates, and stretch the links past overflow
    _check_reach("a descriptor position",
                 np.array([p.position for p in (o_start, o_end) if p]),
                 joints0, REACH * chain.diameter)

    L = _laplacian(m)
    x = np.zeros_like(joints0)
    pinned = np.zeros(m, dtype=bool)
    if o_start is not None:
        x[:2] = (o_start.position,
                 o_start.position + link_lengths[0] * o_start.x_axis)
        pinned[:2] = True
    if o_end is not None:
        for i, target in ((m - 1, o_end.position),
                          (m - 2, o_end.position
                           - link_lengths[-1] * o_end.x_axis)):
            residual = np.linalg.norm(x[i] - target)
            if pinned[i] and residual > _CONSTRAINT_EXACTNESS:
                raise ValidationError(
                    f"joint {i} pinned to conflicting targets "
                    f"(residual {residual:.3e})")
            x[i] = target
        pinned[-2:] = True
    free = ~pinned
    if free.any():
        rhs = L @ joints0 - L[:, pinned] @ x[pinned]
        x[free] = np.linalg.lstsq(L[:, free], rhs, rcond=None)[0]
    return x


def _minimal_rotations(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rotations (K, d, d) taking each unit row of `u` (K, d) to the same
    row of `w` by the least angle: in 2-D the rotation by the angle
    between them, in 3-D the Rodrigues rotation about u x w. A 3-D
    direction turned back on itself has no unique least rotation."""
    c = np.sum(u * w, axis=1)
    if u.shape[1] == 2:
        s = u[:, 0] * w[:, 1] - u[:, 1] * w[:, 0]
        return np.stack([np.stack([c, -s], axis=1),
                         np.stack([s, c], axis=1)], axis=1)
    if np.any(1.0 + c <= 1e-12):
        raise DegenerateFrame("the edit turns a link back on itself")
    v = _cross(u, w)
    z = np.zeros_like(c)
    skew = np.stack([np.stack([z, -v[:, 2], v[:, 1]], axis=1),
                     np.stack([v[:, 2], z, -v[:, 0]], axis=1),
                     np.stack([-v[:, 1], v[:, 0], z], axis=1)], axis=1)
    return (c[:, None, None] * np.eye(3) + skew
            + v[:, :, None] * v[:, None, :] / (1.0 + c)[:, None, None])


def _recover_gmm(chain: ElasticChain, new_joints: np.ndarray) -> list:
    """Rebuild the mixture at new joint positions: each component turns
    with its link and stretches along it.

    For link k, Q_k is the least rotation from its old direction u_k to
    its new one w_k, and r_k its new length over its old. The link's map
    F_k = Q_k (I + (r_k - 1) u_k u_k^T) = Q_k + (r_k - 1) w_k u_k^T carries
    each component as an affine image of its Gaussian: the new mean is
    joint'_k + F_k (mu_k - joint_k) and the new covariance F_k Sigma_k
    F_k^T, so both are continuous in the joints and in the component.
    Priors are unchanged.
    """
    lengths = _link_lengths(new_joints)
    u = np.diff(chain.joints, axis=0) / chain.link_lengths[:, None]
    w = np.diff(new_joints, axis=0) / lengths[:, None]
    stretch = lengths / chain.link_lengths - 1.0
    F = (_minimal_rotations(u, w)
         + stretch[:, None, None] * w[:, :, None] * u[:, None, :])
    comps = chain.components.components
    means, covs = _stack(comps)
    m = (F @ (means - chain.joints[:-1])[..., None])[..., 0]
    covs = F @ covs @ F.swapaxes(1, 2)
    covs = 0.5 * (covs + covs.swapaxes(1, 2))
    return GaussianComponent.from_stack([c.prior for c in comps],
                                        new_joints[:-1] + m, covs)


def transform_chain(chain: ElasticChain,
                    descriptor: GeometricDescriptor) -> ElasticChain:
    """Laplacian edit then parameter recovery; the timing carries over."""
    new_joints = _laplacian_edit(chain, descriptor)
    return ElasticChain(OrderedGmm(tuple(_recover_gmm(chain, new_joints))),
                        new_joints, chain.timing)
