"""On-disk formats: JSON for demos/descriptors/policies, CSV for dense
rollout and field data, SVG for vector-field figures.

JSON floats round-trip losslessly (Python serializes the shortest
representation that parses back bit-exact, always >= 17 significant
digits when needed).
"""

from __future__ import annotations

import datetime
import hashlib
import json
from typing import Optional, Sequence, Tuple

import numpy as np

from .chain import ElasticChain
from .core import (GaussianComponent, GeometricDescriptor, Pose, Trajectory,
                   _array, _orthonormal)
from .errors import ValidationError
from .gmm import OrderedGmm
from .policy import LpvDsPolicy
from .profile import ProfileConfig

DEMO_FORMAT = "stablemotion-demo"
POLICY_FORMAT = "stablemotion-policy"
DESCRIPTOR_FORMAT = "stablemotion-descriptor"
FORMAT_VERSION = 1
# R^T R = I check on loaded rotations, looser than Pose's own; a loaded
# rotation is re-orthonormalised
_ORTHONORMAL_IO = 1e-6


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise ValidationError(msg)


def _numeric(obj, key: str, shape: tuple) -> np.ndarray:
    """obj[key] read by the library's one array reader (`core._array`),
    or a ValidationError if obj is no object with that key."""
    _require(isinstance(obj, dict) and key in obj,
             f"expected an object with a {key!r} entry")
    return _array(obj[key], key, shape)


def _check_header(obj: dict, fmt: str) -> None:
    _require(isinstance(obj, dict), "top-level JSON object expected")
    _require(obj.get("format") == fmt, f"expected format {fmt!r}")
    _require(obj.get("version") == FORMAT_VERSION,
             f"unsupported version {obj.get('version')!r}")


# -- demos --------------------------------------------------------------------

def demo_to_dict(trajectories: Sequence[Trajectory],
                 via_points: Optional[np.ndarray] = None) -> dict:
    _require(len(trajectories) > 0, "need at least one trajectory")
    d = trajectories[0].dim
    _require(all(t.dim == d for t in trajectories),
             "mixed trajectory dimensions")
    out = {
        "format": DEMO_FORMAT,
        "version": FORMAT_VERSION,
        "dimension": d,
        "trajectories": [
            {"timestamps": t.timestamps.tolist(), "points": t.points.tolist()}
            for t in trajectories],
    }
    if via_points is not None:
        out["via_points"] = _array(via_points, "via_points", (None, d),
                                   position=True).tolist()
    return out


def demo_from_dict(obj: dict):
    """(trajectories, via-points or None); an old `descriptor` is ignored."""
    _check_header(obj, DEMO_FORMAT)
    d = obj.get("dimension")
    _require(isinstance(d, int), "dimension must be an integer")
    items = obj.get("trajectories")
    _require(isinstance(items, list), "trajectories must be a list")
    trajectories = [Trajectory(_numeric(t, "points", (None, d)),
                               _numeric(t, "timestamps", (None,)))
                    for t in items]
    via = (_array(obj["via_points"], "via_points", (None, d), position=True)
           if "via_points" in obj else None)
    return trajectories, via


def save_demo(path, trajectories, via_points=None) -> None:
    with open(path, "w") as fh:
        json.dump(demo_to_dict(trajectories, via_points), fh, indent=1)


def load_demo(path):
    with open(path) as fh:
        return demo_from_dict(json.load(fh))


# -- descriptors --------------------------------------------------------------

def _pose_to_dict(pose: Pose) -> dict:
    return {"position": pose.position.tolist(),
            "rotation": pose.rotation.tolist()}


def _pose_from_dict(obj: dict) -> Pose:
    position = _numeric(obj, "position", ("d",))
    d = position.shape[0]
    rotation = _numeric(obj, "rotation", (d, d))
    _require(_orthonormal(rotation, _ORTHONORMAL_IO),
             "rotation is not orthonormal")
    _require(abs(np.linalg.det(rotation) - 1.0) <= _ORTHONORMAL_IO,
             "rotation must have determinant +1")
    # re-orthonormalize so downstream strict checks pass
    u, _, vt = np.linalg.svd(rotation)
    return Pose(position, u @ vt)


def descriptor_to_dict(descriptor: GeometricDescriptor,
                       header: bool = True) -> dict:
    out = {}
    if header:
        out.update({"format": DESCRIPTOR_FORMAT, "version": FORMAT_VERSION,
                    "dimension": descriptor.dim})
    out["enter"] = (_pose_to_dict(descriptor.enter)
                    if descriptor.enter is not None else None)
    out["exit"] = (_pose_to_dict(descriptor.exit)
                   if descriptor.exit is not None else None)
    return out


def descriptor_from_dict(obj: dict) -> GeometricDescriptor:
    _check_header(obj, DESCRIPTOR_FORMAT)
    enter = _pose_from_dict(obj["enter"]) if obj.get("enter") else None
    exit_ = _pose_from_dict(obj["exit"]) if obj.get("exit") else None
    return GeometricDescriptor(enter=enter, exit=exit_)


def save_descriptor(path, descriptor: GeometricDescriptor) -> None:
    with open(path, "w") as fh:
        json.dump(descriptor_to_dict(descriptor), fh, indent=1)


def load_descriptor(path) -> GeometricDescriptor:
    with open(path) as fh:
        return descriptor_from_dict(json.load(fh))


# -- policies -----------------------------------------------------------------

def policy_to_dict(policy: LpvDsPolicy, chain: ElasticChain,
                   provenance: Optional[dict] = None) -> dict:
    return {
        "format": POLICY_FORMAT,
        "version": FORMAT_VERSION,
        "dimension": policy.dim,
        "attractor": policy.attractor.tolist(),
        "margin": policy.margin,
        "P": policy.P.tolist(),
        "components": [
            {"prior": c.prior, "mean": c.mean.tolist(),
             "covariance": c.covariance.tolist(), "A": policy.A[k].tolist()}
            for k, c in enumerate(policy.components)],
        "chain": {"joints": chain.joints.tolist(),
                  "timing": {"p": chain.timing.p, "dt": chain.timing.dt}},
        "provenance": provenance or {},
    }


def policy_from_dict(obj: dict) -> Tuple[LpvDsPolicy, ElasticChain]:
    """The policy and chain of a policy file. The chain is rebuilt from
    its components, joints and timing, and the constructors check every
    value; the one rule across values is that the attractor is the chain's
    last joint, as in every file the library writes. The keys that earlier
    files also wrote (each component's `b`, the chain's `link_lengths`,
    `link_frames` and `order_scores`) are derived or unread values and are
    ignored."""
    _check_header(obj, POLICY_FORMAT)
    components = obj.get("components")
    _require(isinstance(components, list) and len(components) > 0
             and all(isinstance(c, dict) for c in components),
             "components must be a non-empty list of objects")
    attractor = _numeric(obj, "attractor", ("d",))
    K, d = len(components), attractor.shape[0]
    # the components' stacks, gains included
    priors, means, covs, A = (
        _array([c.get(key) for c in components], key, shape)
        for key, shape in (("prior", (K,)), ("mean", (K, d)),
                           ("covariance", (K, d, d)), ("A", (K, d, d))))
    comps = tuple(GaussianComponent.from_stack(priors, means, covs))
    ch = obj.get("chain")
    _require(isinstance(ch, dict), "chain must be an object")
    joints = _numeric(ch, "joints", (K + 1, d))
    timing = ch.get("timing")
    _require(isinstance(timing, dict), "chain has no 'timing' object; refit")
    p, dt = (float(_numeric(timing, key, ())) for key in ("p", "dt"))
    _require(p.is_integer(), "timing p must be an integer")
    chain = ElasticChain(OrderedGmm(comps), joints, ProfileConfig(int(p), dt))
    _require(np.array_equal(attractor, chain.joints[-1]),
             "the attractor must be the chain's last joint")
    policy = LpvDsPolicy(comps, A, _numeric(obj, "P", (d, d)), attractor,
                         float(_numeric(obj, "margin", ())))
    return policy, chain


def save_policy(path, policy: LpvDsPolicy, chain: ElasticChain,
                provenance: Optional[dict] = None) -> None:
    with open(path, "w") as fh:
        json.dump(policy_to_dict(policy, chain, provenance), fh, indent=1)


def load_policy(path) -> Tuple[LpvDsPolicy, ElasticChain]:
    with open(path) as fh:
        return policy_from_dict(json.load(fh))


def make_provenance(source_path=None, descriptor=None) -> dict:
    out = {"created": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    if source_path is not None:
        with open(source_path, "rb") as fh:
            out["source_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        out["source_path"] = str(source_path)
    if descriptor is not None:
        out["descriptor"] = descriptor_to_dict(descriptor, header=False)
    return out


# -- dense data ---------------------------------------------------------------

def rollout_csv(traj: Trajectory, lyapunov: Sequence[float]) -> str:
    lyapunov = _array(lyapunov, "lyapunov", (len(traj),))
    d = traj.dim
    cols = (["t"] + [f"p{a}" for a in "xyz"[:d]] +
            [f"v{a}" for a in "xyz"[:d]] + ["V"])
    lines = [",".join(cols)]
    vel = traj.velocities if traj.velocities is not None \
        else np.zeros_like(traj.points)
    for i in range(len(traj)):
        row = ([traj.timestamps[i]] + list(traj.points[i]) + list(vel[i]) +
               [lyapunov[i]])
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def _field(points, velocities, dim) -> tuple:
    """points and velocities read as (n, dim) arrays of the same n."""
    points = _array(points, "points", (None, dim), position=True)
    return points, _array(velocities, "velocities", points.shape)


def field_csv(points: np.ndarray, velocities: np.ndarray) -> str:
    points, velocities = _field(points, velocities, "d")
    d = points.shape[1]
    cols = [f"p{a}" for a in "xyz"[:d]] + [f"v{a}" for a in "xyz"[:d]]
    lines = [",".join(cols)]
    for p, v in zip(points, velocities):
        lines.append(",".join(repr(float(x)) for x in list(p) + list(v)))
    return "\n".join(lines) + "\n"


def field_svg(points: np.ndarray, velocities: np.ndarray,
              rollout_points: Optional[np.ndarray] = None) -> str:
    """Fixed-length direction glyphs colored by speed, plus an optional
    rollout polyline overlay: a 2-D figure of at least one point."""
    points, velocities = _field(points, velocities, 2)
    _require(len(points) > 0, "a field figure needs at least one point")
    if rollout_points is not None:
        rollout_points = _array(rollout_points, "rollout_points", (None, 2),
                                position=True)
    size = 640  # the square's side, in pixels
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    pad = 0.05 * span

    def to_px(p):
        q = (p - lo + pad) / (span + 2 * pad)
        return q[0] * size, size - q[1] * size

    speeds = np.linalg.norm(velocities, axis=1)
    smax = max(float(speeds.max()), 1e-12)
    glyph = 0.35 * size / max(np.sqrt(points.shape[0]), 1.0)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'width="{size}" height="{size}" '
             f'viewBox="0 0 {size} {size}">',
             f'<rect width="{size}" height="{size}" fill="white"/>']
    for p, v, s in zip(points, velocities, speeds):
        x0, y0 = to_px(p)
        if s <= 1e-15:
            parts.append(f'<circle cx="{x0:.2f}" cy="{y0:.2f}" r="1.5" '
                         f'fill="#888"/>')
            continue
        d = v / s
        x1, y1 = x0 + glyph * d[0], y0 - glyph * d[1]
        hue = int(240 * (1.0 - s / smax))  # blue slow .. red fast
        parts.append(
            f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
            f'stroke="hsl({hue},85%,45%)" stroke-width="1.4"/>')
        parts.append(f'<circle cx="{x1:.2f}" cy="{y1:.2f}" r="1.6" '
                     f'fill="hsl({hue},85%,45%)"/>')
    if rollout_points is not None and len(rollout_points) > 1:
        px = " ".join(f"{x:.2f},{y:.2f}"
                      for x, y in (to_px(p) for p in rollout_points))
        parts.append(f'<polyline points="{px}" fill="none" stroke="black" '
                     f'stroke-width="2"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
