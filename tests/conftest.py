import numpy as np
import pytest

from stablemotion.chain import ElasticChain
from stablemotion.core import GaussianComponent, Trajectory, compute_velocities
from stablemotion.gmm import GmmFitConfig, OrderedGmm
from stablemotion.pipeline import learn
from stablemotion.profile import ProfileConfig
from stablemotion.sequence import Segment, TaskPlan, split_demo


def s_curve_demo(n: int = 200, duration: float = 4.0,
                 scale: float = 1.0) -> Trajectory:
    """Gentle planar S-shaped demo from (0,0) to (2*scale, 0)."""
    t = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t)]) * scale
    return compute_velocities(Trajectory(pts, duration * t))


def arc_demo(n: int = 200, duration: float = 4.0) -> Trajectory:
    """Quarter-circle demo used as a second corpus shape."""
    t = np.linspace(0.0, 1.0, n)
    ang = 0.5 * np.pi * t
    pts = np.column_stack([np.sin(ang), 1.0 - np.cos(ang)])
    return compute_velocities(Trajectory(pts, duration * t))


def line_demo(n: int = 100, duration: float = 2.0) -> Trajectory:
    t = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([t, 0.2 * t])
    return compute_velocities(Trajectory(pts, duration * t))


def helix_demo(n: int = 200, duration: float = 4.0) -> Trajectory:
    """3D demo: rising spiral segment."""
    t = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([np.cos(np.pi * t), np.sin(np.pi * t), t])
    return compute_velocities(Trajectory(pts, duration * t))


def hairpin_demo(h: float, n: int = 400, duration: float = 4.0) -> Trajectory:
    """Legs 1.0 and 0.8 long, 2 h apart, joined by a half circle of radius
    h: n points uniform in arc length, at constant speed."""
    s = np.linspace(0.0, 1.8 + np.pi * h, n)
    turn = np.clip(s - 1.0, 0.0, np.pi * h) / h
    back = np.maximum(s - 1.0 - np.pi * h, 0.0)
    pts = np.column_stack([np.minimum(s, 1.0) + h * np.sin(turn) - back,
                           h * (1.0 - np.cos(turn))])
    return compute_velocities(Trajectory(pts, duration * s / s[-1]))


# 1e100, 1e101, ..., 1e300: how far one sample of `far_sample_demo` lies
FAR_MAGNITUDES = [10.0 ** e for e in range(100, 301)]
# 1e10, 1e11, ..., 1e100: up to B, the library's bound on a position
NEAR_BOUND_MAGNITUDES = [10.0 ** e for e in range(10, 101)]


def far_sample_points(magnitude: float) -> np.ndarray:
    """The points of `s_curve_demo()` with sample 100 moved to
    (magnitude, 0)."""
    pts = s_curve_demo().points.copy()
    pts[100] = (magnitude, 0.0)
    return pts


def far_sample_demo(magnitude: float) -> Trajectory:
    """The S-curve of `far_sample_points`, with no velocities."""
    return Trajectory(far_sample_points(magnitude),
                      s_curve_demo().timestamps)


def stress_demos() -> dict:
    """Valid demos far from the conftest ones in shape or units, by name:
    four hairpins, the S-curve, arc and helix with x scaled by 0.03, 0.1,
    3 or 10, and the same three with every coordinate scaled by 10."""
    demos = {f"hairpin_{h}": hairpin_demo(h) for h in (0.3, 0.1, 0.05, 0.02)}
    for name, make in (("s_curve", s_curve_demo), ("arc", arc_demo),
                       ("helix", helix_demo)):
        demo = make()
        for x in (0.03, 0.1, 3.0, 10.0):
            scale = np.ones(demo.dim)
            scale[0] = x
            demos[f"{name}_x{x}"] = compute_velocities(
                Trajectory(demo.points * scale, demo.timestamps))
        demos[f"{name}_all10"] = compute_velocities(
            Trajectory(demo.points * 10.0, demo.timestamps))
    return demos


def chain_on(joints) -> ElasticChain:
    """A chain on the joints (m, d): one isotropic component of sd 0.1 at
    each link's midpoint, with equal priors (the edit reads only the
    joints and their link lengths)."""
    joints = np.asarray(joints, dtype=float)
    K, d = len(joints) - 1, joints.shape[1]
    mids = 0.5 * (joints[:-1] + joints[1:])
    return ElasticChain(OrderedGmm(tuple(GaussianComponent.from_stack(
        [1.0 / K] * K, mids, [0.01 * np.eye(d)] * K))), joints,
        ProfileConfig(p=200, dt=0.01))


def two_segment_plan():
    """The S-curve cut at its middle sample, one learned policy per part."""
    demo = s_curve_demo()
    parts = split_demo(demo, [demo.points[100]], radius=1e-9)
    segs = []
    for part in parts:
        chain, policy = learn(part, GmmFitConfig(k_max=3, restarts=2))
        segs.append(Segment(chain, chain.endpoint_descriptor(), policy))
    return TaskPlan(tuple(segs)), demo


@pytest.fixture
def s_curve():
    return s_curve_demo()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
