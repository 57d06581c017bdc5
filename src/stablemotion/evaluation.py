"""Rollouts, adaptation metrics, vector-field sampling, and timing."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .chain import ElasticChain, transform_chain
from .core import GeometricDescriptor, Pose, Trajectory
from .errors import DegenerateDirection, NonFiniteState
from .policy import (
    EstimateOptions,
    LpvDsPolicy,
    estimate,
    evaluate,
    evaluate_batch,
)
from .profile import ProfileConfig, regenerate_profile
from .sequence import PlanExecutor, TaskPlan


@dataclass(frozen=True)
class RolloutConfig:
    dt: float = 0.01
    max_steps: int = 100_000
    convergence_radius: float = 1e-3
    integrator: str = "rk4"     # "rk4" | "euler"

    def __post_init__(self):
        if self.dt <= 0 or self.convergence_radius <= 0:
            raise ValueError("dt and convergence_radius must be positive")
        if self.integrator not in ("rk4", "euler"):
            raise ValueError(f"unknown integrator {self.integrator!r}")


@dataclass(frozen=True)
class RolloutResult:
    trajectory: Trajectory
    converged: bool


@dataclass(frozen=True)
class AdaptationReport:
    start_cos: float
    goal_cos: float
    endpoints_distance: float
    converged: bool
    transform_time: float
    estimate_time: float
    total_time: float


def _step(f, x: np.ndarray, dt: float, integrator: str) -> np.ndarray:
    if integrator == "euler":
        return x + dt * f(x)
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rollout(policy_or_plan: Union[LpvDsPolicy, TaskPlan], xi0: np.ndarray,
            cfg: RolloutConfig = RolloutConfig()) -> RolloutResult:
    """Integrate the flow until the (final) attractor or the step budget."""
    if isinstance(policy_or_plan, TaskPlan):
        executor = PlanExecutor(policy_or_plan)
        f = lambda x: executor.step(x)[0]
        attractor = policy_or_plan.final_attractor
    else:
        policy = policy_or_plan
        f = lambda x: evaluate(policy, x)
        attractor = policy_or_plan.attractor

    x = np.asarray(xi0, dtype=float)
    states = [x]
    converged = bool(np.linalg.norm(x - attractor) < cfg.convergence_radius)
    for _ in range(cfg.max_steps):
        if converged:
            break
        x = _step(f, x, cfg.dt, cfg.integrator)
        if not np.all(np.isfinite(x)):
            raise NonFiniteState("rollout state is not finite")
        states.append(x)
        converged = bool(np.linalg.norm(x - attractor) < cfg.convergence_radius)
    if len(states) == 1:  # started inside the convergence radius
        states.append(states[0])
    pts = np.array(states)
    ts = cfg.dt * np.arange(pts.shape[0])
    return RolloutResult(Trajectory(pts, ts), converged)


def rollout_batch(policy: LpvDsPolicy, starts: np.ndarray,
                  cfg: RolloutConfig = RolloutConfig()) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate many starts in lockstep; returns (final_states, converged).

    Converged rows are frozen in place, so the whole batch costs one
    vectorized policy evaluation per stage.
    """
    X = np.atleast_2d(np.asarray(starts, dtype=float)).copy()
    g = policy.attractor
    dt = cfg.dt
    done = np.linalg.norm(X - g, axis=1) < cfg.convergence_radius
    for _ in range(cfg.max_steps):
        if np.all(done):
            break
        active = ~done
        Xa = X[active]
        if cfg.integrator == "euler":
            Xa = Xa + dt * evaluate_batch(policy, Xa)
        else:
            k1 = evaluate_batch(policy, Xa)
            k2 = evaluate_batch(policy, Xa + 0.5 * dt * k1)
            k3 = evaluate_batch(policy, Xa + 0.5 * dt * k2)
            k4 = evaluate_batch(policy, Xa + dt * k3)
            Xa = Xa + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(Xa)):
            raise NonFiniteState("batch rollout state is not finite")
        X[active] = Xa
        done[active] = np.linalg.norm(Xa - g, axis=1) < cfg.convergence_radius
    return X, done


def _direction_cosine(a: np.ndarray, b: np.ndarray, axis: np.ndarray) -> float:
    v = b - a
    n = np.linalg.norm(v)
    if n <= 1e-12:
        raise DegenerateDirection("trajectory samples coincide")
    return float(v @ axis / (n * np.linalg.norm(axis)))


def start_cosine(traj: Trajectory, descriptor: GeometricDescriptor) -> float:
    """Alignment of the first two samples with the entry frame x-axis."""
    if descriptor.enter is None:
        raise ValueError("descriptor has no enter pose")
    return _direction_cosine(traj.points[0], traj.points[1],
                             descriptor.enter.x_axis)


def goal_cosine(traj: Trajectory, descriptor: GeometricDescriptor) -> float:
    """Alignment of the last two samples with the exit frame x-axis."""
    if descriptor.exit is None:
        raise ValueError("descriptor has no exit pose")
    return _direction_cosine(traj.points[-2], traj.points[-1],
                             descriptor.exit.x_axis)


def endpoints_distance(traj: Trajectory, o_start: Pose, o_end: Pose) -> float:
    """d(start, entry origin) + d(end, exit origin)."""
    return float(np.linalg.norm(traj.points[0] - o_start.position) +
                 np.linalg.norm(traj.points[-1] - o_end.position))


def sample_field(policy: LpvDsPolicy, bounds: np.ndarray,
                 resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    """Velocities on a regular 2D grid, row-major (y outer, x inner).

    bounds: ((xmin, xmax), (ymin, ymax)). For 3D policies pass a 2D
    axis-aligned slice via a policy projection; the grid itself is 2D.
    """
    if resolution < 2:
        raise ValueError("resolution must be >= 2 per axis")
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return points, evaluate_batch(policy, points)


def adapt_policy(chain: ElasticChain, descriptor: GeometricDescriptor,
                 profile_cfg: ProfileConfig, estimate_opts=None):
    """Transform the chain, regenerate the profile, re-estimate the policy.

    Returns (new_chain, profile, policy, transform_time, estimate_time).
    """
    opts = estimate_opts or EstimateOptions()
    t0 = time.perf_counter()
    new_chain, comps = transform_chain(chain, descriptor)
    profile = regenerate_profile(new_chain.joints, profile_cfg)
    t1 = time.perf_counter()
    policy = estimate(comps, profile.points, profile.velocities,
                      new_chain.joints[-1], opts)
    t2 = time.perf_counter()
    return new_chain, profile, policy, t1 - t0, t2 - t1


def bench_adaptation(chain: ElasticChain, descriptor: GeometricDescriptor,
                     profile_cfg: ProfileConfig, repeats: int = 3,
                     rollout_cfg: Optional[RolloutConfig] = None,
                     estimate_opts=None) -> AdaptationReport:
    """Median wall times for the adaptation pipeline plus the three
    rollout metrics measured from the new entry pose."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    t_transform, t_estimate = [], []
    result = None
    for _ in range(repeats):
        new_chain, profile, policy, tt, te = adapt_policy(
            chain, descriptor, profile_cfg, estimate_opts)
        t_transform.append(tt)
        t_estimate.append(te)
        result = (new_chain, profile, policy)
    new_chain, profile, policy = result

    applied = new_chain.endpoint_descriptor()
    if rollout_cfg is None:
        diameter = float(np.max(np.linalg.norm(
            new_chain.joints - new_chain.joints.mean(axis=0), axis=1))) * 2.0
        rollout_cfg = RolloutConfig(convergence_radius=1e-3 * max(diameter, 1e-9))
    run = rollout(policy, applied.enter.position, rollout_cfg)
    tt = float(np.median(t_transform))
    te = float(np.median(t_estimate))
    return AdaptationReport(
        start_cos=start_cosine(run.trajectory, applied),
        goal_cos=goal_cosine(run.trajectory, applied),
        endpoints_distance=endpoints_distance(
            run.trajectory, applied.enter, applied.exit),
        converged=run.converged,
        transform_time=tt,
        estimate_time=te,
        total_time=tt + te,
    )
