"""Rollouts, adaptation metrics and vector-field sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

from .chain import ElasticChain
from .core import GeometricDescriptor, Pose, Trajectory, joint_diameter
from .errors import DegenerateDirection, NonFiniteState, ValidationError
from .policy import LpvDsPolicy, evaluate_batch
from .sequence import PlanExecutor, TaskPlan


@dataclass(frozen=True)
class RolloutConfig:
    dt: float = 0.01
    max_steps: int = 100_000
    convergence_radius: float = 1e-3

    def __post_init__(self):
        if not (self.dt > 0 and self.convergence_radius > 0):
            raise ValidationError("dt and convergence_radius must be positive")


_RK4_REAL_LIMIT = 2.78  # RK4's stability interval ends near -2.785
_min, _max = np.minimum.reduce, np.maximum.reduce


@dataclass(frozen=True)
class RolloutResult:
    trajectory: Trajectory
    converged: bool


def _integrate(field, X0: np.ndarray, attractor: np.ndarray,
               cfg: RolloutConfig, record: bool, stiffness: float):
    """RK4 in lockstep from every row of X0 until each state is within the
    convergence radius of the attractor or the step budget runs out. A dt
    outside RK4's stability interval on the field's stiffest mode (its
    largest |eig A_k|) raises ValidationError first.

    The states are kept as columns: field maps a (d, n) block of states
    to its velocities (d, n), so no stage transposes. Only the columns
    still moving are integrated; they are written back into the result
    when one of them converges, and at the end. With record, every state
    of column 0 is kept (rollouts record a batch of one).

    A step costs its count of numpy calls more than its arithmetic: the
    stages are combined in place, in the scalar RK4 order, and the
    columns' squared distances to the attractor are one contraction,
    whose max and min decide NonFiniteState (after the very step whose
    state is not finite) and the stop test.
    Returns (final_states (n, d), converged, recorded_states or None).
    """
    dt = cfg.dt
    if dt * stiffness >= _RK4_REAL_LIMIT:
        raise ValidationError(f"dt * max |eig A_k| = {dt * stiffness:.3g}: "
                              f"RK4 is unstable at dt = {dt:g}")
    X = np.array(X0, dtype=float, ndmin=2).T
    goal = attractor[:, None]
    r2 = cfg.convergence_radius ** 2
    D = X - goal
    done = np.vecdot(D, D, axis=0) < r2
    cols = np.flatnonzero(~done)
    Xa = X[:, cols]
    states = [X[:, 0].copy()] if record else None
    h, dt6 = 0.5 * dt, dt / 6.0
    for _ in range(cfg.max_steps):
        if not cols.size:
            break
        k1 = field(Xa)
        k2 = field(Xa + h * k1)
        k3 = field(Xa + h * k2)
        k4 = field(Xa + dt * k3)
        # Xa + dt/6 ((k1 + 2 k2 + 2 k3) + k4), summed in that order
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        k2 += k4
        k2 *= dt6
        k2 += Xa
        Xa = k2
        D = Xa - goal
        d2 = np.vecdot(D, D, axis=0)
        # a non-finite state has a non-finite distance, and max sees a
        # lone inf that min would not; an overflowed distance of a finite
        # state is told apart by isfinite
        if not _max(d2) < np.inf and not np.isfinite(Xa).all():
            raise NonFiniteState("rollout state is not finite")
        if record:
            states.append(Xa[:, 0])
        if _min(d2) < r2:
            hit = d2 < r2
            X[:, cols] = Xa
            done[cols[hit]] = True
            cols, Xa = cols[~hit], Xa[:, ~hit]
    X[:, cols] = Xa
    return X.T, done, states


def convergence_radius_for(joints: np.ndarray) -> float:
    """Default stop radius: 1e-3 of the joints' diameter about their mean."""
    return 1e-3 * max(joint_diameter(joints), 1e-9)


def rollout(policy_or_plan: Union[LpvDsPolicy, TaskPlan], xi0: np.ndarray,
            cfg: RolloutConfig = RolloutConfig()) -> RolloutResult:
    """Integrate the flow until the (final) attractor or the step budget."""
    if isinstance(policy_or_plan, TaskPlan):
        executor = PlanExecutor(policy_or_plan)
        field = lambda X: executor.step(X[:, 0])[0][:, None]
        attractor = policy_or_plan.final_attractor
        stiffness = max(s.policy.stiffness for s in policy_or_plan.segments)
    else:
        policy = policy_or_plan
        field = policy.kernel
        attractor, stiffness = policy.attractor, policy.stiffness
    if np.shape(xi0) != attractor.shape:
        raise ValidationError(
            f"start has shape {np.shape(xi0)}, expected {attractor.shape}")
    _, done, states = _integrate(field, xi0, attractor, cfg, True, stiffness)
    if len(states) == 1:  # started inside the convergence radius
        states.append(states[0])
    pts = np.array(states)
    ts = cfg.dt * np.arange(pts.shape[0])
    return RolloutResult(Trajectory(pts, ts), bool(done[0]))


def rollout_batch(policy: LpvDsPolicy, starts: np.ndarray,
                  cfg: RolloutConfig = RolloutConfig()) -> Tuple[np.ndarray, np.ndarray]:
    """Integrate many starts in lockstep; returns (final_states, converged).

    Converged rows stop moving, so the whole batch costs one vectorized
    policy evaluation per stage. `starts` is (n, d), or one start (d,).
    """
    X0 = np.atleast_2d(np.asarray(starts, dtype=float))
    if X0.shape[1:] != policy.attractor.shape:
        raise ValidationError(
            f"starts have shape {np.shape(starts)}, expected (n, {policy.dim})")
    X, done, _ = _integrate(policy.kernel, X0, policy.attractor, cfg,
                            False, policy.stiffness)
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
        raise ValidationError("descriptor has no enter pose")
    return _direction_cosine(traj.points[0], traj.points[1],
                             descriptor.enter.x_axis)


def goal_cosine(traj: Trajectory, descriptor: GeometricDescriptor) -> float:
    """Alignment of the last two samples with the exit frame x-axis."""
    if descriptor.exit is None:
        raise ValidationError("descriptor has no exit pose")
    return _direction_cosine(traj.points[-2], traj.points[-1],
                             descriptor.exit.x_axis)


def endpoints_distance(traj: Trajectory, o_start: Pose, o_end: Pose) -> float:
    """d(start, entry origin) + d(end, exit origin)."""
    return float(np.linalg.norm(traj.points[0] - o_start.position) +
                 np.linalg.norm(traj.points[-1] - o_end.position))


def sample_field(policy: LpvDsPolicy, bounds: np.ndarray,
                 resolution: int) -> Tuple[np.ndarray, np.ndarray]:
    """Velocities on a regular 2D grid, row-major (y outer, x inner), of a
    2D policy; a policy of another dimension is a ValidationError.

    bounds: ((xmin, xmax), (ymin, ymax)).
    """
    if policy.dim != 2:
        raise ValidationError("field sampling is 2D only")
    if resolution < 2:
        raise ValidationError("resolution must be >= 2 per axis")
    (x0, x1), (y0, y1) = bounds
    xs = np.linspace(x0, x1, resolution)
    ys = np.linspace(y0, y1, resolution)
    gx, gy = np.meshgrid(xs, ys)
    points = np.column_stack([gx.ravel(), gy.ravel()])
    return points, evaluate_batch(policy, points)


def adaptation_metrics(policy: LpvDsPolicy, chain: ElasticChain,
                       cfg: RolloutConfig) -> dict:
    """Roll out from the chain's entry pose and score the run against its
    endpoint frames: start_cos, goal_cos, endpoints_distance, converged."""
    applied = chain.endpoint_descriptor()
    run = rollout(policy, applied.enter.position, cfg)
    return {
        "start_cos": start_cosine(run.trajectory, applied),
        "goal_cos": goal_cosine(run.trajectory, applied),
        "endpoints_distance": endpoints_distance(
            run.trajectory, applied.enter, applied.exit),
        "converged": run.converged,
    }

