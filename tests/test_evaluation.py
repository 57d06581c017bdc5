from dataclasses import replace

import numpy as np
import pytest

from stablemotion.core import GaussianComponent, Pose, GeometricDescriptor
from stablemotion.errors import (DegenerateDirection, NonFiniteState,
                                 ValidationError)
from stablemotion.evaluation import (
    RolloutConfig,
    adaptation_metrics,
    convergence_radius_for,
    endpoints_distance,
    goal_cosine,
    rollout,
    rollout_batch,
    sample_field,
    start_cosine,
)
from stablemotion.gmm import GmmFitConfig
from stablemotion.pipeline import adapt, learn
from stablemotion.policy import LpvDsPolicy, evaluate, lyapunov_value
from stablemotion.profile import ProfileConfig
from stablemotion.sequence import PlanExecutor, TaskPlan
from conftest import arc_demo, helix_demo, s_curve_demo, two_segment_plan


def linear_policy(attractor=(0.0, 0.0)):
    comps = (GaussianComponent(1.0, np.zeros(2), np.eye(2)),)
    return LpvDsPolicy(comps, np.array([-np.eye(2)]), np.eye(2),
                       np.array(attractor), 1e-2)


def diverging_policy(variance=1.0):
    """The linear field xdot = 2 x: at dt = 1, dt * |eig A| = 2 passes the
    step-size check, and RK4 then multiplies the state by 7 per step."""
    comps = (GaussianComponent(1.0, np.zeros(2), variance * np.eye(2)),)
    return LpvDsPolicy(comps, np.array([2.0 * np.eye(2)]), np.eye(2),
                       np.zeros(2), 1e-2)


class TestRollout:
    def test_exponential_decay_closed_form(self):
        # xdot = -x from (1, 0): x(t) = e^{-t}; stop radius 1e-3 at t = ln 1000
        policy = linear_policy()
        run = rollout(policy, np.array([1.0, 0.0]),
                      RolloutConfig(dt=0.001, convergence_radius=1e-3))
        assert run.converged
        t_stop = run.trajectory.timestamps[-1]
        assert t_stop == pytest.approx(np.log(1e3), rel=0.01)
        mid = len(run.trajectory) // 2
        t_mid = run.trajectory.timestamps[mid]
        assert run.trajectory.points[mid, 0] == pytest.approx(
            np.exp(-t_mid), rel=0.01)

    def test_rk4_step_refinement(self):
        # halving dt changes an RK4 endpoint by ~dt^4 per unit time
        policy = linear_policy()
        x0 = np.array([1.0, 1.0])
        cfg_a = RolloutConfig(dt=0.1, max_steps=10, convergence_radius=1e-12)
        cfg_b = RolloutConfig(dt=0.05, max_steps=20, convergence_radius=1e-12)
        a = rollout(policy, x0, cfg_a).trajectory.points[-1]
        b = rollout(policy, x0, cfg_b).trajectory.points[-1]
        exact = x0 * np.exp(-1.0)
        ea = np.linalg.norm(a - exact)
        eb = np.linalg.norm(b - exact)
        assert ea < 1e-5
        assert eb < ea / 8  # at least cubic-order improvement observed

    def test_max_steps_budget(self):
        policy = linear_policy()
        run = rollout(policy, np.array([5.0, 5.0]),
                      RolloutConfig(dt=0.001, max_steps=1,
                                    convergence_radius=1e-6))
        assert not run.converged
        assert len(run.trajectory) == 2

    def test_start_inside_radius(self):
        policy = linear_policy()
        run = rollout(policy, np.array([1e-6, 0.0]),
                      RolloutConfig(convergence_radius=1e-3))
        assert run.converged
        assert len(run.trajectory) == 2
        assert np.array_equal(run.trajectory.points[0],
                              run.trajectory.points[1])

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_policy_raises(self):
        with pytest.raises(NonFiniteState):
            rollout(diverging_policy(), np.array([1.0, 0.0]),
                    RolloutConfig(dt=1.0, max_steps=2000))

    def test_lyapunov_monotone_along_rollout(self, rng):
        demo = s_curve_demo()
        _, policy = learn(demo, GmmFitConfig(k_max=4, restarts=2))
        for _ in range(5):
            x0 = rng.uniform(-0.5, 2.5, size=2)
            run = rollout(policy, x0, RolloutConfig(dt=0.005,
                                                    convergence_radius=1e-3))
            V = np.array([lyapunov_value(policy, x)
                          for x in run.trajectory.points])
            assert np.all(np.diff(V) <= 1e-12)


def reference_rollout(policy_or_plan, xi0, cfg):
    """Scalar RK4 oracle: one state, one `evaluate` (or `PlanExecutor.step`)
    per stage, stopping on the Euclidean norm. Returns (points, converged)."""
    if isinstance(policy_or_plan, TaskPlan):
        executor = PlanExecutor(policy_or_plan)
        f = lambda x: executor.step(x)[0]
        attractor = policy_or_plan.final_attractor
    else:
        f = lambda x: evaluate(policy_or_plan, x)
        attractor = policy_or_plan.attractor
    dt = cfg.dt
    x = np.asarray(xi0, dtype=float)
    states = [x]
    converged = bool(np.linalg.norm(x - attractor) < cfg.convergence_radius)
    for _ in range(cfg.max_steps):
        if converged:
            break
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
        converged = bool(np.linalg.norm(x - attractor) < cfg.convergence_radius)
    if len(states) == 1:
        states.append(states[0])
    return np.array(states), converged


@pytest.fixture(scope="module")
def learned_2d():
    return learn(s_curve_demo(), GmmFitConfig(k_max=4, restarts=2))[1]


@pytest.fixture(scope="module")
def learned_3d():
    return learn(helix_demo(), GmmFitConfig(k_max=4, restarts=2))[1]


class TestRolloutMatchesScalarReference:
    """`rollout` is bit-identical to the scalar RK4 loop."""

    def assert_same(self, target, x0, cfg=RolloutConfig()):
        run = rollout(target, x0, cfg)
        points, converged = reference_rollout(target, x0, cfg)
        assert np.array_equal(run.trajectory.points, points)
        assert np.array_equal(run.trajectory.timestamps,
                              cfg.dt * np.arange(len(points)))
        assert run.converged == converged
        return run

    def test_learned_2d(self, learned_2d):
        starts = np.random.default_rng(7).uniform(-0.5, 2.5, size=(4, 2))
        for x0 in starts:
            assert self.assert_same(learned_2d, x0).converged

    def test_learned_3d(self, learned_3d):
        starts = np.random.default_rng(8).uniform(-1.0, 1.0, size=(3, 3))
        for x0 in starts:
            assert self.assert_same(learned_3d, x0).converged

    def test_two_segment_plan(self):
        plan, demo = two_segment_plan()
        run = self.assert_same(plan, demo.start,
                               RolloutConfig(convergence_radius=0.01))
        assert run.converged

    def test_start_inside_radius(self, learned_2d):
        x0 = learned_2d.attractor + 1e-5
        run = self.assert_same(learned_2d, x0)
        assert len(run.trajectory) == 2

    def test_single_step_budget(self, learned_3d):
        run = self.assert_same(learned_3d, np.array([0.5, -0.5, 0.5]),
                               RolloutConfig(max_steps=1))
        assert not run.converged
        assert len(run.trajectory) == 2


def first_non_finite_step(policy, x0, cfg):
    """The step N after which the scalar reference's state is not finite."""
    points, _ = reference_rollout(policy, x0, cfg)
    bad = np.flatnonzero(~np.isfinite(points).all(axis=1))
    assert bad.size
    return int(bad[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestNonFiniteStep:
    """NonFiniteState is raised after the very step whose state is not
    finite, for one state and for any column of a batch."""

    cfg = RolloutConfig(dt=1.0, max_steps=2000)

    def test_at_the_reference_step(self):
        policy, x0 = diverging_policy(), np.array([1.0, 0.0])
        n = first_non_finite_step(policy, x0, self.cfg)
        at, before = (replace(self.cfg, max_steps=m) for m in (n, n - 1))
        with pytest.raises(NonFiniteState):
            rollout(policy, x0, at)
        with pytest.raises(NonFiniteState):
            rollout_batch(policy, x0[None], at)
        assert not rollout(policy, x0, before).converged
        _, done = rollout_batch(policy, x0[None], before)
        assert not done.any()

    def test_beside_a_start_inside_the_radius(self):
        policy, x0 = diverging_policy(), np.array([1.0, 0.0])
        n = first_non_finite_step(policy, x0, self.cfg)
        starts = np.array([[1e-6, 0.0], x0])
        with pytest.raises(NonFiniteState):
            rollout_batch(policy, starts, replace(self.cfg, max_steps=n))
        _, done = rollout_batch(policy, starts,
                                replace(self.cfg, max_steps=n - 1))
        assert done.tolist() == [True, False]

    def test_lone_infinite_column(self):
        # so wide a component that the state overflows to inf rather
        # than NaN; the other column is still finite, with a finite
        # squared distance, at that step
        policy = diverging_policy(variance=1e308)
        starts = np.array([[1e160, 0.0], [1.0, 0.0]])
        n = first_non_finite_step(policy, starts[0], self.cfg)
        points, _ = reference_rollout(policy, starts[0],
                                      replace(self.cfg, max_steps=n))
        assert np.isinf(points[-1]).any() and not np.isnan(points).any()
        other, _ = reference_rollout(policy, starts[1],
                                     replace(self.cfg, max_steps=n))
        assert np.isfinite(np.sum(other[-1] ** 2))
        with pytest.raises(NonFiniteState):
            rollout_batch(policy, starts, replace(self.cfg, max_steps=n))
        final, done = rollout_batch(policy, starts,
                                    replace(self.cfg, max_steps=n - 1))
        assert np.isfinite(final).all() and not done.any()


class TestStiffness:
    # RK4's stability region meets the negative real axis at about -2.785
    RK4_REAL_LIMIT = 2.78

    @pytest.mark.parametrize("make_demo", [s_curve_demo, arc_demo, helix_demo])
    def test_default_dt_within_rk4_limit(self, make_demo):
        demo = make_demo()
        chain, policy = learn(demo, GmmFitConfig(k_max=6, restarts=3))
        base = chain.endpoint_descriptor()
        shift = np.full(demo.dim, 0.2)
        desc = GeometricDescriptor(
            Pose(base.enter.position + shift, base.enter.rotation),
            Pose(base.exit.position - shift, base.exit.rotation))
        _, _, adapted = adapt(chain, desc, ProfileConfig.for_demo(demo))
        dt = RolloutConfig().dt
        for p in (policy, adapted):
            assert dt * np.max(np.abs(np.linalg.eigvals(p.A))) < \
                self.RK4_REAL_LIMIT
            assert p.stiffness == np.max(np.abs(np.linalg.eigvals(p.A)))
            start = p.attractor + 0.1
            assert rollout(p, start).converged
            assert rollout_batch(p, start[None])[1].all()

    def test_stiff_policy_is_rejected_before_integrating(self):
        comps = (GaussianComponent(1.0, np.zeros(2), np.eye(2)),)
        stiff = LpvDsPolicy(comps, np.array([-500.0 * np.eye(2)]),
                            np.eye(2), np.zeros(2), 1e-2)
        assert stiff.stiffness == pytest.approx(500.0, rel=1e-12)
        cfg = RolloutConfig(dt=0.01)
        with pytest.raises(ValidationError, match="RK4"):
            rollout(stiff, np.array([1.0, 0.0]), cfg)
        with pytest.raises(ValidationError, match="RK4"):
            rollout_batch(stiff, np.ones((3, 2)), cfg)
        # dt * 500 = 2.5 is inside RK4's interval: the same policy converges
        assert rollout(stiff, np.array([1.0, 0.0]),
                       RolloutConfig(dt=0.005)).converged

    def test_plan_checks_every_segment(self):
        plan, _ = two_segment_plan()
        first, second = plan.segments
        K, d, _ = second.policy.A.shape
        stiff = replace(second, policy=replace(
            second.policy, A=np.broadcast_to(-500.0 * np.eye(d), (K, d, d))))
        with pytest.raises(ValidationError, match="RK4"):
            rollout(replace(plan, segments=(first, stiff)),
                    first.chain.joints[0])


class TestRolloutBatch:
    def test_matches_sequential(self, rng):
        demo = s_curve_demo()
        _, policy = learn(demo, GmmFitConfig(k_max=3, restarts=2))
        starts = rng.uniform(-0.5, 2.5, size=(8, 2))
        cfg = RolloutConfig(dt=0.01, convergence_radius=1e-3)
        finals, done = rollout_batch(policy, starts, cfg)
        assert done.all()
        for i, x0 in enumerate(starts):
            run = rollout(policy, x0, cfg)
            assert run.converged
            assert np.allclose(finals[i], run.trajectory.points[-1],
                               atol=1e-9)

    def test_budget_reported_per_row(self):
        policy = linear_policy()
        starts = np.array([[1e-6, 0.0], [5.0, 0.0]])
        _, done = rollout_batch(policy, starts,
                                RolloutConfig(dt=0.001, max_steps=1,
                                              convergence_radius=1e-4))
        assert done.tolist() == [True, False]

    @pytest.mark.parametrize("d, starts", [
        (2, np.ones((4, 3))), (2, np.ones(3)), (3, np.ones((4, 2)))],
        ids=["2d-policy-4x3", "2d-policy-3", "3d-policy-4x2"])
    def test_rejects_starts_of_another_dimension(self, d, starts):
        policy = LpvDsPolicy(
            (GaussianComponent(1.0, np.zeros(d), np.eye(d)),),
            np.array([-np.eye(d)]), np.eye(d), np.zeros(d), 1e-2)
        with pytest.raises(ValidationError, match=rf"expected \(n, {d}\)"):
            rollout_batch(policy, starts)


class TestMetrics:
    def pose_x(self, x_axis, position=(0.0, 0.0)):
        x = np.asarray(x_axis, float)
        x = x / np.linalg.norm(x)
        R = np.column_stack([x, [-x[1], x[0]]])
        return Pose(np.asarray(position, float), R)

    def line_traj(self, a, b, n=10):
        from stablemotion.core import Trajectory
        t = np.linspace(0, 1, n)
        pts = np.outer(1 - t, a) + np.outer(t, b)
        return Trajectory(pts, t)

    def test_cosine_plus_minus_one(self):
        traj = self.line_traj([0, 0], [1, 0])
        d = GeometricDescriptor(self.pose_x([1, 0]), self.pose_x([-1, 0]))
        assert start_cosine(traj, d) == pytest.approx(1.0)
        assert goal_cosine(traj, d) == pytest.approx(-1.0)

    def test_cosine_45_degrees(self):
        traj = self.line_traj([0, 0], [1, 1])
        d = GeometricDescriptor(self.pose_x([1, 0]), self.pose_x([0, 1]))
        assert start_cosine(traj, d) == pytest.approx(np.sqrt(2) / 2)
        assert goal_cosine(traj, d) == pytest.approx(np.sqrt(2) / 2)

    def test_endpoints_distance_sum(self):
        traj = self.line_traj([0, 0], [4, 0])
        o_start = self.pose_x([1, 0], position=(0.0, 3.0))
        o_end = self.pose_x([1, 0], position=(4.0, -4.0))
        assert endpoints_distance(traj, o_start, o_end) == pytest.approx(7.0)

    def test_degenerate_direction_raises(self):
        from stablemotion.core import Trajectory
        traj = Trajectory(np.zeros((2, 2)), np.array([0.0, 1.0]))
        d = GeometricDescriptor(self.pose_x([1, 0]), self.pose_x([1, 0]))
        with pytest.raises(DegenerateDirection):
            start_cosine(traj, d)

    def test_missing_pose_raises(self):
        traj = self.line_traj([0, 0], [1, 0])
        d = GeometricDescriptor(self.pose_x([1, 0]), None)
        with pytest.raises(ValueError):
            goal_cosine(traj, d)


class TestSampleField:
    def test_pointwise_oracle_and_ordering(self):
        policy = linear_policy(attractor=(1.0, 2.0))
        pts, vel = sample_field(policy, ((-1.0, 1.0), (0.0, 2.0)), 3)
        assert pts.shape == (9, 2)
        # row-major: y is the outer loop, x the inner loop
        assert np.allclose(pts[0], [-1.0, 0.0])
        assert np.allclose(pts[1], [0.0, 0.0])
        assert np.allclose(pts[3], [-1.0, 1.0])
        for p, v in zip(pts, vel):
            assert np.allclose(v, evaluate(policy, p), atol=1e-13)

    def test_resolution_guard(self):
        with pytest.raises(ValueError):
            sample_field(linear_policy(), ((-1, 1), (-1, 1)), 1)

    def test_policy_that_is_not_2d_is_rejected(self, learned_3d):
        with pytest.raises(ValidationError, match="2D only"):
            sample_field(learned_3d, ((-1, 1), (-1, 1)), 3)


class TestAdaptationMetrics:
    def test_shifted_adapt_is_scored_the_same_twice_and_aligned(self):
        demo = s_curve_demo()
        chain, _ = learn(demo, GmmFitConfig(k_max=4, restarts=2))
        base = chain.endpoint_descriptor()
        shift = np.array([0.3, -0.2])
        desc = GeometricDescriptor(
            Pose(base.enter.position + shift, base.enter.rotation),
            Pose(base.exit.position + shift, base.exit.rotation))
        scores = []
        for _ in range(2):
            new_chain, _, policy = adapt(chain, desc,
                                         ProfileConfig.for_demo(demo))
            scores.append(adaptation_metrics(policy, new_chain, RolloutConfig(
                convergence_radius=convergence_radius_for(new_chain.joints))))
        # two identical adapts score the same
        assert scores[0] == scores[1]
        assert scores[0]["converged"]
        assert scores[0]["start_cos"] > 0.9
        assert scores[0]["goal_cos"] > 0.9
