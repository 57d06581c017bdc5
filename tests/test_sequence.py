import numpy as np
import pytest

from stablemotion.chain import build_chain
from stablemotion.core import Trajectory, joint_diameter
from stablemotion.pipeline import learn
from stablemotion.errors import (
    ChainGapTooLarge,
    NonMonotoneViaPoints,
    ValidationError,
    ViaPointNotOnDemo,
)
from stablemotion.evaluation import RolloutConfig, rollout
from stablemotion.gmm import GmmFitConfig, fit_gmm, order_components
from stablemotion.policy import evaluate
from stablemotion.sequence import (
    PlanExecutor,
    Segment,
    TaskPlan,
    split_demo,
    stitch_chains,
)
from conftest import helix_demo, line_demo, s_curve_demo, two_segment_plan


def fitted_chain(demo, k_max=3):
    gmm = order_components(
        fit_gmm(demo.points, GmmFitConfig(k_max=k_max, restarts=2)), demo)
    return build_chain(gmm, demo)


class TestSplitDemo:
    def test_splits_at_closest_approach(self):
        demo = line_demo(n=101)  # straight segment [0,0] -> [1,0.2]
        parts = split_demo(demo, [np.array([0.5, 0.1])], radius=0.05)
        assert len(parts) == 2
        assert np.allclose(parts[0].points[-1], parts[1].points[0])
        assert np.allclose(parts[0].points[-1], [0.5, 0.1], atol=0.02)
        # union of the two parts covers the whole demo
        assert len(parts[0]) + len(parts[1]) == len(demo) + 1

    def test_two_via_points_three_segments(self):
        demo = s_curve_demo()
        vias = [demo.points[60], demo.points[140]]
        parts = split_demo(demo, vias, radius=1e-9)
        assert [len(p) for p in parts] == [61, 81, 60]

    def test_off_demo_via_point_raises(self):
        demo = line_demo()
        with pytest.raises(ViaPointNotOnDemo):
            split_demo(demo, [np.array([1.0, 5.0])], radius=0.1)

    def test_non_monotone_order_raises(self):
        demo = s_curve_demo()
        with pytest.raises(NonMonotoneViaPoints):
            split_demo(demo, [demo.points[120], demo.points[40]], radius=1e-6)

    def test_endpoint_via_point_raises(self):
        demo = line_demo()
        with pytest.raises(NonMonotoneViaPoints):
            split_demo(demo, [demo.points[0]], radius=1e-6)

    def test_empty_via_points_raises(self):
        with pytest.raises(ValidationError):
            split_demo(line_demo(), [], radius=0.1)


class TestStitchChains:
    def test_joint_and_component_arithmetic(self):
        demo = s_curve_demo()
        parts = split_demo(demo, [demo.points[100]], radius=1e-9)
        chains = [fitted_chain(p) for p in parts]
        stitched = stitch_chains(chains)
        n_joints = sum(len(c.joints) for c in chains) - (len(chains) - 1)
        assert len(stitched.joints) == n_joints
        n_comps = sum(len(c.components.components) for c in chains)
        assert len(stitched.components.components) == n_comps

    def test_priors_renormalized(self):
        demo = s_curve_demo()
        parts = split_demo(demo, [demo.points[100]], radius=1e-9)
        stitched = stitch_chains([fitted_chain(p) for p in parts])
        total = sum(c.prior for c in stitched.components.components)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_gap_raises(self):
        a = fitted_chain(line_demo())
        far = Trajectory(line_demo().points + 5.0, line_demo().timestamps)
        b = fitted_chain(far)
        with pytest.raises(ChainGapTooLarge):
            stitch_chains([a, b])

    def test_single_chain_passthrough(self):
        a = fitted_chain(line_demo())
        s = stitch_chains([a])
        assert np.allclose(s.joints, a.joints)


class TestTaskPlan:
    def test_attractor_continuity_enforced(self):
        plan, _ = two_segment_plan()
        # first segment repeated: its attractor (the via-point) does not
        # match its own chain start, so segment 2 starts in the wrong place
        with pytest.raises(ValidationError):
            TaskPlan((plan.segments[0], plan.segments[0]))

    def test_a_plan_has_one_dimension(self):
        """A segment's chain, descriptor and policy share a dimension, and
        so do a plan's segments."""
        plan, _ = two_segment_plan()
        flat = plan.segments[0]
        chain, policy = learn(helix_demo(), GmmFitConfig(k_max=2, restarts=1))
        spatial = Segment(chain, chain.endpoint_descriptor(), policy)
        for parts in ((flat.chain, flat.descriptor, policy),
                      (flat.chain, spatial.descriptor, flat.policy),
                      (spatial.chain, flat.descriptor, spatial.policy)):
            with pytest.raises(ValidationError, match="share a dimension"):
                Segment(*parts)
        with pytest.raises(ValidationError, match="different dimensions"):
            TaskPlan((flat, spatial))

    def test_default_switch_radius_positive(self):
        plan, _ = two_segment_plan()
        assert plan.switch_radius > 0

    def test_switch_radius_is_derived(self):
        # 1% of the diameter of every segment's joints; not an argument
        plan, _ = two_segment_plan()
        joints = np.vstack([s.chain.joints for s in plan.segments])
        assert plan.switch_radius == 0.01 * joint_diameter(joints)
        with pytest.raises(TypeError):
            TaskPlan(plan.segments, switch_radius=0.5)

    def test_step_is_one_hot(self):
        plan, demo = two_segment_plan()
        ex = PlanExecutor(plan)
        x = demo.points[10]
        v, active = ex.step(x)
        assert active == 0
        assert np.allclose(v, evaluate(plan.segments[0].policy, x), atol=1e-13)

    def test_cursor_monotone_and_switches(self):
        plan, demo = two_segment_plan()
        ex = PlanExecutor(plan)
        seen = []
        # walk the state right through the first attractor
        g0 = plan.segments[0].policy.attractor
        path = [demo.points[10], g0 + 1e-6, demo.points[150], demo.points[190]]
        for x in path:
            _, c = ex.step(x)
            seen.append(c)
        assert seen == [0, 1, 1, 1]
        assert all(b >= a for a, b in zip(seen, seen[1:]))

    def test_executor_reuse(self):
        plan, demo = two_segment_plan()
        ex = PlanExecutor(plan)
        v1, c1 = ex.step(demo.points[5])
        assert c1 == 0
        # a reused executor keeps its cursor and answers as a fresh one does
        v2, c2 = ex.step(demo.points[5])
        assert c2 == 0
        assert np.array_equal(v1, v2)
        assert np.array_equal(v1, PlanExecutor(plan).step(demo.points[5])[0])

    def test_rollout_passes_via_point(self):
        plan, demo = two_segment_plan()
        run = rollout(plan, demo.start,
                      RolloutConfig(dt=0.01, convergence_radius=0.01))
        assert run.converged
        via = plan.segments[0].policy.attractor
        d = np.min(np.linalg.norm(run.trajectory.points - via, axis=1))
        assert d < 2 * plan.switch_radius
        assert np.linalg.norm(run.trajectory.points[-1]
                              - plan.final_attractor) < 0.011
