"""Via-point tasks: split one demonstration at an interior via-point,
learn a policy per segment, relocate the via-point, and execute the
two-segment plan with one-hot switching. Also builds the combined
alternative: one policy over the stitched chain.

Run:  python3 demos/03_via_points.py
"""

import numpy as np

from stablemotion import (
    GeometricDescriptor,
    GmmFitConfig,
    Pose,
    ProfileConfig,
    RolloutConfig,
    Segment,
    TaskPlan,
    Trajectory,
    adapt,
    compute_velocities,
    learn,
    reestimate,
    rollout,
    split_demo,
    stitch_chains,
)

t = np.linspace(0.0, 1.0, 200)
points = np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t)])
demo = compute_velocities(Trajectory(points, 4.0 * t))

via = demo.points[100]
parts = split_demo(demo, [via], radius=1e-6)
print(f"split at via-point {via}: segment lengths "
      f"{[len(p) for p in parts]}")

# learn each segment, then pull the via-point 0.25 upward
shift = np.array([0.0, 0.25])
segments = []
for i, part in enumerate(parts):
    # EM seeds from contiguous blocks of the segment, in order
    chain, _ = learn(part, GmmFitConfig(k_max=3, restarts=2))
    base = chain.endpoint_descriptor()
    desc = GeometricDescriptor(
        enter=Pose(base.enter.position + (shift if i == 1 else 0),
                   base.enter.rotation),
        exit=Pose(base.exit.position + (shift if i == 0 else 0),
                  base.exit.rotation))
    new_chain, _, policy = adapt(chain, desc, ProfileConfig.for_demo(part))
    segments.append(Segment(new_chain, desc, policy))

plan = TaskPlan(tuple(segments))
run = rollout(plan, segments[0].chain.joints[0],
              RolloutConfig(convergence_radius=plan.switch_radius))
moved_via = segments[0].policy.attractor
d_via = np.min(np.linalg.norm(run.trajectory.points - moved_via, axis=1))
print(f"sequential plan: converged={run.converged}, "
      f"closest approach to relocated via-point = {d_via:.4f} "
      f"(switch radius {plan.switch_radius:.4f})")

# alternatively, stitch the chains and fit a single policy end to end, at
# the timing the stitched chain keeps (the whole demo's)
stitched = stitch_chains([s.chain for s in segments])
_, one = reestimate(stitched)
combined = TaskPlan((Segment(stitched, stitched.endpoint_descriptor(), one),))
run_c = rollout(combined, stitched.joints[0],
                RolloutConfig(convergence_radius=plan.switch_radius))
d_end = np.linalg.norm(run_c.trajectory.points[-1] - stitched.joints[-1])
print(f"combined plan: converged={run_c.converged}, "
      f"endpoint error = {d_end:.4f}")
