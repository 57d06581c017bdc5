"""Re-target a learned policy to a new start/goal configuration without a
new demonstration: move both endpoint frames, let the elastic chain
follow, and re-estimate the dynamics on the regenerated profile.

Run:  python3 demos/02_retarget.py  (writes into demos/out/)
"""

import pathlib

import numpy as np

from stablemotion import (
    GeometricDescriptor,
    GmmFitConfig,
    Pose,
    ProfileConfig,
    RolloutConfig,
    Trajectory,
    adapt,
    compute_velocities,
    endpoints_distance,
    field_svg,
    goal_cosine,
    learn,
    rollout,
    sample_field,
    start_cosine,
)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

t = np.linspace(0.0, 1.0, 200)
points = np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t)])
demo = compute_velocities(Trajectory(points, 4.0 * t))
# seeded from contiguous blocks of the demo: no random seed to set
chain, _ = learn(demo, GmmFitConfig(k_max=6, restarts=3))

# shift both task frames and rotate the approach into the goal by 30 deg
base = chain.endpoint_descriptor()
c, s = np.cos(np.pi / 6), np.sin(np.pi / 6)
target = GeometricDescriptor(
    enter=Pose(base.enter.position + [-0.3, 0.45], base.enter.rotation),
    exit=Pose(base.exit.position + [0.4, -0.3],
              base.exit.rotation @ np.array([[c, -s], [s, c]])))

new_chain, profile, policy = adapt(chain, target, ProfileConfig.for_demo(demo))
applied = new_chain.endpoint_descriptor()
run = rollout(policy, applied.enter.position,
              RolloutConfig(convergence_radius=1e-3))
print(f"start_cos = {start_cosine(run.trajectory, applied):.4f}  "
      f"goal_cos = {goal_cosine(run.trajectory, applied):.4f}  "
      f"endpoints = {endpoints_distance(run.trajectory, applied.enter, applied.exit):.4f}")

lo = profile.points.min(axis=0) - 0.4
hi = profile.points.max(axis=0) + 0.4
grid, velocities = sample_field(policy, ((lo[0], hi[0]), (lo[1], hi[1])), 24)
(out / "retargeted_field.svg").write_text(
    field_svg(grid, velocities, run.trajectory.points))
print(f"wrote {out / 'retargeted_field.svg'}")
