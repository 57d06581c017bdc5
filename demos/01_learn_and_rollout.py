"""Learn a stable motion policy from one S-curve demonstration, roll it
out from several starts, and export the vector field as an SVG.

Run:  python3 demos/01_learn_and_rollout.py  (writes into demos/out/)
"""

import pathlib

import numpy as np

from stablemotion import (
    GmmFitConfig,
    RolloutConfig,
    Trajectory,
    compute_velocities,
    field_svg,
    learn,
    lyapunov_value,
    rollout,
    sample_field,
)

out = pathlib.Path(__file__).parent / "out"
out.mkdir(exist_ok=True)

# one demonstration: an S-shaped stroke, 200 samples over 4 seconds
t = np.linspace(0.0, 1.0, 200)
points = np.column_stack([2.0 * t, 0.4 * np.sin(2.0 * np.pi * t)])
demo = compute_velocities(Trajectory(points, 4.0 * t))

# EM starts each of its runs from the demo cut, in order, into K
# contiguous blocks (each restart shifts the cuts), so the fit is the same
# on every run of this script: there is no random seed
chain, policy = learn(demo, GmmFitConfig(k_max=6, restarts=3))
print(f"selected K = {len(policy.components)} components; "
      f"attractor = {policy.attractor}")

# the policy is a feedback law: any start flows to the demonstrated goal
for start in ([0.0, 0.0], [-0.3, 0.5], [1.0, -0.8]):
    run = rollout(policy, np.array(start),
                  RolloutConfig(convergence_radius=1e-3))
    V0, V1 = lyapunov_value(policy, run.trajectory.points[[0, -1]])
    print(f"start {start}: {len(run.trajectory)} steps, "
          f"converged={run.converged}, V {V0:.3f} -> {V1:.2e}")

grid, velocities = sample_field(policy, ((-0.5, 2.5), (-1.0, 1.0)), 24)
run = rollout(policy, demo.start, RolloutConfig(convergence_radius=1e-3))
svg = field_svg(grid, velocities, run.trajectory.points)
(out / "s_curve_field.svg").write_text(svg)
print(f"wrote {out / 's_curve_field.svg'}")
