"""The three workloads, the probe session they share, and the recorder that
times and checks every operation.

Every run reports every end-to-end metric. A workload times its own
operations (``learn``: learns; ``retarget``: adapts and composes;
``control``: rollouts). For the kinds of operation it does not time
itself it runs the *probe*, a small fixed session on one 2-D S-curve at
T = 200 that the seed only offsets, so that those metrics exist and act as
a control: a change to the probe's layers should move them and nothing
else.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

import checks
import inputs
import speed
import stablemotion as sm

# the fit config of the learn workload
LEARN_CFG = sm.GmmFitConfig(k_min=3, k_max=6, restarts=3)
# chains learned during set-up: K fixed so that the seed cannot change
# the cost of what is timed later
CHAIN_CFG = sm.GmmFitConfig(k_min=5, k_max=5, restarts=1)
SEGMENT_CFG = sm.GmmFitConfig(k_min=3, k_max=3, restarts=1)
PROBE_CFG = CHAIN_CFG
# the probe's estimates converge after 220-540 L-BFGS evaluations, a count
# that rounding in the seed's offset moves; capped below that, every seed
# asks for the same work
PROBE_OPTS = sm.EstimateOptions(max_iters=150)

REACH = 0.2          # descriptor moves: up to a fifth of the diameter
SPLIT_RADIUS = 1e-9  # via-points are demo samples
PROBE_REPEATS = {"learn": 5, "adapt": 5, "compose": 3, "rollout": 5,
                 "batch": 3}
PROBE_BATCH = 16


def rel_vel_rmse(policy, traj) -> float:
    """Velocity RMSE of the policy on a trajectory over its mean speed."""
    err = traj.velocities - sm.evaluate_batch(policy, traj.points)
    rmse = np.sqrt(np.mean(np.sum(err * err, axis=1)))
    return float(rmse / np.mean(np.linalg.norm(traj.velocities, axis=1)))


def rollout_cfg(points: np.ndarray) -> sm.RolloutConfig:
    return sm.RolloutConfig(
        convergence_radius=1e-3 * inputs.diameter(points))


class Recorder:
    """Times library calls, then checks their outputs with tracing off."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times = defaultdict(list)      # (kind, item) -> seconds
        self.raw_times = defaultdict(list)
        self.rollout_steps = 0              # RK4 steps, single-state
        self.rollout_seconds = 0.0
        self.batch_steps = 0                # active state-steps, replayed
        self.batch_seconds = 0.0
        self.quality = {"learn": {}, "adapt": {}}
        self.attempted = 0
        self.failed = 0
        self.errors = []                    # failed checks
        self.failures = []                  # failed operations
        self.samples = {}                   # check name -> passing args

    # -- timing -----------------------------------------------------------

    def timed(self, kind, item, call):
        self.attempted += 1
        before = speed.kernel_seconds()
        if self.tracer:
            self.tracer.active = True
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"{kind} {item}: {exc!r}")
            return None, 0.0
        finally:
            elapsed = time.perf_counter() - t0
            if self.tracer:
                self.tracer.active = False
        after = speed.kernel_seconds()
        self.raw_times[(kind, item)].append(elapsed)
        elapsed = speed.rescaled(elapsed, before, after)
        self.times[(kind, item)].append(elapsed)
        return out, elapsed

    def check(self, name, fn, *args) -> None:
        try:
            fn(*args)
        except checks.CheckFailed as exc:
            self.errors.append(f"{name}: {exc}")
        else:
            self.samples.setdefault(name, args)

    # -- checks shared by several operations --------------------------------

    def check_policy(self, policy, points) -> None:
        self.check("certificate", checks.check_certificate,
                   np.asarray(policy.A), np.asarray(policy.P), policy.margin)
        self.check("responsibilities", checks.check_responsibilities,
                   policy.components, points,
                   sm.gmm.responsibilities_batch(policy.components, points))

    def check_adapted(self, chain, desc, new_chain, profile, policy) -> None:
        self.check("edit", checks.check_edit, chain, desc, new_chain.joints)
        self.check("profile", checks.check_profile, profile.points,
                   new_chain.joints)
        self.check_policy(policy, profile.points)

    # -- operations -----------------------------------------------------------

    def learn(self, item, demo, cfg, opts=sm.EstimateOptions()):
        out, _ = self.timed("learn", item, lambda: sm.learn(demo, cfg, opts))
        if out is not None:
            chain, policy = out
            ends = np.abs(chain.joints[[0, -1]] - demo.points[[0, -1]])
            self.check("chain_ends", checks.require, ends.max() == 0.0,
                       "chain end joints are not the demo endpoints")
            self.check_policy(policy, demo.points)
            self.quality["learn"][item] = rel_vel_rmse(policy, demo)
        return out

    def adapt(self, item, chain, desc, profile_cfg, identity=False,
              opts=sm.EstimateOptions()):
        out, _ = self.timed("adapt", item,
                            lambda: sm.adapt(chain, desc, profile_cfg, opts))
        if out is not None:
            new_chain, profile, policy = out
            self.check_adapted(chain, desc, new_chain, profile, policy)
            if identity:
                self.check("identity", checks.check_identity, chain,
                           new_chain.joints, new_chain.components.components)
            self.quality["adapt"][item] = rel_vel_rmse(policy, profile)
        return out

    def compose(self, item, plan):
        """Two-segment re-target: split, adapt both, stitch, estimate one
        combined policy on the stitched chain's profile."""
        demo, via = plan["demo"], plan["via"]

        def run():
            parts = sm.split_demo(demo, [via], SPLIT_RADIUS)
            segs = [sm.adapt(chain, desc, sm.ProfileConfig.for_demo(part))
                    for chain, desc, part in zip(plan["chains"],
                                                 plan["descs"], parts)]
            stitched = sm.stitch_chains([s[0] for s in segs])
            profile = sm.regenerate_profile(stitched.joints,
                                            sm.ProfileConfig.for_demo(demo))
            policy = sm.estimate(list(stitched.components.components),
                                 profile.points, profile.velocities,
                                 stitched.joints[-1])
            return segs, stitched, profile, policy

        out, _ = self.timed("compose", item, run)
        if out is not None:
            segs, stitched, profile, policy = out
            for chain, desc, (new_chain, seg_profile, seg_policy) in zip(
                    plan["chains"], plan["descs"], segs):
                self.check_adapted(chain, desc, new_chain, seg_profile,
                                   seg_policy)
            joints = np.vstack([segs[0][0].joints, segs[1][0].joints[1:]])
            self.check("stitch", checks.require,
                       np.array_equal(stitched.joints, joints),
                       "stitched joints are not the segments' joints")
            self.check("profile", checks.check_profile, profile.points,
                       stitched.joints)
            self.check_policy(policy, profile.points)
        return out

    def rollout(self, item, target, start, cfg):
        out, elapsed = self.timed("rollout", item,
                                  lambda: sm.rollout(target, start, cfg))
        if out is None:
            return
        points = out.trajectory.points
        self.rollout_steps += len(points) - 1
        self.rollout_seconds += elapsed
        if isinstance(target, sm.TaskPlan):
            attractor = target.final_attractor
            via = target.segments[0].policy.attractor
            self.check("via", checks.check_via, points, via,
                       target.switch_radius)
            self.check("plan_lyapunov", checks.check_plan_lyapunov, points,
                       target)
        else:
            attractor = target.attractor
            self.check("lyapunov", checks.check_lyapunov, points,
                       np.asarray(target.P), attractor)
        self.check("converged_flag", checks.require, bool(out.converged),
                   "rollout reports no convergence")
        self.check("converged", checks.check_converged, points[-1],
                   attractor, cfg.convergence_radius)

    def batch(self, item, policy, starts, cfg):
        out, elapsed = self.timed(
            "batch", item, lambda: sm.rollout_batch(policy, starts, cfg))
        if out is None:
            return
        final, done = out
        self.check("converged_flag", checks.require, bool(np.all(done)),
                   f"{int(np.sum(~done))} batch start(s) did not converge")
        self.check("converged", checks.check_converged, final,
                   policy.attractor, cfg.convergence_radius)
        self.batch_steps += checks.lockstep_steps(policy, starts, cfg)
        self.batch_seconds += elapsed

    # -- end-to-end metrics ---------------------------------------------------

    def mean_time(self, kind) -> float:
        """Mean wall time of one operation of a kind. Each round runs
        every item of a kind equally often, so this is the mean over the
        round's mix. A mean, not a median: the host's speed switches
        between two levels about 1.8x apart, a median over a run jumps
        between them, and a mean moves smoothly with the time spent in
        each."""
        return float(np.mean([t for (k, _), ts in self.times.items()
                              if k == kind for t in ts]))

    def metrics(self, setup_seconds) -> dict:
        def metric(value, unit):
            return {"value": float(value), "unit": unit}
        return {
            "setup_s": metric(np.median(setup_seconds), "s"),
            "learn_s": metric(self.mean_time("learn"), "s"),
            "learn_vel_rmse": metric(
                np.mean(list(self.quality["learn"].values())), "1"),
            "adapt_ms": metric(1e3 * self.mean_time("adapt"), "ms"),
            "compose_ms": metric(1e3 * self.mean_time("compose"), "ms"),
            "adapt_vel_rmse": metric(
                np.mean(list(self.quality["adapt"].values())), "1"),
            "control_step_us": metric(
                1e6 * self.rollout_seconds / self.rollout_steps, "us"),
            "sweep_steps_per_s": metric(
                self.batch_steps / self.batch_seconds, "state-steps/s"),
        }


# -- set-up helpers ---------------------------------------------------------------

def via_plan(demo, chains, rng):
    """Inputs of a two-segment re-target: the shared via-point (the demo's
    middle sample) moves by a seeded vector of up to a fifth of the demo
    diameter; the outer endpoints stay put."""
    step = inputs.shift(rng, demo.dim, REACH * inputs.diameter(demo.points))
    descs = []
    for i, chain in enumerate(chains):
        base = chain.endpoint_descriptor()
        enter, exit_ = base.enter, base.exit
        if i == 0:
            exit_ = sm.Pose(exit_.position + step, exit_.rotation)
        else:
            enter = sm.Pose(enter.position + step, enter.rotation)
        descs.append(sm.GeometricDescriptor(enter, exit_))
    return {"demo": demo, "via": demo.points[len(demo) // 2],
            "chains": chains, "descs": descs}


def learn_chain(demo, cfg):
    """The chain half of pipeline.learn: set-up needs no learned policy."""
    components = sm.fit_gmm(demo.points, cfg)
    return sm.build_chain(sm.order_components(components, demo), demo)


def learn_segments(demo):
    parts = sm.split_demo(demo, [demo.points[len(demo) // 2]], SPLIT_RADIUS)
    return [learn_chain(part, SEGMENT_CFG) for part in parts]


def probe_setup(seed):
    """The seed only offsets the probe demo; everything else is drawn
    from a fixed stream relative to it. Every computation the library
    makes is translation-equivariant, so the probe does the same work for
    every seed, and its figures differ from seed to seed only by noise."""
    demo = inputs.demo("s_curve", 200, inputs.stream(seed, "probe"),
                       rotate=False)
    rng = inputs.stream(0, "probe-fixed")
    chain = learn_chain(demo, PROBE_CFG)
    desc = inputs.moved_descriptor(chain.endpoint_descriptor(), rng,
                                   REACH * inputs.diameter(demo.points))
    _, profile, policy = sm.adapt(chain, desc, sm.ProfileConfig.for_demo(demo))
    # rollouts start within a quarter diameter of the attractor: short
    # runs, so that several fit in a probe
    d = inputs.diameter(profile.points)
    starts = policy.attractor + np.array(
        [inputs.shift(rng, demo.dim, 0.25 * d)
         for _ in range(PROBE_REPEATS["rollout"])])
    batches = [inputs.box_starts(profile.points, PROBE_BATCH, rng)
               for _ in range(PROBE_REPEATS["batch"])]
    return {"demo": demo, "chain": chain, "desc": desc, "policy": policy,
            "cfg": rollout_cfg(profile.points), "starts": starts,
            "batches": batches,
            "plan": via_plan(demo, learn_segments(demo), rng)}


def probe_round(p, rec: Recorder, kinds) -> None:
    profile_cfg = sm.ProfileConfig.for_demo(p["demo"])
    for _ in range(PROBE_REPEATS["learn"] if "learn" in kinds else 0):
        rec.learn("probe", p["demo"], PROBE_CFG, PROBE_OPTS)
    for _ in range(PROBE_REPEATS["adapt"] if "adapt" in kinds else 0):
        rec.adapt("probe", p["chain"], p["desc"], profile_cfg,
                  opts=PROBE_OPTS)
    for _ in range(PROBE_REPEATS["compose"] if "compose" in kinds else 0):
        rec.compose("probe", p["plan"])
    if "rollout" in kinds:
        for i, start in enumerate(p["starts"]):
            rec.rollout(("probe", i), p["policy"], start, p["cfg"])
    if "batch" in kinds:
        for i, starts in enumerate(p["batches"]):
            rec.batch(("probe", i), p["policy"], starts, p["cfg"])


# -- workloads ----------------------------------------------------------------------

class Learn:
    """pipeline.learn on the demo corpus: EM does most of the work and
    policy.estimate the rest. Nothing of the corpus is edited or rolled
    out, so this is the control for re-targeting and rollout changes."""

    probe = ("adapt", "compose", "rollout", "batch")

    def setup(self, seed, workdir):
        corpus = {(shape, n): inputs.demo(shape, n, inputs.stream(
            seed, f"learn-{shape}", n))
            for n in inputs.LENGTHS for shape in inputs.SHAPES}
        return {"corpus": corpus, "probe": probe_setup(seed)}

    def round(self, s, rec: Recorder) -> None:
        for key, demo in s["corpus"].items():
            rec.learn(key, demo, LEARN_CFG)
        probe_round(s["probe"], rec, self.probe)


class Retarget:
    """pipeline.adapt on seeded descriptors plus the identity, and a
    two-segment via-point re-target, on 2-D and 3-D chains at both demo
    lengths. The L-BFGS estimate does most of the work; EM runs only in
    set-up, so this is the control for EM and evaluate changes."""

    probe = ("learn", "rollout", "batch")
    moved = 3  # seeded descriptors per chain, besides the identity

    def setup(self, seed, workdir):
        items = []
        plans = []
        for n in inputs.LENGTHS:
            for shape in ("s_curve", "helix"):
                rng = inputs.stream(seed, f"retarget-{shape}", n)
                demo = inputs.demo(shape, n, rng)
                chain = learn_chain(demo, CHAIN_CFG)
                base = chain.endpoint_descriptor()
                reach = REACH * inputs.diameter(demo.points)
                descs = [base] + [inputs.moved_descriptor(base, rng, reach)
                                  for _ in range(self.moved)]
                items += [((shape, n, i), chain, desc,
                           sm.ProfileConfig.for_demo(demo), i == 0)
                          for i, desc in enumerate(descs)]
                plans.append(((shape, n), via_plan(
                    demo, learn_segments(demo), rng)))
        return {"items": items, "plans": plans, "probe": probe_setup(seed)}

    def round(self, s, rec: Recorder) -> None:
        for key, chain, desc, profile_cfg, identity in s["items"]:
            rec.adapt(key, chain, desc, profile_cfg, identity)
        for key, plan in s["plans"]:
            rec.compose(key, plan)
        probe_round(s["probe"], rec, self.probe)


class Control:
    """Single-state rollouts (a two-segment plan included) and batch
    rollouts of policies learned, adapted, saved and loaded during set-up.
    The single-state path pays for the mixture densities on every call,
    four times per RK4 step; the batch path shares that cost across the
    states of a call."""

    probe = ("learn", "adapt", "compose")
    singles = 2     # single-state rollouts per policy
    batch = 64      # batch starts per policy

    def setup(self, seed, workdir):
        # As in the probe, the seed only offsets the demos: how many
        # state-steps a batch takes, and so its throughput, depends on
        # where the starts fall relative to the policy, and seeded
        # policies would make that differ from seed to seed.
        policies = []
        for shape in ("s_curve", "helix"):
            demo = inputs.demo(shape, 200, inputs.stream(
                seed, f"control-{shape}"), rotate=False)
            rng = inputs.stream(0, f"control-{shape}-fixed")
            chain = learn_chain(demo, CHAIN_CFG)
            desc = inputs.moved_descriptor(
                chain.endpoint_descriptor(), rng,
                REACH * inputs.diameter(demo.points))
            new_chain, profile, policy = sm.adapt(
                chain, desc, sm.ProfileConfig.for_demo(demo))
            loaded = save_and_load(workdir, shape, policy, new_chain)
            policies.append({
                "name": shape, "policy": loaded,
                "cfg": rollout_cfg(profile.points),
                "singles": inputs.box_starts(profile.points, self.singles, rng),
                "batch": inputs.box_starts(profile.points, self.batch, rng)})

        demo = inputs.demo("s_curve", 200, inputs.stream(
            seed, "control-plan"), rotate=False)
        rng = inputs.stream(0, "control-plan-fixed")
        plan_in = via_plan(demo, learn_segments(demo), rng)
        segments = []
        for i, (chain, desc, part) in enumerate(zip(
                plan_in["chains"], plan_in["descs"],
                sm.split_demo(demo, [plan_in["via"]], SPLIT_RADIUS))):
            new_chain, _, policy = sm.adapt(chain, desc,
                                             sm.ProfileConfig.for_demo(part))
            loaded = save_and_load(workdir, f"segment{i}", policy, new_chain)
            segments.append(sm.Segment(new_chain, desc, loaded))
        plan = sm.TaskPlan(tuple(segments))
        start = segments[0].chain.joints[0] + inputs.shift(
            rng, 2, 0.05 * inputs.diameter(demo.points))
        return {"policies": policies, "plan": plan, "plan_start": start,
                "plan_cfg": sm.RolloutConfig(
                    convergence_radius=plan.switch_radius),
                "probe": probe_setup(seed)}

    def round(self, s, rec: Recorder) -> None:
        for p in s["policies"]:
            for i, start in enumerate(p["singles"]):
                rec.rollout((p["name"], i), p["policy"], start, p["cfg"])
        rec.rollout("plan", s["plan"], s["plan_start"], s["plan_cfg"])
        for p in s["policies"]:
            rec.batch(p["name"], p["policy"], p["batch"], p["cfg"])
        probe_round(s["probe"], rec, self.probe)


def save_and_load(workdir, name, policy, chain):
    """Round-trip a policy through fileio, as a controller would, and
    check that nothing changed on the way."""
    path = os.path.join(workdir, f"{name}.json")
    sm.save_policy(path, policy, chain)
    loaded, _ = sm.load_policy(path)
    same = (np.array_equal(loaded.A, policy.A)
            and np.array_equal(loaded.P, policy.P)
            and np.array_equal(loaded.attractor, policy.attractor)
            and all(np.array_equal(a.mean, b.mean)
                    and np.array_equal(a.covariance, b.covariance)
                    and a.prior == b.prior
                    for a, b in zip(loaded.components, policy.components)))
    checks.require(same, f"policy {name} changed in a save/load round trip")
    checks.check_certificate(np.asarray(loaded.A), np.asarray(loaded.P),
                             loaded.margin)
    return loaded


WORKLOADS = {"learn": Learn(), "retarget": Retarget(), "control": Control()}
