"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import time

import numpy as np
from scipy.stats import multivariate_normal

from stablemotion.chain import _laplacian, _laplacian_edit, transform_chain
from stablemotion.core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    compute_velocities,
)
from stablemotion.evaluation import (
    RolloutConfig,
    endpoints_distance,
    goal_cosine,
    rollout,
    start_cosine,
)
from stablemotion.gmm import GmmFitConfig, \
    responsibilities_batch
from stablemotion.pipeline import adapt, learn
from stablemotion.policy import (
    LpvDsPolicy,
    estimate,
    evaluate_batch,
    fit_statistics,
    objective_and_gradient,
)
from stablemotion.profile import ProfileConfig, regenerate_profile
from stablemotion.sequence import Segment, TaskPlan, split_demo, stitch_chains
from test_chain import kkt_oracle, reference_pins
from conftest import arc_demo, chain_on, helix_demo, line_demo, s_curve_demo


def _verdict(label: str, ok: bool) -> None:
    # bypass capture so the per-criterion verdict always reaches the log
    import sys
    line = f"[acceptance] {label}: {'PASS' if ok else 'FAIL'}"
    print(line)
    print(line, file=sys.__stdout__)
    assert ok, label


def _shifted(desc: GeometricDescriptor, d_start, d_end) -> GeometricDescriptor:
    return GeometricDescriptor(
        Pose(desc.enter.position + np.asarray(d_start, float),
             desc.enter.rotation),
        Pose(desc.exit.position + np.asarray(d_end, float),
             desc.exit.rotation))


def _diameter(points: np.ndarray) -> float:
    return float(np.linalg.norm(points.max(axis=0) - points.min(axis=0)))


def test_1_scenario_reproduction_both_ends_shifted():
    t0 = time.perf_counter()
    demo = s_curve_demo(n=200)
    chain, _ = learn(demo, GmmFitConfig(k_max=6, restarts=3))
    desc = _shifted(chain.endpoint_descriptor(), [-0.25, 0.35], [0.3, -0.25])
    new_chain, profile, policy = adapt(chain, desc,
                                       ProfileConfig.for_demo(demo))
    applied = new_chain.endpoint_descriptor()
    diameter = _diameter(profile.points)
    run = rollout(policy, applied.enter.position,
                  RolloutConfig(convergence_radius=1e-3 * diameter))
    s_cos = start_cosine(run.trajectory, applied)
    g_cos = goal_cosine(run.trajectory, applied)
    e_dist = endpoints_distance(run.trajectory, applied.enter, applied.exit)
    elapsed = time.perf_counter() - t0
    _verdict(
        f"1 scenario reproduction (start_cos={s_cos:.4f}, "
        f"goal_cos={g_cos:.4f}, endpoints={e_dist:.4f}, {elapsed:.1f}s)",
        run.converged and s_cos >= 0.98 and g_cos >= 0.99
        and e_dist <= 0.01 * diameter and elapsed < 10.0)


def _zigzag_demo(n=150):
    t = np.linspace(0.0, 1.0, n)
    pts = np.column_stack([t, 0.25 * np.abs(((4 * t) % 2) - 1)])
    return compute_velocities(Trajectory(pts, 3.0 * t))


def _batch_converged_and_monotone(policy, starts, cfg) -> bool:
    """Lockstep RK4 checking convergence and per-step Lyapunov decrease."""
    X = np.array(starts, dtype=float)
    g = policy.attractor
    P = policy.P

    def V(Y):
        D = Y - g
        return np.einsum("ti,ij,tj->t", D, P, D)

    done = np.linalg.norm(X - g, axis=1) < cfg.convergence_radius
    v = V(X)
    for _ in range(cfg.max_steps):
        if done.all():
            return True
        a = ~done
        Xa = X[a]
        k1 = evaluate_batch(policy, Xa)
        k2 = evaluate_batch(policy, Xa + 0.5 * cfg.dt * k1)
        k3 = evaluate_batch(policy, Xa + 0.5 * cfg.dt * k2)
        k4 = evaluate_batch(policy, Xa + cfg.dt * k3)
        Xa = Xa + cfg.dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        vn = V(Xa)
        if np.any(vn > v[a] + 1e-10 * np.maximum(1.0, v[a])):
            return False
        X[a] = Xa
        v[a] = vn
        done[a] = np.linalg.norm(Xa - g, axis=1) < cfg.convergence_radius
    return False


def test_2_stability_suite():
    t0 = time.perf_counter()
    demos = [s_curve_demo(), arc_demo(), line_demo(), helix_demo(),
             _zigzag_demo()]
    rng = np.random.default_rng(42)
    ok = True
    for demo in demos:
        # k_min=3 keeps >= 4 joints, enough for pins at both ends
        chain, _ = learn(demo, GmmFitConfig(k_min=3, k_max=4, restarts=2))
        base = chain.endpoint_descriptor()
        span = 0.2 * _diameter(demo.points)
        variants = [
            base,
            _shifted(base, span * np.ones(demo.dim),
                     -span * np.ones(demo.dim)),
            _shifted(base, np.zeros(demo.dim),
                     span * np.eye(demo.dim)[0]),
        ]
        for desc in variants:
            new_chain, profile, policy = adapt(chain, desc,
                                               ProfileConfig.for_demo(demo))
            diameter = _diameter(profile.points)
            lo = profile.points.min(axis=0) - 0.25 * diameter
            hi = profile.points.max(axis=0) + 0.25 * diameter
            starts = rng.uniform(lo, hi, size=(100, demo.dim))
            cfg = RolloutConfig(dt=0.01,
                                convergence_radius=1e-3 * diameter)
            ok = ok and _batch_converged_and_monotone(policy, starts, cfg)
    elapsed = time.perf_counter() - t0
    _verdict(f"2 stability suite (5 demos x 3 descriptors x 100 rollouts, "
             f"{elapsed:.1f}s)", ok and elapsed < 60.0)


def test_3_transform_correctness():
    rng = np.random.default_rng(7)
    demo = s_curve_demo()
    chain, _ = learn(demo, GmmFitConfig(k_max=4, restarts=2))
    ok = True

    # identity transform
    same = transform_chain(chain, chain.endpoint_descriptor())
    ok = ok and np.allclose(same.joints, chain.joints, atol=1e-9)
    for c0, c1 in zip(chain.components.components,
                      same.components.components):
        ok = ok and np.allclose(c0.mean, c1.mean, atol=1e-9)
        ok = ok and np.allclose(c0.covariance, c1.covariance, atol=1e-9)

    # exact translation equivariance
    shift = np.array([0.7, -1.3])
    moved = transform_chain(chain, _shifted(chain.endpoint_descriptor(),
                                            shift, shift))
    ok = ok and np.allclose(moved.joints, chain.joints + shift, atol=1e-9)
    for c0, c1 in zip(chain.components.components,
                      moved.components.components):
        ok = ok and np.allclose(c1.mean, c0.mean + shift, atol=1e-9)
        ok = ok and np.allclose(c1.covariance, c0.covariance, atol=1e-9)

    # constrained edits vs dense KKT oracle on 100 random chains
    from stablemotion.core import frame_from_two_points
    worst = 0.0
    trials = 0
    while trials < 100:
        m = int(rng.integers(4, 11))
        joints = rng.normal(size=(m, 2)).cumsum(axis=0)
        lengths = np.linalg.norm(np.diff(joints, axis=0), axis=1)
        if lengths.min() < 1e-3:
            continue
        trials += 1
        enter = frame_from_two_points(rng.normal(size=2),
                                      rng.normal(size=2) + 5.0)
        exit_ = frame_from_two_points(rng.normal(size=2) + 10.0,
                                      rng.normal(size=2) + 15.0)
        L = _laplacian(m)
        out = _laplacian_edit(chain_on(joints),
                              GeometricDescriptor(enter, exit_))
        oracle = kkt_oracle(L, L @ joints,
                            reference_pins(joints, enter, exit_))
        worst = max(worst, float(np.max(np.abs(out - oracle))))
    ok = ok and worst < 1e-8
    _verdict(f"3 transform correctness (KKT max dev {worst:.2e})", ok)


def test_4_linear_system_recovery():
    rng = np.random.default_rng(5)
    g = np.array([1.5, -0.5])
    X = rng.uniform(-1, 1, size=(300, 2)) + g
    V = -(X - g)
    policy = estimate([GaussianComponent(1.0, g, np.eye(2))], X, V, g)
    dev = float(np.linalg.norm(policy.A[0] + np.eye(2), ord=2))
    r = V - evaluate_batch(policy, X)
    mse = float(np.mean(np.sum(r * r, axis=1)))
    _verdict(f"4 linear recovery (|A+I|={dev:.3e}, mse={mse:.2e})",
             dev < 0.05 and mse < 1e-6)


def _oracle_deviations(rng, K: int, d: int):
    """Largest |gamma - oracle| and |evaluate_batch - oracle| over 1e5
    points, for a random well-conditioned K-component mixture in d-D."""
    # well-conditioned mixture: both double-precision routes are then exact
    # to ~1e-15; thin learned covariances would amplify rounding instead of
    # exposing implementation differences
    pri = rng.dirichlet(np.ones(K))
    comps = []
    A = np.empty((K, d, d))
    for k in range(K):
        W = rng.normal(size=(d, d))
        comps.append(GaussianComponent(float(pri[k]), rng.normal(size=d),
                                       W @ W.T + 0.5 * np.eye(d)))
        S = rng.normal(size=(d, d))
        A[k] = 0.5 * (S - S.T) - np.eye(d) - 0.3 * abs(rng.normal()) * np.eye(d)
    comps = tuple(comps)
    policy = LpvDsPolicy(comps, A, np.eye(d), rng.normal(size=d), 1e-2)
    pts = rng.uniform(-3.0, 3.0, size=(100_000, d))

    # responsibilities: independent scipy density route
    dens = np.column_stack([
        c.prior * multivariate_normal.pdf(pts, mean=c.mean, cov=c.covariance)
        for c in comps])
    gamma_oracle = dens / dens.sum(axis=1, keepdims=True)
    gamma = responsibilities_batch(comps, pts)
    d_gamma = float(np.max(np.abs(gamma - gamma_oracle)))

    # policy evaluation: explicit component-by-component sum
    v_oracle = np.zeros_like(pts)
    for k in range(len(comps)):
        v_oracle += gamma_oracle[:, k, None] * \
            (pts @ policy.A[k].T - policy.A[k] @ policy.attractor)
    d_eval = float(np.max(np.abs(evaluate_batch(policy, pts) - v_oracle)))
    return d_gamma, d_eval


def test_5_oracle_equivalence():
    d_gamma, d_eval = _oracle_deviations(np.random.default_rng(11), K=4, d=2)
    _verdict(f"5 oracle equivalence (gamma {d_gamma:.2e}, eval {d_eval:.2e})",
             d_gamma < 1e-12 and d_eval < 1e-12)


def test_5_oracle_equivalence_3d():
    d_gamma, d_eval = _oracle_deviations(np.random.default_rng(13), K=5, d=3)
    _verdict(f"5 oracle equivalence, 3-D (gamma {d_gamma:.2e}, "
             f"eval {d_eval:.2e})", d_gamma < 1e-12 and d_eval < 1e-12)


def test_6_timing(tmp_path, capsys):
    demo = s_curve_demo(n=200)
    chain, _ = learn(demo, GmmFitConfig(k_max=6, restarts=3))
    desc = _shifted(chain.endpoint_descriptor(), [0.2, 0.2], [-0.2, 0.2])
    profile_cfg = ProfileConfig.for_demo(demo)

    def timed_adapt():
        """(edit and profile, estimate) wall times of one adapt."""
        t0 = time.perf_counter()
        new_chain = transform_chain(chain, desc)
        profile = regenerate_profile(new_chain.joints, profile_cfg)
        t1 = time.perf_counter()
        estimate(new_chain.components.components, profile.points,
                 profile.velocities, new_chain.joints[-1])
        return t1 - t0, time.perf_counter() - t1

    # warm up JIT-free but cache-warm path once, then measure
    timed_adapt()
    t_transform, t_estimate = timed_adapt()

    from stablemotion import fileio
    from stablemotion.cli import main
    demo_path = tmp_path / "demo.json"
    fileio.save_demo(demo_path, [demo])
    t0 = time.perf_counter()
    rc = main(["bench", str(demo_path),
               "--lengths", ",".join(str(n) for n in range(100, 1001, 100)),
               "--repeats", "1", "-o", str(tmp_path / "bench.csv")])
    t_sweep = time.perf_counter() - t0
    capsys.readouterr()
    rows = (tmp_path / "bench.csv").read_text().strip().split("\n")
    _verdict(
        f"6 timing (transform {1e3*t_transform:.0f}ms, "
        f"estimate {1e3*t_estimate:.0f}ms, sweep {t_sweep:.0f}s)",
        rc == 0 and t_transform <= 0.2 and t_estimate <= 2.0
        and t_transform + t_estimate <= 3.0 and t_sweep < 300.0
        and len(rows) == 11)


def test_7_multi_segment_plans():
    demo = s_curve_demo()
    parts = split_demo(demo, [demo.points[100]], radius=1e-9)
    chains = []
    for part in parts:
        chain, _ = learn(part, GmmFitConfig(k_max=3, restarts=2))
        chains.append(chain)
    ok = True
    for relocation in ([0.0, 0.25], [0.2, -0.15], [-0.15, 0.2]):
        shift = np.asarray(relocation)
        segs = []
        for i, chain in enumerate(chains):
            base = chain.endpoint_descriptor()
            # move only the shared via-point; outer endpoints stay put
            desc = _shifted(base, shift if i == 1 else [0, 0],
                            shift if i == 0 else [0, 0])
            new_chain, _, policy = adapt(chain, desc,
                                         ProfileConfig.for_demo(parts[i]))
            segs.append(Segment(new_chain, desc, policy))
        plan = TaskPlan(tuple(segs))
        via = segs[0].policy.attractor
        run = rollout(plan, segs[0].chain.joints[0],
                      RolloutConfig(convergence_radius=plan.switch_radius))
        d_via = float(np.min(np.linalg.norm(
            run.trajectory.points - via, axis=1)))
        d_goal = float(np.linalg.norm(run.trajectory.points[-1]
                                      - plan.final_attractor))
        ok = ok and run.converged and d_via <= plan.switch_radius \
            and d_goal <= plan.switch_radius

        # one policy over the stitched chain, as a plan of one segment
        stitched = stitch_chains([s.chain for s in segs])
        profile_cfg = ProfileConfig.for_demo(demo)
        profile = regenerate_profile(stitched.joints, profile_cfg)
        one = estimate(list(stitched.components.components), profile.points,
                       profile.velocities, stitched.joints[-1])
        combined = TaskPlan(
            (Segment(stitched, stitched.endpoint_descriptor(), one),))
        run_c = rollout(combined, stitched.joints[0],
                        RolloutConfig(convergence_radius=plan.switch_radius))
        d_end = float(np.linalg.norm(
            run_c.trajectory.points[-1]
            - stitched.endpoint_descriptor().exit.position))
        ok = ok and run_c.converged and d_end <= plan.switch_radius
    _verdict("7 multi-segment via-point plans", ok)


def test_8_gradient_check():
    worst = 0.0
    for trial in range(20):
        rng = np.random.default_rng(900 + trial)
        d = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        T = 25
        gamma = rng.dirichlet(np.ones(K), size=T)
        Y = rng.normal(size=(T, d))
        V = rng.normal(size=(T, d))
        stats = fit_statistics(gamma, Y, V)
        W = 0.5 * rng.normal(size=(K, d, d))
        _, grad = objective_and_gradient(W, stats, np.eye(d))
        h = 1e-6
        for i in range(W.size):
            up, dn = W.copy(), W.copy()
            up.flat[i] += h
            dn.flat[i] -= h
            ju, _ = objective_and_gradient(up, stats, np.eye(d))
            jd, _ = objective_and_gradient(dn, stats, np.eye(d))
            fd = (ju - jd) / (2 * h)
            worst = max(worst, abs(grad.flat[i] - fd)
                        / max(abs(fd), abs(grad.flat[i]), 1.0))
    _verdict(f"8 gradient check (worst rel err {worst:.2e})", worst < 1e-5)
