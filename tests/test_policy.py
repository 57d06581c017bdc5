import dataclasses
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import stablemotion
from stablemotion.chain import build_chain
from stablemotion.core import (GaussianComponent, GeometricDescriptor, Pose,
                               Trajectory, compute_velocities)
from stablemotion.errors import (InfeasibleAttractor, InsufficientData,
                                 ValidationError)
from stablemotion.gmm import GmmFitConfig, fit_gmm, order_components
from stablemotion.pipeline import adapt
from stablemotion.policy import (
    EstimateOptions,
    LpvDsPolicy,
    constraint_residual,
    estimate,
    evaluate,
    evaluate_batch,
    fit_problem,
    fit_statistics,
    hkm_blocks,
    inverse_hessian_form,
    lyapunov_value,
    objective_and_gradient,
    objective_hessian,
    solve,
)
from stablemotion.profile import ProfileConfig
from test_gmm import brute_force_responsibilities, reference_e_step
from conftest import arc_demo, helix_demo, s_curve_demo


def lyapunov_rates(policy, X):
    """d/dt of the Lyapunov value along the policy flow at each row of X:
    2 (x - x*)^T P f(x)."""
    X = np.atleast_2d(X)
    Y = X - policy.attractor
    return 2.0 * np.sum((Y @ policy.P) * evaluate_batch(policy, X), axis=1)


def toy_policy(A=None, attractor=(1.0, 1.0)):
    comps = (GaussianComponent(1.0, np.zeros(2), np.eye(2)),)
    A = np.array([-np.eye(2)]) if A is None else A
    return LpvDsPolicy(comps, A, np.eye(2), np.array(attractor), 1e-2)


def brute_force_evaluate(policy, xi):
    """Explicit mixture-of-linear-systems sum, component by component."""
    gamma = brute_force_responsibilities(policy.components, xi)
    out = np.zeros(policy.dim)
    for k in range(len(policy.components)):
        out += gamma[k] * (policy.A[k] @ xi
                           - policy.A[k] @ policy.attractor)
    return out


def random_components(rng, K, d=2):
    pri = rng.dirichlet(np.ones(K))
    comps = []
    for k in range(K):
        W = rng.normal(size=(d, d))
        comps.append(GaussianComponent(
            float(pri[k]), rng.normal(size=d), W @ W.T + 0.5 * np.eye(d)))
    return comps


class TestEvaluate:
    def test_attractor_is_exact_fixed_point(self, rng):
        comps = random_components(rng, 3)
        A = np.array([-np.eye(2) + 0.1 * rng.normal(size=(2, 2))
                      for _ in range(3)])
        g = rng.normal(size=2)
        policy = LpvDsPolicy(tuple(comps), A, np.eye(2), g, 1e-2)
        assert np.array_equal(evaluate(policy, g), np.zeros(2))

    def test_single_linear_case(self):
        policy = toy_policy()
        assert np.allclose(evaluate(policy, np.array([2.0, 1.0])), [-1, 0])

    def test_matches_brute_force_oracle(self, rng):
        comps = random_components(rng, 3)
        A = np.array([-np.eye(2) - 0.2 * abs(rng.normal())
                      for _ in range(3)])
        policy = LpvDsPolicy(tuple(comps), A, np.eye(2),
                             rng.normal(size=2), 1e-2)
        for _ in range(100):
            x = rng.uniform(-5, 5, size=2)
            assert np.allclose(evaluate(policy, x),
                               brute_force_evaluate(policy, x), atol=1e-12)

    @pytest.mark.parametrize("d, K", [(3, 3), (2, 8), (3, 8)])
    def test_single_and_batch_match_brute_force_oracle(self, d, K):
        rng = np.random.default_rng(10 * d + K)
        A = np.array([-np.eye(d) - 0.2 * abs(rng.normal()) * np.eye(d)
                      + 0.1 * rng.normal(size=(d, d)) for _ in range(K)])
        policy = LpvDsPolicy(tuple(random_components(rng, K, d)), A,
                             np.eye(d), rng.normal(size=d), 1e-2)
        X = rng.uniform(-5, 5, size=(64, d))
        want = np.array([brute_force_evaluate(policy, x) for x in X])
        for x, v in zip(X, want):
            np.testing.assert_allclose(evaluate(policy, x), v,
                                       rtol=0, atol=1e-12)
        np.testing.assert_allclose(evaluate_batch(policy, X[:1]), want[:1],
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(evaluate_batch(policy, X), want,
                                   rtol=0, atol=1e-12)

    def test_overflowed_norm_gives_its_component_weight_zero(self):
        # |z_0|^2 of the thin component overflows to inf 1e60 from its
        # mean, while the unit component's stays finite: the thin one
        # must get weight 0, not turn the other's velocity into NaN
        comps = (GaussianComponent(0.5, np.zeros(2), 1e-200 * np.eye(2)),
                 GaussianComponent(0.5, np.array([1.0, 2.0]), np.eye(2)))
        A = np.array([-np.eye(2), [[-2.0, 1.0], [-1.0, -2.0]]])
        policy = LpvDsPolicy(comps, A, np.eye(2), np.array([0.5, 0.0]),
                             1e-2)
        X = np.array([[1e60, -3e59], [-2e59, 1e60]])
        want = (X - policy.attractor) @ A[1].T
        assert np.all(np.isfinite(want))
        with np.errstate(over="ignore", invalid="raise"):
            for x, v in zip(X, want):
                assert np.array_equal(evaluate(policy, x), v)
            assert np.array_equal(evaluate_batch(policy, X), want)

    def test_batch_matches_single(self, rng):
        comps = random_components(rng, 2)
        A = np.array([-np.eye(2), -2 * np.eye(2)])
        policy = LpvDsPolicy(tuple(comps), A, np.eye(2),
                             np.zeros(2), 1e-2)
        X = rng.normal(size=(40, 2))
        batch = evaluate_batch(policy, X)
        for i in range(len(X)):
            assert np.allclose(batch[i], evaluate(policy, X[i]), atol=1e-13)
            assert np.array_equal(evaluate(policy, X[i]),
                                  evaluate_batch(policy, X[i][None])[0])

    def test_replace_rebuilds_the_cached_kernel(self, rng):
        A = np.array([-np.eye(2), -2.0 * np.eye(2)])
        policy = LpvDsPolicy(tuple(random_components(rng, 2)), A, np.eye(2),
                             np.zeros(2), 1e-2)
        other = tuple(random_components(rng, 2))
        moved = dataclasses.replace(policy, components=other)
        fresh = LpvDsPolicy(other, A, np.eye(2), np.zeros(2), 1e-2)
        X = rng.uniform(-5, 5, size=(40, 2))
        assert np.array_equal(evaluate_batch(moved, X),
                              evaluate_batch(fresh, X))
        assert not np.allclose(evaluate_batch(moved, X),
                               evaluate_batch(policy, X))
        for x in X:
            assert np.allclose(evaluate(moved, x),
                               brute_force_evaluate(moved, x), atol=1e-12)


    def test_rejects_components_it_cannot_factor(self):
        A = np.array([-np.eye(2)])
        # eigvalsh finds this covariance positive definite (1e-17 rounds
        # to 5.6e-17 here), but its Cholesky factorisation fails; where
        # eigvalsh rounds the other way, the component itself is rejected
        th = 12 * np.pi / 64
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        S = R @ np.diag([1.0, 1e-17]) @ R.T
        S = 0.5 * (S + S.T)
        with pytest.raises(ValidationError):
            LpvDsPolicy((GaussianComponent(1.0, np.zeros(2), S),),
                        A, np.eye(2), np.zeros(2), 1e-2)
        with pytest.raises(ValidationError):
            LpvDsPolicy((GaussianComponent(1.0, np.zeros(3), np.eye(3)),),
                        A, np.eye(2), np.zeros(2), 1e-2)

    @pytest.mark.parametrize("d, states", [
        (2, np.ones((4, 3))), (2, np.ones(3)), (3, np.ones((4, 2))),
        (3, np.ones(2))], ids=["2d-policy-4x3", "2d-policy-3",
                               "3d-policy-4x2", "3d-policy-2"])
    def test_rejects_states_of_another_dimension(self, d, states):
        policy = LpvDsPolicy(
            (GaussianComponent(1.0, np.zeros(d), np.eye(d)),),
            np.array([-np.eye(d)]), np.eye(d), np.zeros(d), 1e-2)
        with pytest.raises(ValidationError, match=rf"expected \({d},\)"):
            evaluate(policy, states)
        with pytest.raises(ValidationError, match=rf"expected \(n, {d}\)"):
            evaluate_batch(policy, states)


class TestFarEdgePrecision:
    """The kernel whitens x - x* and subtracts the whitened offset of each
    mean, so a log-density's rounding grows as |z| |C^-1 (x - x*)|, not
    as lambda_max(Sigma^-1) |x - x*|^2 as in an expanded quadratic."""

    @pytest.mark.parametrize("make_demo", [s_curve_demo, arc_demo,
                                           helix_demo])
    def test_floor_width_components_at_the_far_edge(self, make_demo):
        # components as narrow as fit_gmm's floor, a demo's length from
        # the attractor; distinct gains, so that an error in the mixing
        # weights shows in the velocity
        pts = make_demo().points
        d = pts.shape[1]
        attractor = pts[-1]
        floor = 1e-6 * np.trace(np.cov(pts.T)) / d
        far = pts[np.argmax(np.linalg.norm(pts - attractor, axis=1))]
        width = np.sqrt(floor)
        A = -np.arange(1.0, 4.0)[:, None, None] * np.eye(d)
        worst = 0.0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            means = far + width * rng.normal(size=(3, d))
            covs = [floor * np.eye(d)] * 3
            policy = LpvDsPolicy(tuple(
                GaussianComponent(1.0 / 3.0, m, c)
                for m, c in zip(means, covs)), A, np.eye(d), attractor, 1e-2)
            X = far + 2.0 * width * rng.normal(size=(200, d))
            gamma, _ = reference_e_step(X.T, [1.0 / 3.0] * 3, means, covs)
            want = np.einsum("kn,kij,nj->ni", gamma, A, X - attractor)
            err = np.linalg.norm(evaluate_batch(policy, X) - want, axis=1)
            worst = max(worst, np.max(err / np.linalg.norm(want, axis=1)))
        assert worst < 1e-11


class TestLyapunov:
    def test_zero_at_attractor(self):
        policy = toy_policy()
        assert lyapunov_value(policy, policy.attractor) == 0.0
        assert lyapunov_rates(policy, policy.attractor)[0] == 0.0

    def test_closed_form_linear(self):
        policy = toy_policy()
        x = np.array([3.0, -1.0])
        r2 = float(np.sum((x - policy.attractor) ** 2))
        assert lyapunov_value(policy, x) == pytest.approx(r2)
        assert lyapunov_rates(policy, x)[0] == pytest.approx(-2 * r2)


def direct_objective(W, gamma, Y, V, P_inv, reg, shrink):
    """J and its gradient in W from the per-sample residuals, component by
    component: the form the sufficient statistics replace."""
    T, d = Y.shape
    K = gamma.shape[1]
    A = [P_inv @ W[k] for k in range(K)]
    r = V - np.array([sum(gamma[t, k] * A[k] @ Y[t] for k in range(K))
                      for t in range(T)])
    J = float(np.sum(r * r))
    grad = []
    for k in range(K):
        Adev = A[k] + shrink * np.eye(d)
        J += reg * float(np.sum(Adev * Adev))
        G = -2.0 * sum(gamma[t, k] * np.outer(r[t], Y[t]) for t in range(T))
        grad.append(P_inv.T @ (G + 2.0 * reg * Adev))
    return J, np.array(grad)


def random_spd(rng, d):
    W = rng.normal(size=(d, d))
    return W @ W.T + 0.5 * np.eye(d)


def random_problem(rng):
    d = int(rng.integers(2, 4))
    K = int(rng.integers(1, 4))
    T = 30
    gamma = rng.dirichlet(np.ones(K), size=T)
    stats = fit_statistics(gamma, rng.normal(size=(T, d)),
                           rng.normal(size=(T, d)))
    return stats, K, d


def central_differences(f, W, h):
    """Columns d f / d W_i (W flattened row-major) by central differences."""
    cols = []
    for i in range(W.size):
        up, dn = W.copy(), W.copy()
        up.flat[i] += h
        dn.flat[i] -= h
        cols.append(np.ravel(f(up) - f(dn)) / (2 * h))
    return np.array(cols).T


class TestGradient:
    @pytest.mark.parametrize("trial", range(20))
    def test_analytic_gradient_matches_finite_differences(self, trial):
        rng = np.random.default_rng(1000 + trial)
        stats, K, d = random_problem(rng)
        W = rng.normal(size=(K, d, d)) * 0.5
        P_inv = np.linalg.inv(random_spd(rng, d))
        reg, shrink = rng.uniform(0.01, 1.0), rng.uniform(0.1, 5.0)
        J, grad = objective_and_gradient(W, stats, P_inv, reg, shrink)
        fd = central_differences(
            lambda w: objective_and_gradient(w, stats, P_inv, reg, shrink)[0],
            W, 1e-6)[0]
        for g, f in zip(grad.ravel(), fd):
            assert abs(g - f) / max(abs(f), abs(g), 1.0) < 1e-5

    @pytest.mark.parametrize("trial", range(12))
    def test_statistics_form_matches_per_sample_residuals(self, trial):
        rng = np.random.default_rng(2000 + trial)
        d = int(rng.integers(2, 4))
        K = int(rng.integers(1, 7))
        T = int(rng.integers(60, 1001))
        gamma = rng.dirichlet(np.ones(K), size=T)
        Y = rng.normal(size=(T, d))
        V = rng.normal(size=(T, d))
        P_inv = np.linalg.inv(random_spd(rng, d))
        reg, shrink = rng.uniform(0.01, 1.0), rng.uniform(0.1, 5.0)
        W = rng.normal(size=(K, d, d)) * 0.5
        J, grad = objective_and_gradient(W, fit_statistics(gamma, Y, V),
                                         P_inv, reg, shrink)
        J_ref, grad_ref = direct_objective(W, gamma, Y, V, P_inv, reg, shrink)
        assert abs(J - J_ref) <= 1e-12 * abs(J_ref)
        assert np.linalg.norm(grad - grad_ref) <= \
            1e-12 * np.linalg.norm(grad_ref)

    @pytest.mark.parametrize("trial", range(10))
    def test_hessian_matches_finite_differences_of_gradient(self, trial):
        rng = np.random.default_rng(3000 + trial)
        stats, K, d = random_problem(rng)
        W = rng.normal(size=(K, d, d))
        P_inv = np.linalg.inv(random_spd(rng, d))
        reg, shrink = rng.uniform(0.01, 1.0), rng.uniform(0.1, 5.0)
        fd = central_differences(
            lambda w: objective_and_gradient(w, stats, P_inv, reg, shrink)[1],
            W, 1e-4)
        hessian = objective_hessian(stats, P_inv, reg)
        assert np.abs(hessian - fd).max() <= 1e-7 * np.abs(hessian).max()
        assert np.array_equal(hessian, hessian.T)

    @pytest.mark.parametrize("trial", range(10))
    def test_kronecker_dual_term_matches_the_dense_inverse(self, trial):
        """r^T Q^-1 r from Q's Kronecker factors equals the form on the
        inverted dense Hessian, for identity and non-identity P (a turned
        SPD matrix, so that P P^T and P^T P differ)."""
        rng = np.random.default_rng(5200 + trial)
        stats, K, d = random_problem(rng)
        turn = np.linalg.qr(rng.normal(size=(d, d)))[0]
        P = np.eye(d) if trial % 2 else turn @ random_spd(rng, d)
        reg = rng.uniform(0.01, 1.0)
        r = rng.normal(size=K * d * d)
        dense = float(r @ np.linalg.inv(objective_hessian(
            stats, np.linalg.inv(P), reg)) @ r)
        Hr_inv = np.linalg.inv(stats.H + reg * np.eye(K * d))
        assert abs(inverse_hessian_form(r, P, Hr_inv) - dense) <= \
            1e-12 * abs(dense)

    @pytest.mark.parametrize("trial", range(10))
    def test_hkm_blocks_match_the_linear_map(self, trial):
        rng = np.random.default_rng(4500 + trial)
        K, d = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        X_inv = np.array([random_spd(rng, d) for _ in range(K)])
        Z = np.array([random_spd(rng, d) for _ in range(K)])
        dW = rng.normal(size=(K, d, d))
        sym = lambda M: 0.5 * (M + M.swapaxes(1, 2))
        direct = sym(X_inv @ sym(dW) @ Z).reshape(K, d * d)
        mapped = np.einsum("kab,kb->ka", hkm_blocks(X_inv, Z),
                           dW.reshape(K, d * d))
        assert np.abs(mapped - direct).max() <= \
            1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("trial", range(10))
    def test_barrier_blocks_match_finite_differences_of_gradient(self, trial):
        # -log det(X), X = -sym(W) - eps I, has gradient X^-1 in W, and its
        # Hessian blocks are the HKM blocks with Z = X^-1
        rng = np.random.default_rng(4000 + trial)
        d, eps = int(rng.integers(2, 4)), 1e-2
        S = rng.normal(size=(d, d))
        # the skew part S - S^T does not move X
        W = -random_spd(rng, d) - eps * np.eye(d) + S - S.T
        inv_X = lambda w: np.linalg.inv(-0.5 * (w + w.T) - eps * np.eye(d))
        fd = central_differences(inv_X, W, 1e-6)
        block = hkm_blocks(inv_X(W)[None], inv_X(W)[None])[0]
        assert np.abs(block - fd).max() <= 1e-7 * np.abs(block).max()


class TestEstimate:
    def test_recovers_linear_contraction(self, rng):
        g = np.array([2.0, -1.0])
        X = rng.uniform(-1, 1, size=(200, 2)) + g
        V = -(X - g)
        comps = [GaussianComponent(1.0, g, np.eye(2))]
        policy = estimate(comps, X, V, g)
        assert np.linalg.norm(policy.A[0] + np.eye(2), ord=2) < 0.05
        r = V - evaluate_batch(policy, X)
        assert float(np.mean(np.sum(r * r, axis=1))) < 1e-6

    def test_zero_velocities_yield_minimal_contraction(self, rng):
        g = np.zeros(2)
        X = rng.uniform(-1, 1, size=(100, 2))
        V = np.zeros_like(X)
        comps = [GaussianComponent(1.0, g, np.eye(2))]
        policy = estimate(comps, X, V, g, EstimateOptions(margin=1e-2))
        assert constraint_residual(policy) <= 1e-9
        # the margin forbids A = 0; the minimizer is a small contraction
        assert np.linalg.norm(policy.A[0], ord=2) < 0.1
        v = evaluate(policy, np.array([0.5, 0.5]))
        assert v @ np.array([0.5, 0.5]) < 0  # points toward the attractor

    def test_feasibility_on_fitted_demo(self):
        demo = s_curve_demo()
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=5, restarts=3))
        ordered = order_components(comps, demo)
        policy = estimate(list(ordered.components), demo.points,
                          demo.velocities, demo.end)
        assert constraint_residual(policy) <= 1e-9
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 3, size=(10_000, 2))
        pts = pts[np.linalg.norm(pts - policy.attractor, axis=1) >= 1e-9]
        assert np.all(lyapunov_rates(policy, pts) < 0)

    def test_s_curve_reproduction_rmse(self):
        from stablemotion.evaluation import RolloutConfig, rollout
        demo = s_curve_demo()
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=6, restarts=3))
        ordered = order_components(comps, demo)
        policy = estimate(list(ordered.components), demo.points,
                          demo.velocities, demo.end)
        run = rollout(policy, demo.start,
                      RolloutConfig(dt=0.01, convergence_radius=0.01))
        assert run.converged
        # arc-length aligned comparison against the demonstration
        def resample(pts, n):
            seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
            s = np.concatenate([[0.0], np.cumsum(seg)])
            s /= s[-1]
            si = np.linspace(0, 1, n)
            return np.column_stack([np.interp(si, s, pts[:, j])
                                    for j in range(pts.shape[1])])
        a = resample(run.trajectory.points, 200)
        b = resample(demo.points, 200)
        rmse = float(np.sqrt(np.mean(np.sum((a - b) ** 2, axis=1))))
        arc = np.sum(np.linalg.norm(np.diff(demo.points, axis=0), axis=1))
        assert rmse < 0.1 * arc

    def test_objective_not_worse_than_warm_start(self, rng):
        demo = s_curve_demo(n=120)
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=3, restarts=2))
        ordered = order_components(comps, demo)
        args = (list(ordered.components), demo.points, demo.velocities,
                demo.end)
        policy = estimate(*args)
        problem = fit_problem(*args)
        P_inv = np.linalg.inv(problem.P)
        J_fit, _ = objective_and_gradient(problem.P @ policy.A, problem.stats,
                                          P_inv, problem.reg, problem.shrink)
        J_warm, _ = objective_and_gradient(problem.W0, problem.stats, P_inv,
                                           problem.reg, problem.shrink)
        assert J_fit <= J_warm

    def test_input_validation(self):
        for bad in ({"margin": -1.0}, {"margin": 0.0},
                    {"margin": float("nan")}, {"max_iters": 0}):
            with pytest.raises(ValidationError):
                EstimateOptions(**bad)
        comps = [GaussianComponent(1.0, np.zeros(2), np.eye(2))]
        with pytest.raises(InfeasibleAttractor):
            estimate(comps, np.zeros((20, 2)), np.zeros((20, 2)),
                     np.array([np.nan, 0.0]))
        with pytest.raises(InsufficientData):
            estimate(comps, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))

    @pytest.mark.parametrize("max_iters", [3, 500])
    def test_reports_its_status_in_one_debug_record(self, caplog, max_iters):
        demo = s_curve_demo(n=120)
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=3, restarts=2))
        args = (comps, demo.points, demo.velocities, demo.end)
        with caplog.at_level(logging.DEBUG, logger="stablemotion"):
            estimate(*args, EstimateOptions(max_iters=max_iters))
        [record] = caplog.records
        assert record.name == "stablemotion"
        assert record.levelno == logging.DEBUG
        steps, capped, J0, J, gap = record.args
        problem = fit_problem(*args)
        solution = solve(problem, max_iters)
        assert (steps, gap) == solution[1:]
        assert capped == (max_iters == 3)
        assert 0.0 < J < J0 == objective_and_gradient(
            problem.W0, problem.stats, np.linalg.inv(problem.P),
            problem.reg, problem.shrink)[0]


# -- the convex optimum -------------------------------------------------------

def dual_bound(problem, W):
    """(J(W), a lower bound on min J) from the Lagrangian, independent of
    the solver: Z_k is the PSD part of -sym(dJ/dW_k) at W, and the
    Lagrangian J(P^-1 W) + sum_k <Z_k, sym(W_k) + eps I> is minimised over
    the stacked gains Abar = [A_1 ... A_K] in closed form."""
    stats, P, eps, reg, shrink, _ = problem
    K, d, _ = W.shape
    Ibar = np.tile(np.eye(d), (1, K))

    def J_of(Abar):
        dev = Abar + shrink * Ibar
        return (stats.c - 2.0 * np.sum(Abar * stats.B)
                + np.sum((Abar @ stats.H) * Abar) + reg * np.sum(dev * dev))

    def stacked(M):         # (K, d, d) -> (d, Kd)
        return M.transpose(1, 0, 2).reshape(d, K * d)

    Abar = stacked(np.linalg.solve(P, W))
    grad_A = (2.0 * (Abar @ stats.H - stats.B)
              + 2.0 * reg * (Abar + shrink * Ibar))
    grad_W = np.linalg.solve(P.T, grad_A.reshape(d, K, d).transpose(1, 0, 2))
    vals, vecs = np.linalg.eigh(-0.5 * (grad_W + grad_W.swapaxes(1, 2)))
    Z = (vecs * np.maximum(vals, 0.0)[:, None, :]) @ vecs.swapaxes(1, 2)
    # stationary in Abar: 2 Abar (H + reg I) = 2 (B - reg shrink Ibar) - P^T Z
    rhs = stats.B - reg * shrink * Ibar - 0.5 * stacked(P.T @ Z)
    lhs = stats.H + reg * np.eye(K * d)
    A_min = np.linalg.solve(lhs.T, rhs.T).T
    W_min = P @ A_min.reshape(d, K, d).transpose(1, 0, 2)
    lagrangian = (J_of(A_min) + np.sum(Z * W_min)
                  + eps * np.trace(Z, axis1=1, axis2=2).sum())
    return J_of(Abar), lagrangian


SPD_P = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 0.5]])
SHAPES = {"s_curve": s_curve_demo, "arc": arc_demo, "helix": helix_demo}


@pytest.fixture(scope="module")
def fitted_chains():
    cache = {}

    def get(shape, T):
        if (shape, T) not in cache:
            demo = SHAPES[shape](T)
            comps = fit_gmm(demo.points,
                            GmmFitConfig(k_max=6, restarts=3))
            cache[shape, T] = demo, order_components(comps, demo)
        return cache[shape, T]
    return get


def learn_or_adapt(demo, ordered, kind, opts):
    """The estimate's inputs (learn: the demo; adapt: the profile of the
    chain with its ends moved) and the policy the library fits on them."""
    if kind == "learn":
        args = (list(ordered.components), demo.points, demo.velocities,
                demo.end)
        return args, estimate(*args, opts)
    chain = build_chain(ordered, demo)
    base = chain.endpoint_descriptor()
    move = np.array([0.2, -0.2, 0.1])[:demo.dim]
    desc = GeometricDescriptor(
        Pose(base.enter.position + 0.2, base.enter.rotation),
        Pose(base.exit.position + move, base.exit.rotation))
    new_chain, profile, policy = adapt(chain, desc,
                                       ProfileConfig.for_demo(demo), opts)
    args = (list(policy.components), profile.points, profile.velocities,
            new_chain.joints[-1])
    return args, policy


class TestConvexOptimum:
    @pytest.mark.parametrize("P", ["identity", "spd"])
    @pytest.mark.parametrize("kind", ["learn", "adapt"])
    @pytest.mark.parametrize("T", [200, 1000])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_duality_gap_certifies_the_optimum(self, fitted_chains, shape, T,
                                               kind, P):
        demo, ordered = fitted_chains(shape, T)
        opts = EstimateOptions(
            P=None if P == "identity" else SPD_P[:demo.dim, :demo.dim])
        args, policy = learn_or_adapt(demo, ordered, kind, opts)
        problem = fit_problem(*args, opts)
        solution = solve(problem, EstimateOptions().max_iters)
        assert solution.newton_steps < 30
        assert np.array_equal(np.linalg.inv(problem.P) @ solution.W, policy.A)
        J, lower = dual_bound(problem, solution.W)
        assert 0.0 <= J - lower <= 1e-9 * J
        assert solution.gap <= 1e-9 * J

    @pytest.mark.parametrize("kind", ["learn", "adapt"])
    @pytest.mark.parametrize("shape", ["s_curve", "helix"])
    def test_non_identity_certificate_is_stable(self, fitted_chains, shape,
                                                kind):
        demo, ordered = fitted_chains(shape, 200)
        P = SPD_P[:demo.dim, :demo.dim]
        _, policy = learn_or_adapt(demo, ordered, kind, EstimateOptions(P=P))
        assert np.array_equal(policy.P, P)
        assert constraint_residual(policy) <= 0.0
        lo = demo.points.min(axis=0) - 0.5
        hi = demo.points.max(axis=0) + 0.5
        pts = np.random.default_rng(5).uniform(lo, hi, (500, demo.dim))
        assert np.all(lyapunov_rates(policy, pts) < 0)

    @pytest.mark.parametrize("shape, scale, turn, eigs, oracle", [
        ("s_curve", 0.3, 28, (1.90, 0.10), 2e-10),
        ("s_curve", 0.3, 13, (0.02, 1.98), 2e-10),
        ("s_curve", 0.1, 5, (1.98, 0.02), 2e-10),
        ("s_curve", 0.1, 7, (1.98, 0.02), 2e-10),
        ("helix", 1.0, 15, (1.4995, 1.4995, 0.001), 1e-8)])
    def test_anisotropic_certificates_solve(self, shape, scale, turn, eigs,
                                            oracle):
        # the demo with x scaled, under P = R diag(eigs) R^T, R a turn by
        # turn * pi / 36 in the plane of the last two axes. Newton steps
        # formed in world axes left the cone on all five
        # (OptimizationDiverged); with only X^-1 dX Z formed in the X
        # eigenbases the helix stalled at the step cap. Measured: 14 to 24
        # Newton steps; (J - lower) / J 5.1e-11 to 9.6e-11 on the S-curves
        # and 3.4e-9 on the helix, whose oracle dual (built through P^-1,
        # with an eigenvalue of 1e3) is looser than the solver's.
        base = SHAPES[shape](200)
        demo = compute_velocities(Trajectory(
            base.points * np.r_[scale, np.ones(base.dim - 1)],
            base.timestamps))
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=6, restarts=1))
        c, s = np.cos(turn * np.pi / 36), np.sin(turn * np.pi / 36)
        R = np.eye(demo.dim)
        R[-2:, -2:] = [[c, -s], [s, c]]
        opts = EstimateOptions(P=R @ np.diag(eigs) @ R.T)
        args = (comps, demo.points, demo.velocities, demo.end)
        policy = estimate(*args, opts)
        assert constraint_residual(policy) <= 0.0
        lo = demo.points.min(axis=0) - 0.5
        hi = demo.points.max(axis=0) + 0.5
        pts = np.random.default_rng(5).uniform(lo, hi, (500, demo.dim))
        assert np.all(lyapunov_rates(policy, pts) < 0)
        problem = fit_problem(*args, opts)
        solution = solve(problem, opts.max_iters)
        assert solution.newton_steps < 30
        J, lower = dual_bound(problem, solution.W)
        assert solution.gap <= 1e-10 * J
        assert 0.0 <= J - lower <= oracle * J

    def test_debug_record_gives_the_objective_of_the_solution(self, caplog):
        # the helix problem above, on which the J carried along the
        # Newton steps ends 2.1e-8 relative below J(W)
        demo = helix_demo(200)
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=6, restarts=1))
        c, s = np.cos(15 * np.pi / 36), np.sin(15 * np.pi / 36)
        R = np.eye(3)
        R[1:, 1:] = [[c, -s], [s, c]]
        opts = EstimateOptions(P=R @ np.diag([1.4995, 1.4995, 0.001]) @ R.T)
        problem = fit_problem(comps, demo.points, demo.velocities, demo.end,
                              opts)
        with caplog.at_level(logging.DEBUG, logger="stablemotion"):
            solution = solve(problem, opts.max_iters)
        [record] = caplog.records
        J = objective_and_gradient(solution.W, problem.stats,
                                   np.linalg.inv(problem.P), problem.reg,
                                   problem.shrink)[0]
        assert abs(record.args[3] - J) <= 1e-14 * J

    @pytest.mark.parametrize("kind", ["learn", "adapt"])
    def test_gap_bounds_the_suboptimality_of_every_iterate(self,
                                                          fitted_chains,
                                                          kind):
        # J(W) - gap is the Lagrangian's value at the duals, a lower bound
        # on min J whether or not the iterate is centred
        demo, ordered = fitted_chains("helix", 200)
        opts = EstimateOptions(P=SPD_P)
        args, _ = learn_or_adapt(demo, ordered, kind, opts)
        problem = fit_problem(*args, opts)
        J_of = lambda W: objective_and_gradient(
            W, problem.stats, np.linalg.inv(problem.P), problem.reg,
            problem.shrink)[0]
        final = solve(problem, EstimateOptions().max_iters)
        J_final = J_of(final.W)
        for n in range(final.newton_steps):
            early = solve(problem, n)
            assert early.newton_steps == n
            assert 0.0 <= J_of(early.W) - J_final <= early.gap
            assert early.gap > final.gap

    def test_work_does_not_depend_on_where_the_demo_lies(self):
        # the same problem translated: the same Newton steps, the same gains
        steps, gains = [], []
        for seed in range(101, 111):
            offset = np.random.default_rng(seed).uniform(-1.0, 1.0, 2)
            base = s_curve_demo()
            demo = dataclasses.replace(base, points=base.points + offset)
            comps = fit_gmm(demo.points,
                            GmmFitConfig(k_min=5, k_max=5, restarts=1))
            ordered = order_components(comps, demo)
            row = []
            for kind in ("learn", "adapt"):
                args, policy = learn_or_adapt(demo, ordered, kind,
                                              EstimateOptions())
                row.append(solve(fit_problem(*args),
                                 EstimateOptions().max_iters).newton_steps)
                gains.append(policy.A)
            steps.append(row)
        assert all(row == steps[0] for row in steps)
        assert max(steps[0]) < 30
        for i, A in enumerate(gains):
            assert np.abs(A - gains[i % 2]).max() <= 1e-9


def test_importing_the_library_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(stablemotion.__file__))
    code = ("import sys, stablemotion; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
