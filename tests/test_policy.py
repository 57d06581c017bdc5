import dataclasses
import functools
import logging
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import stablemotion
from stablemotion.chain import build_chain
from stablemotion.core import (_CERTIFICATE_BOUND, _GAIN_BOUND,
                               _POSITION_BOUND, _THINNEST_SD,
                               GaussianComponent, GeometricDescriptor, Pose,
                               Trajectory, compute_velocities,
                               frame_rotations)
from stablemotion.errors import (InsufficientData, OptimizationDiverged,
                                 ValidationError)
from stablemotion.evaluation import (RolloutConfig, rollout, rollout_batch,
                                     sample_field)
from stablemotion.gmm import (GmmFitConfig, fit_gmm, order_components,
                              responsibilities_batch)
from stablemotion.pipeline import adapt, learn
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
from stablemotion.profile import ProfileConfig, regenerate_profile
from stablemotion.sequence import split_demo
from test_gmm import brute_force_responsibilities, reference_e_step
from conftest import (FAR_MAGNITUDES, arc_demo, far_sample_demo,
                      far_sample_points, helix_demo, s_curve_demo)


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
        assert evaluate_batch(policy, X[:0]).shape == (0, d)

    def test_a_policy_at_the_least_sd_is_finite_in_the_whole_box(self):
        """A component at the floor S beside a unit one: at every corner
        of the +-B box the velocity is finite, with no RuntimeWarning
        (the suite makes one an error), and is the unit component's, as
        the thin one's |z_0|^2 is 1e100 times larger."""
        sd = _THINNEST_SD * (1.0 + 1e-12)
        comps = (GaussianComponent(0.5, np.zeros(2), sd * sd * np.eye(2)),
                 GaussianComponent(0.5, np.array([1.0, 2.0]), np.eye(2)))
        A = np.array([-np.eye(2), [[-2.0, 1.0], [-1.0, -2.0]]])
        policy = LpvDsPolicy(comps, A, np.eye(2), np.array([0.5, 0.0]),
                             1e-2)
        X = _POSITION_BOUND * np.array([[1.0, 1.0], [1.0, -1.0],
                                        [-1.0, 1.0], [-1.0, -1.0]])
        want = (X - policy.attractor) @ A[1].T
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


class TestLogNormaliserFold:
    """The kernel adds s_k^2 = max_j l_j - l_k, the spread of the
    log-normalisers, to each |z_k|^2; here it reaches 479 (d = 2) and 488
    (d = 3), from priors 1 to 1e-200 and covariances 1e-6 I to 1e2 I."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_priors_and_widths_far_apart(self, d):
        priors = [1.0, 1e-50, 1e-100, 1e-150, 1e-200]
        variances = [1e-6, 1e-3, 1e-1, 1.0, 1e2]
        means = np.array([np.zeros(d), np.eye(d)[0], 3.0 * np.ones(d),
                          -4.0 * np.eye(d)[-1], 10.0 * np.ones(d)])
        worst = 0.0
        for seed in range(5):
            rng = np.random.default_rng(seed)
            A = np.array([-(k + 1.0) * np.eye(d)
                          + 0.3 * rng.normal(size=(d, d)) for k in range(5)])
            policy = LpvDsPolicy(tuple(
                GaussianComponent(p, m, v * np.eye(d))
                for p, m, v in zip(priors, means, variances)),
                A, np.eye(d), rng.normal(size=d), 1e-2)
            # states on the segments between means, where two components'
            # log-weights cross: 18-34 of each 200 have a second weight
            # above 1e-6
            i, j = rng.integers(5, size=(2, 200))
            X = (means[i] + rng.uniform(size=(200, 1)) * (means[j] - means[i])
                 + 0.1 * rng.normal(size=(200, d)))
            want = np.array([brute_force_evaluate(policy, x) for x in X])
            # a velocity is a convex combination of the A_k y: its error is
            # measured against the largest of them
            scale = np.linalg.norm(
                np.einsum("kij,nj->nki", A, X - policy.attractor), axis=2
            ).max(axis=1)
            single = np.array([evaluate(policy, x) for x in X])
            for got in (single, evaluate_batch(policy, X)):
                err = np.linalg.norm(got - want, axis=1) / scale
                worst = max(worst, err.max())
        # measured: 1.4e-14 worst over both d (the unfolded kernel: 1.0e-14)
        assert worst < 1e-13


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
        with pytest.raises(ValidationError, match="attractor must be finite"):
            estimate(comps, np.zeros((20, 2)), np.zeros((20, 2)),
                     np.array([np.nan, 0.0]))
        with pytest.raises(InsufficientData):
            estimate(comps, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))
        # a dimension that does not match the data's is typed, not numpy's
        # ValueError from the first product that meets it
        x = np.zeros((20, 2))
        comps_3d = [GaussianComponent(1.0, np.zeros(3), np.eye(3))]
        for call in (
                lambda: estimate(comps, x, x, np.zeros(2),
                                 EstimateOptions(P=np.eye(3))),
                lambda: estimate(comps, x, x, np.zeros(3)),
                lambda: estimate(comps_3d, x, x, np.zeros(2)),
                lambda: estimate(comps, np.zeros(20), np.zeros(20),
                                 np.zeros(2)),
                lambda: estimate([], x, x, np.zeros(2))):
            with pytest.raises(ValidationError):
                call()

    @pytest.mark.parametrize("P", [-np.eye(2), np.diag([1.0, -1.0]),
                                   np.full((2, 2), np.nan),
                                   np.diag([np.inf, 1.0]),
                                   np.array([[1.0, 3.0], [-3.0, 1.0]])],
                             ids=["minus_identity", "indefinite", "nan",
                                  "inf", "not_symmetric"])
    def test_certificate_is_checked_before_the_solve(self, P):
        # the policy's rule, applied by the options that carry P, so no
        # estimate is ever handed a bad certificate
        with pytest.raises(ValidationError, match="P must be"):
            EstimateOptions(P=P)

    def test_options_hold_their_own_read_only_certificate(self):
        given = np.diag([2.0, 1.0])
        opts = EstimateOptions(P=given)
        given[0, 0] = -1.0
        assert np.array_equal(opts.P, np.diag([2.0, 1.0]))
        assert not opts.P.flags.writeable
        with pytest.raises(ValidationError, match="P has shape"):
            EstimateOptions(P=np.eye(4))

    def test_a_margin_whose_warm_start_is_not_finite_is_refused(self):
        """The warm start lies -20 margins deep: a margin whose depth
        overflows is refused by the options, one whose depth is finite
        ends the estimate in OptimizationDiverged; neither warns."""
        for margin in (1e307, float("inf"), 10 ** 400):
            with pytest.raises(ValidationError, match="margin <="):
                EstimateOptions(margin=margin)
        demo = s_curve_demo(n=120)
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=3, restarts=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(OptimizationDiverged):
                estimate(comps, demo.points, demo.velocities, demo.end,
                         EstimateOptions(margin=1e300))

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

    @pytest.mark.parametrize("P", ["identity", "spd"])
    @pytest.mark.parametrize("kind", ["learn", "adapt"])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_warm_start_sits_deep_inside_the_cone(self, fitted_chains, shape,
                                                  kind, P):
        """Each eigenvalue of sym(W0_k) is clamped at -20 eps, so
        X0 = -sym(W0) - eps I is no closer than 19 eps to the boundary
        (at -2 eps it came within eps, where the dual start (J0/m) X0^-1
        is stiffest)."""
        demo, ordered = fitted_chains(shape, 200)
        opts = EstimateOptions(
            P=None if P == "identity" else SPD_P[:demo.dim, :demo.dim])
        args, _ = learn_or_adapt(demo, ordered, kind, opts)
        problem = fit_problem(*args, opts)
        depth, eps = 20.0, problem.eps
        S = 0.5 * (problem.W0 + problem.W0.swapaxes(1, 2))
        top = np.linalg.eigvalsh(S)[:, -1]
        assert np.all(top <= -depth * eps * (1.0 - 1e-12))
        # some eigenvalue was clamped: it sits at the depth, to rounding
        assert abs(top.max() + depth * eps) <= 1e-12 * depth * eps
        X0 = -S - eps * np.eye(demo.dim)
        assert np.linalg.eigvalsh(X0)[:, 0].min() >= (
            (depth - 1.0) * eps * (1.0 - 1e-12))

    @pytest.mark.parametrize("P", ["identity", "spd"])
    @pytest.mark.parametrize("T", [200, 1000])
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_warm_start_is_the_ridge_fit_of_the_samples(self, fitted_chains,
                                                       shape, T, P):
        """W0 is the per-component ridge least squares, formed here from
        the centred and scaled samples, P A with the eigenvalues of its
        symmetric part clamped at -20 eps."""
        demo, ordered = fitted_chains(shape, T)
        d = demo.dim
        opts = EstimateOptions(P=None if P == "identity" else SPD_P[:d, :d])
        components = list(ordered.components)
        problem = fit_problem(components, demo.points, demo.velocities,
                              demo.end, opts)
        Y = demo.points - demo.end
        scale = np.linalg.norm(Y, axis=1).max()
        Y, V = Y / scale, demo.velocities / scale
        gamma = responsibilities_batch(components, demo.points)
        reg = 1e-6 * T
        shrink = 10.0 * (np.linalg.norm(V, axis=1).mean()
                         / np.linalg.norm(Y, axis=1).mean())
        Syy = np.einsum("tk,ti,tj->kij", gamma, Y, Y) + max(reg, 1e-9) * \
            np.eye(d)
        Svy = np.einsum("tk,ti,tj->kij", gamma, V, Y) - reg * shrink * \
            np.eye(d)
        W = problem.P @ Svy @ np.linalg.inv(Syy)
        vals, vecs = np.linalg.eigh(0.5 * (W + W.swapaxes(1, 2)))
        vals = np.minimum(vals, -20.0 * opts.margin)
        W0 = (0.5 * (W - W.swapaxes(1, 2))
              + (vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2))
        assert np.abs(problem.W0 - W0).max() <= 1e-10 * np.abs(W0).max()

    @pytest.mark.parametrize("P, most", [("identity", 60), ("spd", 64)])
    def test_newton_step_total(self, fitted_chains, P, most):
        """The learn and adapt problems of the S-curve, arc and helix at
        T = 200 take 60 (identity P) and 64 (SPD_P) Newton steps in all
        from the warm start at -20 eps; from -2 eps they took 71 and 86."""
        steps = 0
        for shape in SHAPES:
            demo, ordered = fitted_chains(shape, 200)
            opts = EstimateOptions(
                P=None if P == "identity" else SPD_P[:demo.dim, :demo.dim])
            for kind in ("learn", "adapt"):
                args, _ = learn_or_adapt(demo, ordered, kind, opts)
                steps += solve(fit_problem(*args, opts),
                               opts.max_iters).newton_steps
        assert steps <= most

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
        # eigenbases the helix stalled at the step cap. Measured: 11 to 15
        # Newton steps (11, 13, 13, 14, 15) from the warm start at -20 eps;
        # `steps` is each case's count from a start at -2 eps, which none
        # may exceed. (J - lower) / J 5.1e-11 to 5.3e-11 on the
        # S-curves and 1.7e-9 on the helix, whose oracle dual (built
        # through P^-1, with an eigenvalue of 1e3) is looser than the
        # solver's.
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
        steps = {28: 24, 13: 16, 5: 14, 7: 14, 15: 19}[turn]
        assert solution.newton_steps <= steps < 30
        J, lower = dual_bound(problem, solution.W)
        assert solution.gap <= 1e-10 * J
        assert 0.0 <= J - lower <= oracle * J

    def test_debug_record_gives_the_objective_of_the_solution(self, caplog):
        # the helix problem above, on which the J carried along the
        # Newton steps ends 2.0e-9 relative below J(W)
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


class TestFarSample:
    """One sample of the S-curve moved out along x to 1e100 ... 1e300:
    at B = 1e100 it fits, and past B the reader names the array in a
    ValidationError, with no RuntimeWarning (the suite makes each one an
    error)."""

    def test_learn_fits_or_refuses(self):
        learn(far_sample_demo(FAR_MAGNITUDES[0]))
        for m in FAR_MAGNITUDES[1:]:
            with pytest.raises(ValidationError, match=r"points must be "
                               r"finite, every entry at most 1e\+100"):
                learn(far_sample_demo(m))

    def test_estimate_fits_or_refuses(self):
        demo = s_curve_demo()
        components = learned_s_curve()[1].components
        estimate(components, far_sample_points(FAR_MAGNITUDES[0]),
                 demo.velocities, demo.end)
        for m in FAR_MAGNITUDES[1:]:
            with pytest.raises(ValidationError, match=r"data must be "
                               r"finite, every entry at most 1e\+100"):
                estimate(components, far_sample_points(m), demo.velocities,
                         demo.end)


def _bounded_policy(sd=1.0, gain=-1.0, certificate=1.0, K=2):
    """A 2-D policy of K isotropic components of sd `sd` at (k, 0), each
    with gain `gain` I, the certificate `certificate` I and the attractor
    at the origin. Past its bound, a value would let the field or V
    overflow at a state within B."""
    comps = tuple(GaussianComponent(1.0 / K, np.array([k, 0.0]),
                                    sd * sd * np.eye(2)) for k in range(K))
    return LpvDsPolicy(comps, gain * np.ones((K, 1, 1)) * np.eye(2),
                       certificate * np.eye(2), np.zeros(2), 1e-2)


class TestPolicyBounds:
    """A policy's own values are bounded so that its field, certificate
    and V are finite at every state within B (see `core`): each is
    refused past its bound at construction and kept at it."""

    @pytest.mark.parametrize("kw, match", [
        ({"sd": _THINNEST_SD * (1.0 - 1e-9)}, "thinner than"),
        ({"gain": -_GAIN_BOUND * (1.0 + 1e-9)}, "gain entry exceeds"),
        ({"certificate": _CERTIFICATE_BOUND * (1.0 + 1e-9)},
         "P entry exceeds"),
        # three policies whose V or field overflowed well inside B
        ({"certificate": 1e300}, "P entry exceeds"),
        ({"gain": -1e250}, "gain entry exceeds"),
        ({"sd": 1e-100}, "thinner than"),
    ], ids=["sd_past_S", "gain_past_G", "P_past_its_bound", "P_1e300",
            "A_minus_1e250", "covariance_1e-200"])
    def test_a_value_past_its_bound_is_refused(self, kw, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValidationError, match=match):
                _bounded_policy(**kw)

    def test_values_at_their_bounds_are_kept(self):
        """At the bounds together, V and the field at the corners of the
        +-B box are finite (the suite makes a RuntimeWarning an error)."""
        policy = _bounded_policy(sd=_THINNEST_SD * (1.0 + 1e-12),
                                 gain=-_GAIN_BOUND,
                                 certificate=_CERTIFICATE_BOUND)
        X = _POSITION_BOUND * np.array([[1.0, 1.0], [-1.0, -1.0]])
        assert np.isfinite(lyapunov_value(policy, X)).all()
        assert np.isfinite(evaluate_batch(policy, X)).all()

    def test_the_estimate_options_share_the_certificate_bound(self):
        with pytest.raises(ValidationError, match="P entry exceeds"):
            EstimateOptions(P=1e300 * np.eye(2))
        EstimateOptions(P=_CERTIFICATE_BOUND * np.eye(2))


def test_importing_the_library_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(stablemotion.__file__))
    code = ("import sys, stablemotion; print(sorted("
            "m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


@functools.lru_cache(maxsize=None)
def learned_s_curve():
    return learn(s_curve_demo(), GmmFitConfig(k_max=3, restarts=1))


def _policy_with(**changes):
    _, policy = learned_s_curve()
    fields = {"components": policy.components, "A": policy.A, "P": policy.P,
              "attractor": policy.attractor, "margin": policy.margin}
    return LpvDsPolicy(**{**fields, **changes})


def _typed_config_cases() -> dict:
    """Each numeric field of the configs set to a numeral string, and each
    count to a float or a bool: every one a ValidationError."""
    configs = {ProfileConfig: {"p": 50, "dt": 0.1},
               RolloutConfig: {}, EstimateOptions: {}, GmmFitConfig: {}}
    counts = {"p", "max_steps", "max_iters", "k_min", "k_max", "restarts"}
    cases = {}
    for cls, base in configs.items():
        for f in (f.name for f in dataclasses.fields(cls) if f.name != "P"):
            bad = [("string", "1")] + (
                [("float", 2.5), ("bool", True)] if f in counts else [])
            for kind, value in bad:
                cases[f"{cls.__name__}_{f}_{kind}"] = functools.partial(
                    cls, **{**base, f: value})
    return cases


_TYPED_CONFIG_CASES = _typed_config_cases()


def _malformed_input_cases() -> dict:
    """Arrays that are not real, finite numbers (strings, numerals, a
    bool among numbers, NaN, inf), handed to the library's entries, and
    scalars beside them that break the configs' number rule."""
    policy = lambda: learned_s_curve()[1]  # noqa: E731
    strings, numerals = ["a", "b"], ["0.1", "0.2"]
    unit = [[0.0, 1.0], [0.0, 1.0]]
    return {
        "evaluate_strings": lambda: evaluate(policy(), strings),
        "evaluate_batch_strings": lambda: evaluate_batch(policy(), [strings]),
        "rollout_strings": lambda: rollout(policy(), strings),
        "rollout_batch_strings": lambda: rollout_batch(policy(), [strings]),
        "lyapunov_value_strings": lambda: lyapunov_value(policy(), strings),
        "responsibilities_batch_strings": lambda: responsibilities_batch(
            policy().components, [strings]),
        "split_demo_string_via_point": lambda: split_demo(
            s_curve_demo(), [strings], 0.1),
        "frame_rotations_strings": lambda: frame_rotations(
            [strings], [["c", "d"]]),
        "sample_field_string_bounds": lambda: sample_field(
            policy(), [strings, strings], 5),
        "sample_field_resolution_2.5": lambda: sample_field(
            policy(), unit, 2.5),
        "sample_field_nan_bounds": lambda: sample_field(
            policy(), [[np.nan, 1.0], [0.0, 1.0]], 5),
        "split_demo_radius_string": lambda: split_demo(
            s_curve_demo(), [[1.0, 0.0]], "a"),
        "split_demo_radius_nan": lambda: split_demo(
            s_curve_demo(), [[1.0, 5.0]], np.nan),
        "split_demo_radius_inf": lambda: split_demo(
            s_curve_demo(), [[1.0, 5.0]], np.inf),
        "split_demo_radius_10**400": lambda: split_demo(
            s_curve_demo(), [s_curve_demo().points[100]], 10 ** 400),
        "rollout_inf_start": lambda: rollout(policy(), [np.inf, 0.2]),
        "fit_gmm_inf_data": lambda: fit_gmm(np.full((100, 2), np.inf)),
        "evaluate_numerals": lambda: evaluate(policy(), numerals),
        "rollout_numerals": lambda: rollout(policy(), numerals),
        "evaluate_bool": lambda: evaluate(policy(), [True, 0.2]),
        "evaluate_numpy_bool": lambda: evaluate(policy(), [np.True_, 0.2]),
        "evaluate_nan": lambda: evaluate(policy(), [np.nan, 0.2]),
        "fit_gmm_bool": lambda: fit_gmm(
            s_curve_demo().points.tolist() + [[True, 0.0]]),
        "trajectory_bool": lambda: Trajectory([[0.0, True], [1.0, 2.0]],
                                              [0.0, 1.0]),
        "pose_bool": lambda: Pose([0.0, True], np.eye(2)),
        "component_bool_prior": lambda: GaussianComponent.from_stack(
            [0.5, True], np.zeros((2, 2)), [np.eye(2)] * 2),
    }


_MALFORMED_INPUT_CASES = _malformed_input_cases()
_DESCRIPTOR_3D = GeometricDescriptor(Pose(np.zeros(3), np.eye(3)),
                                     Pose(np.ones(3), np.eye(3)))


@pytest.mark.parametrize("call", [
    lambda: adapt(learned_s_curve()[0], _DESCRIPTOR_3D,
                  learned_s_curve()[0].timing),
    lambda: fit_gmm(np.arange(100.0)),
    lambda: fit_gmm(np.arange(100.0)[:, None]),
    lambda: Trajectory([["a", "b"], ["c", "d"]], [0.0, 1.0]),
    lambda: _policy_with(A=np.full_like(learned_s_curve()[1].A, np.nan)),
    lambda: _policy_with(P=np.full((2, 2), np.nan)),
    lambda: _policy_with(attractor=np.array([np.nan, 0.0])),
    lambda: _policy_with(attractor=np.array([np.inf, 0.0])),
    lambda: ProfileConfig(50, 1e307),
    lambda: fit_gmm([["a", "b"]] * 100),
    lambda: estimate(learned_s_curve()[1].components, [["a", "b"]] * 30,
                     np.zeros((30, 2)), np.zeros(2)),
    lambda: regenerate_profile(np.arange(5.0), ProfileConfig(50, 0.1)),
    lambda: regenerate_profile(np.ones((1, 2)), ProfileConfig(50, 0.1)),
    lambda: GaussianComponent("0.5", np.zeros(2), np.eye(2)),
    lambda: LpvDsPolicy(
        (GaussianComponent(1.0, np.array([np.nan, 0.0]), np.eye(2)),),
        np.array([-np.eye(2)]), np.eye(2), np.zeros(2), 1e-2),
    lambda: _policy_with(A=2.0 * np.ones_like(learned_s_curve()[1].A)
                         * np.eye(2)),
    lambda: _policy_with(A=-np.ones_like(learned_s_curve()[1].A)
                         * np.eye(2), margin=10.0),
    *_TYPED_CONFIG_CASES.values(),
    *_MALFORMED_INPUT_CASES.values(),
], ids=["adapt_3d_descriptor_on_2d_chain", "fit_gmm_1d_data",
        "fit_gmm_n_by_1_data", "trajectory_of_strings", "policy_nan_A",
        "policy_nan_P", "policy_nan_attractor", "policy_inf_attractor",
        "profile_last_timestamp_overflows", "fit_gmm_strings",
        "estimate_strings", "regenerate_profile_1d_joints",
        "regenerate_profile_one_joint", "component_string_prior",
        "policy_nan_mean_component", "policy_A_2I",
        "policy_minus_I_at_margin_10", *_TYPED_CONFIG_CASES,
        *_MALFORMED_INPUT_CASES])
def test_library_entry_raises_a_typed_error(call):
    # each is checked before any arithmetic: a bare numpy ValueError, a
    # RuntimeWarning or a policy built from non-finite values would
    # escape the library's error types
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize("call", [
    lambda: split_demo(s_curve_demo(), [[np.nan, 0.0]], 0.1),
    lambda: regenerate_profile(np.full((4, 2), np.nan),
                               ProfileConfig(50, 0.1)),
], ids=["split_demo_nan_via_point", "regenerate_profile_nan_joints"])
def test_non_finite_array_is_refused_as_such(call):
    # not as a via-point out of order or a degenerate link, which is what
    # the NaN would make of it further on
    with pytest.raises(ValidationError, match="must be finite"):
        call()


def test_a_count_may_be_a_numpy_integer():
    n = np.int32(3)
    assert (ProfileConfig(n, 0.1).p == RolloutConfig(max_steps=n).max_steps
            == EstimateOptions(max_iters=n).max_iters
            == GmmFitConfig(n, n, n).k_max == 3)
