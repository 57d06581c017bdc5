import dataclasses

import numpy as np
import pytest

from stablemotion.core import GaussianComponent
from stablemotion.errors import InfeasibleAttractor, InsufficientData
from stablemotion.gmm import GmmFitConfig, fit_gmm, order_components
from stablemotion.policy import (
    EstimateOptions,
    LpvDsPolicy,
    constraint_residual,
    estimate,
    evaluate,
    evaluate_batch,
    fit_statistics,
    lyapunov_rate,
    lyapunov_value,
    objective_and_gradient,
    _pack,
    _param_counts,
    _unpack,
)
from test_gmm import brute_force_responsibilities
from conftest import s_curve_demo


def toy_policy(A=None, attractor=(1.0, 1.0)):
    comps = (GaussianComponent(1.0, np.zeros(2), np.eye(2)),)
    A = np.array([-np.eye(2)]) if A is None else A
    return LpvDsPolicy(comps, A, np.eye(2), np.array(attractor), 1e-2)


def brute_force_evaluate(policy, xi):
    """Explicit mixture-of-linear-systems sum, component by component."""
    gamma = brute_force_responsibilities(policy.components, xi)
    out = np.zeros(policy.dim)
    for k in range(len(policy.components)):
        out += gamma[k] * (policy.A[k] @ xi + policy.b[k])
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

    def test_replace_rebuilds_the_cached_mixture(self, rng):
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


class TestLyapunov:
    def test_zero_at_attractor(self):
        policy = toy_policy()
        assert lyapunov_value(policy, policy.attractor) == 0.0
        assert lyapunov_rate(policy, policy.attractor) == 0.0

    def test_closed_form_linear(self):
        policy = toy_policy()
        x = np.array([3.0, -1.0])
        r2 = float(np.sum((x - policy.attractor) ** 2))
        assert lyapunov_value(policy, x) == pytest.approx(r2)
        assert lyapunov_rate(policy, x) == pytest.approx(-2 * r2)


def direct_objective(params, gamma, Y, V, P_inv, eps, reg, shrink):
    """J and its gradient from the per-sample residuals, component by
    component: the form the sufficient statistics replace."""
    T, d = Y.shape
    K = gamma.shape[1]
    ns, nc = _param_counts(d)
    iu, il = np.triu_indices(d, 1), np.tril_indices(d)
    A, Cs = [], []
    for k in range(K):
        block = params[k * (ns + nc):(k + 1) * (ns + nc)]
        S = np.zeros((d, d))
        S[iu] = block[:ns]
        S -= S.T
        C = np.zeros((d, d))
        C[il] = block[ns:]
        A.append(P_inv @ (S - C @ C.T - eps * np.eye(d)))
        Cs.append(C)
    r = V - np.array([sum(gamma[t, k] * A[k] @ Y[t] for k in range(K))
                      for t in range(T)])
    J = float(np.sum(r * r))
    grad = []
    for k in range(K):
        Adev = A[k] + shrink * np.eye(d)
        J += reg * float(np.sum(Adev * Adev))
        G = -2.0 * sum(gamma[t, k] * np.outer(r[t], Y[t]) for t in range(T))
        W = P_inv.T @ (G + 2.0 * reg * Adev)
        grad.append(np.concatenate([(W - W.T)[iu], (-(W + W.T) @ Cs[k])[il]]))
    return J, np.concatenate(grad)


class TestGradient:
    @pytest.mark.parametrize("trial", range(20))
    def test_analytic_gradient_matches_finite_differences(self, trial):
        rng = np.random.default_rng(1000 + trial)
        d = int(rng.integers(2, 4))
        K = int(rng.integers(1, 4))
        T = 30
        gamma = rng.dirichlet(np.ones(K), size=T)
        Y = rng.normal(size=(T, d))
        V = rng.normal(size=(T, d))
        P = np.eye(d)
        stats = fit_statistics(gamma, Y, V)
        ns, nc = _param_counts(d)
        params = rng.normal(size=K * (ns + nc)) * 0.5
        J, grad = objective_and_gradient(params, stats, P, 1e-2)
        h = 1e-6
        for i in range(len(params)):
            up = params.copy()
            dn = params.copy()
            up[i] += h
            dn[i] -= h
            ju, _ = objective_and_gradient(up, stats, P, 1e-2)
            jd, _ = objective_and_gradient(dn, stats, P, 1e-2)
            fd = (ju - jd) / (2 * h)
            denom = max(abs(fd), abs(grad[i]), 1.0)
            assert abs(grad[i] - fd) / denom < 1e-5

    @pytest.mark.parametrize("trial", range(12))
    def test_statistics_form_matches_per_sample_residuals(self, trial):
        rng = np.random.default_rng(2000 + trial)
        d = int(rng.integers(2, 4))
        K = int(rng.integers(1, 7))
        T = int(rng.integers(60, 1001))
        gamma = rng.dirichlet(np.ones(K), size=T)
        Y = rng.normal(size=(T, d))
        V = rng.normal(size=(T, d))
        W = rng.normal(size=(d, d))
        P_inv = np.linalg.inv(W @ W.T + 0.5 * np.eye(d))
        reg, shrink = rng.uniform(0.01, 1.0), rng.uniform(0.1, 5.0)
        ns, nc = _param_counts(d)
        params = rng.normal(size=K * (ns + nc)) * 0.5
        J, grad = objective_and_gradient(params, fit_statistics(gamma, Y, V),
                                         P_inv, 1e-2, reg, shrink)
        J_ref, grad_ref = direct_objective(params, gamma, Y, V, P_inv, 1e-2,
                                           reg, shrink)
        assert abs(J - J_ref) <= 1e-12 * abs(J_ref)
        assert np.linalg.norm(grad - grad_ref) <= \
            1e-12 * np.linalg.norm(grad_ref)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("K", [1, 4])
    def test_pack_inverts_unpack(self, rng, d, K):
        ns, nc = _param_counts(d)
        params = rng.normal(size=K * (ns + nc))
        S, C = _unpack(params, K, d)
        assert np.array_equal(S, -np.swapaxes(S, 1, 2))
        assert np.array_equal(C, np.tril(C))
        assert np.array_equal(_pack(S, C), params)


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
        assert np.allclose(policy.b[0], -policy.A[0] @ g)

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
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=5, restarts=3, seed=3))
        ordered = order_components(comps, demo)
        policy = estimate(list(ordered.components), demo.points,
                          demo.velocities, demo.end)
        assert constraint_residual(policy) <= 1e-9
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 3, size=(10_000, 2))
        for x in pts:
            if np.linalg.norm(x - policy.attractor) < 1e-9:
                continue
            assert lyapunov_rate(policy, x) < 0

    def test_s_curve_reproduction_rmse(self):
        from stablemotion.evaluation import RolloutConfig, rollout
        demo = s_curve_demo()
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=6, restarts=3, seed=3))
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
        assert rmse < 0.1 * demo.arc_length()

    def test_objective_not_worse_than_warm_start(self, rng):
        demo = s_curve_demo(n=120)
        comps = fit_gmm(demo.points, GmmFitConfig(k_max=3, restarts=2, seed=1))
        ordered = order_components(comps, demo)
        policy = estimate(list(ordered.components), demo.points,
                          demo.velocities, demo.end)
        assert np.all(np.isfinite(policy.A))

    def test_input_validation(self):
        comps = [GaussianComponent(1.0, np.zeros(2), np.eye(2))]
        with pytest.raises(InfeasibleAttractor):
            estimate(comps, np.zeros((20, 2)), np.zeros((20, 2)),
                     np.array([np.nan, 0.0]))
        with pytest.raises(InsufficientData):
            estimate(comps, np.zeros((5, 2)), np.zeros((5, 2)), np.zeros(2))
