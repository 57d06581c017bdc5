import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from stablemotion import gmm
from stablemotion.core import GaussianComponent, Trajectory
from stablemotion.errors import InsufficientData
from stablemotion.gmm import (
    GmmFitConfig,
    fit_gmm,
    order_components,
    responsibilities,
    responsibilities_batch,
)
from conftest import helix_demo, s_curve_demo


def _two_cluster_data(seed=7, n=400, sigma=0.3):
    rng = np.random.default_rng(seed)
    a = rng.normal([0.0, 0.0], sigma, size=(n // 2, 2))
    b = rng.normal([10.0, 0.0], sigma, size=(n // 2, 2))
    return np.vstack([a, b])


def brute_force_responsibilities(components, xi):
    """Direct posterior via scipy densities (independent of the log-space
    implementation path)."""
    num = np.array([
        c.prior * multivariate_normal.pdf(xi, mean=c.mean, cov=c.covariance)
        for c in components])
    return num / num.sum()


def reference_em_step(points, resp, floor):
    """One M and one E step, component by component, with scipy densities:
    the reference `gmm._em_step` must match. Same signature and returns."""
    data = points.T
    n, d = data.shape
    k = resp.shape[0]
    nk = resp.sum(axis=1) + 1e-300
    priors = nk / n
    means = np.array([resp[j] @ data / nk[j] for j in range(k)])
    covs = np.empty((k, d, d))
    for j in range(k):
        diff = data - means[j]
        covs[j] = (resp[j, :, None] * diff).T @ diff / nk[j] \
            + floor * np.eye(d)
    lj = np.stack([np.log(priors[j]) + multivariate_normal.logpdf(
        data, means[j], covs[j]).reshape(n) for j in range(k)])
    norm = logsumexp(lj, axis=0)
    return priors, means, covs, np.exp(lj - norm), float(norm.sum())


def reference_kmeanspp_init(data, k, rng):
    """k-means++ seeding that takes the minimum over every earlier centre
    at each draw."""
    n = data.shape[0]
    centers = [data[rng.integers(n)]]
    for _ in range(1, k):
        d2 = np.min(
            [np.sum((data - c) ** 2, axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0:
            centers.append(data[rng.integers(n)])
            continue
        centers.append(data[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _relative_error(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestEmStep:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_component_loop(self, rng, d, k):
        n = int(rng.integers(60, 400))
        centres = rng.normal(scale=3.0, size=(k, d))
        labels = rng.integers(k, size=n)
        data = centres[labels] + rng.normal(size=(n, d))
        # soft labels: distinct components, so posteriors reach ~1e-8
        resp = np.eye(k)[:, labels] + rng.uniform(0.0, 0.1, size=(k, n))
        resp /= resp.sum(axis=0)
        points = np.ascontiguousarray(data.T)
        floor = 1e-6
        got = gmm._em_step(points, resp, floor)
        want = reference_em_step(points, resp, floor)
        for g, w in zip(got[:3], want[:3]):
            assert _relative_error(g, w) < 1e-12
        # per entry: every responsibility, however small, to 1e-12
        np.testing.assert_allclose(got[3], want[3], rtol=1e-12, atol=0.0)
        assert got[4] == pytest.approx(want[4], rel=1e-12, abs=0.0)

    def test_responsibilities_are_the_mixture_posterior(self, rng):
        data = rng.normal(size=(150, 2))
        resp = rng.dirichlet(np.ones(4), size=150).T
        priors, means, covs, got, _ = gmm._em_step(
            np.ascontiguousarray(data.T), resp, 1e-6)
        comps = [GaussianComponent(p, m, c)
                 for p, m, c in zip(priors, means, covs)]
        assert np.array_equal(got.T, responsibilities_batch(comps, data))

    @pytest.mark.parametrize("demo", [s_curve_demo(), helix_demo()],
                             ids=["s_curve", "helix"])
    def test_fit_matches_component_loop_em(self, monkeypatch, demo):
        cfg = GmmFitConfig(k_max=5, restarts=2, seed=11)
        fast = fit_gmm(demo.points, cfg)
        monkeypatch.setattr(gmm, "_em_step", reference_em_step)
        slow = fit_gmm(demo.points, cfg)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.prior == pytest.approx(b.prior, rel=1e-9, abs=0.0)
            assert _relative_error(a.mean, b.mean) < 1e-9
            assert _relative_error(a.covariance, b.covariance) < 1e-9


class TestKmeansppInit:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_centres_match_minimum_over_all_centres(self, seed):
        data = helix_demo(300).points
        for k in range(1, 9):
            got = gmm._kmeanspp_init(
                data, k, np.random.default_rng([seed, k]))
            want = reference_kmeanspp_init(
                data, k, np.random.default_rng([seed, k]))
            assert np.array_equal(got, want)

    def test_identical_points(self):
        data = np.tile([1.0, 2.0], (20, 1))
        got = gmm._kmeanspp_init(data, 3, np.random.default_rng(4))
        want = reference_kmeanspp_init(data, 3, np.random.default_rng(4))
        assert np.array_equal(got, want)


class TestFitGmm:
    def test_two_separated_clusters_bic_selects_two(self):
        data = _two_cluster_data()
        comps = fit_gmm(data, GmmFitConfig(k_max=4, restarts=3, seed=1))
        assert len(comps) == 2
        means = sorted([c.mean for c in comps], key=lambda m: m[0])
        assert np.linalg.norm(means[0] - [0, 0]) < 0.1
        assert np.linalg.norm(means[1] - [10, 0]) < 0.1

    def test_identical_points_clamped_covariance(self):
        data = np.tile([1.0, 2.0], (50, 1))
        cfg = GmmFitConfig(k_max=2, restarts=2, covariance_floor=1e-6, seed=0)
        comps = fit_gmm(data, cfg)
        assert len(comps) == 1
        assert np.allclose(comps[0].covariance, 1e-6 * np.eye(2))

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_gmm(np.zeros((3, 3)), GmmFitConfig(k_max=4))

    def test_deterministic_given_seed(self):
        data = _two_cluster_data()
        cfg = GmmFitConfig(k_max=3, restarts=3, seed=42)
        a = fit_gmm(data, cfg)
        b = fit_gmm(data, cfg)
        for ca, cb in zip(a, b):
            assert np.array_equal(ca.mean, cb.mean)
            assert np.array_equal(ca.covariance, cb.covariance)

    def test_translation_equivariance(self):
        data = _two_cluster_data()
        shift = np.array([3.7, -1.2])
        cfg = GmmFitConfig(k_max=3, restarts=3, seed=5,
                           covariance_floor=1e-8)
        a = sorted(fit_gmm(data, cfg), key=lambda c: c.mean[0])
        b = sorted(fit_gmm(data + shift, cfg), key=lambda c: c.mean[0])
        for ca, cb in zip(a, b):
            assert np.allclose(cb.mean, ca.mean + shift, atol=1e-6)
            assert np.allclose(cb.covariance, ca.covariance, atol=1e-6)

    def test_covariance_floor_enforced(self):
        # collinear data would otherwise be rank-deficient
        t = np.linspace(0, 1, 80)
        data = np.column_stack([t, 2.0 * t])
        comps = fit_gmm(data, GmmFitConfig(k_max=2, restarts=2,
                                           covariance_floor=1e-4, seed=0))
        for c in comps:
            assert np.linalg.eigvalsh(c.covariance)[0] >= 1e-4 * (1 - 1e-9)


class TestResponsibilities:
    def _pair(self, gap=2.0):
        return [GaussianComponent(0.5, np.array([0.0, 0.0]), np.eye(2)),
                GaussianComponent(0.5, np.array([gap, 0.0]), np.eye(2))]

    def test_symmetry_midpoint(self):
        g = responsibilities(self._pair(), np.array([1.0, 5.0]))
        assert np.allclose(g, [0.5, 0.5], atol=1e-12)

    def test_far_separated_saturates(self):
        g = responsibilities(self._pair(gap=50.0), np.array([0.0, 0.0]))
        assert g[0] > 1 - 1e-12

    def test_single_component(self):
        comp = [GaussianComponent(1.0, np.zeros(2), np.eye(2))]
        assert responsibilities(comp, np.array([123.0, -9.0])) == \
            pytest.approx([1.0])

    def test_sum_to_one_random_sweep(self, rng):
        comps = [GaussianComponent(p, m, np.eye(2) * s) for p, m, s in
                 [(0.2, np.array([0.0, 0]), 0.5),
                  (0.5, np.array([4.0, 1]), 1.5),
                  (0.3, np.array([-3.0, 2]), 0.8)]]
        pts = rng.uniform(-50, 50, size=(100_000, 2))
        g = responsibilities_batch(comps, pts)
        assert np.max(np.abs(g.sum(axis=1) - 1.0)) < 1e-12
        assert g.min() >= 0.0

    def test_far_field_rows_are_finite_and_normalised(self, rng):
        comps = [GaussianComponent(0.2, np.array([0.0, 0.0]),
                                   0.01 * np.eye(2)),
                 GaussianComponent(0.5, np.array([4.0, 1.0]),
                                   np.array([[2.0, 0.9], [0.9, 0.5]])),
                 GaussianComponent(0.3, np.array([-3.0, 2.0]),
                                   0.8 * np.eye(2))]
        means = np.array([c.mean for c in comps])
        diameter = max(np.linalg.norm(a - b) for a in means for b in means)
        angles = rng.uniform(0.0, 2.0 * np.pi, size=32)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
        pts = means.mean(axis=0) + 1e3 * diameter * dirs
        assert np.min(np.linalg.norm(pts[:, None] - means, axis=2)) > \
            999 * diameter
        batch = responsibilities_batch(comps, pts)
        assert np.all(np.isfinite(batch))
        assert np.max(np.abs(batch.sum(axis=1) - 1.0)) < 1e-12
        for x, row in zip(pts, batch):
            g = responsibilities(comps, x)
            assert np.all(np.isfinite(g))
            assert abs(g.sum() - 1.0) < 1e-12
            assert np.allclose(g, row, rtol=0.0, atol=1e-15)

    def test_matches_brute_force(self, rng):
        comps = [GaussianComponent(0.3, rng.normal(size=2),
                                   np.eye(2) + 0.2 * np.ones((2, 2))),
                 GaussianComponent(0.7, rng.normal(size=2), 2.0 * np.eye(2))]
        for _ in range(50):
            x = rng.uniform(-5, 5, size=2)
            assert np.allclose(responsibilities(comps, x),
                               brute_force_responsibilities(comps, x),
                               atol=1e-12)


class TestOrderComponents:
    def test_orders_along_demo(self, s_curve):
        comps = fit_gmm(s_curve.points, GmmFitConfig(k_max=5, restarts=3,
                                                     seed=3))
        ordered = order_components(comps, s_curve)
        xs = [c.mean[0] for c in ordered.components]
        assert xs == sorted(xs)
        assert np.all(np.diff(ordered.order_scores) >= 0)

    def test_reversed_demo_reverses_order(self, s_curve):
        comps = fit_gmm(s_curve.points, GmmFitConfig(k_max=5, restarts=3,
                                                     seed=3))
        fwd = order_components(comps, s_curve)
        rev_demo = Trajectory(s_curve.points[::-1].copy(),
                              s_curve.timestamps.copy())
        rev = order_components(comps, rev_demo)
        fwd_means = [tuple(c.mean) for c in fwd.components]
        rev_means = [tuple(c.mean) for c in rev.components]
        assert fwd_means == rev_means[::-1]

    def test_single_component_score_near_half(self):
        demo = s_curve_demo(n=100)
        sym = [GaussianComponent(1.0, demo.points.mean(axis=0),
                                 np.cov(demo.points.T))]
        ordered = order_components(sym, demo)
        # weighted arc-length mean computed directly
        seg = np.linalg.norm(np.diff(demo.points, axis=0), axis=1)
        s = np.concatenate([[0.0], np.cumsum(seg)])
        s /= s[-1]
        assert ordered.order_scores[0] == pytest.approx(s.mean(), abs=1e-9)
