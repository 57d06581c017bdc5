import logging

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from stablemotion import gmm
from stablemotion.config import DEFAULT_TOLERANCES
from stablemotion.core import GaussianComponent, Trajectory
from stablemotion.errors import InsufficientData
from stablemotion.gmm import (
    GmmFitConfig,
    fit_gmm,
    order_components,
    responsibilities,
    responsibilities_batch,
)
from conftest import arc_demo, helix_demo, s_curve_demo


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
    """One M and one E step of one run, component by component, with scipy
    densities: the reference each run of `gmm._em_step` must match. Same
    returns; `floor` is the scalar covariance floor."""
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


def reference_em_single(data, k, floor, rng, max_iters, tol):
    """One EM run on its own: k-means++ seeds, hard assignment, then
    `reference_em_step` until the log-likelihood rises by less than `tol`
    (relative), falls (the run returns its previous parameters; a fall of
    more than 1e-3 is an error) or `max_iters` steps have run. Returns
    (priors, means, covs, loglik, steps, whether it rolled back)."""
    n = data.shape[0]
    seeds = reference_kmeanspp_init(data, k, rng)
    d2 = np.stack([np.sum((data - m) ** 2, axis=1) for m in seeds])
    resp = np.zeros((k, n))
    resp[np.argmin(d2, axis=0), np.arange(n)] = 1.0
    points = np.ascontiguousarray(data.T)
    slack = DEFAULT_TOLERANCES.em_loglik_slack
    prev_ll, prev = -np.inf, None
    for step in range(1, max_iters + 1):
        priors, means, covs, resp, ll = reference_em_step(points, resp, floor)
        if ll < prev_ll - slack * max(1.0, abs(prev_ll)):
            assert ll >= prev_ll - 1e-3 * max(1.0, abs(prev_ll))
            return prev + (prev_ll, step, True)
        if ll - prev_ll < tol * max(1.0, abs(ll)):
            break
        prev_ll, prev = ll, (priors, means, covs)
    return priors, means, covs, ll, step, False


def reference_fit_gmm(data, cfg):
    """`fit_gmm` one run at a time with `reference_em_single`, BIC and the
    (bic, k, restart) tie-break. Returns the components and, in
    (K, restart) order, each run's (BIC, EM steps, whether it rolled
    back)."""
    n, d = data.shape
    floor = cfg.covariance_floor or max(
        1e-6 * float(np.trace(np.cov(data.T))) / d, 1e-12)
    best, runs = None, []
    for k in range(cfg.k_min, cfg.k_max + 1):
        for r in range(cfg.restarts):
            priors, means, covs, ll, step, back = reference_em_single(
                data, k, floor, np.random.default_rng([cfg.seed, k, r]),
                cfg.max_em_iters, cfg.loglik_tol)
            n_params = (k - 1) + k * d + k * d * (d + 1) // 2
            key = (-2.0 * ll + n_params * np.log(n), k, r)
            runs.append((key[0], step, back))
            if best is None or key < best[0]:
                best = (key, priors, means, covs)
    _, priors, means, covs = best
    return [GaussianComponent(float(p), m, 0.5 * (c + c.T))
            for p, m, c in zip(priors / priors.sum(), means, covs)], runs


def fit_record(caplog, data, cfg):
    """fit_gmm's components and the arguments of its one DEBUG record:
    (K, [(K, restart, BIC, EM steps)], max_em_iters, [(K, restart) of the
    runs that used all max_em_iters steps])."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="stablemotion"):
        comps = fit_gmm(data, cfg)
    [record] = caplog.records
    assert record.name == "stablemotion"
    assert record.levelno == logging.DEBUG
    return comps, record.args


def _soft_labels(rng, n, d, k):
    """Data around k centres and soft responsibilities (k, n) for it:
    distinct components, so posteriors reach ~1e-8."""
    centres = rng.normal(scale=3.0, size=(k, d))
    labels = rng.integers(k, size=n)
    data = centres[labels] + rng.normal(size=(n, d))
    resp = np.eye(k)[:, labels] + rng.uniform(0.0, 0.1, size=(k, n))
    return data, resp / resp.sum(axis=0)


def _relative_error(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestEmStep:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_component_loop(self, rng, d, k):
        n = int(rng.integers(60, 400))
        data, resp = _soft_labels(rng, n, d, k)
        points = np.ascontiguousarray(data.T)
        floor = 1e-6
        got = gmm._em_step(points, resp.copy(), floor * np.eye(d))
        want = reference_em_step(points, resp, floor)
        for g, w in zip(got[:3], want[:3]):
            assert _relative_error(g, w) < 1e-12
        # per entry: every responsibility, however small, to 1e-12
        np.testing.assert_allclose(got[3], want[3], rtol=1e-12, atol=0.0)
        assert got[4] == pytest.approx(want[4], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_stacked_step_matches_each_run(self, rng, d):
        # runs with K = 1..6 padded to 6 slots: the stack has empty slots
        n, floor = 300, 1e-6
        data, _ = _soft_labels(rng, n, d, 6)
        inits = [_soft_labels(rng, n, d, k)[1] for k in range(1, 7)]
        resp, floors = gmm._stack_runs(inits, d, floor)
        priors, means, covs, got, ll = gmm._em_step(
            np.ascontiguousarray(data.T), resp, floors)
        for i, init in enumerate(inits):
            k = len(init)
            want = reference_em_step(np.ascontiguousarray(data.T), init,
                                     floor)
            for g, w in zip((priors[i, :k], means[i, :k], covs[i, :k]),
                            want[:3]):
                assert _relative_error(g, w) < 1e-12
            np.testing.assert_allclose(got[i, :k], want[3], rtol=1e-12,
                                       atol=0.0)
            assert ll[i] == pytest.approx(want[4], rel=1e-12, abs=0.0)
            assert np.all(got[i, k:] == 0.0)

    def test_responsibilities_are_the_mixture_posterior(self, rng):
        data = rng.normal(size=(150, 2))
        resp = rng.dirichlet(np.ones(4), size=150).T
        priors, means, covs, got, _ = gmm._em_step(
            np.ascontiguousarray(data.T), resp, 1e-6 * np.eye(2))
        comps = [GaussianComponent(p, m, c)
                 for p, m, c in zip(priors, means, covs)]
        assert np.array_equal(got.T, responsibilities_batch(comps, data))

    @pytest.mark.parametrize("demo", [s_curve_demo(), helix_demo()],
                             ids=["s_curve", "helix"])
    def test_fit_matches_component_loop_em(self, caplog, demo):
        # the lockstep fit against the runs fitted one at a time
        cfg = GmmFitConfig(k_max=5, restarts=2, seed=11)
        self._check_against_reference(caplog, demo.points, cfg)

    def test_roll_back_matches_component_loop_em(self, caplog):
        # a floor this wide makes the log-likelihood fall near a fixed
        # point: both K = 4 runs roll back
        cfg = GmmFitConfig(k_min=3, k_max=4, restarts=2, seed=2,
                           covariance_floor=1e-3)
        want = self._check_against_reference(
            caplog, s_curve_demo().points, cfg)
        assert [back for *_, back in want[2:]] == [True, True]

    def _check_against_reference(self, caplog, data, cfg):
        fast, (_, runs, _, _) = fit_record(caplog, data, cfg)
        slow, want = reference_fit_gmm(data, cfg)
        assert [run[3] for run in runs] == [steps for _, steps, _ in want]
        for run, (bic, _, _) in zip(runs, want):
            assert run[2] == pytest.approx(bic, rel=1e-9, abs=0.0)
        assert len(fast) == len(slow)
        for a, b in zip(fast, slow):
            assert a.prior == pytest.approx(b.prior, rel=1e-9, abs=0.0)
            assert _relative_error(a.mean, b.mean) < 1e-9
            assert _relative_error(a.covariance, b.covariance) < 1e-9
        return want

    @pytest.mark.parametrize("demo", [s_curve_demo(), helix_demo()],
                             ids=["s_curve", "helix"])
    def test_each_run_in_a_stack_matches_it_alone(self, demo):
        # alone: a stack of one, as wide (a zero run sets the width and is
        # sliced off). BLAS may round the means product differently at
        # another width (observed for K <= 3); the per-run reference above
        # covers the unpadded run
        data = demo.points
        n, d = data.shape
        points = np.ascontiguousarray(data.T)
        floor = 1e-6
        ks = [1, 2, 3, 4, 5, 6, 3, 6]
        inits = [gmm._seed_resp(data, k, np.random.default_rng([5, k, i]))
                 for i, k in enumerate(ks)]
        stacked = gmm._em_lockstep(
            points, *gmm._stack_runs(inits, d, floor), 200, 1e-7)
        for k, init, got in zip(ks, inits, stacked):
            resp, floors = gmm._stack_runs([init, np.zeros((6, n))], d,
                                           floor)
            [alone] = gmm._em_lockstep(points, resp[:1], floors[:1], 200,
                                       1e-7)
            assert got[3:] == alone[3:]  # log-likelihood and EM steps
            for g, a in zip(got[:3], alone[:3]):
                assert np.array_equal(g[:k], a[:k])

    @pytest.mark.parametrize("n, stacks", [(200, 1), (1000, 3)])
    def test_stacks_are_cache_sized(self, n, stacks):
        inits = [np.zeros((k, n)) for k in range(3, 7) for _ in range(3)]
        got = list(gmm._stacks(inits, 2))
        assert len(got) == stacks
        assert [id(i) for s in got for i in s] == [id(i) for i in inits]
        for s in got:
            assert len(s) * len(s[-1]) * 2 * n <= gmm._STACK_FLOATS
        # a run over the budget is a stack of its own
        assert list(gmm._stacks(inits[-2:], 10**6)) == [[inits[-2]],
                                                         [inits[-1]]]

    def test_fit_does_not_depend_on_the_stacking(self, caplog, monkeypatch):
        data = helix_demo(300).points
        cfg = GmmFitConfig(k_max=5, restarts=2, seed=11)
        one, (k, runs, _, _) = fit_record(caplog, data, cfg)
        monkeypatch.setattr(gmm, "_STACK_FLOATS", 1)  # every run alone
        alone, (k_alone, runs_alone, _, _) = fit_record(caplog, data, cfg)
        assert k == k_alone
        assert [run[3] for run in runs] == [run[3] for run in runs_alone]
        for a, b in zip(one, alone):
            assert a.prior == pytest.approx(b.prior, rel=1e-12, abs=0.0)
            assert _relative_error(a.mean, b.mean) < 1e-12
            assert _relative_error(a.covariance, b.covariance) < 1e-12


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

    @pytest.mark.parametrize("kwargs", [
        dict(max_em_iters=0), dict(max_em_iters=-1), dict(loglik_tol=-1e-9)])
    def test_rejects_an_empty_em_budget(self, kwargs):
        with pytest.raises(ValueError):
            GmmFitConfig(**kwargs)

    def test_smallest_em_budget_fits(self, caplog):
        cfg = GmmFitConfig(k_max=3, restarts=2, max_em_iters=1,
                           loglik_tol=0.0)
        comps, (k, runs, _, capped) = fit_record(
            caplog, s_curve_demo().points, cfg)
        assert len(comps) == k
        assert [run[3] for run in runs] == [1] * 6
        assert capped == [run[:2] for run in runs]

    def test_covariance_floor_enforced(self):
        # collinear data would otherwise be rank-deficient
        t = np.linspace(0, 1, 80)
        data = np.column_stack([t, 2.0 * t])
        comps = fit_gmm(data, GmmFitConfig(k_max=2, restarts=2,
                                           covariance_floor=1e-4, seed=0))
        for c in comps:
            assert np.linalg.eigvalsh(c.covariance)[0] >= 1e-4 * (1 - 1e-9)


class TestFitRecord:
    def test_reports_bic_and_runs_at_the_cap(self, caplog):
        cfg = GmmFitConfig(k_min=3, k_max=6, restarts=3)
        comps, (k, runs, cap, capped) = fit_record(
            caplog, arc_demo().points, cfg)
        assert k == len(comps)
        assert [run[:2] for run in runs] == [
            (K, r) for K in range(3, 7) for r in range(3)]
        assert min(runs, key=lambda run: run[2:3] + run[:2])[0] == k
        assert cap == 200
        assert capped == [run[:2] for run in runs if run[3] == 200]
        assert len(capped) == 7
        _, want = reference_fit_gmm(arc_demo().points, cfg)
        assert [run[3] for run in runs] == [steps for _, steps, _ in want]

    def test_silent_by_default(self, caplog):
        logger = logging.getLogger("stablemotion")
        assert any(isinstance(h, logging.NullHandler)
                   for h in logger.handlers)
        fit_gmm(s_curve_demo().points, GmmFitConfig(k_max=3, restarts=1))
        assert not caplog.records


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
