import dataclasses
import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from stablemotion import gmm
from stablemotion.core import (GaussianComponent, GeometricDescriptor, Pose,
                               Trajectory, joint_diameter)
from stablemotion.errors import InsufficientData, ValidationError
from stablemotion.evaluation import (RolloutConfig, convergence_radius_for,
                                     rollout)
from stablemotion.gmm import (
    GmmFitConfig,
    fit_gmm,
    lift,
    order_components,
    responsibilities,
    responsibilities_batch,
)
from stablemotion.pipeline import adapt, learn
from stablemotion.profile import ProfileConfig
from conftest import (FAR_MAGNITUDES, arc_demo, far_sample_points,
                      helix_demo, s_curve_demo, stress_demos)


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
    return (priors, means, covs) + reference_e_step(points, priors, means,
                                                    covs)


def reference_e_step(points, priors, means, covs):
    """The responsibilities (k, n) and log-likelihood of data columns
    (d, n) under one mixture, with scipy densities."""
    data = points.T
    lj = np.stack([np.log(p) + multivariate_normal.logpdf(data, m, c)
                   .reshape(len(data))
                   for p, m, c in zip(priors, means, covs)])
    norm = logsumexp(lj, axis=0)
    return np.exp(lj - norm), float(norm.sum())


def lifted_tolerance(covs, means, origin, points):
    """A forward-error bound for log-densities from the lifted kernel
    about `origin`: (d^2 + d + 2) eps lambda_max(Sigma^-1) R^2, R the
    largest distance of a mean or a data column (d, n) from the origin.
    The kernel sums d^2 + d + 2 terms of size up to lambda_max R^2 that
    cancel to the Mahalanobis term, so rounding leaves this much."""
    d = len(origin)
    reach = max(np.max(np.sum((points.T - origin) ** 2, axis=1)),
                np.max(np.sum((np.asarray(means) - origin) ** 2, axis=1)))
    lam = np.max(np.linalg.eigvalsh(np.linalg.inv(covs)))
    return (d * d + d + 2) * np.finfo(float).eps * lam * reach


def reference_block_labels(n, k, phase):
    """Each sample's block: the number of cuts n (j + phase) / k,
    j = 1..k-1, at or below its index, in exact fractions."""
    cuts = [n * (j + phase) / k for j in range(1, k)]
    return np.array([sum(cut <= i for cut in cuts) for i in range(n)])


def reference_em_single(data, k, floor, phase, max_iters, tol):
    """One EM run on its own: the hard assignment of the rows of `data`
    to k contiguous blocks (`reference_block_labels`), then
    `reference_em_step` until the log-likelihood gains less than `tol`
    (relative; a fall is a negative gain) or `max_iters` steps have run.
    Returns (priors, means, covs, loglik, steps, whether the last step
    fell)."""
    n = data.shape[0]
    resp = np.zeros((k, n))
    resp[reference_block_labels(n, k, phase), np.arange(n)] = 1.0
    points = np.ascontiguousarray(data.T)
    prev_ll = -np.inf
    for step in range(1, max_iters + 1):
        priors, means, covs, resp, ll = reference_em_step(points, resp, floor)
        if ll - prev_ll < tol * max(1.0, abs(ll)):
            break
        prev_ll = ll
    return priors, means, covs, ll, step, ll < prev_ll


def reference_fit_gmm(data, cfg):
    """`fit_gmm` one run at a time with `reference_em_single`, BIC and the
    (bic, k, restart) tie-break; restart r of R cuts its blocks at phase
    (r - (R - 1) / 2) / R, and K = 1 has one run. Returns the chosen
    components and, in (K, restart) order, each run's (BIC, EM steps,
    components)."""
    n, d = data.shape
    floor = max(1e-6 * float(np.trace(np.cov(data.T))) / d, 1e-12)
    best, runs = None, []
    for k in range(cfg.k_min, cfg.k_max + 1):
        for r in range(cfg.restarts if k > 1 else 1):
            priors, means, covs, ll, step, _ = reference_em_single(
                data, k, floor,
                (r - Fraction(cfg.restarts - 1, 2)) / cfg.restarts,
                gmm._EM_MAX_STEPS, gmm._EM_LOGLIK_TOL)
            n_params = (k - 1) + k * d + k * d * (d + 1) // 2
            key = (-2.0 * ll + n_params * np.log(n), k, r)
            comps = [GaussianComponent(float(p), m, 0.5 * (c + c.T))
                     for p, m, c in zip(priors / priors.sum(), means, covs)]
            runs.append((key[0], step, comps))
            if best is None or key < best[0]:
                best = (key, comps)
    return best[1], runs


def fit_record(caplog, data, cfg):
    """fit_gmm's components and the arguments of its one DEBUG record:
    (K, [(K, restart, BIC, EM steps)], the EM step cap, [(K, restart) of
    the runs that used all its steps])."""
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
        cfg = GmmFitConfig(k_max=5, restarts=2)
        self._check_against_reference(caplog, demo.points, cfg)

    def test_a_run_that_falls_stops_with_the_iterate_it_reached(self):
        # a floor this wide (fit_gmm derives ~1e-7 here) makes the
        # log-likelihood fall near a fixed point: both K = 3 runs of two
        # restarts fall at step 18 and stop there, with that step's
        # parameters and log-likelihood
        data = s_curve_demo().points
        n, d = data.shape
        points = np.ascontiguousarray(data.T)
        floor = 1e-4
        runs = [(k, Fraction(2 * r - 1, 4)) for k in (3, 4) for r in (0, 1)]
        inits = [gmm._block_resp(n, k, phase) for k, phase in runs]

        def lockstep(max_iters):
            return gmm._em_lockstep(
                points, *gmm._stack_runs(inits, d, floor),
                max_iters, gmm._EM_LOGLIK_TOL)

        got = lockstep(gmm._EM_MAX_STEPS)
        want = [reference_em_single(data, k, floor, phase, gmm._EM_MAX_STEPS,
                                    gmm._EM_LOGLIK_TOL)
                for k, phase in runs]
        assert [run[5] for run in want] == [True, True, False, False]
        assert [run[4] for run in got] == [run[4] for run in want]
        assert [run[4] for run in got[:2]] == [18, 18]
        # the step before: each falling run's log-likelihood was higher
        before = lockstep(17)[:2]
        assert all(g[3] < b[3] for g, b in zip(got[:2], before))
        for (k, _), g, w in zip(runs, got, want):
            assert g[3] == pytest.approx(w[3], rel=1e-9, abs=0.0)
            for a, b in zip(g[:3], w[:3]):
                assert _relative_error(a[:k], b) < 1e-9

    def _check_against_reference(self, caplog, data, cfg):
        fast, (_, runs, _, _) = fit_record(caplog, data, cfg)
        slow, want = reference_fit_gmm(data, cfg)
        assert [run[3] for run in runs] == [run[1] for run in want]
        for run, (bic, *_) in zip(runs, want):
            assert run[2] == pytest.approx(bic, rel=1e-9, abs=0.0)
        # restarts that reach one optimum tie in BIC to within rounding,
        # which then decides between them: the fit is checked against the
        # reference run of the (K, restart) it chose
        chosen = min(range(len(runs)),
                     key=lambda i: runs[i][2:3] + runs[i][:2])
        assert len(fast) == len(slow) == len(want[chosen][2])
        for a, b in zip(fast, want[chosen][2]):
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
        inits = [gmm._block_resp(n, k, Fraction(i - 3, 10))
                 for i, k in enumerate(ks)]
        stacked = gmm._em_lockstep(
            points, *gmm._stack_runs(inits, d, floor), gmm._EM_MAX_STEPS,
            gmm._EM_LOGLIK_TOL)
        for k, init, got in zip(ks, inits, stacked):
            resp, floors = gmm._stack_runs([init, np.zeros((6, n))], d,
                                           floor)
            [alone] = gmm._em_lockstep(points, resp[:1], floors[:1],
                                       gmm._EM_MAX_STEPS, gmm._EM_LOGLIK_TOL)
            assert got[3:] == alone[3:]  # log-likelihood and EM steps
            for g, a in zip(got[:3], alone[:3]):
                assert np.array_equal(g[:k], a[:k])


_STRESS = stress_demos()


@pytest.mark.parametrize("demo", _STRESS.values(), ids=_STRESS.keys())
def test_stress_demo_fits_and_converges(demo):
    """A default `learn` of each stress demo succeeds, and its policy
    rolled out from the demo start converges. On many of them EM's
    log-likelihood falls a little near a fixed point, as the additive
    covariance floor allows; each such run stops there."""
    chain, policy = learn(demo)
    run = rollout(policy, demo.start, RolloutConfig(
        convergence_radius=convergence_radius_for(chain.joints)))
    assert run.converged


class TestNegligibleWeights:
    """A weight whose log lies more than 700 below its column's largest is
    exactly 0; every other weight, and so every nonzero responsibility,
    is a normal double."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_columns_spanning_the_subnormal_band(self, d):
        # two blocks of width sigma, 1 apart: at a point of one block the
        # other's log-density lies about 1 / (2 sigma^2) = 720 lower, and
        # the block's spread carries its columns across -745..-700, where
        # exp(-708.4) and below are subnormal
        rng = np.random.default_rng(d)
        n, sigma = 400, np.sqrt(1.0 / 1440.0)
        labels = np.arange(n) * 2 // n
        data = np.outer(labels, np.eye(d)[0]) \
            + sigma * rng.normal(size=(n, d))
        points = np.ascontiguousarray(data.T)
        priors, means, covs, stepped, _ = gmm._em_step(
            points, np.eye(2)[:, labels], 1e-6 * np.eye(d))
        lj = np.stack([np.log(p) + multivariate_normal.logpdf(data, m, c)
                       for p, m, c in zip(priors, means, covs)])
        below_top = lj - lj.max(axis=0)
        want = np.exp(lj - logsumexp(lj, axis=0))
        assert np.sum((below_top < -708.4) & (below_top > -745.2)) > 100
        comps = [GaussianComponent(p, m, c)
                 for p, m, c in zip(priors, means, covs)]
        batch = responsibilities_batch(comps, data).T
        for got in (stepped, batch):
            kept = got != 0.0
            assert np.all(got[kept] >= np.finfo(float).tiny)
            np.testing.assert_allclose(got[kept], want[kept], rtol=1e-12,
                                       atol=0.0)
            assert np.all(below_top[~kept] < -700.0)


class TestLiftedPrecision:
    """The lifted kernel's terms cancel, so its error grows as
    lambda_max(Sigma^-1) |x - origin|^2 (`lifted_tolerance`)."""

    @pytest.mark.parametrize("make_demo", [s_curve_demo, arc_demo,
                                           helix_demo])
    def test_floor_width_posterior_at_the_far_edge(self, rng, make_demo):
        # components as narrow as fit_gmm's floor, lifted about a point a
        # demo's length away: the bound holds even there (a policy's
        # velocities use the whitened kernel instead; see test_policy)
        pts = make_demo().points
        d = pts.shape[1]
        attractor = pts[-1]
        floor = 1e-6 * np.trace(np.cov(pts.T)) / d
        far = pts[np.argmax(np.linalg.norm(pts - attractor, axis=1))]
        width = np.sqrt(floor)
        means = far + width * rng.normal(size=(3, d))
        covs = np.array([floor * np.eye(d)] * 3)
        comps = [GaussianComponent(1.0 / 3.0, m, c)
                 for m, c in zip(means, covs)]
        X = far + 2.0 * width * rng.normal(size=(200, d))
        coef = gmm._log_density_rows([c.prior for c in comps], means, covs,
                                     attractor)
        got = gmm._weigh(coef, lift(X.T, attractor))[0].T
        want, _ = reference_e_step(X.T, [1.0 / 3.0] * 3, means, covs)
        tol = lifted_tolerance(covs, means, attractor, X.T)
        assert tol < 1e-7
        assert np.max(np.abs(got - want.T)) < tol

    @pytest.mark.parametrize("demo", [s_curve_demo(), helix_demo()],
                             ids=["s_curve", "helix"])
    def test_far_translated_em_step(self, rng, demo):
        # E[y y^T] - m m^T and the quadratic cancel about the data mean, so
        # a translation by 1e3 diameters must not show in either
        shift = rng.normal(size=demo.dim)
        data = demo.points + 1e3 * joint_diameter(demo.points) * shift \
            / np.linalg.norm(shift)
        n, k = len(data), 4
        resp = np.eye(k)[:, np.arange(n) * k // n] \
            + rng.uniform(0.0, 0.1, size=(k, n))
        resp /= resp.sum(axis=0)
        points = np.ascontiguousarray(data.T)
        got = gmm._em_step(points, resp.copy(), 1e-6 * np.eye(demo.dim))
        want = reference_em_step(points, resp, 1e-6)
        for g, w in zip(got[:3], want[:3]):
            assert _relative_error(g, w) < 1e-12
        # the E step against the posterior of the parameters it returned:
        # at this offset the absolute means round by 2e-13, which moves a
        # narrow component's responsibilities by ~1e-11 (the reference's
        # own E step is 1.5e-10 from an extended-precision one)
        resp_ref, ll_ref = reference_e_step(points, *got[:3])
        tol = lifted_tolerance(got[2], got[1], points.mean(axis=1), points)
        assert tol < 1e-10
        np.testing.assert_allclose(got[3], resp_ref, rtol=tol, atol=0.0)
        assert got[4] == pytest.approx(ll_ref, rel=1e-12, abs=0.0)


def exact_inverse_logdet(S):
    """The inverse of one 2x2 or 3x3 matrix of doubles, from its adjugate
    and determinant in exact rational arithmetic and rounded once, and its
    log-determinant to within an ulp of log det: an oracle with no
    rounding error of its own to speak of."""
    a = [[Fraction(x) for x in row] for row in S]
    d = len(a)

    def minor(i, j):
        r, c = [k for k in range(d) if k != i], [k for k in range(d) if k != j]
        if d == 2:
            return a[r[0]][c[0]]
        return (a[r[0]][c[0]] * a[r[1]][c[1]]
                - a[r[0]][c[1]] * a[r[1]][c[0]])

    det = sum((-1) ** j * a[0][j] * minor(0, j) for j in range(d))
    inv = [[float((-1) ** (i + j) * minor(j, i) / det) for j in range(d)]
           for i in range(d)]
    return np.array(inv), math.log(float(det))


class TestFactor:
    """`gmm._precision_logdet`, the closed-form Cholesky factorisation of
    a covariance stack, against exact rational arithmetic."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_exact_inverse(self, d):
        # seeded SPD stacks: cond(Sigma) 1 to 1e10, scale 1e-8 to 1e2.
        # Cholesky is backward-stable, so the precision is within
        # 2 cond eps (relative to its largest entry) and the
        # log-determinant within 2 cond eps (absolute), plus four ulps of
        # a number its size, which rounding alone reaches at cond = 1
        rng = np.random.default_rng(2)
        eps = np.finfo(float).eps
        for cond in 10.0 ** np.arange(11):
            for scale in 10.0 ** np.arange(-8, 3):
                Q, _ = np.linalg.qr(rng.normal(size=(4, d, d)))
                S = (Q * scale * np.geomspace(1.0, 1.0 / cond, d)) \
                    @ np.swapaxes(Q, 1, 2)
                S = 0.5 * (S + np.swapaxes(S, 1, 2))
                prec, logdet = gmm._precision_logdet(S)
                assert prec.shape == S.shape and logdet.shape == (4,)
                for P, ld, Si in zip(prec, logdet, S):
                    want, want_ld = exact_inverse_logdet(Si)
                    w = np.linalg.eigvalsh(Si)
                    tol = 2.0 * (w[-1] / w[0]) * eps
                    assert np.max(np.abs(P - want)) \
                        <= tol * np.max(np.abs(want))
                    assert abs(ld - want_ld) \
                        <= tol + 4.0 * eps * max(1.0, abs(want_ld))

    @pytest.mark.parametrize("d", [2, 3])
    def test_empty_slot_is_exactly_zero(self, d):
        # an empty slot of EM's stack: inf * I, beside a real covariance
        S = np.array([np.eye(d), np.eye(d)])
        S[1][range(d), range(d)] = np.inf
        with np.errstate(all="raise"):
            prec, logdet = gmm._precision_logdet(S)
        assert np.array_equal(prec[0], np.eye(d))
        assert logdet[0] == 0.0
        assert np.all(prec[1] == 0.0)
        assert logdet[1] == np.inf


class TestAdaptedPosterior:
    """responsibilities_batch on re-targeted policies, against scipy
    densities at 1e-9: the check the benchmark makes of every adapted
    policy."""

    @pytest.mark.parametrize("demo", [helix_demo(1000), helix_demo(200),
                                      s_curve_demo(1000)],
                             ids=["helix-1000", "helix-200", "s_curve-1000"])
    def test_matches_scipy_densities(self, demo):
        chain, _ = learn(demo, GmmFitConfig(k_min=5, k_max=5, restarts=1))
        base = chain.endpoint_descriptor()
        # each end moves within a fifth of the demo's extent
        reach = 0.2 * joint_diameter(demo.points) / np.sqrt(demo.dim)
        rng = np.random.default_rng(0)
        for _ in range(3):
            desc = GeometricDescriptor(*(
                Pose(pose.position + rng.uniform(-reach, reach, demo.dim),
                     pose.rotation) for pose in (base.enter, base.exit)))
            _, profile, policy = adapt(chain, desc,
                                       ProfileConfig.for_demo(demo))
            comps = policy.components
            got = responsibilities_batch(comps, profile.points)
            want, _ = reference_e_step(
                profile.points.T, [c.prior for c in comps],
                [c.mean for c in comps], [c.covariance for c in comps])
            assert np.max(np.abs(got - want.T)) <= 1e-9


class TestBlockSeed:
    @pytest.mark.parametrize("d", [2, 3])
    def test_every_block_holds_d_samples(self, d):
        # at the fewest samples fit_gmm accepts, for every run it seeds
        for k_max in range(1, 9):
            n = 2 * d * k_max
            for R in range(1, 9):
                for r in range(R):
                    phase = (r - Fraction(R - 1, 2)) / R
                    for k in range(1, k_max + 1):
                        resp = gmm._block_resp(n, k, phase)
                        assert np.array_equal(
                            resp.argmax(axis=0),
                            reference_block_labels(n, k, phase))
                        assert np.all(resp.sum(axis=0) == 1.0)
                        assert resp.sum(axis=1).min() >= d

    def test_one_restart_splits_equally(self):
        resp = gmm._block_resp(12, 4, Fraction(0))
        assert np.array_equal(resp.argmax(axis=0), np.repeat(range(4), 3))


class TestFitGmm:
    def test_config_holds_only_the_k_range_and_restarts(self):
        assert tuple(f.name for f in dataclasses.fields(GmmFitConfig)) == (
            "k_min", "k_max", "restarts")

    def test_two_separated_clusters_bic_selects_two(self):
        data = _two_cluster_data()
        comps = fit_gmm(data, GmmFitConfig(k_max=4, restarts=3))
        assert len(comps) == 2
        means = sorted([c.mean for c in comps], key=lambda m: m[0])
        assert np.linalg.norm(means[0] - [0, 0]) < 0.1
        assert np.linalg.norm(means[1] - [10, 0]) < 0.1

    def test_identical_points_clamped_covariance(self):
        # no spread: the floor is its least value, 1e-12
        data = np.tile([1.0, 2.0], (50, 1))
        comps = fit_gmm(data, GmmFitConfig(k_max=2, restarts=2))
        assert len(comps) == 1
        np.testing.assert_allclose(comps[0].covariance, 1e-12 * np.eye(2),
                                   rtol=1e-9, atol=0.0)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_gmm(np.zeros((3, 3)), GmmFitConfig(k_max=4))

    def test_deterministic(self):
        # a fit depends on its data and config alone, not on earlier fits
        data = _two_cluster_data()
        cfg = GmmFitConfig(k_max=3, restarts=3)
        a = fit_gmm(data, cfg)
        fit_gmm(data[::-1], cfg)
        b = fit_gmm(data, cfg)
        assert len(a) == len(b)
        for ca, cb in zip(a, b):
            assert ca.prior == cb.prior
            assert np.array_equal(ca.mean, cb.mean)
            assert np.array_equal(ca.covariance, cb.covariance)

    def test_translation_equivariance(self):
        data = _two_cluster_data()
        shift = np.array([3.7, -1.2])
        cfg = GmmFitConfig(k_max=3, restarts=3)
        a = sorted(fit_gmm(data, cfg), key=lambda c: c.mean[0])
        b = sorted(fit_gmm(data + shift, cfg), key=lambda c: c.mean[0])
        for ca, cb in zip(a, b):
            assert np.allclose(cb.mean, ca.mean + shift, atol=1e-6)
            assert np.allclose(cb.covariance, ca.covariance, atol=1e-6)

    def test_smallest_em_budget_fits(self):
        # a budget of one step: every run stops after its first M and E
        # step, with that step's parameters
        data = s_curve_demo().points
        n, d = data.shape
        points = np.ascontiguousarray(data.T)
        floor = 1e-6
        inits = [gmm._block_resp(n, k, Fraction(0)) for k in (1, 2, 3)]
        fits = gmm._em_lockstep(points, *gmm._stack_runs(inits, d, floor),
                                1, 0.0)
        assert [fit[4] for fit in fits] == [1, 1, 1]
        for init, fit in zip(inits, fits):
            k = len(init)
            want = reference_em_step(points, init, floor)
            for g, w in zip(fit[:3], want[:3]):
                assert _relative_error(g[:k], w) < 1e-12
            assert fit[3] == pytest.approx(want[4], rel=1e-12, abs=0.0)

    def test_covariance_floor_enforced(self):
        # collinear data would otherwise be rank-deficient
        t = np.linspace(0, 1, 80)
        data = np.column_stack([t, 2.0 * t])
        floor = 1e-6 * np.trace(np.cov(data.T)) / 2
        comps = fit_gmm(data, GmmFitConfig(k_max=2, restarts=2))
        for c in comps:
            assert np.linalg.eigvalsh(c.covariance)[0] >= floor * (1 - 1e-9)


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
        assert len(capped) == 6
        _, want = reference_fit_gmm(arc_demo().points, cfg)
        assert [run[3] for run in runs] == [run[1] for run in want]

    def test_one_run_for_k_1(self, caplog):
        # every restart of K = 1 is the same single block
        _, (_, runs, _, _) = fit_record(caplog, s_curve_demo().points,
                                        GmmFitConfig(k_max=3, restarts=3))
        assert [run[:2] for run in runs] == [(1, 0)] + [
            (K, r) for K in (2, 3) for r in range(3)]

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

    def test_rejects_a_covariance_it_cannot_factor(self):
        # eigvalsh finds this covariance positive definite, but its
        # Cholesky factorisation fails, so it makes no component: a typed
        # error, with no RuntimeWarning on the way
        th = 12 * np.pi / 64
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        S = R @ np.diag([1.0, 1e-17]) @ R.T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="positive definite"):
                GaussianComponent(0.5, np.zeros(2), 0.5 * (S + S.T))

    def test_matches_brute_force(self, rng):
        comps = [GaussianComponent(0.3, rng.normal(size=2),
                                   np.eye(2) + 0.2 * np.ones((2, 2))),
                 GaussianComponent(0.7, rng.normal(size=2), 2.0 * np.eye(2))]
        for _ in range(50):
            x = rng.uniform(-5, 5, size=2)
            assert np.allclose(responsibilities(comps, x),
                               brute_force_responsibilities(comps, x),
                               atol=1e-12)


class TestFarSample:
    """One sample of the S-curve moved out along x to 1e100 ... 1e300:
    at B = 1e100 it fits, and past B the reader names the array in a
    ValidationError, with no RuntimeWarning (the suite makes each one an
    error)."""

    def test_fit_gmm_fits_or_refuses_the_spread(self):
        refused = []
        for m in FAR_MAGNITUDES:
            try:
                fit_gmm(far_sample_points(m))
            except ValidationError as exc:
                assert str(exc).startswith(
                    "data must be finite, every entry at most 1e+100"), m
                refused.append(m)
        assert refused == FAR_MAGNITUDES[1:]

    def test_weights_at_a_far_state_are_one_hot_or_refused(self):
        """At B the weights are one-hot; past it the state is refused."""
        components = learn(s_curve_demo(), GmmFitConfig(
            k_min=3, k_max=3, restarts=1))[1].components
        near = responsibilities_batch(components, [[FAR_MAGNITUDES[0], 0.0]])
        assert sorted(near[0]) == [0.0, 0.0, 1.0]
        for m in FAR_MAGNITUDES[1:]:
            with pytest.raises(ValidationError, match=r"states must be "
                               r"finite, every entry at most 1e\+100"):
                responsibilities_batch(components, [[m, 0.0]])


class TestOrderComponents:
    def test_orders_along_demo(self, s_curve):
        comps = fit_gmm(s_curve.points, GmmFitConfig(k_max=5, restarts=3))
        ordered = order_components(comps, s_curve)
        xs = [c.mean[0] for c in ordered.components]
        assert xs == sorted(xs)

    def test_reversed_demo_reverses_order(self, s_curve):
        comps = fit_gmm(s_curve.points, GmmFitConfig(k_max=5, restarts=3))
        fwd = order_components(comps, s_curve)
        rev_demo = Trajectory(s_curve.points[::-1].copy(),
                              s_curve.timestamps.copy())
        rev = order_components(comps, rev_demo)
        fwd_means = [tuple(c.mean) for c in fwd.components]
        rev_means = [tuple(c.mean) for c in rev.components]
        assert fwd_means == rev_means[::-1]
