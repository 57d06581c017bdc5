"""Gaussian mixture fitting and chain ordering.

EM with k-means++ restarts and BIC model selection over K. The fit is
deterministic given the config seed; restarts use seed-indexed RNG streams
so evaluation order cannot change the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import GaussianComponent, Trajectory, _frozen
from .errors import EmDidNotImprove, InsufficientData

_LOG_2PI = np.log(2.0 * np.pi)


@dataclass(frozen=True)
class GmmFitConfig:
    k_min: int = 1
    k_max: int = 8
    restarts: int = 5
    seed: int = 0
    covariance_floor: Optional[float] = None  # None: 1e-6 * tr(cov)/d
    max_em_iters: int = 200
    loglik_tol: float = 1e-7

    def __post_init__(self):
        if not (1 <= self.k_min <= self.k_max):
            raise ValueError("need 1 <= k_min <= k_max")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.covariance_floor is not None and self.covariance_floor <= 0:
            raise ValueError("covariance_floor must be positive")


@dataclass(frozen=True)
class OrderedGmm:
    """Components sorted along the demonstration's progression."""

    components: tuple
    order_scores: tuple  # responsibility-weighted mean arc-length position

    def __post_init__(self):
        priors = sum(c.prior for c in self.components)
        if abs(priors - 1.0) > DEFAULT_TOLERANCES.prior_sum:
            raise ValueError(f"priors sum to {priors}, expected 1")
        if np.any(np.diff(self.order_scores) < 0):
            raise ValueError("order_scores must be nondecreasing")

    def __len__(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass(frozen=True)
class Mixture:
    """A component set factored once for repeated posterior queries.

    Holds what every query needs and no query changes: the stacked means,
    the inverse Cholesky factors L_k^{-1} of Sigma_k = L_k L_k^T, and the
    log-normalisers log pi_k - 1/2 (d log 2 pi + log det Sigma_k). Means
    and log-normalisers are stored as columns, so they broadcast against
    data held as columns (d, n) with no per-query reshaping.
    """

    means: np.ndarray       # (K, d, 1)
    inv_chol: np.ndarray    # (K, d, d)
    log_norm: np.ndarray    # (K, 1)

    @classmethod
    def from_arrays(cls, priors: np.ndarray, means: np.ndarray,
                    covariances: np.ndarray) -> "Mixture":
        """Factor priors (K,), means (K, d) and covariances (K, d, d)."""
        means = np.asarray(means, dtype=float)
        L = np.linalg.cholesky(np.asarray(covariances, dtype=float))
        d = means.shape[1]
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
        log_norm = np.log(priors) - 0.5 * (d * _LOG_2PI + logdet)
        return cls(_frozen(means[:, :, None]), _frozen(np.linalg.inv(L)),
                   _frozen(log_norm[:, None]))

    @classmethod
    def from_components(cls,
                        components: Sequence[GaussianComponent]) -> "Mixture":
        return cls.from_arrays([c.prior for c in components],
                               [c.mean for c in components],
                               [c.covariance for c in components])

    def weigh(self, diff: np.ndarray):
        """Responsibilities (K, n) and log p(x) (n,) from the data columns
        centred on each mean, `diff = X.T - means` (K, d, n).

        Computed in log space with the per-point maximum subtracted, so
        far-field queries never underflow to an all-zero column.
        """
        z = self.inv_chol @ diff
        # (z * z).sum, not einsum: einsum's set-up costs more than the sum
        # itself for the single-point queries of a control loop
        lj = self.log_norm - 0.5 * (z * z).sum(axis=1)
        top = lj.max(axis=0)
        w = np.exp(lj - top)
        total = w.sum(axis=0)
        return w / total, top + np.log(total)

    def posterior(self, X: np.ndarray) -> np.ndarray:
        """(n, K) responsibilities for the rows of X."""
        points = np.ascontiguousarray(np.atleast_2d(X).T, dtype=float)
        return self.weigh(points - self.means)[0].T


def responsibilities(components: Sequence[GaussianComponent],
                     xi: np.ndarray) -> np.ndarray:
    """Posterior component probabilities at one query point: a batch of
    one."""
    mixture = Mixture.from_components(components)
    return mixture.posterior(np.asarray(xi, dtype=float)[None])[0]


def responsibilities_batch(components: Sequence[GaussianComponent],
                           xi: np.ndarray) -> np.ndarray:
    """(n, K) posterior probabilities for a batch of query points."""
    return Mixture.from_components(components).posterior(xi)


def _kmeanspp_init(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = [data[rng.integers(n)]]
    d2 = np.full(n, np.inf)  # squared distance to the nearest centre so far
    for _ in range(1, k):
        d2 = np.minimum(d2, np.sum((data - centers[-1]) ** 2, axis=1))
        total = d2.sum()
        if total <= 0:  # all points identical / already covered
            centers.append(data[rng.integers(n)])
            continue
        centers.append(data[rng.choice(n, p=d2 / total)])
    return np.array(centers)


def _em_step(points: np.ndarray, resp: np.ndarray, floor: float):
    """One M step from responsibilities (K, n), then one E step.

    `points` is the data as contiguous columns (d, n). Returns (priors,
    means, covs, resp, loglik); the E step runs through the same `Mixture`
    kernel that answers every posterior query.
    """
    d, n = points.shape
    nk = resp.sum(axis=1) + 1e-300
    priors = nk / n
    means = (resp @ points.T) / nk[:, None]
    diff = points[None] - means[:, :, None]                   # (K, d, n)
    covs = ((diff * resp[:, None]) @ diff.transpose(0, 2, 1)
            / nk[:, None, None] + floor * np.eye(d))
    resp, log_px = Mixture.from_arrays(priors, means, covs).weigh(diff)
    return priors, means, covs, resp, float(log_px.sum())


def _em_single(data: np.ndarray, k: int, floor: float, rng: np.random.Generator,
               max_iters: int, tol: float):
    """One EM run. Returns (priors, means, covs, loglik)."""
    n, d = data.shape
    means = _kmeanspp_init(data, k, rng)
    # hard-assignment init around the k-means++ seeds
    d2 = np.stack([np.sum((data - m) ** 2, axis=1) for m in means])
    resp = np.zeros((k, n))
    resp[np.argmin(d2, axis=0), np.arange(n)] = 1.0

    priors = np.full(k, 1.0 / k)
    covs = np.tile(np.eye(d), (k, 1, 1))
    prev_ll = -np.inf
    prev_params = None
    slack = DEFAULT_TOLERANCES.em_loglik_slack
    points = np.ascontiguousarray(data.T)
    for _ in range(max_iters):
        priors, means, covs, resp, ll = _em_step(points, resp, floor)
        if ll < prev_ll - slack * max(1.0, abs(prev_ll)):
            # the additive covariance floor can nudge the objective down a
            # little near a fixed point; only a large drop signals a bug
            if ll < prev_ll - 1e-3 * max(1.0, abs(prev_ll)):
                raise EmDidNotImprove(
                    f"log-likelihood fell from {prev_ll} to {ll}")
            priors, means, covs = prev_params
            break
        if ll - prev_ll < tol * max(1.0, abs(ll)):
            prev_ll = ll
            break
        prev_ll = ll
        prev_params = (priors, means, covs)
    return priors, means, covs, prev_ll


def _bic(loglik: float, k: int, n: int, d: int) -> float:
    n_params = (k - 1) + k * d + k * d * (d + 1) // 2
    return -2.0 * loglik + n_params * np.log(n)


def fit_gmm(data: np.ndarray, cfg: GmmFitConfig = GmmFitConfig()) -> list:
    """Best-of-restarts EM for each K in [k_min, k_max]; BIC picks K."""
    data = np.asarray(data, dtype=float)
    n, d = data.shape
    if n < 2 * d * cfg.k_max:
        raise InsufficientData(
            f"{n} points < 2*d*k_max = {2 * d * cfg.k_max}")
    if cfg.covariance_floor is None:
        spread = float(np.trace(np.cov(data.T))) if n > 1 else 0.0
        floor = max(1e-6 * spread / d, 1e-12)
    else:
        floor = cfg.covariance_floor

    best = None  # (bic, k, restart_index, fit)
    for k in range(cfg.k_min, cfg.k_max + 1):
        for r in range(cfg.restarts):
            rng = np.random.default_rng([cfg.seed, k, r])
            priors, means, covs, ll = _em_single(
                data, k, floor, rng, cfg.max_em_iters, cfg.loglik_tol)
            bic = _bic(ll, k, n, d)
            key = (bic, k, r)
            if best is None or key < best[0]:
                best = (key, priors, means, covs)
    _, priors, means, covs = best
    priors = priors / priors.sum()
    return [GaussianComponent(float(p), m, 0.5 * (c + c.T))
            for p, m, c in zip(priors, means, covs)]


def order_components(components: Sequence[GaussianComponent],
                     demo: Trajectory) -> OrderedGmm:
    """Sort components by responsibility-weighted arc-length position.

    Arc length (not time) makes the ordering invariant to resampling and
    non-uniform demo timing.
    """
    pts = demo.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    s = s / max(s[-1], 1e-300)
    resp = responsibilities_batch(components, pts)
    weights = resp.sum(axis=0)
    scores = (resp.T @ s) / np.maximum(weights, 1e-300)
    start_dist = np.array([np.linalg.norm(c.mean - pts[0]) for c in components])
    order = np.lexsort((start_dist, scores))
    return OrderedGmm(tuple(components[i] for i in order),
                      tuple(float(scores[i]) for i in order))
