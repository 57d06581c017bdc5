"""Gaussian mixture fitting and chain ordering.

EM with k-means++ restarts and BIC model selection over K; the
(K, restart) runs are stepped together in one lockstep loop. The fit is
deterministic given the config seed; restarts use seed-indexed RNG streams
so evaluation order cannot change the result.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES
from .core import GaussianComponent, Trajectory, _frozen
from .errors import EmDidNotImprove, InsufficientData

_LOG_2PI = np.log(2.0 * np.pi)
_log = logging.getLogger("stablemotion")
# the most elements of one EM stack's (runs, K, d, n) buffers: two of them
# and the responsibilities then fit a 2 MB L2 cache. A single stack of the
# default 40 runs outgrew it at T = 1000 and ran slower than one run at a time
_STACK_FLOATS = 1 << 16


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
        if self.max_em_iters < 1:
            raise ValueError("max_em_iters must be >= 1")
        if self.loglik_tol < 0:
            raise ValueError("loglik_tol must be >= 0")


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

    means: np.ndarray       # (..., K, d, 1)
    inv_chol: np.ndarray    # (..., K, d, d)
    log_norm: np.ndarray    # (..., K, 1)

    @classmethod
    def from_arrays(cls, priors: np.ndarray, means: np.ndarray,
                    covariances: np.ndarray) -> "Mixture":
        """Factor priors (..., K), means (..., K, d) and covariances
        (..., K, d, d); leading axes index independent mixtures."""
        means = np.asarray(means, dtype=float)
        L = np.linalg.cholesky(np.asarray(covariances, dtype=float))
        d = means.shape[-1]
        logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=-2, axis2=-1)),
                              axis=-1)
        log_norm = np.log(priors) - 0.5 * (d * _LOG_2PI + logdet)
        return cls(_frozen(means[..., None]), _frozen(np.linalg.inv(L)),
                   _frozen(log_norm[..., None]))

    @classmethod
    def from_components(cls,
                        components: Sequence[GaussianComponent]) -> "Mixture":
        return cls.from_arrays([c.prior for c in components],
                               [c.mean for c in components],
                               [c.covariance for c in components])

    def weigh(self, diff: np.ndarray, work: Optional[np.ndarray] = None,
              out: Optional[np.ndarray] = None):
        """Responsibilities (..., K, n) and log p(x) (..., 1, n) from the
        data columns centred on each mean, `diff = X.T - means`
        (..., K, d, n).

        Computed in log space with the per-point maximum subtracted, so
        far-field queries never underflow to an all-zero column. `work`
        (shaped like `diff`) and `out` (shaped like the responsibilities),
        if given, receive the Mahalanobis terms and the responsibilities,
        so a loop that calls this once per step allocates nothing large.
        """
        z = np.matmul(self.inv_chol, diff, out=work)
        # (z * z).sum, not einsum: einsum's set-up costs more than the sum
        # itself for the single-point queries of a control loop
        z *= z
        lj = z.sum(axis=-2, out=out)
        lj *= -0.5
        lj += self.log_norm
        top = lj.max(axis=-2, keepdims=True)
        lj -= top
        np.exp(lj, out=lj)
        total = lj.sum(axis=-2, keepdims=True)
        lj /= total
        return lj, top + np.log(total)

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


def _seed_resp(data: np.ndarray, k: int,
               rng: np.random.Generator) -> np.ndarray:
    """Hard assignment (k, n) of the data to its nearest k-means++ seed."""
    means = _kmeanspp_init(data, k, rng)
    d2 = np.stack([np.sum((data - m) ** 2, axis=1) for m in means])
    resp = np.zeros((k, data.shape[0]))
    resp[np.argmin(d2, axis=0), np.arange(data.shape[0])] = 1.0
    return resp


def _stacks(inits: Sequence[np.ndarray], d: int):
    """Split runs, in ascending K, into consecutive stacks of at most
    `_STACK_FLOATS` elements in their (runs, K, d, n) buffers."""
    stack = []
    for init in inits:
        if stack and (len(stack) + 1) * init.size * d > _STACK_FLOATS:
            yield stack
            stack = []
        stack.append(init)
    yield stack


def _stack_runs(inits: Sequence[np.ndarray], d: int, floor: float):
    """Stack runs' initial responsibilities (k_i, n) into (R, K, n), K the
    largest k_i, and their covariance floors into (R, K, d, d): floor * I
    on each run's components and inf * I on the empty slots that pad it
    to K."""
    K = max(len(init) for init in inits)
    resp = np.zeros((len(inits), K, inits[0].shape[1]))
    floors = np.zeros((len(inits), K, d, d))
    floors[..., range(d), range(d)] = np.inf
    for i, init in enumerate(inits):
        resp[i, :len(init)] = init
        floors[i, :len(init)] = floor * np.eye(d)
    return resp, floors


def _em_step(points: np.ndarray, resp: np.ndarray, floor: np.ndarray,
             diff: Optional[np.ndarray] = None,
             work: Optional[np.ndarray] = None):
    """One M step from responsibilities (..., K, n), then one E step.

    `points` is the data as contiguous columns (d, n); leading axes of
    `resp` index independent runs. `floor` (..., K, d, d) is added to each
    covariance: floor * I on a run's components, inf * I on the empty
    slots that pad it to K. An infinitely wide Gaussian has log-normaliser
    -inf, so an empty slot takes exactly zero responsibility. The new
    responsibilities overwrite `resp`; `diff` and `work`, if given, are
    (..., K, d, n) buffers for the centred data and the scratch. Returns
    (priors, means, covs, resp, loglik per run); the E step is the
    `Mixture` kernel that answers every posterior query.
    """
    n = points.shape[1]
    nk = resp.sum(axis=-1) + 1e-300
    priors = nk / n
    means = (resp @ points.T) / nk[..., None]
    diff = np.subtract(points, means[..., None], out=diff)
    work = np.multiply(diff, resp[..., None, :], out=work)
    covs = work @ diff.swapaxes(-1, -2) / nk[..., None, None] + floor
    _, log_px = Mixture.from_arrays(priors, means, covs).weigh(
        diff, work, out=resp)
    return priors, means, covs, resp, log_px.sum(axis=-1)[..., 0]


def _em_lockstep(points: np.ndarray, resp: np.ndarray, floor: np.ndarray,
                 max_iters: int, tol: float) -> list:
    """EM on a stack of runs, all stepped together until each one stops.

    `resp` (R, K, n) holds each run's initial responsibilities and `floor`
    (R, K, d, d) its covariance floor and empty slots (see `_em_step`);
    `resp` is consumed. A run stops once its log-likelihood rises by less
    than `tol` (relative) or after `max_iters` steps, or rolls back to its
    previous parameters if the log-likelihood falls; finished runs are
    compacted out of the stack. Returns (priors, means, covs, loglik,
    steps) per run, in stack order, with the parameters padded to K.
    """
    R, K, n = resp.shape
    diff = np.empty((R, K) + points.shape)
    work = np.empty_like(diff)
    slack = DEFAULT_TOLERANCES.em_loglik_slack
    ids = list(range(R))
    prev_ll = [-np.inf] * R
    prev = None
    done = [None] * R
    for step in range(1, max_iters + 1):
        m = len(ids)
        priors, means, covs, _, ll = _em_step(
            points, resp[:m], floor, diff[:m], work[:m])
        ll = ll.tolist()
        keep = []
        # the stop rule on Python floats: for the few runs of a stack that
        # is cheaper than a dozen small numpy calls per step
        for j, (new, old) in enumerate(zip(ll, prev_ll)):
            if new < old - slack * max(1.0, abs(old)):
                # the additive covariance floor can nudge the objective down
                # a little near a fixed point; only a large drop signals a bug
                if new < old - 1e-3 * max(1.0, abs(old)):
                    raise EmDidNotImprove(
                        f"log-likelihood fell from {old} to {new}")
                done[ids[j]] = (prev[0][j], prev[1][j], prev[2][j], old, step)
            elif new - old < tol * max(1.0, abs(new)) or step == max_iters:
                done[ids[j]] = (priors[j], means[j], covs[j], new, step)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < m:
            ids = [ids[j] for j in keep]
            resp[:len(keep)] = resp[keep]
            floor = floor[keep]
            priors, means, covs = priors[keep], means[keep], covs[keep]
        prev_ll = [ll[j] for j in keep]
        prev = (priors, means, covs)
    return done


def _bic(loglik: float, k: int, n: int, d: int) -> float:
    n_params = (k - 1) + k * d + k * d * (d + 1) // 2
    return float(-2.0 * loglik + n_params * np.log(n))


def fit_gmm(data: np.ndarray, cfg: GmmFitConfig = GmmFitConfig()) -> list:
    """Best-of-restarts EM for each K in [k_min, k_max]; BIC picks K.

    Every (K, restart) run starts from its own k-means++ seeds. The runs
    are stacked, padded to the widest K of their stack, and `_em_lockstep`
    steps each stack's runs together: one stack for short demos, a few
    cache-sized ones for long ones.
    """
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

    runs = [(k, r) for k in range(cfg.k_min, cfg.k_max + 1)
            for r in range(cfg.restarts)]
    inits = [_seed_resp(data, k, np.random.default_rng([cfg.seed, k, r]))
             for k, r in runs]
    points = np.ascontiguousarray(data.T)
    fits = [fit for stack in _stacks(inits, d)
            for fit in _em_lockstep(points, *_stack_runs(stack, d, floor),
                                    cfg.max_em_iters, cfg.loglik_tol)]
    bics = [_bic(fit[3], k, n, d) for (k, _), fit in zip(runs, fits)]
    best = min(range(len(runs)), key=lambda i: (bics[i],) + runs[i])
    k = runs[best][0]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "fit_gmm chose K = %d; per run (K, restart, BIC, EM steps): %s; "
            "runs that used all %d EM steps: %s", k,
            [run + (bic, fit[4]) for run, bic, fit in zip(runs, bics, fits)],
            cfg.max_em_iters,
            [run for run, fit in zip(runs, fits)
             if fit[4] == cfg.max_em_iters])
    priors, means, covs = (a[:k] for a in fits[best][:3])
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
