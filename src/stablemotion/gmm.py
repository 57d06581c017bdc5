"""Gaussian mixture fitting and chain ordering.

EM with BIC model selection over K. Each (K, restart) run starts from the
demonstration cut, in order, into K contiguous blocks (a restart shifts
the cuts), so a fit depends on its data and config alone; the runs are
stepped together in one lockstep loop. EM's E step and
`responsibilities_batch` share `_log_density_rows`, which writes each
log-density, normaliser included, as a linear form in the lifted data
[vec(y y^T); y; 1], and `_weigh`, so EM's M step and E step are one
matrix product each. A stack's covariances are factored by a Cholesky
factor written out entry by entry, not one LAPACK call per matrix. The
expanded quadratic loses digits as lambda_max(Sigma^-1) |x - origin|^2,
which is small about the data mean; a policy's velocities, queried far
from any such origin, use the whitened kernel in `policy` instead.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .core import (GaussianComponent, Trajectory, _array, _check_numbers,
                   _rows, _stack)
from .errors import InsufficientData, ValidationError

_LOG_2PI = np.log(2.0 * np.pi)
_add, _max = np.add.reduce, np.maximum.reduce
# the log-normaliser of an empty slot: finite, so that it can ride in the
# E step's product, and far enough below any real one that its weight
# rounds to exactly 0
_EMPTY_LOG_NORM = -1e300
_log = logging.getLogger("stablemotion")
# a weight whose log lies more than this below its column's largest is
# exactly 0: exp(-700) ~ 1e-304, so every kept weight and its normalised
# value stay normal doubles for K below about 4000, and exp never meets
# the subnormal range below -708.4, where numpy's exp and the M step's
# product both take slow paths; a zeroed weight is about 1e-304 of its
# column's sum, so it changes no sum it enters
_LOG_WEIGHT_CUT = -700.0
# EM stops a run after this many steps, or once its log-likelihood rises by
# less than this (relative), a fall included
_EM_MAX_STEPS = 200
_EM_LOGLIK_TOL = 1e-7
# how far a mixture's priors may sum from 1
_PRIOR_SUM_TOL = 1e-9


@dataclass(frozen=True)
class GmmFitConfig:
    """The K range BIC chooses from and the runs fitted per K. The
    covariance floor is derived from the data: 1e-6 tr(cov) / d, at least
    1e-12."""

    k_min: int = 1
    k_max: int = 8
    restarts: int = 5

    def __post_init__(self):
        _check_numbers(self, counts=("k_min", "k_max", "restarts"))
        if not (1 <= self.k_min <= self.k_max):
            raise ValidationError("need 1 <= k_min <= k_max")
        if self.restarts < 1:
            raise ValidationError("restarts must be >= 1")


@dataclass(frozen=True)
class OrderedGmm:
    """Components in order along the demonstration: the order of the
    chain's links."""

    components: tuple

    def __post_init__(self):
        priors = sum(c.prior for c in self.components)
        if abs(priors - 1.0) > _PRIOR_SUM_TOL:
            raise ValidationError(f"priors sum to {priors}, expected 1")

    def __len__(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].dim


def lift(points: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """The rows vec(y y^T), y and 1 (d^2 + d + 1, n) of data columns
    (d, n) about `origin` (d,), y = x - origin."""
    d, n = points.shape
    phi = np.empty((d * d + d + 1, n))
    y = np.subtract(points, origin[:, None], out=phi[d * d:-1])
    np.multiply(y[:, None], y[None], out=phi[:d * d].reshape(d, d, n))
    phi[-1] = 1.0
    return phi


def _lift_about_mean(points: np.ndarray):
    """(origin, lift) of contiguous data columns (d, n) about their mean:
    EM and the batch posterior share it, so they run the same arithmetic."""
    origin = points.mean(axis=1)
    return origin, lift(points, origin)


def _precision_logdet(cov: np.ndarray):
    """Sigma^-1 (..., d, d) and log det Sigma (...) of SPD covariances
    (..., d, d), d = 2 or 3, from the Cholesky factor Sigma = L L^T and
    M = L^-1, so Sigma^-1 = M^T M.

    Every entry of L, M and Sigma^-1 is one elementwise expression over
    the whole stack: a stack of 72 matrices costs the same few dozen ufunc
    calls as one, where LAPACK pays a call per matrix. Only the lower
    triangle is read. Cholesky is backward-stable on SPD input, so the
    precision is within about cond(Sigma) eps of the exact inverse. An
    empty slot's inf * I gives a precision of exactly 0 and a
    log-determinant of +inf, with no NaN and no warning.
    """
    d = cov.shape[-1]
    prec = np.empty(cov.shape)
    l11 = np.sqrt(cov[..., 0, 0])
    m11 = 1.0 / l11
    l21 = cov[..., 1, 0] * m11
    l22 = np.sqrt(cov[..., 1, 1] - l21 * l21)
    m22 = 1.0 / l22
    m21 = -l21 * m11 * m22
    if d == 2:
        prec[..., 0, 0] = m11 * m11 + m21 * m21
        prec[..., 1, 0] = prec[..., 0, 1] = m21 * m22
        prec[..., 1, 1] = m22 * m22
        return prec, 2.0 * np.log(l11 * l22)
    l31 = cov[..., 2, 0] * m11
    l32 = (cov[..., 2, 1] - l31 * l21) * m22
    l33 = np.sqrt(cov[..., 2, 2] - l31 * l31 - l32 * l32)
    m33 = 1.0 / l33
    m32 = -l32 * m22 * m33
    m31 = -(l31 * m11 + l32 * m21) * m33
    prec[..., 0, 0] = m11 * m11 + m21 * m21 + m31 * m31
    prec[..., 1, 0] = prec[..., 0, 1] = m21 * m22 + m31 * m32
    prec[..., 2, 0] = prec[..., 0, 2] = m31 * m33
    prec[..., 1, 1] = m22 * m22 + m32 * m32
    prec[..., 2, 1] = prec[..., 1, 2] = m32 * m33
    prec[..., 2, 2] = m33 * m33
    return prec, 2.0 * np.log(l11 * l22 * l33)


def _log_density_rows(priors: np.ndarray, means: np.ndarray,
                      covariances: np.ndarray,
                      origin: np.ndarray) -> np.ndarray:
    """Rows (..., K, d^2 + d + 1) from priors (..., K), means (..., K, d)
    and covariances (..., K, d, d), leading axes indexing independent
    mixtures: with y = x - origin and m_k = mu_k - origin, row k,
    [-1/2 vec(Sigma_k^-1), Sigma_k^-1 m_k, c_k] with c_k the
    log-normaliser, against `lift(points, origin)` is log pi_k N(x; mu_k,
    Sigma_k). An empty slot (Sigma = inf * I) gets [0, 0, _EMPTY_LOG_NORM].
    """
    d = len(origin)
    prec, logdet = _precision_logdet(covariances)
    m = np.subtract(means, origin)
    coef = np.empty(m.shape[:-1] + (d * d + d + 1,))
    np.multiply(prec.reshape(coef.shape[:-1] + (d * d,)), -0.5,
                out=coef[..., :d * d])
    pm = np.matmul(prec, m[..., None], out=coef[..., d * d:-1, None])
    log_norm = np.log(priors) - 0.5 * (
        d * _LOG_2PI + logdet + _add(m * pm[..., 0], axis=-1))
    np.maximum(log_norm, _EMPTY_LOG_NORM, out=coef[..., -1])
    return coef


def _weigh(coef: np.ndarray, phi: np.ndarray,
           out: Optional[np.ndarray] = None):
    """Responsibilities (..., K, n) of `_log_density_rows` on the lifted
    data `phi` (about the same origin), with the per-point largest log
    term `top` and normaliser `total` (..., 1, n) of log p(x) = top +
    log(total). The largest is subtracted before exp, so a far-field
    column never underflows to all zeros, and a weight more than
    `_LOG_WEIGHT_CUT` below it is exactly 0. `out`, if given, receives
    the responsibilities, so EM's loop allocates nothing large per step.
    """
    lj = np.matmul(coef, phi, out=out)
    top = _max(lj, axis=-2, keepdims=True)
    lj -= top
    low = lj < _LOG_WEIGHT_CUT
    np.exp(lj, out=lj, where=~low)
    lj[low] = 0.0
    total = _add(lj, axis=-2, keepdims=True)
    lj *= 1.0 / total
    return lj, top, total


def responsibilities(components: Sequence[GaussianComponent],
                     xi: np.ndarray) -> np.ndarray:
    """Posterior component probabilities at one query point: a batch of
    one."""
    return responsibilities_batch(components, [xi])[0]


def responsibilities_batch(components: Sequence[GaussianComponent],
                           xi: np.ndarray) -> np.ndarray:
    """(n, K) posterior probabilities for a batch of query points, lifted
    about their mean, or a ValidationError where the arithmetic does not
    hold:
    - a precision that is not finite (the factor is written out entry by
      entry, not LAPACK's, and a thin component can overflow);
    - the rest of a log-density row not finite, or a log-normaliser at or
      below `_EMPTY_LOG_NORM`: a component so far from the queries' mean
      that its weight would read as an empty slot's;
    - a weight that is not finite: a thin component's precision times
      a squared distance can overflow."""
    means, covs = _stack(components)
    X = _rows(xi, "states", means.shape[-1])
    if not len(X):  # no mean to lift about
        return np.zeros((0, len(components)))
    with np.errstate(all="ignore"):  # B bounds the lift, not a thin precision
        origin, phi = _lift_about_mean(np.ascontiguousarray(X.T))
        coef = _log_density_rows([c.prior for c in components], means, covs,
                                 origin)
        d = means.shape[-1]
        if not np.isfinite(coef[:, :d * d]).all():
            raise ValidationError("a component covariance is not "
                                  "numerically positive definite")
        if not (np.isfinite(coef).all()
                and (coef[:, -1] > _EMPTY_LOG_NORM).all()):
            raise ValidationError("a component lies too far from the "
                                  "states to weigh them")
        gamma = _weigh(coef, phi)[0]
        if not np.isfinite(gamma).all():
            raise ValidationError("the states are too spread to weigh")
    return gamma.T


def _block_resp(n: int, k: int, phase: Fraction) -> np.ndarray:
    """Hard assignment (k, n) of n samples, in row order, to k contiguous
    blocks cut at n (j + phase) / k for j = 1..k-1; a sample on a cut
    starts the later block. Integer arithmetic keeps the cuts exact."""
    p, q = phase.numerator, phase.denominator
    labels = (q * k * np.arange(n) - p * n) // (q * n)
    return np.eye(k)[:, np.clip(labels, 0, k - 1)]


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
             lifted=None):
    """One M step from responsibilities (..., K, n), then one E step.

    `points` is the data as contiguous columns (d, n), `lifted` its
    `_lift_about_mean` (computed if not given); leading axes of `resp`
    index independent runs. `resp @ phi^T` holds each component's weight
    and first and second moments; the (i, j) and (j, i) rows of
    vec(y y^T) are the same products, so each covariance is symmetric
    (exactly, in every fit measured). `floor` (..., K, d, d) is added to
    each covariance: floor * I on a run's components, inf * I on the
    empty slots that pad it to K, whose log-normaliser -1e300 gives them
    exactly zero responsibility. The new responsibilities overwrite `resp`.
    Returns (priors, means, covs, resp, loglik per run).
    """
    origin, phi = _lift_about_mean(points) if lifted is None else lifted
    d, n = points.shape
    moments = resp @ phi.T
    nk = moments[..., -1] + 1e-300
    priors = nk / n
    centred = moments[..., d * d:-1] / nk[..., None]
    covs = (moments[..., :d * d].reshape(nk.shape + (d, d))
            / nk[..., None, None]
            - centred[..., :, None] * centred[..., None, :] + floor)
    means = centred + origin
    _, top, total = _weigh(_log_density_rows(priors, means, covs, origin),
                           phi, out=resp)
    log_px = top + np.log(total)
    return priors, means, covs, resp, log_px.sum(axis=-1)[..., 0]


def _em_lockstep(points: np.ndarray, resp: np.ndarray, floor: np.ndarray,
                 max_iters: int, tol: float) -> list:
    """EM on a stack of runs, all stepped together until each one stops.

    `resp` (R, K, n) holds each run's initial responsibilities and `floor`
    (R, K, d, d) its covariance floor and empty slots (see `_em_step`);
    `resp` is consumed. A run stops at the first step whose log-likelihood
    ll gains less than `tol * max(1, |ll|)`, or after `max_iters` steps,
    with the iterate that step reached. A fall is a negative gain, so it
    stops the run too: the additive floor keeps EM from being an ascent
    method, and near a fixed point a step can lose a little. Finished
    runs are compacted out of the stack. Returns (priors, means, covs,
    loglik, steps) per run, in stack order, with the parameters padded
    to K.
    """
    R = resp.shape[0]
    lifted = _lift_about_mean(points)
    ids = list(range(R))
    prev_ll = [-np.inf] * R
    done = [None] * R
    for step in range(1, max_iters + 1):
        m = len(ids)
        priors, means, covs, _, ll = _em_step(points, resp[:m], floor,
                                              lifted)
        ll = ll.tolist()
        keep = []
        # the stop rule on Python floats: for the few runs of a stack that
        # is cheaper than a dozen small numpy calls per step
        for j, (new, old) in enumerate(zip(ll, prev_ll)):
            if new - old < tol * max(1.0, abs(new)) or step == max_iters:
                done[ids[j]] = (priors[j], means[j], covs[j], new, step)
            else:
                keep.append(j)
        if not keep:
            break
        if len(keep) < m:
            ids = [ids[j] for j in keep]
            resp[:len(keep)] = resp[keep]
            floor = floor[keep]
        prev_ll = [ll[j] for j in keep]
    return done


def _bic(loglik: float, k: int, n: int, d: int) -> float:
    n_params = (k - 1) + k * d + k * d * (d + 1) // 2
    return float(-2.0 * loglik + n_params * np.log(n))


def fit_gmm(data: np.ndarray, cfg: GmmFitConfig = GmmFitConfig()) -> list:
    """EM for each K in [k_min, k_max], `restarts` runs each (one for
    K = 1, whose restarts could not differ); BIC picks the run.

    The rows of `data` are the demonstration's samples in order. Run r of
    R for a given K starts from K contiguous blocks of them, cut at
    n (j + phi_r) / K for j = 1..K-1 with phi_r = (r - (R - 1) / 2) / R:
    R = 1 is the equal split, and as |phi_r| < 1/2 every block holds at
    least d samples when n >= 2 d k_max. The runs are stacked, padded to
    k_max, and `_em_lockstep` steps them together, each for at most 200
    steps. Every covariance is floored by 1e-6 tr(cov) / d (at least
    1e-12) on its diagonal.
    """
    data = _array(data, "data", (None, "d"), position=True)
    n, d = data.shape
    if n < 2 * d * cfg.k_max:
        raise InsufficientData(
            f"{n} points < 2*d*k_max = {2 * d * cfg.k_max}")
    spread = float(np.trace(np.cov(data.T)))
    floor = max(1e-6 * spread / d, 1e-12)

    R = cfg.restarts
    runs = [(k, r) for k in range(cfg.k_min, cfg.k_max + 1)
            for r in range(R if k > 1 else 1)]
    inits = [_block_resp(n, k, Fraction(2 * r - R + 1, 2 * R))
             for k, r in runs]
    fits = _em_lockstep(np.ascontiguousarray(data.T),
                        *_stack_runs(inits, d, floor), _EM_MAX_STEPS,
                        _EM_LOGLIK_TOL)
    bics = [_bic(fit[3], k, n, d) for (k, _), fit in zip(runs, fits)]
    best = min(range(len(runs)), key=lambda i: (bics[i],) + runs[i])
    k = runs[best][0]
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug(
            "fit_gmm chose K = %d; per run (K, restart, BIC, EM steps): %s; "
            "runs that used all %d EM steps: %s", k,
            [run + (bic, fit[4]) for run, bic, fit in zip(runs, bics, fits)],
            _EM_MAX_STEPS,
            [run for run, fit in zip(runs, fits)
             if fit[4] == _EM_MAX_STEPS])
    priors, means, covs = (a[:k] for a in fits[best][:3])
    priors = priors / priors.sum()
    return GaussianComponent.from_stack(priors, means, covs)


def order_components(components: Sequence[GaussianComponent],
                     demo: Trajectory) -> OrderedGmm:
    """Sort components by responsibility-weighted arc-length position.

    Arc length (not time) makes the ordering invariant to resampling and
    non-uniform demo timing; an exact tie keeps the order of `components`.
    """
    pts = demo.points
    seg = np.linalg.norm(np.diff(pts, axis=0), axis=1)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    resp = responsibilities_batch(components, pts)
    weights = resp.sum(axis=0)
    scores = (resp.T @ s) / np.maximum(weights, 1e-300)
    order = np.argsort(scores, kind="stable")
    return OrderedGmm(tuple(components[i] for i in order))
