"""Stable state-dependent mixture-of-linear-systems motion policy.

The policy is xdot = sum_k gamma_k(x) A_k (x - attractor), where gamma is
the posterior responsibility of the mixing model. Stability against the
quadratic certificate V = (x - x*)^T P (x - x*) is guaranteed by
construction: each A_k is parameterized as

    A_k = P^{-1} (S_k - (C_k C_k^T + eps I))

with S_k skew-symmetric and C_k an unconstrained lower-triangular factor,
so A_k^T P + P A_k = -2 (C_k C_k^T + eps I) is uniformly negative
definite. The data fit is then a smooth unconstrained least-squares
problem solved with L-BFGS and an analytic gradient.

With the mixing weights fixed, the prediction at sample t is linear in the
stacked gains Abar = [A_1 ... A_K] (d x Kd): f_t = Abar phi_t with
phi_t = gamma_t (x) y_t. The fit therefore needs only the sufficient
statistics H = Phi^T Phi (Kd x Kd), B = V^T Phi (d x Kd) and c = ||V||^2,
formed once per estimate; no objective evaluation touches the T samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import minimize

from .core import GaussianComponent, _frozen
from .errors import InfeasibleAttractor, InsufficientData, OptimizationDiverged
from .gmm import Mixture, responsibilities_batch


@dataclass(frozen=True)
class EstimateOptions:
    margin: float = 1e-2        # eps: enforced decay of A^T P + P A
    ridge: float = 1e-6         # per-sample ||A_k||_F^2 weight; tames the
                                # gain in directions the data never excites
    max_iters: int = 500
    grad_tol: float = 1e-8
    P: Optional[np.ndarray] = None  # None: identity certificate


@dataclass(frozen=True)
class LpvDsPolicy:
    components: Tuple[GaussianComponent, ...]
    A: np.ndarray               # (K, d, d)
    P: np.ndarray               # (d, d) Lyapunov certificate
    attractor: np.ndarray
    margin: float
    # the components factored once per policy, not once per evaluation;
    # dataclasses.replace runs __post_init__ again, so it never goes stale
    mixture: Mixture = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "P", _frozen(self.P))
        object.__setattr__(self, "attractor", _frozen(self.attractor))
        K, d = len(self.components), self.attractor.shape[0]
        if self.A.shape != (K, d, d):
            raise ValueError("A shape must be (K, d, d)")
        if np.linalg.eigvalsh(0.5 * (self.P + self.P.T))[0] <= 0:
            raise ValueError("P must be positive definite")
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        object.__setattr__(self, "mixture",
                           Mixture.from_components(self.components))

    @property
    def dim(self) -> int:
        return self.attractor.shape[0]

    @property
    def b(self) -> np.ndarray:
        """Offsets b_k = -A_k attractor (constructed, never fitted)."""
        return -self.A @ self.attractor


def evaluate(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocity at one state: a batch of one."""
    return evaluate_batch(policy, np.asarray(xi, dtype=float)[None])[0]


def evaluate_batch(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocities for a batch of states, shape (n, d)."""
    xi = np.atleast_2d(np.asarray(xi, dtype=float))
    gamma = policy.mixture.posterior(xi)
    y = xi - policy.attractor
    K, d, _ = policy.A.shape
    # each state's mixed matrix sum_k gamma_k A_k, then one matrix-vector
    # product per state
    mixed = (gamma @ policy.A.reshape(K, d * d)).reshape(-1, d, d)
    return (mixed @ y[..., None])[..., 0]


def lyapunov_value(policy: LpvDsPolicy, xi: np.ndarray) -> float:
    y = np.asarray(xi, dtype=float) - policy.attractor
    return float(y @ policy.P @ y)


def lyapunov_rate(policy: LpvDsPolicy, xi: np.ndarray) -> float:
    """d/dt of the Lyapunov value along the policy flow: 2 (x-x*)^T P f(x)."""
    y = np.asarray(xi, dtype=float) - policy.attractor
    return float(2.0 * y @ policy.P @ evaluate(policy, xi))


def constraint_residual(policy: LpvDsPolicy) -> float:
    """max over k of lambda_max(A_k^T P + P A_k) + margin; <= 0 is feasible."""
    worst = -np.inf
    for A in policy.A:
        M = A.T @ policy.P + policy.P @ A
        worst = max(worst, float(np.linalg.eigvalsh(0.5 * (M + M.T))[-1]))
    return worst + policy.margin


# -- parameterization ---------------------------------------------------------

def _param_counts(d: int) -> Tuple[int, int]:
    return d * (d - 1) // 2, d * (d + 1) // 2  # skew, lower-triangular


@lru_cache(maxsize=None)
def _triangles(d: int):
    """Flat (row-major) positions in a d x d matrix of the strict upper
    triangle, of its mirror below the diagonal, and of the lower triangle."""
    iu = np.triu_indices(d, 1)
    il = np.tril_indices(d)
    flat = iu[0] * d + iu[1], iu[1] * d + iu[0], il[0] * d + il[1]
    for positions in flat:  # shared by every caller: read-only
        positions.flags.writeable = False
    return flat


def _unpack(params: np.ndarray, K: int, d: int):
    """params -> (S, C) with S (K,d,d) skew and C (K,d,d) lower-triangular."""
    ns, _ = _param_counts(d)
    upper, mirror, lower = _triangles(d)
    blocks = params.reshape(K, -1)
    S = np.zeros((K, d * d))
    C = np.zeros((K, d * d))
    S[:, upper] = blocks[:, :ns]
    S[:, mirror] = -blocks[:, :ns]
    C[:, lower] = blocks[:, ns:]
    return S.reshape(K, d, d), C.reshape(K, d, d)


def _pack(S: np.ndarray, C: np.ndarray) -> np.ndarray:
    K, d, _ = S.shape
    upper, _, lower = _triangles(d)
    return np.concatenate([S.reshape(K, -1)[:, upper],
                           C.reshape(K, -1)[:, lower]], axis=1).ravel()


def _assemble_A(S: np.ndarray, C: np.ndarray, P_inv: np.ndarray,
                eps: float) -> np.ndarray:
    d = S.shape[1]
    M = C @ np.swapaxes(C, 1, 2) + eps * np.eye(d)
    return P_inv @ (S - M)


# -- the fit ------------------------------------------------------------------

class FitStatistics(NamedTuple):
    """All the least-squares fit needs of the samples (Phi_t = gamma_t (x) y_t)."""

    H: np.ndarray   # (Kd, Kd) Phi^T Phi
    B: np.ndarray   # (d, Kd)  V^T Phi
    c: float        # ||V||_F^2


def fit_statistics(gamma: np.ndarray, Y: np.ndarray,
                   V: np.ndarray) -> FitStatistics:
    """Reduce (T, K) weights, (T, d) centred states and (T, d) velocity
    targets to the sufficient statistics of the fit."""
    Phi = (gamma[:, :, None] * Y[:, None, :]).reshape(len(Y), -1)
    return FitStatistics(Phi.T @ Phi, V.T @ Phi, float(np.vdot(V, V)))


def objective_and_gradient(params: np.ndarray, stats: FitStatistics,
                           P_inv: np.ndarray, eps: float, reg: float = 0.0,
                           shrink: float = 0.0):
    """Sum-of-squares fitting error (plus a ridge on A) and its gradient.

    sum_t ||v_t - Abar phi_t||^2 = c - 2 <Abar, B> + <Abar H, Abar>, with
    gradient 2 (Abar H - B) in Abar. The ridge pulls each A_k toward
    -shrink * I, so directions the data never excites get a moderate
    contraction instead of an arbitrary (stiff or sluggish) gain.
    """
    d = stats.B.shape[0]
    K = stats.B.shape[1] // d
    S, C = _unpack(params, K, d)
    A = _assemble_A(S, C, P_inv, eps)
    Abar = A.transpose(1, 0, 2).reshape(d, K * d)
    AH = Abar @ stats.H
    Adev = A + shrink * np.eye(d)
    J = (stats.c - 2.0 * float(np.vdot(Abar, stats.B))
         + float(np.vdot(AH, Abar)) + reg * float(np.vdot(Adev, Adev)))

    G = 2.0 * (AH - stats.B).reshape(d, K, d).transpose(1, 0, 2)  # dJ/dA_k
    G += 2.0 * reg * Adev
    W = P_inv.T @ G                                      # P^{-T} G
    Wt = np.swapaxes(W, 1, 2)
    return J, _pack(W - Wt, -(W + Wt) @ C)


def _initial_params(gamma: np.ndarray, Y: np.ndarray, B: np.ndarray,
                    P: np.ndarray, eps: float, reg: float = 0.0,
                    shrink: float = 0.0) -> np.ndarray:
    """Warm start: per-component ridge least-squares A, clamped feasible."""
    d = Y.shape[1]
    K = gamma.shape[1]
    I = np.eye(d)
    Syy = (gamma.T[:, None, :] * Y.T) @ Y + max(reg, 1e-9) * I
    # the k-th (d x d) block of B is sum_t gamma_tk v_t y_t^T
    Svy = B.reshape(d, K, d).transpose(1, 0, 2) - reg * shrink * I
    W = P @ (Svy @ np.linalg.inv(Syy))
    Wt = np.swapaxes(W, 1, 2)
    vals, vecs = np.linalg.eigh(0.5 * (W + Wt))
    vals = np.minimum(vals, -eps)
    # = C C^T + eps I, PSD shifted
    M = -(vecs * vals[:, None, :]) @ np.swapaxes(vecs, 1, 2)
    C0 = np.linalg.cholesky(M - eps * I + 1e-10 * I)
    return _pack(0.5 * (W - Wt), C0)


def estimate(components: Sequence[GaussianComponent], data: np.ndarray,
             velocities: np.ndarray, attractor: np.ndarray,
             opts: EstimateOptions = EstimateOptions()) -> LpvDsPolicy:
    """Fit the linear systems to (state, velocity) pairs, stably.

    Minimizes sum_t ||v_t - f(x_t)||^2 over the feasible cone; the mixing
    weights are fixed by the components, so the objective is quadratic in
    each A_k and smooth in the free parameterization. The samples are read
    once, into the statistics; the L-BFGS iterations never see them.
    """
    data = np.asarray(data, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    attractor = np.asarray(attractor, dtype=float)
    if not np.all(np.isfinite(attractor)):
        raise InfeasibleAttractor("attractor must be finite")
    K = len(components)
    T, d = data.shape
    if velocities.shape != data.shape:
        raise ValueError("data and velocities must have the same shape")
    if T < 10 * K:
        raise InsufficientData(f"{T} samples < 10*K = {10 * K}")

    P = np.eye(d) if opts.P is None else np.asarray(opts.P, dtype=float)
    P_inv = np.linalg.inv(P)
    eps = opts.margin

    # condition the quadratic: center at the attractor, scale by the
    # workspace radius (A is invariant to the scaling, the objective is not)
    Y = data - attractor
    scale = max(float(np.max(np.linalg.norm(Y, axis=1))), 1e-12)
    Yn = Y / scale
    Vn = velocities / scale

    gamma = responsibilities_batch(components, data)
    stats = fit_statistics(gamma, Yn, Vn)
    reg = opts.ridge * T
    # shrinkage target for unexcited directions: a few times the data's
    # speed-to-radius ratio, so they contract strictly faster than the
    # fitted modes -- the slow mode (and hence the asymptotic approach
    # direction into the attractor) must stay the demonstrated one
    shrink = 10.0 * float(np.mean(np.linalg.norm(Vn, axis=1)) /
                         max(np.mean(np.linalg.norm(Yn, axis=1)), 1e-12))
    x0 = _initial_params(gamma, Yn, stats.B, P, eps, reg, shrink)
    J0, _ = objective_and_gradient(x0, stats, P_inv, eps, reg, shrink)

    res = minimize(objective_and_gradient, x0, jac=True,
                   args=(stats, P_inv, eps, reg, shrink),
                   method="L-BFGS-B",
                   options={"maxiter": opts.max_iters, "gtol": opts.grad_tol,
                            "ftol": 1e-14})
    if not np.all(np.isfinite(res.x)) or not np.isfinite(res.fun):
        raise OptimizationDiverged("non-finite optimizer state")
    best = res.x if res.fun <= J0 else x0
    S, C = _unpack(best, K, d)
    A = _assemble_A(S, C, P_inv, eps)
    return LpvDsPolicy(tuple(components), A, P, attractor, eps)
