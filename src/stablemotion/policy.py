"""Stable state-dependent mixture-of-linear-systems motion policy.

The policy is xdot = sum_k gamma_k(x) A_k (x - attractor), where gamma is
the posterior responsibility of the mixing model. With the certificate
V = (x - x*)^T P (x - x*) fixed, the fit is convex in W_k = P A_k: a
quadratic objective under sym(W_k) <= -eps I (so A_k^T P + P A_k is
negative definite), solved exactly by a log-det barrier with damped Newton
steps that ends with a duality-gap bound.

With the mixing weights fixed, the prediction at sample t is linear in the
stacked gains Abar = [A_1 ... A_K] (d x Kd): f_t = Abar phi_t with
phi_t = gamma_t (x) y_t, so the fit needs only the sufficient statistics
H = Phi^T Phi (Kd x Kd), B = V^T Phi (d x Kd) and c = ||V||^2, formed
once per estimate. The objective's Hessian in W is constant: the Newton
system (Kd^2 unknowns) is built from H once and never touches the samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import GaussianComponent, _frozen
from .errors import (InfeasibleAttractor, InsufficientData,
                     OptimizationDiverged, ValidationError)
from .gmm import Mixture, responsibilities_batch

_RIDGE = 1e-6  # per-sample ||A_k||_F^2 weight; tames the gain in
               # directions the data never excites


@dataclass(frozen=True)
class EstimateOptions:
    margin: float = 1e-2        # eps: sym(P A_k) <= -eps I
    max_iters: int = 500        # cap on Newton steps
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
            raise ValidationError("A shape must be (K, d, d)")
        if self.P.shape != (d, d):
            raise ValidationError("P shape must be (d, d)")
        if np.linalg.eigvalsh(0.5 * (self.P + self.P.T))[0] <= 0:
            raise ValidationError("P must be positive definite")
        if not self.margin > 0:
            raise ValidationError("margin must be positive")
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
    M = np.swapaxes(policy.A, 1, 2) @ policy.P + policy.P @ policy.A
    top = np.linalg.eigvalsh(0.5 * (M + np.swapaxes(M, 1, 2)))[:, -1]
    return float(top.max()) + policy.margin


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


def objective_and_gradient(W: np.ndarray, stats: FitStatistics,
                           P_inv: np.ndarray, reg: float = 0.0,
                           shrink: float = 0.0):
    """Sum-of-squares fitting error (plus a ridge on A) and its gradient
    in W, for the (K, d, d) stack W_k = P A_k.

    sum_t ||v_t - Abar phi_t||^2 = c - 2 <Abar, B> + <Abar H, Abar>, with
    gradient 2 (Abar H - B) in Abar. The ridge pulls each A_k toward
    -shrink * I, so directions the data never excites get a moderate
    contraction instead of an arbitrary (stiff or sluggish) gain.
    """
    K, d, _ = W.shape
    A = P_inv @ W
    Abar = A.transpose(1, 0, 2).reshape(d, K * d)
    AH = Abar @ stats.H
    Adev = A + shrink * np.eye(d)
    J = (stats.c - 2.0 * float(np.vdot(Abar, stats.B))
         + float(np.vdot(AH, Abar)) + reg * float(np.vdot(Adev, Adev)))
    G = 2.0 * (AH - stats.B).reshape(d, K, d).transpose(1, 0, 2)  # dJ/dA_k
    return J, P_inv.T @ (G + 2.0 * reg * Adev)


def objective_hessian(stats: FitStatistics, P_inv: np.ndarray,
                      reg: float = 0.0) -> np.ndarray:
    """The constant Hessian of the objective in W, flattened row-major
    over (k, i, j): 2 (P^-T P^-1)_{ii'} (H + reg I)_{(k j), (k' j')}."""
    n, d = stats.H.shape[0], P_inv.shape[0]
    Hr = (stats.H + reg * np.eye(n)).reshape(n // d, d, n // d, d)
    return 2.0 * np.einsum("ab,kjln->kajlbn", P_inv.T @ P_inv,
                           Hr).reshape(n * d, n * d)


def barrier_blocks(X_inv: np.ndarray) -> np.ndarray:
    """Hessian blocks of -log det(X_k), X_k = -sym(W_k) - eps I, in
    vec(W_k): (X_k^-1 (x) X_k^-1)(I + commutation) / 2, shape (K, d^2, d^2)."""
    K, d, _ = X_inv.shape
    outer = np.einsum("kia,kjb->kijab", X_inv, X_inv)
    return (0.5 * (outer + outer.swapaxes(3, 4))).reshape(K, d * d, d * d)


class FitProblem(NamedTuple):
    """An estimate's convex problem in W, on centred and scaled samples."""

    stats: FitStatistics
    P: np.ndarray
    eps: float
    reg: float
    shrink: float
    W0: np.ndarray      # strictly feasible warm start


class Solution(NamedTuple):
    W: np.ndarray       # (K, d, d) the fitted P A_k
    newton_steps: int
    gap: float          # K d / t: bounds J(W) - min J once centred


_GROWTH = 20.0          # the barrier weight t grows by this factor a stage
_GAP_RTOL = 1e-10       # stop once the gap K d / t is below this share of J
# squared Newton decrement that ends a stage: the gap bound needs only
# lambda < 1, and near the boundary rounding floors lambda^2 near 1e-6
_CENTRED = 1e-3


def solve(problem: FitProblem, max_steps: int) -> Solution:
    """Minimise t J(W) - sum_k log det(-sym(W_k) - eps I) by damped Newton
    steps from the warm start, raising t by a fixed factor each time the
    iterate is centred, until the gap K d / t is below a fixed share of J.
    Self-concordance keeps each step 1 / (1 + lambda) (full once
    lambda < 1/4) feasible without a line search."""
    stats, P, eps, reg, shrink, W = problem
    P_inv = np.linalg.inv(P)
    K, d, _ = W.shape
    m, diag = K * d, np.arange(K)
    hessian = objective_hessian(stats, P_inv, reg)
    J, G = objective_and_gradient(W, stats, P_inv, reg, shrink)
    t = m / J
    steps = 0
    while steps < max_steps:
        if not np.isfinite(J):
            raise OptimizationDiverged("non-finite barrier iterate")
        try:
            X_inv = np.linalg.inv(-0.5 * (W + W.swapaxes(1, 2))
                                  - eps * np.eye(d))
            system = t * hessian
            system.reshape(K, d * d, K, d * d)[diag, :, diag, :] += \
                barrier_blocks(X_inv)
            grad = (t * G + X_inv).ravel()
            step = -np.linalg.solve(system, grad)
        except np.linalg.LinAlgError as exc:
            raise OptimizationDiverged(f"Newton system: {exc}") from None
        lam2 = -float(grad @ step)
        if lam2 <= _CENTRED:
            # the last stage lands on the gap tolerance, not beyond it:
            # a larger t only sharpens the rounding floor of lambda
            goal = m / (_GAP_RTOL * J)
            if t >= goal:
                break
            t = min(_GROWTH * t, goal)
            continue
        if lam2 >= 1.0 / 16.0:
            step /= 1.0 + np.sqrt(lam2)
        W = W + step.reshape(K, d, d)
        J, G = objective_and_gradient(W, stats, P_inv, reg, shrink)
        steps += 1
    return Solution(W, steps, m / t)


def fit_problem(components: Sequence[GaussianComponent], data: np.ndarray,
                velocities: np.ndarray, attractor: np.ndarray,
                opts: EstimateOptions = EstimateOptions()) -> FitProblem:
    """Validate the inputs and reduce them to the problem estimate solves."""
    data = np.asarray(data, dtype=float)
    velocities = np.asarray(velocities, dtype=float)
    attractor = np.asarray(attractor, dtype=float)
    if not np.all(np.isfinite(attractor)):
        raise InfeasibleAttractor("attractor must be finite")
    K = len(components)
    T, d = data.shape
    if velocities.shape != data.shape:
        raise ValidationError("data and velocities must have the same shape")
    if T < 10 * K:
        raise InsufficientData(f"{T} samples < 10*K = {10 * K}")

    P = np.eye(d) if opts.P is None else np.asarray(opts.P, dtype=float)
    # condition the quadratic: center at the attractor, scale by the
    # workspace radius (A is invariant to the scaling, the objective is not)
    Y = data - attractor
    scale = max(float(np.max(np.linalg.norm(Y, axis=1))), 1e-12)
    Yn, Vn = Y / scale, velocities / scale
    gamma = responsibilities_batch(components, data)
    stats = fit_statistics(gamma, Yn, Vn)
    reg = _RIDGE * T
    # shrinkage target for unexcited directions: a few times the data's
    # speed-to-radius ratio, so they contract strictly faster than the
    # fitted modes -- the slow mode (and hence the asymptotic approach
    # direction into the attractor) must stay the demonstrated one
    shrink = 10.0 * float(np.mean(np.linalg.norm(Vn, axis=1)) /
                         max(np.mean(np.linalg.norm(Yn, axis=1)), 1e-12))

    # warm start: per-component ridge least-squares A, mapped to W = P A
    # with the eigenvalues of sym(W_k) clamped to <= -2 eps
    I = np.eye(d)
    Syy = (gamma.T[:, None, :] * Yn.T) @ Yn + max(reg, 1e-9) * I
    # the k-th (d x d) block of B is sum_t gamma_tk v_t y_t^T
    Svy = stats.B.reshape(d, K, d).transpose(1, 0, 2) - reg * shrink * I
    W = P @ (Svy @ np.linalg.inv(Syy))
    Wt = W.swapaxes(1, 2)
    vals, vecs = np.linalg.eigh(0.5 * (W + Wt))
    vals = np.minimum(vals, -2.0 * opts.margin)
    W0 = 0.5 * (W - Wt) + (vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2)
    return FitProblem(stats, P, opts.margin, reg, shrink, W0)


def estimate(components: Sequence[GaussianComponent], data: np.ndarray,
             velocities: np.ndarray, attractor: np.ndarray,
             opts: EstimateOptions = EstimateOptions()) -> LpvDsPolicy:
    """Fit the linear systems to (state, velocity) pairs, stably: minimise
    sum_t ||v_t - f(x_t)||^2 (plus the ridge) over the feasible set, to
    within the solve's duality gap."""
    problem = fit_problem(components, data, velocities, attractor, opts)
    A = np.linalg.inv(problem.P) @ solve(problem, opts.max_iters).W
    return LpvDsPolicy(tuple(components), A, problem.P,
                       np.asarray(attractor, dtype=float), problem.eps)
