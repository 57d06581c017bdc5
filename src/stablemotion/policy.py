"""Stable state-dependent mixture-of-linear-systems motion policy.

The policy is xdot = sum_k gamma_k(x) A_k (x - attractor), where gamma is
the posterior responsibility of the mixing model. With the certificate
V = (x - x*)^T P (x - x*) fixed, the fit is convex in W_k = P A_k: a
quadratic objective under sym(W_k) <= -eps I (so A_k^T P + P A_k is
negative definite), solved exactly by primal-dual path following that ends
with a duality-gap bound.

With the mixing weights fixed, the prediction at sample t is linear in the
stacked gains Abar = [A_1 ... A_K] (d x Kd): f_t = Abar phi_t with
phi_t = gamma_t (x) y_t, so the fit needs only the sufficient statistics
H = Phi^T Phi (Kd x Kd), B = V^T Phi (d x Kd) and c = ||V||^2, formed
once per estimate. The objective's Hessian in W is constant: the Newton
system (Kd^2 unknowns) is built from H once and never touches the samples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import GaussianComponent, _frozen
from .errors import (InfeasibleAttractor, InsufficientData,
                     OptimizationDiverged, ValidationError)
from .gmm import responsibilities_batch

_log = logging.getLogger("stablemotion")

_RIDGE = 1e-6  # per-sample ||A_k||_F^2 weight; tames the gain in
               # directions the data never excites


@dataclass(frozen=True)
class EstimateOptions:
    margin: float = 1e-2        # eps: sym(P A_k) <= -eps I
    max_iters: int = 500        # cap on Newton iterations
    P: Optional[np.ndarray] = None  # None: identity certificate

    def __post_init__(self):
        if not (self.margin > 0 and self.max_iters >= 1):
            raise ValidationError("need margin > 0 and max_iters >= 1")


_add, _max = np.add.reduce, np.maximum.reduce


@dataclass(frozen=True)
class VelocityKernel:
    """A policy factored once for repeated evaluation on state columns.

    With Sigma_k = C_k C_k^T and y = x - x*, `M` (2Kd, d) stacks the
    whitening rows sqrt(1/2) C_k^-1 over the gains A_k, so one product
    M y holds both halves of the field: z_k = sqrt(1/2) C_k^-1 y - c_k,
    with `offsets` c_k = sqrt(1/2) C_k^-1 (mu_k - x*), gives
    log pi_k N(x; mu_k, Sigma_k) = `log_norm`_k - |z_k|^2, and the lower
    half is A_k y. The quadratic is never expanded, so a log-density's
    rounding grows as eps |z_k| |C_k^-1 y|, not as the lifted form's
    eps |C_k^-1 y|^2, and stays small far from the attractor.
    """

    attractor: np.ndarray   # (d, 1)
    M: np.ndarray           # (2Kd, d)
    offsets: np.ndarray     # (K, d, 1)
    log_norm: np.ndarray    # (K, 1)

    @classmethod
    def factor(cls, components: Sequence[GaussianComponent], A: np.ndarray,
               attractor: np.ndarray) -> "VelocityKernel":
        """Factor the components, with gains A (K, d, d), about the
        attractor (d,)."""
        K, d, _ = A.shape
        try:
            chol = np.linalg.cholesky(
                np.array([c.covariance for c in components]))
        except np.linalg.LinAlgError:
            raise ValidationError("a component covariance is not "
                                  "numerically positive definite") from None
        whiten = np.sqrt(0.5) * np.linalg.inv(chol)
        means = np.array([c.mean for c in components])
        offsets = whiten @ (means - attractor)[..., None]
        log_norm = (np.log([c.prior for c in components])
                    - 0.5 * d * np.log(2.0 * np.pi)
                    - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))
        M = np.concatenate([whiten.reshape(K * d, d), A.reshape(K * d, d)])
        return cls(_frozen(attractor[:, None]), _frozen(M), _frozen(offsets),
                   _frozen(log_norm[:, None]))

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        """Velocities (d, n) at states as columns Y (d, n): the mixing
        weights stay unnormalised, with each column's largest log-weight
        subtracted, until one division at the end. Each sum over a
        component's d rows, and the weighted sum over the K components,
        is one `vecdot` contraction on a (K, d, n) view of the product,
        and the reductions call their ufuncs directly: a single-state
        evaluation is bounded by its count of numpy calls, not by its
        arithmetic. A component whose |z_k|^2 overflows gets weight 0."""
        K, d, _ = self.offsets.shape
        n = Y.shape[1]
        out = self.M @ (Y - self.attractor)
        z = out[:K * d].reshape(K, d, n)
        z -= self.offsets
        w = self.log_norm - np.vecdot(z, z, axis=1)
        w -= _max(w, axis=0)
        np.exp(w, out=w)
        v = np.vecdot(out[K * d:].reshape(K, d, n), w[:, None], axis=0)
        v /= _add(w, axis=0)
        return v


@dataclass(frozen=True)
class LpvDsPolicy:
    components: Tuple[GaussianComponent, ...]
    A: np.ndarray               # (K, d, d)
    P: np.ndarray               # (d, d) Lyapunov certificate
    attractor: np.ndarray
    margin: float
    # the policy factored once, not once per evaluation;
    # dataclasses.replace runs __post_init__ again, so it never goes stale
    kernel: VelocityKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "A", _frozen(self.A))
        object.__setattr__(self, "P", _frozen(self.P))
        object.__setattr__(self, "attractor", _frozen(self.attractor))
        K, d = len(self.components), self.attractor.shape[0]
        if any(c.dim != d for c in self.components):
            raise ValidationError("components must be d-dimensional")
        if self.A.shape != (K, d, d):
            raise ValidationError("A shape must be (K, d, d)")
        if self.P.shape != (d, d):
            raise ValidationError("P shape must be (d, d)")
        if np.linalg.eigvalsh(0.5 * (self.P + self.P.T))[0] <= 0:
            raise ValidationError("P must be positive definite")
        if not self.margin > 0:
            raise ValidationError("margin must be positive")
        object.__setattr__(self, "kernel", VelocityKernel.factor(
            self.components, self.A, self.attractor))

    @cached_property
    def stiffness(self) -> float:
        """max_k |eig A_k|, the fastest mode: it bounds a stable step size.
        Found once, at the first rollout, not by every estimate."""
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    @property
    def dim(self) -> int:
        return self.attractor.shape[0]


def evaluate(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocity at one state (d,): a batch of one. A plan's field
    calls this at every RK4 stage, so the check is one shape comparison."""
    x = np.asarray(xi, dtype=float)
    if x.shape != policy.attractor.shape:
        raise ValidationError(
            f"state has shape {x.shape}, expected {policy.attractor.shape}")
    return policy.kernel(x[:, None])[:, 0]


def evaluate_batch(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocities for a batch of states (n, d), shape (n, d): the
    kernel on the states as columns."""
    X = np.atleast_2d(np.asarray(xi, dtype=float))
    if X.shape[1:] != policy.attractor.shape:
        raise ValidationError(
            f"states have shape {np.shape(xi)}, expected (n, {policy.dim})")
    return policy.kernel(X.T).T


def lyapunov_value(policy: LpvDsPolicy, xi: np.ndarray):
    """V = y^T P y, y = x - x*: a float for one state, shape (n,) for a
    batch of states (n, d)."""
    y = np.asarray(xi, dtype=float) - policy.attractor
    v = ((y @ policy.P) * y).sum(axis=-1)
    return float(v) if v.ndim == 0 else v


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


def inverse_hessian_form(r: np.ndarray, P: np.ndarray,
                         Hr_inv: np.ndarray) -> float:
    """r^T Q^-1 r for the objective Hessian Q = 2 (P^-T P^-1) (x) Hr (see
    `objective_hessian`, Hr = H + reg I) from its Kronecker factors:
    Q^-1 = 1/2 (P P^T) (x) Hr^-1, so with R[a, (k j)] = r[k, a, j] the form
    is 1/2 <P P^T R Hr^-1, R>, and Q is never inverted."""
    d = P.shape[0]
    R = r.reshape(-1, d, d).transpose(1, 0, 2).reshape(d, -1)
    return 0.5 * float(np.vdot(P @ (P.T @ R) @ Hr_inv, R))


def hkm_blocks(X_inv: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """The (K, d^2, d^2) blocks in vec(W_k) of dW_k -> sym(X_k^-1 sym(dW_k)
    Z_k), the HKM linearisation of X_k Z_k = mu I; with Z = X^-1, the
    Hessian blocks of -log det(X_k), X_k = -sym(W_k) - eps I."""
    K, d, _ = X_inv.shape
    outer = np.einsum("kia,kbj->kijab", X_inv, Z)
    outer = outer + outer.swapaxes(1, 2)
    return (0.25 * (outer + outer.swapaxes(3, 4))).reshape(K, d * d, d * d)


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
    gap: float          # J(W) - L(Z) >= J(W) - min J, the Lagrangian gap


_GAP_RTOL = 1e-10       # stop once the gap is below this share of J
_STEP_BACK = 0.98       # share of the step to the cone's boundary taken


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.swapaxes(-1, -2))


def solve(problem: FitProblem, max_steps: int) -> Solution:
    """Minimise J(W) subject to X_k = -sym(W_k) - eps I > 0 by primal-dual
    path following from the warm start (duals Z_k > 0, HKM directions,
    Mehrotra's predictor-corrector) until the Lagrangian gap J(W) - L(Z)
    is below a fixed share of J; one DEBUG record gives the status and the
    final J, recomputed. X comes from W, so every iterate is feasible; J is
    quadratic, so dJ/dW and J (to rounding) follow each step, and the
    stationarity residual r = dJ/dW + Z shrinks by 1 - a at step length a.

    Each Newton step is found in the eigenbasis V_k of X_k, where X_k is
    diag(x_k): there X^-1 dX Z is a row scaling, and the Newton system's
    stiff rows (Z / x for x near 0) stay apart from the rest. Formed in
    world axes, the 1/min x entries round into the directions where Z or
    r must be small, and near the solution the iterate stalls or leaves
    the cone."""
    stats, P, eps, reg, shrink, W = problem
    K, d, _ = W.shape
    m, n, I = K * d, K * d * d, np.eye(d)
    try:
        P_inv = np.linalg.inv(P)
        Hr_inv = np.linalg.inv(stats.H + reg * np.eye(m))
        J0, G = objective_and_gradient(W, stats, P_inv, reg, shrink)
        Z = (J0 / m) * np.linalg.inv(-_sym(W) - eps * I)
    except np.linalg.LinAlgError as exc:
        raise OptimizationDiverged(f"set-up: {exc}") from None
    Q = objective_hessian(stats, P_inv, reg)
    Q_blocks = np.ascontiguousarray(         # (K, K, d^2, d^2)
        Q.reshape(K, d * d, K, d * d).swapaxes(1, 2))
    J, g = J0, G.ravel()
    steps = 0
    while True:
        if not np.isfinite(J):
            raise OptimizationDiverged("non-finite objective")
        X = -_sym(W) - eps * I
        mu = float(np.vdot(X, Z)) / m
        gap = m * mu
        # the residual's term is needed only once <X, Z> alone is small
        if gap <= _GAP_RTOL * J or steps == max_steps:
            gap += 0.5 * inverse_hessian_form(g + Z.ravel(), P, Hr_inv)
            if gap <= _GAP_RTOL * J or steps == max_steps:
                break
        try:
            x, V = np.linalg.eigh(X)
            # T_k = V_k (x) V_k maps vec(M) in the eigenbasis to
            # vec(V_k M V_k^T) in world axes
            T = (V[:, :, None, :, None] * V[:, None, :, None, :]).reshape(
                K, d * d, d * d)
            Tt = T.swapaxes(1, 2)
            Xv = x[..., None] * I
            Zv = (Tt @ Z.reshape(K, d * d, 1)).reshape(K, d, d)
            # diag(x) and Zv stacked: S = L L^T, so S^-1 = R R^T, R = L^-T
            R = np.linalg.inv(np.linalg.cholesky(
                np.concatenate([Xv, Zv]))).swapaxes(1, 2)
            x_inv = 1.0 / x[..., None]      # X^-1 is a row scaling
            # Q in the eigenbases, the HKM blocks on its (k, k) blocks
            system = Tt[:, None] @ Q_blocks @ T
            np.einsum("kkab->kab", system)[...] += hkm_blocks(x_inv * I, Zv)
            system = system.swapaxes(1, 2).reshape(n, n)
            gv = (Tt @ g.reshape(K, d * d, 1)).reshape(K, d, d)
            # the predictor aims at X Z = 0; the corrector at sigma mu I,
            # less the predictor's second-order term
            aim = 0.0
            for corrector in (False, True):
                dw = np.linalg.solve(system, -(gv + aim).ravel())
                dX = -_sym(dw.reshape(K, d, d))
                dZ = aim - Zv - _sym(x_inv * (dX @ Zv))
                # the largest a with X + a dX, Z + a dZ >= 0 (inf if none)
                low = np.linalg.eigvalsh(R.swapaxes(1, 2) @ np.concatenate(
                    [dX, dZ]) @ R)[:, 0].min()
                a = np.inf if low >= 0.0 else -1.0 / low
                if not corrector:
                    a = min(1.0, a)
                    sigma = (float(np.vdot(Xv + a * dX, Zv + a * dZ))
                             / (m * mu)) ** 3
                    # aiming below half the tolerance only feeds rounding
                    # into a Newton system that nears the boundary
                    target = max(sigma * mu, 0.5 * _GAP_RTOL * J / m)
                    aim = target * x_inv * I - _sym(x_inv * (dX @ dZ))
        except np.linalg.LinAlgError as exc:
            raise OptimizationDiverged(f"Newton step: {exc}") from None
        a = min(1.0, _STEP_BACK * a)
        dw = (T @ dw.reshape(K, d * d, 1)).ravel()
        Qdw = Q @ dw
        J += a * float(g @ dw) + 0.5 * a * a * float(dw @ Qdw)
        g = g + a * Qdw
        W = W + a * dw.reshape(K, d, d)
        Z = Z + a * (T @ dZ.reshape(K, d * d, 1)).reshape(K, d, d)
        steps += 1
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("estimate: %d Newton iterations, stopped at the cap: %s; "
                   "J %.6g -> %.6g, gap %.3g", steps, gap > _GAP_RTOL * J,
                   J0, objective_and_gradient(W, stats, P_inv, reg,
                                              shrink)[0], gap)
    return Solution(W, steps, gap)


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
    gamma = responsibilities_batch(components, data)
    # finite velocities can still be too large to square (a profile's grow
    # as 1/dt): that is a fit the solver cannot make, not a warning
    try:
        with np.errstate(over="raise", invalid="raise"):
            Yn, Vn = Y / scale, velocities / scale
            stats = fit_statistics(gamma, Yn, Vn)
            # shrinkage target for unexcited directions: a few times the
            # data's speed-to-radius ratio, so they contract strictly
            # faster than the fitted modes -- the slow mode (and hence the
            # asymptotic approach direction into the attractor) must stay
            # the demonstrated one
            shrink = 10.0 * float(
                np.mean(np.linalg.norm(Vn, axis=1))
                / max(np.mean(np.linalg.norm(Yn, axis=1)), 1e-12))
    except FloatingPointError as exc:
        raise OptimizationDiverged(f"set-up: {exc}") from None
    reg = _RIDGE * T

    # warm start: per-component ridge least-squares A, mapped to W = P A
    # with the eigenvalues of sym(W_k) clamped to <= -2 eps
    I = np.eye(d)
    Syy = (gamma.T[:, None, :] * Yn.T) @ Yn + max(reg, 1e-9) * I
    # the k-th (d x d) block of B is sum_t gamma_tk v_t y_t^T
    Svy = stats.B.reshape(d, K, d).transpose(1, 0, 2) - reg * shrink * I
    W = P @ (Svy @ np.linalg.inv(Syy))
    vals, vecs = np.linalg.eigh(_sym(W))
    vals = np.minimum(vals, -2.0 * opts.margin)
    W0 = W - _sym(W) + (vecs * vals[:, None, :]) @ vecs.swapaxes(1, 2)
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
