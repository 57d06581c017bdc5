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
once per estimate, and the problem is built from them alone: the warm
start's per-component moments are blocks of H and B. The objective's
Hessian in W is constant: the Newton system (Kd^2 unknowns) is built from
H once and never touches the samples.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import (_CERTIFICATE_BOUND, _GAIN_BOUND, _THINNEST_SD,
                   GaussianComponent, _array, _check_numbers, _floats,
                   _frozen, _rows, _stack)
from .errors import InsufficientData, OptimizationDiverged, ValidationError
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
        _check_numbers(self, counts=("max_iters",), reals=("margin",))
        # fit_problem clamps the warm start at -_START_DEPTH margins
        top = float(np.finfo(float).max) / _START_DEPTH
        if not (0 < self.margin <= top and self.max_iters >= 1):
            raise ValidationError(f"need 0 < margin <= {top:.3g} and "
                                  f"max_iters >= 1")
        if self.P is not None:
            object.__setattr__(self, "P", _frozen(self.P, "P", ("d", "d")))
            _check_certificate(self.P)


_min = np.minimum.reduce


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.swapaxes(-1, -2))


def _check_certificate(P: np.ndarray) -> None:
    """A certificate, read as a finite (d, d) array, is within its bound
    (see `core`), symmetric and positive definite."""
    top = np.abs(P).max()
    if top > _CERTIFICATE_BOUND:
        raise ValidationError(f"a P entry exceeds {_CERTIFICATE_BOUND:.3g}")
    # |P - P^T| <= 1e-9 of P's largest entry: the fit constrains sym(P A_k),
    # which is half of A_k^T P + P A_k only when P = P^T
    if np.abs(P - P.T).max() > 1e-9 * top:
        raise ValidationError("P must be symmetric")
    if np.linalg.eigvalsh(_sym(P))[0] <= 0:
        raise ValidationError("P must be positive definite")


@dataclass(frozen=True)
class VelocityKernel:
    """A policy factored once for repeated evaluation on state columns.

    With Sigma_k = C_k C_k^T, y = x - x* and l_k = log pi_k - d/2 log 2 pi
    - log det C_k, one product `M` y less `offsets` holds both halves of
    the field, each with one constant row:
    - per component, z_k = sqrt(1/2) C_k^-1 y - c_k, c_k = sqrt(1/2)
      C_k^-1 (mu_k - x*), and the row s_k = sqrt(max_j l_j - l_k), so
      |(z_k, s_k)|^2 = |z_k|^2 - l_k + max_j l_j: the log-weight
      log pi_k N(x; mu_k, Sigma_k) = l_k - |z_k|^2 up to a constant of
      the column;
    - the gains, laid out (d + 1, K): row i < d of component k is
      (A_k y)_i, and row d is 1, so that the weighted sum over the
      components also gives the sum of the weights.
    A constant row's entries of M are 0, and its offset is -s_k or -1.
    The quadratic is never expanded, so a log-density's rounding grows
    as eps |z_k| |C_k^-1 y|, not as the lifted form's eps |C_k^-1 y|^2,
    and stays small far from the attractor; s_k^2 adds at most
    eps (max_j l_j - l_k) to it.

    The rows are stored last to first, and `__call__` reads both halves
    back to front. numpy's dot calls BLAS once per output entry when
    both strides are positive, and runs its own loop, with no call per
    entry, when one is negative: on a batch, that loop makes each
    contraction one pass over the product.
    """

    attractor: np.ndarray   # (d, 1)
    M: np.ndarray           # (2K(d + 1), d), rows stored last to first
    offsets: np.ndarray     # (2K(d + 1), 1), in M's row order

    @classmethod
    def factor(cls, components: Sequence[GaussianComponent], A: np.ndarray,
               attractor: np.ndarray) -> "VelocityKernel":
        """Factor the components, with gains A (K, d, d), about the
        attractor (d,); a gain entry past G, or a component thinner than S
        (an entry of C_k^-1 past 1/S), is a ValidationError (see `core`)."""
        K, d, _ = A.shape
        if np.abs(A).max() > _GAIN_BOUND:
            raise ValidationError(f"a gain entry exceeds {_GAIN_BOUND:.3g}")
        means, covs = _stack(components)
        # a component is one whose covariance this factorisation succeeds on
        chol = np.linalg.cholesky(covs)
        whiten = np.sqrt(0.5) * np.linalg.inv(chol)
        if np.abs(whiten).max() > np.sqrt(0.5) / _THINNEST_SD:
            raise ValidationError(
                f"a component is thinner than {_THINNEST_SD:.3g}")
        log_norm = (np.log([c.prior for c in components])
                    - 0.5 * d * np.log(2.0 * np.pi)
                    - np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1))
        M = np.zeros((2, K * (d + 1), d))
        offsets = np.zeros((2, K * (d + 1), 1))
        M[0].reshape(K, d + 1, d)[:, :d] = whiten
        z_offsets = offsets[0].reshape(K, d + 1)
        z_offsets[:, :d] = (whiten @ (means - attractor)[..., None])[..., 0]
        z_offsets[:, d] = -np.sqrt(log_norm.max() - log_norm)
        M[1].reshape(d + 1, K, d)[:d] = A.transpose(1, 0, 2)
        offsets[1].reshape(d + 1, K)[d] = -1.0
        arrays = [np.array(a) for a in (attractor[:, None],
                                        M.reshape(-1, d)[::-1],
                                        offsets.reshape(-1, 1)[::-1])]
        for a in arrays:
            a.setflags(write=False)
        return cls(*arrays)

    def __call__(self, Y: np.ndarray) -> np.ndarray:
        """Velocities (d, n) at states as columns Y (d, n), in nine numpy
        calls. The norms are one `vecdot` contraction on a (K, d + 1, n)
        view of the product; the log-weights, each column's smallest
        |(z_k, s_k)|^2 less the component's own, are at most 0. The
        weighted sum and the sum of the weights are one contraction on a
        (d + 1, K, n) view, and one division normalises. A single-state
        evaluation is bounded by its count of numpy calls, not by its
        arithmetic."""
        e, n = Y.shape[0] + 1, Y.shape[1]
        K = self.M.shape[0] // (2 * e)
        out = self.M @ (Y - self.attractor)
        out -= self.offsets
        z = out[:K * e - 1:-1].reshape(K, e, n)
        w = np.vecdot(z, z, axis=1)
        np.subtract(_min(w, axis=0), w, out=w)
        np.exp(w, out=w)
        v = np.vecdot(out[K * e - 1::-1].reshape(e, K, n), w, axis=-2)
        u = v[:-1]
        u /= v[-1]
        return u


@dataclass(frozen=True)
class LpvDsPolicy:
    """xdot = sum_k gamma_k(x) A_k (x - attractor), built only with its
    certificate: A_k^T P + P A_k <= -margin I (`constraint_residual` <= 0)."""

    components: Tuple[GaussianComponent, ...]
    A: np.ndarray               # (K, d, d)
    P: np.ndarray               # (d, d) Lyapunov certificate
    attractor: np.ndarray
    margin: float
    # the policy factored once, not once per evaluation;
    # dataclasses.replace runs __post_init__ again, so it never goes stale
    kernel: VelocityKernel = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_numbers(self, reals=("margin",))
        attractor = _frozen(self.attractor, "attractor", ("d",),
                            position=True)
        K, d = len(self.components), attractor.shape[0]
        if any(c.dim != d for c in self.components):
            raise ValidationError("components must be d-dimensional")
        object.__setattr__(self, "attractor", attractor)
        object.__setattr__(self, "A", _frozen(self.A, "A", (K, d, d)))
        object.__setattr__(self, "P", _frozen(self.P, "P", (d, d)))
        _check_certificate(self.P)
        if not self.margin > 0:
            raise ValidationError("margin must be positive")
        object.__setattr__(self, "kernel", VelocityKernel.factor(
            self.components, self.A, self.attractor))
        residual = constraint_residual(self)
        if not residual <= 0.0:
            raise ValidationError(f"policy violates its stability certificate "
                                  f"(constraint residual {residual:.3e} > 0)")

    @cached_property
    def stiffness(self) -> float:
        """max_k |eig A_k|, the fastest mode: it bounds a stable step size.
        Found once, at the first rollout, not by every estimate."""
        return float(np.max(np.abs(np.linalg.eigvals(self.A))))

    @property
    def dim(self) -> int:
        return self.attractor.shape[0]


def evaluate(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocity at one state (d,): a batch of one."""
    return policy.kernel(_array(xi, "state", policy.attractor.shape,
                                position=True)[:, None])[:, 0]


def evaluate_batch(policy: LpvDsPolicy, xi: np.ndarray) -> np.ndarray:
    """Policy velocities for a batch of states (n, d), shape (n, d): the
    kernel on the states as columns."""
    return policy.kernel(_rows(xi, "states", policy.dim).T).T


def lyapunov_value(policy: LpvDsPolicy, xi: np.ndarray):
    """V = y^T P y, y = x - x*: a float for one state, shape (n,) for a
    batch of states (n, d)."""
    x = _floats(xi, "states")
    y = _array(x, "states", (None,) * (x.ndim - 1) + (policy.dim,),
               position=True) - policy.attractor
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
# The warm start's sym(W_k) <= -depth * eps I. Shallower, X0 = -sym(W0) -
# eps I has eigenvalues near 0, the dual start (J0/m) X0^-1 is huge there,
# and the first steps are cut short. Newton steps in all at depths 2, 5,
# 10, 15, 20, 25, 50, 100: 60 adapt problems (perfbench `retarget` items
# and stitched estimates, seeds 7-9) 566, 520, 512, 515, 515, 515, 522,
# 565; 18 learn problems (perfbench corpus and probe, conftest S-curve,
# arc and helix at T = 200, 400, 1000) 257, 225, 188, 197, 193, 192, 184,
# 195; the five anisotropic-P test problems 87 (max 24), 90, 79, 67
# (max 15), 66 (max 15), 75, 75, 78 (max 23 or 24 at every other depth).
_START_DEPTH = 20.0


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
            if not x[:, 0].min() > 0.0:
                raise np.linalg.LinAlgError("a slack left the cone")
            Xv = x[..., None] * I
            Zv = (Tt @ Z.reshape(K, d * d, 1)).reshape(K, d, d)
            # S^-1 = R R^T: R = diag(x^-1/2) on diag(x), L^-T on Zv = L L^T
            R = np.linalg.inv(np.linalg.cholesky(Zv)).swapaxes(1, 2)
            R = np.concatenate([(1.0 / np.sqrt(x))[..., None] * I, R])
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
    data = _array(data, "data", (None, "d"), position=True)
    T, d = data.shape
    velocities = _array(velocities, "velocities", data.shape)
    attractor = _array(attractor, "attractor", (d,), position=True)
    K = len(components)
    if K == 0 or any(c.dim != d for c in components):
        raise ValidationError(f"need one or more {d}-dimensional components")
    P = np.eye(d) if opts.P is None else opts.P
    if P.shape != (d, d):
        raise ValidationError(f"P is {P.shape[0]}-dimensional, the data "
                              f"{d}-dimensional")
    if T < 10 * K:
        raise InsufficientData(f"{T} samples < 10*K = {10 * K}")

    # condition the quadratic: center at the attractor, scale by the
    # workspace radius (A is invariant to the scaling, the objective is not).
    # B bounds the positions, not velocities (a profile's grow as 1/dt) or
    # caller-given components: an overflow is a fit the solver cannot make
    try:
        with np.errstate(over="raise", invalid="raise"):
            Y = data - attractor
            radii = np.linalg.norm(Y, axis=1)
            scale = max(float(radii.max()), 1e-12)
            Vn = velocities / scale
            # shrinkage target for unexcited directions: a few times the
            # data's speed-to-radius ratio, so they contract strictly
            # faster than the fitted modes -- the slow mode (and hence the
            # asymptotic approach direction into the attractor) must stay
            # the demonstrated one
            shrink = 10.0 * float(np.mean(np.linalg.norm(Vn, axis=1))
                                  / max(np.mean(radii) / scale, 1e-12))
            gamma = responsibilities_batch(components, data)
            stats = fit_statistics(gamma, Y / scale, Vn)
    except FloatingPointError as exc:
        raise OptimizationDiverged(f"set-up: {exc}") from None
    reg = _RIDGE * T

    # warm start: per-component ridge least-squares A, mapped to W = P A
    # with the eigenvalues of sym(W_k) clamped to <= -_START_DEPTH * eps.
    # Both moments come from the statistics: sum_t gamma_tk y_t y_t^T is
    # the k-th block-row sum of H (each gamma_t sums to 1), and
    # sum_t gamma_tk v_t y_t^T the k-th (d x d) block of B
    I = np.eye(d)
    Syy = stats.H.reshape(K, d, K, d).sum(axis=2) + max(reg, 1e-9) * I
    Svy = stats.B.reshape(d, K, d).transpose(1, 0, 2) - reg * shrink * I
    W = P @ (Svy @ np.linalg.inv(Syy))
    vals, vecs = np.linalg.eigh(_sym(W))
    vals = np.minimum(vals, -_START_DEPTH * opts.margin)
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
    return LpvDsPolicy(tuple(components), A, problem.P, attractor,
                       problem.eps)
