"""Correctness checks computed apart from the library.

Each check raises ``CheckFailed`` on a wrong output. The references are
either an independent computation (a dense KKT solve of the pinned
Laplacian edit, scipy densities) or a property the method guarantees (the
Lyapunov certificate, pinned joints, convergence with a non-increasing
Lyapunov value). Nothing is compared with a stored copy of an earlier
output. ``self_test`` feeds every check a deliberately corrupted output
and requires a rejection, so that no check passes vacuously.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

PIN_TOL = 1e-9          # pinned joints land on the descriptor
IDENTITY_TOL = 1e-9     # the identity descriptor leaves the chain unchanged
KKT_TOL = 1e-8          # edited joints vs the dense KKT optimum
PROFILE_TOL = 1e-9      # the profile passes through every joint
DENSITY_TOL = 1e-9      # responsibilities vs scipy densities
V_SLACK = 1e-12         # relative round-off allowed in V(x_{t+1}) <= V(x_t)


class CheckFailed(AssertionError):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# -- elastic edit ---------------------------------------------------------------

def path_laplacian(m: int) -> np.ndarray:
    """Uniform-weight path-graph Laplacian: unit diagonal, each row's
    neighbours share -1, so every row sums to zero."""
    L = np.eye(m)
    for i in range(m):
        nbrs = [j for j in (i - 1, i + 1) if 0 <= j < m]
        for j in nbrs:
            L[i, j] = -1.0 / len(nbrs)
    return L


def edit_pins(joints0: np.ndarray, link_lengths: np.ndarray,
              descriptor) -> dict:
    """Joint index -> target: each end joint sits on its descriptor pose
    and its neighbour one original link length along the pose x-axis."""
    m = joints0.shape[0]
    e, x = descriptor.enter, descriptor.exit
    return {0: e.position,
            1: e.position + link_lengths[0] * e.x_axis,
            m - 1: x.position,
            m - 2: x.position - link_lengths[-1] * x.x_axis}


def kkt_edit(joints0: np.ndarray, pins: dict) -> np.ndarray:
    """min ||L x - L x0||^2 subject to x[i] = pins[i], by a dense solve of
    the full KKT system."""
    m, d = joints0.shape
    L = path_laplacian(m)
    rows = sorted(pins)
    C = np.zeros((len(rows), m))
    C[np.arange(len(rows)), rows] = 1.0
    K = np.block([[2.0 * L.T @ L, C.T],
                  [C, np.zeros((len(rows), len(rows)))]])
    rhs = np.vstack([2.0 * L.T @ L @ joints0, [pins[i] for i in rows]])
    return np.linalg.solve(K, rhs)[:m]


def check_edit(chain, descriptor, new_joints: np.ndarray) -> None:
    pins = edit_pins(chain.joints, chain.link_lengths, descriptor)
    for i, target in pins.items():
        err = float(np.linalg.norm(new_joints[i] - target))
        require(err <= PIN_TOL, f"pinned joint {i} is {err:.2e} off")
    err = float(np.max(np.abs(new_joints - kkt_edit(chain.joints, pins))))
    require(err <= KKT_TOL, f"edited joints are {err:.2e} from the KKT "
                            "optimum")


def check_identity(chain, new_joints: np.ndarray, new_components) -> None:
    err = float(np.max(np.abs(new_joints - chain.joints)))
    for a, b in zip(chain.components.components, new_components):
        err = max(err, float(np.max(np.abs(a.mean - b.mean))),
                  float(np.max(np.abs(a.covariance - b.covariance))))
    require(err <= IDENTITY_TOL,
            f"identity descriptor moved the chain by {err:.2e}")


# -- mixtures -------------------------------------------------------------------

def scipy_responsibilities(components, points: np.ndarray) -> np.ndarray:
    lj = np.column_stack([
        np.log(c.prior) + multivariate_normal(c.mean, c.covariance)
        .logpdf(points).reshape(-1) for c in components])
    return np.exp(lj - logsumexp(lj, axis=1, keepdims=True))


def check_responsibilities(components, points: np.ndarray,
                           gamma: np.ndarray) -> None:
    ref = scipy_responsibilities(components, points)
    require(gamma.shape == ref.shape,
            f"responsibilities have shape {gamma.shape}, not {ref.shape}")
    err = float(np.max(np.abs(gamma - ref)))
    require(err <= DENSITY_TOL,
            f"responsibilities are {err:.2e} from scipy densities")


# -- policies and rollouts ------------------------------------------------------

def check_certificate(A: np.ndarray, P: np.ndarray, margin: float) -> None:
    """lambda_max(A_k^T P + P A_k) <= -margin for every k."""
    worst = max(float(np.linalg.eigvalsh(Ak.T @ P + P @ Ak)[-1]) for Ak in A)
    require(worst <= -margin,
            f"certificate violated: lambda_max {worst:.3e} > "
            f"-margin {-margin:.3e}")


def check_profile(points: np.ndarray, joints: np.ndarray) -> None:
    gap = max(float(np.min(np.linalg.norm(points - j, axis=1)))
              for j in joints)
    require(gap <= PROFILE_TOL, f"profile misses a joint by {gap:.2e}")


def check_converged(final: np.ndarray, attractor: np.ndarray,
                    radius: float) -> None:
    dist = np.linalg.norm(np.atleast_2d(final) - attractor, axis=1)
    require(bool(np.all(dist < radius)),
            f"{int(np.sum(dist >= radius))} state(s) ended outside the "
            f"convergence radius {radius:.3e}")


def lyapunov(points: np.ndarray, P: np.ndarray,
             attractor: np.ndarray) -> np.ndarray:
    y = np.atleast_2d(points) - attractor
    return np.einsum("ti,ij,tj->t", y, P, y)


def check_lyapunov(points: np.ndarray, P: np.ndarray,
                   attractor: np.ndarray) -> None:
    """V(x) = (x - x*)^T P (x - x*) never increases along the rollout."""
    v = lyapunov(points, P, attractor)
    rise = np.nonzero(v[1:] > v[:-1] * (1.0 + V_SLACK))[0]
    require(rise.size == 0,
            f"V increases at {rise.size} step(s), first at step "
            f"{rise[:1].tolist()}")


def check_plan_lyapunov(points: np.ndarray, plan) -> None:
    """Each segment's V is non-increasing while that segment drives.

    The plan switches at the first evaluation (an RK4 stage, not only a
    recorded state) inside the switch radius, so the steps that start
    within two step lengths of that radius are skipped as mixed.
    """
    first, last = plan.segments[0].policy, plan.segments[-1].policy
    step = float(np.max(np.linalg.norm(np.diff(points, axis=0), axis=1)))
    dist = np.linalg.norm(points - first.attractor, axis=1)
    near = np.nonzero(dist <= plan.switch_radius + 2.0 * step)[0]
    inside = np.nonzero(dist <= plan.switch_radius)[0]
    require(near.size > 0 and inside.size > 0,
            "plan rollout never reached the via-point")
    check_lyapunov(points[:near[0] + 1], first.P, first.attractor)
    check_lyapunov(points[inside[0]:], last.P, last.attractor)


def check_via(points: np.ndarray, via: np.ndarray, radius: float) -> None:
    gap = float(np.min(np.linalg.norm(points - via, axis=1)))
    require(gap <= radius, f"plan rollout misses the via-point by "
                           f"{gap:.3e} > switch radius {radius:.3e}")


class MixtureField:
    """The policy's vector field, evaluated apart from the library from
    its stored components and matrices."""

    def __init__(self, policy):
        comps = policy.components
        chols = [np.linalg.cholesky(c.covariance) for c in comps]
        self.means = np.array([c.mean for c in comps])
        self.whiten = np.array([np.linalg.inv(L) for L in chols])
        self.log_norm = np.array([np.log(c.prior) - np.sum(np.log(np.diag(L)))
                                  for c, L in zip(comps, chols)])
        self.A = np.asarray(policy.A)
        self.attractor = np.asarray(policy.attractor)

    def __call__(self, X: np.ndarray) -> np.ndarray:
        Z = np.einsum("kij,nkj->nki", self.whiten, X[:, None, :] - self.means)
        lj = self.log_norm - 0.5 * np.sum(Z * Z, axis=2)
        gamma = np.exp(lj - logsumexp(lj, axis=1, keepdims=True))
        return np.einsum("nk,kij,nj->ni", gamma, self.A, X - self.attractor)


def lockstep_steps(policy, starts: np.ndarray, cfg) -> int:
    """Active state-steps of a lockstep RK4 batch rollout (every start
    integrated until it is inside the convergence radius), by a replay
    with an independent evaluation of the field."""
    f = MixtureField(policy)
    X = np.array(starts, dtype=float)
    dt, g = cfg.dt, f.attractor
    active = np.linalg.norm(X - g, axis=1) >= cfg.convergence_radius
    total = 0
    for _ in range(cfg.max_steps):
        if not active.any():
            break
        Xa = X[active]
        k1 = f(Xa)
        k2 = f(Xa + 0.5 * dt * k1)
        k3 = f(Xa + 0.5 * dt * k2)
        k4 = f(Xa + dt * k3)
        X[active] = Xa + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        total += int(active.sum())
        active[active] = np.linalg.norm(X[active] - g, axis=1) \
            >= cfg.convergence_radius
    return total


# -- self-test ------------------------------------------------------------------

def _rejects(check, *args) -> bool:
    try:
        check(*args)
    except CheckFailed:
        return True
    return False


def self_test(samples: dict, responsibilities_batch) -> dict:
    """Corrupt one real output per check and map each check's name to
    whether it rejected the corruption (it must).

    ``samples`` maps a check name to the arguments one passing call of it
    received during the run; only the checks a workload ran are tested.
    """
    rejected = {}

    def expect_reject(name, check, *args):
        rejected[name] = _rejects(check, *args)

    if "certificate" in samples:
        A, P, margin = samples["certificate"]
        A = np.array(A)
        A[0] = np.eye(A.shape[1])
        expect_reject("certificate", check_certificate, A, P, margin)
    if "edit" in samples:
        chain, descriptor, new_joints = samples["edit"]
        moved = np.array(new_joints)
        moved[len(moved) // 2] += 1e-6
        expect_reject("edit", check_edit, chain, descriptor, moved)
    if "identity" in samples:
        chain, new_joints, new_components = samples["identity"]
        moved = np.array(new_joints)
        moved[len(moved) // 2] += 1e-6
        expect_reject("identity", check_identity, chain, moved,
                      new_components)
    if "responsibilities" in samples:
        components, points, _ = samples["responsibilities"]
        priors = np.array([c.prior for c in components])
        priors[0] *= 1.05
        priors /= priors.sum()
        skewed = [replace(c, prior=float(p))
                  for c, p in zip(components, priors)]
        expect_reject("responsibilities", check_responsibilities,
                      components, points,
                      responsibilities_batch(skewed, points))
    if "profile" in samples:
        points, joints = samples["profile"]
        expect_reject("profile", check_profile, points + 1e-6, joints)
    if "converged" in samples:
        final, attractor, radius = samples["converged"]
        expect_reject("converged", check_converged,
                      np.atleast_2d(final) + 2.0 * radius, attractor, radius)
    if "lyapunov" in samples:
        points, P, attractor = samples["lyapunov"]
        expect_reject("lyapunov", check_lyapunov, points[::-1], P, attractor)
    if "via" in samples:
        points, via, radius = samples["via"]
        far = np.linalg.norm(points - via, axis=1) > 2.0 * radius
        expect_reject("via", check_via, points[far], via, radius)
    return rejected
