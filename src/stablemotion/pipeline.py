"""High-level train/adapt flows built from the lower modules."""

from __future__ import annotations

import time
from typing import Tuple

from .chain import ElasticChain, build_chain, transform_chain
from .core import GeometricDescriptor, Trajectory, compute_velocities
from .gmm import GmmFitConfig, fit_gmm, order_components
from .policy import EstimateOptions, LpvDsPolicy, estimate
from .profile import ProfileConfig, regenerate_profile


def learn(demo: Trajectory,
          gmm_cfg: GmmFitConfig = GmmFitConfig(),
          opts: EstimateOptions = EstimateOptions()) -> Tuple[ElasticChain, LpvDsPolicy]:
    """Fit mixture + chain on one demo and estimate its policy.

    The attractor is the demonstration endpoint; velocities are derived by
    finite differences when the demo does not carry them.
    """
    if demo.velocities is None:
        demo = compute_velocities(demo)
    components = fit_gmm(demo.points, gmm_cfg)
    ordered = order_components(components, demo)
    chain = build_chain(ordered, demo)
    policy = estimate(list(ordered.components), demo.points, demo.velocities,
                      demo.end, opts)
    return chain, policy


def adapt_policy(chain: ElasticChain, descriptor: GeometricDescriptor,
                 profile_cfg: ProfileConfig, estimate_opts=None):
    """Transform the chain, regenerate the profile, re-estimate the policy.

    Returns (new_chain, profile, policy, transform_time, estimate_time).
    """
    opts = estimate_opts or EstimateOptions()
    t0 = time.perf_counter()
    new_chain, comps = transform_chain(chain, descriptor)
    profile = regenerate_profile(new_chain.joints, profile_cfg)
    t1 = time.perf_counter()
    policy = estimate(comps, profile.points, profile.velocities,
                      new_chain.joints[-1], opts)
    t2 = time.perf_counter()
    return new_chain, profile, policy, t1 - t0, t2 - t1


def adapt(chain: ElasticChain, descriptor: GeometricDescriptor,
          profile_cfg: ProfileConfig,
          opts: EstimateOptions = EstimateOptions()):
    """Re-target a learned chain to a new descriptor; returns
    (new_chain, profile, policy)."""
    return adapt_policy(chain, descriptor, profile_cfg, opts)[:3]
