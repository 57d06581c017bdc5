"""High-level train/adapt flows built from the lower modules."""

from __future__ import annotations

from dataclasses import replace
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


def reestimate(chain: ElasticChain,
               opts: EstimateOptions = EstimateOptions()
               ) -> Tuple[Trajectory, LpvDsPolicy]:
    """Regenerate the profile through the chain's joints at the chain's
    timing and estimate the chain's components on it, with the attractor
    at the last joint; returns (profile, policy)."""
    profile = regenerate_profile(chain.joints, chain.timing)
    return profile, estimate(chain.components.components, profile.points,
                             profile.velocities, chain.joints[-1], opts)


def adapt(chain: ElasticChain, descriptor: GeometricDescriptor,
          profile_cfg: ProfileConfig,
          opts: EstimateOptions = EstimateOptions()):
    """Re-target a learned chain to a new descriptor and re-estimate it at
    `profile_cfg`, which the new chain records as its timing; returns
    (new_chain, profile, policy)."""
    new_chain = transform_chain(chain, descriptor)
    if profile_cfg != new_chain.timing:  # else the chain is built once
        new_chain = replace(new_chain, timing=profile_cfg)
    return (new_chain, *reestimate(new_chain, opts))
