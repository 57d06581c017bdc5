"""Named numerical tolerances, collected in one record.

The library reads the fixed `DEFAULT_TOLERANCES`: no function takes a
`Tolerances`, so callers cannot tighten or relax them. Constants of one
algorithm, such as EM's stop rule and the estimator's gap tolerance, live
in its module.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # geometry
    degenerate_point: float = 1e-9      # min separation for frame construction
    orthonormal: float = 1e-9           # R^T R = I check on Pose rotations
    orthonormal_io: float = 1e-6        # looser check when loading files
    reach: float = 1e3                  # diameters a loaded joint or
                                        # component mean, or a descriptor
                                        # position, may lie from the chain

    # mixtures
    prior_sum: float = 1e-9
    em_loglik_slack: float = 1e-8       # allowed per-iteration decrease

    # chain transform
    constraint_exactness: float = 1e-9  # pinned joints hit their targets
    chain_gap: float = 1e-6             # stitching endpoint agreement

    # sequencing
    attractor_continuity: float = 1e-6  # segment attractor vs next start


DEFAULT_TOLERANCES = Tolerances()
