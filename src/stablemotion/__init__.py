"""Stable motion policies from single demonstrations, re-targetable to
new task-frame configurations via a constrained Gaussian-chain edit."""

import logging

from .core import (
    GaussianComponent,
    GeometricDescriptor,
    Pose,
    Trajectory,
    compute_velocities,
    frame_from_two_points,
    frame_rotations,
)
from .gmm import (
    GmmFitConfig,
    OrderedGmm,
    fit_gmm,
    order_components,
    responsibilities,
)
from .chain import (
    ElasticChain,
    build_chain,
    transform_chain,
)
from .profile import ProfileConfig, regenerate_profile
from .policy import (
    EstimateOptions,
    LpvDsPolicy,
    estimate,
    evaluate,
    evaluate_batch,
    lyapunov_value,
)
from .sequence import PlanExecutor, Segment, TaskPlan, split_demo, stitch_chains
from .evaluation import (
    RolloutConfig,
    RolloutResult,
    endpoints_distance,
    goal_cosine,
    rollout,
    rollout_batch,
    sample_field,
    start_cosine,
)
from .fileio import (
    field_csv,
    field_svg,
    load_demo,
    load_descriptor,
    load_policy,
    rollout_csv,
    save_demo,
    save_descriptor,
    save_policy,
)
from .pipeline import adapt, learn, reestimate

__version__ = "0.1.0"

# the library logs on "stablemotion" and stays silent unless the
# application configures logging
logging.getLogger(__name__).addHandler(logging.NullHandler())
