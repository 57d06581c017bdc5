"""Exception hierarchy shared across the library."""


class StableMotionError(Exception):
    """Base class for all library errors."""


class ValidationError(StableMotionError, ValueError):
    """Input failed a validity check: the one bad-input type (a ValueError)."""


class DegenerateFrame(ValidationError):
    """Two frame-defining points coincide within tolerance."""


class NonMonotoneTimestamps(ValidationError):
    """Trajectory timestamps are not strictly increasing."""


class InsufficientData(ValidationError):
    """Not enough samples for the requested model size."""


class IndexCollision(ValidationError):
    """Two joints map to the same profile index (too few points)."""


class OptimizationDiverged(StableMotionError):
    """Policy regression produced a non-finite objective."""


class ViaPointNotOnDemo(ValidationError):
    """A via-point lies farther than the split radius from the demo."""


class NonMonotoneViaPoints(ValidationError):
    """Via-points visit the demonstration out of order."""


class ChainGapTooLarge(ValidationError):
    """Chains to stitch do not share endpoint joints within tolerance."""


class NonFiniteState(StableMotionError):
    """Rollout state became NaN or infinite."""


class DegenerateDirection(ValidationError):
    """Two trajectory samples coincide; direction undefined."""
