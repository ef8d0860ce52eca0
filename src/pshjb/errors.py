"""Exception types shared across the package."""


class PshjbError(Exception):
    """Base class for all package errors."""


class NotPSD(PshjbError):
    """A matrix required to be positive semidefinite has a significantly
    negative eigenvalue."""


class DimensionMismatch(PshjbError):
    """Vector/matrix dimensions of the arguments are inconsistent."""


class DimensionTooLarge(PshjbError):
    """Tensor-product quadrature requested in too many dimensions."""


class NotInCameronMartin(PshjbError):
    """Shift vector is not in the image of the covariance square root."""


class SmoothingViolated(PshjbError):
    """The supplied model breaks a hypothesis of the smoothing estimates:
    image inclusion, controllability or a blow-up exponent in (0, 1)."""


class InclusionViolated(SmoothingViolated):
    """Control columns leave the image of the covariance square root, so the
    smoothing operator is not well defined for the supplied model."""


class RankDeficient(SmoothingViolated):
    """Controllability precondition of a model build failed."""


class GridMismatch(PshjbError):
    """Two value iterates do not share the same grids."""


class NoContraction(PshjbError):
    """A returned solve stopped above tol (``diagnostics["stop"]`` growth or
    max_iter); a command raises this after writing what it computed."""


class OutOfGrid(PshjbError):
    """Evaluation point is outside the stored solution grid."""


class DominanceViolated(PshjbError):
    """Simulated policy costs fell significantly below the solved value;
    ``simulate`` writes its tables, then raises this naming each failing one."""


class ConfigError(PshjbError):
    """Run configuration could not be parsed or is invalid."""
