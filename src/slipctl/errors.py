"""Exception types shared across the package."""


class SlipctlError(Exception):
    pass


class ConfigError(SlipctlError):
    """Invalid run configuration or input file."""


class IncompatibleFlux(SlipctlError):
    """Normal boundary data violates the zero net flux compatibility condition."""


class SolverDivergence(SlipctlError):
    """A linear solve stalled or returned a residual above tolerance."""


class BaseTrajectoryMissing(SlipctlError):
    """Linearized/adjoint solve requested without a complete base state trajectory."""


class InitialStateError(ValueError):
    """The initial velocity is not divergence-free, or its normal trace does
    not match the normal control at t = 0."""
