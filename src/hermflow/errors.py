"""Exception types shared across the solver."""


class InvalidParameterError(ValueError):
    """A physical or numerical parameter is out of its admissible range."""


class DimensionError(ValueError):
    """Array shapes do not match the frame they are used with."""


class _SolverFailure(RuntimeError):
    """A numerical breakdown of a step.  ``member`` is the index of the
    failing state in the stack of states stepped; one state is member 0."""

    def __init__(self, message, member=0):
        super().__init__(message)
        self.member = member


class PositivityError(_SolverFailure):
    """A relative density dropped below the positivity floor.

    Strict positivity is guaranteed for the exact Galerkin dynamics, so a
    breach signals a discretization failure rather than physics; the solver
    raises instead of clamping silently.
    """

    def __init__(self, message, node=None, value=None, member=0):
        super().__init__(message, member)
        self.node = node
        self.value = value


class StepFailureError(_SolverFailure):
    """A fixed-point iteration inside a time step failed to contract.

    The contraction constant scales with the step size, so the standard
    remedy is a smaller ``dt``.
    """


class InternalConsistencyError(_SolverFailure):
    """A quantity the scheme conserves by construction drifted."""


#: what a run that started from valid inputs may raise when the numerics
#: break down; anything else is a programming error and propagates
SOLVER_FAILURES = (PositivityError, StepFailureError, InternalConsistencyError)


class ConfigError(ValueError):
    """A run configuration file is malformed."""
