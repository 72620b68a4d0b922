"""Exception types raised by dqdyn."""


class DqdynError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(DqdynError):
    """An input value violates a documented precondition (bad shape,
    non-unit quaternion, broken pose constraint, unknown frame tag...)."""


class ConfigError(DqdynError):
    """A scenario config is malformed, ambiguous, or physically invalid."""


class StepTooLargeError(DqdynError):
    """The incremental rotation of one step reached the half-turn limit of
    the step parametrization (|Phi| must stay below 1, i.e. each step must
    rotate by less than 180 degrees)."""


class SingularMatrixError(DqdynError):
    """A matrix that must be invertible, the inertia M or a Newton Jacobian,
    is singular or too ill-conditioned: its elimination in
    ``linsolve.solve_rows`` meets a zero pivot, or its pivot-ratio estimate
    exceeds ``linsolve.COND_LIMIT`` (1e12).

    Raised by a Newton step, it carries the iteration and, from a simulation
    run, the index of the failing step; both are None otherwise.
    """

    def __init__(self, message, iterations=None, step_index=None):
        super().__init__(message)
        self.iterations = iterations
        self.step_index = step_index


class SolverDivergenceError(DqdynError):
    """Newton iteration failed to reach the residual tolerance.

    Carries the last residual norm and, when raised from a simulation run,
    the index of the failing step.
    """

    def __init__(self, message, residual_norm=None, iterations=None, step_index=None):
        super().__init__(message)
        self.residual_norm = residual_norm
        self.iterations = iterations
        self.step_index = step_index
