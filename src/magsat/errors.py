"""Exception types shared across the package."""


class IntegrationDivergedError(RuntimeError):
    """The integrated state left the finite domain.

    Carries the simulation time at which the blow-up was detected.
    """

    def __init__(self, message: str, t: float):
        super().__init__(message)
        self.t = t


class SolverContractError(RuntimeError):
    """A solve returned a sequence costing more than the zero or warm-start candidate."""


class ConfigError(ValueError):
    """A scenario configuration failed parsing or validation."""


class Terminated(BaseException):
    """The process received SIGTERM during a CLI run.

    Like KeyboardInterrupt it is not an Exception, so no broad handler
    swallows the request to stop.
    """
