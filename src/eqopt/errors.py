"""Exception taxonomy shared across the solver stack."""


class EqoptError(Exception):
    """Base class for every error raised by this package."""


class ComputationError(EqoptError):
    """A dense factorization failed to converge, an oracle returned non-finite
    derivatives, or a finite problem's solution overflows float range."""


class InfeasibleConstraintsError(EqoptError):
    """The equality constraints A x = b admit no solution."""


class OracleUnavailableError(EqoptError):
    """The saddle-point (KKT) system is singular; the direct oracle cannot certify this problem."""


class InfeasibleStartError(EqoptError):
    """The objective is not finite at the start point, e.g. outside a barrier's domain."""


class NonConvexError(EqoptError):
    """A reduced Hessian was not positive definite at some iterate.

    Attributes
    ----------
    g : ndarray or None
        The offending free-space iterate.
    iteration : int or None
        Index of the Newton step at which the check failed.
    """

    def __init__(self, message, g=None, iteration=None):
        super().__init__(message)
        self.g = g
        self.iteration = iteration


class DivergenceError(EqoptError):
    """Pure Newton iterates increased the objective three times in a row,
    or a full step left the objective's domain.

    Carries the partial ``trace`` so the caller can inspect the blow-up.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class LineSearchError(EqoptError):
    """Backtracking underflowed the step size without satisfying the decrease condition."""


class UnknownObjectiveError(EqoptError, KeyError):
    """Requested objective name is not registered."""

    def __str__(self):  # KeyError quotes its message; keep it readable
        return Exception.__str__(self)


class ProblemFormatError(EqoptError):
    """Base class for problem-file errors."""


class ProblemParseError(ProblemFormatError):
    """The file is not well-formed (bad JSON)."""


class ProblemSchemaError(ProblemFormatError):
    """The file parsed but violates the schema (missing field, wrong shape, bad kind)."""
