"""Equality-constrained quadratic and convex programming.

Linear equality constraints are eliminated by a feasible-set
parameterization (projector form or null-space form), turning the
constrained problem into an unconstrained one. Quadratic programs then
have closed-form solutions cross-checkable against a dense KKT oracle;
smooth convex objectives are handled by damped or pure Newton iterations
with a-priori convergence certificates.
"""

from types import ModuleType as _ModuleType

# every name imported below is public: __all__ is read off the module's globals
from .errors import (
    ComputationError,
    DivergenceError,
    EqoptError,
    InfeasibleConstraintsError,
    InfeasibleStartError,
    LineSearchError,
    NonConvexError,
    OracleUnavailableError,
    ProblemFormatError,
    ProblemParseError,
    ProblemSchemaError,
    UnknownObjectiveError,
)
from .expressions import (
    ConstrainedExpression,
    EqualityConstraints,
    build_nullspace,
    build_projector,
)
from .nlp import (
    ConvergenceConstants,
    IterationBound,
    NewtonConfig,
    NewtonIteration,
    NewtonTrace,
    ObjectiveOracle,
    ReducedObjective,
    estimate_convergence_constants,
    iteration_bound,
    newton_solve,
    reduce_problem,
    sqp_iterate,
    suboptimality_bound,
)
from .objectives import (
    log_sum_exp,
    neg_log_barrier_quadratic,
    objective_names,
    objective_registry,
    quadratic,
    sum_exp,
)
from .problems import FORMAT_VERSION, GeneratorSpec, NlpProblem, generate, load, save, solve
from .qp import QpProblem, Solution, solve_kkt, solve_nullspace, solve_projector

__version__ = "0.1.0"

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
