"""Newton solvers for smooth convex objectives on ``{x : A x = b}``.

The constraints are eliminated by the paper's null-space expression
``x = x0 + N g`` (:func:`~eqopt.expressions.build_nullspace`, the one place
``A x = b`` is factored; ``ReducedObjective.expr`` keeps its rank and its
kept and dropped rows), leaving the unconstrained reduced problem
``h(g) = f(x0 + N g)`` with gradient ``N^T grad f`` and Hessian
``N^T (hess f) N``.
:meth:`ObjectiveOracle.restrict` builds the oracle of ``h`` once per
solve: a registry objective pulls its own data back through ``N`` (so no
step forms an n x n Hessian), any other oracle is composed by the chain
rule, and one without an analytic Hessian has its reduced gradient
differenced along the k free coordinates. :func:`reduce_problem` returns
a :class:`ReducedObjective` holding that oracle, and everything after it
works in those k coordinates: the Newton loop evaluates the oracle on its
own iterates, and a ``g`` from outside (``NewtonConfig.g0``, the samples
of :func:`estimate_convergence_constants`) is checked once, by the public
entry point it enters through. Each Newton iterate
costs one evaluation of that oracle (:meth:`ObjectiveOracle.derivatives`
gives the gradient and the Hessian together) and one lower-triangle
Cholesky factorization; a line-search trial costs one value. Damped Newton
(:func:`newton_solve`) and pure Newton (:func:`sqp_iterate`) are the two
phases of one Newton iteration and run the same loop, which differs only
in its step rule (Armijo backtracking or the full step) and its stop rule
(the Newton decrement or the gradient and step norms); every setting of
that loop enters through one :class:`NewtonConfig`. On top of it this
module provides the a-priori convergence certificates: the gradient-based
suboptimality bound, the damped/pure phase constants and the iteration
cap they imply, and the quadratic contraction factor of the pure phase
(Boyd & Vandenberghe, *Convex Optimization*, Sec. 9.5), all stated for
the reduced objective h, whose constants
:func:`estimate_convergence_constants` samples from the reduced Hessians
alone.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ComputationError,
    DivergenceError,
    InfeasibleStartError,
    LineSearchError,
    NonConvexError,
)
from .expressions import ConstrainedExpression, build_nullspace
from .linalg import as_vector, cholesky, cholesky_solve, frozen_copy, is_integer, is_real
from .linalg import overflow_checked, symmetric_part

_FD_STEP = float(np.cbrt(np.finfo(np.float64).eps))


class ObjectiveOracle:
    """Bundle of callbacks (value, gradient, hessian) for a smooth f on R^n.

    Parameters
    ----------
    dim : int
        Dimension of the ambient space: an integer
        (:func:`~eqopt.linalg.is_integer`), not a bool, a float or a
        string, and at least 1.
    value : callable
        ``x -> float``. May return ``inf`` outside an effective domain
        (barriers); the line search treats that as "too far".
    gradient : callable
        ``x -> (dim,) ndarray``.
    hessian : callable, optional
        ``x -> (dim, dim) ndarray``. When omitted, a central
        finite-difference of the gradient is used with per-coordinate
        step ``cbrt(eps) * (1 + |x_i|)``.
    pullback : callable, optional
        ``(x0, basis) -> ObjectiveOracle``: the oracle of
        ``g -> f(x0 + B g)`` on ``R^k`` (``k`` = columns of ``B``), built
        from the objective's data rather than from these callbacks. Every
        registry objective (:mod:`eqopt.objectives`) supplies one;
        :meth:`restrict` uses it.
    derivatives : callable, optional
        ``x -> (gradient, hessian)`` at one point, the one evaluation a
        Newton step makes. It must return what the two callbacks return.
        When omitted, it calls ``gradient`` and then ``hessian``. Every
        registry objective supplies one that shares their common work,
        except the full-space :func:`~eqopt.objectives.sum_exp`, which is
        separable and uses the default; its pull-back supplies one.
    """

    def __init__(self, dim, value, gradient, hessian=None, pullback=None, derivatives=None):
        if not is_integer(dim):
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("dim must be at least 1")
        self.dim = int(dim)
        self.value = value
        self.gradient = gradient
        self.hessian = hessian if hessian is not None else self._fd_hessian
        self.pullback = pullback
        self.derivatives = derivatives if derivatives is not None else self._gradient_and_hessian

    def _gradient_and_hessian(self, x):
        return self.gradient(x), self.hessian(x)

    def _fd_hessian(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            step = _FD_STEP * (1.0 + abs(x[i]))
            e = np.zeros(self.dim)
            e[i] = step
            out[:, i] = (self.gradient(x + e) - self.gradient(x - e)) / (2.0 * step)
        return symmetric_part(out)

    def restrict(self, x0, basis):
        """The oracle of ``g -> f(x0 + B g)`` on ``R^k``, ``k = basis.shape[1]``.

        Returns ``pullback(x0, basis)`` when the oracle has one. Otherwise
        composes this oracle's callbacks by the chain rule: the value
        ``f(x0 + B g)`` and the gradient ``B^T grad f``. With an analytic
        Hessian the restricted one is the symmetrized ``B^T (hess f) B``,
        which evaluates the full n x n Hessian at every call; without one,
        the restricted oracle differences its own gradient along the k
        coordinates of ``g`` (2k gradient calls, no n x n array).
        """
        if self.pullback is not None:
            return self.pullback(x0, basis)

        def value(g):
            return self.value(x0 + basis @ g)

        def gradient(g):
            return basis.T @ self.gradient(x0 + basis @ g)

        if self.hessian == self._fd_hessian:
            return ObjectiveOracle(basis.shape[1], value, gradient)

        def hessian(g):
            return symmetric_part(basis.T @ self.hessian(x0 + basis @ g) @ basis)

        return ObjectiveOracle(basis.shape[1], value, gradient, hessian)


@dataclass(frozen=True, eq=False)
class ReducedObjective:
    """A full-space objective pulled back through a null-space expression.

    ``oracle`` is the k-dimensional oracle of the reduced objective
    ``h(g) = f(x0 + N g)``, with gradient ``N^T grad f`` and Hessian the
    k x k ``N^T (hess f) N``, that :func:`reduce_problem` builds once with
    :meth:`ObjectiveOracle.restrict`; it forms no n x n array unless the
    full-space oracle's own analytic Hessian does. Its callbacks check
    nothing, like those of any :class:`ObjectiveOracle`, and the Newton loop
    calls them on its own iterates. ``expr.embed`` maps ``g`` back to the
    full space. The fields cannot be reassigned.
    """

    expr: ConstrainedExpression  # basis N
    oracle: ObjectiveOracle  # of h, on R^k

    def __post_init__(self):  # the full-space oracle fails here, not in numpy
        if self.oracle.dim != self.free_dim:
            raise ValueError(f"oracle dimension {self.oracle.dim} != free_dim {self.free_dim}")

    @property
    def free_dim(self):
        return self.expr.free_dim


@overflow_checked
def reduce_problem(oracle, constraints):
    """Eliminate the constraints: build x = x0 + N g and restrict the oracle to it.

    The expression is built once by
    :func:`~eqopt.expressions.build_nullspace`, so redundant rows are
    dropped and contradictory ones raise InfeasibleConstraintsError.
    The oracle is restricted to ``x0 + N g`` once
    (:meth:`ObjectiveOracle.restrict`), and the returned
    :class:`ReducedObjective` holds that restricted oracle: a registry
    objective pulls its data back through ``N`` here, and raises
    ComputationError when its quadratic part overflows float range at
    ``x0``.
    """
    if oracle.dim != constraints.n:
        raise ValueError(
            f"objective dimension {oracle.dim} != constraint columns {constraints.n}"
        )
    expr = build_nullspace(constraints)
    if expr.free_dim == 0:
        raise ValueError(
            "the feasible set is a single point; nothing to optimize"
        )
    return ReducedObjective(expr, oracle.restrict(expr.x0, expr.basis))


@dataclass(frozen=True)
class NewtonConfig:
    """The settings of the Newton loop, the one way each enters.

    Damped Newton (:func:`newton_solve`) reads all five fields. Pure
    Newton (:func:`sqp_iterate`) reads ``g0``, ``epsilon`` and
    ``max_iter``; :func:`iteration_bound` reads ``alpha`` and ``beta``.

    ``alpha`` in (0, 1/2) and ``beta`` in (0, 1) are the Armijo
    backtracking parameters; only the damped phase uses them, but they are
    checked for both. ``epsilon`` is the termination threshold: on half
    the squared Newton decrement (damped), on the gradient and step norms
    (pure). These three are real numbers, not bools or strings
    (:func:`~eqopt.linalg.is_real`). ``max_iter`` caps the executed steps
    and must be an integer, not a bool (:func:`~eqopt.linalg.is_integer`).
    ``g0`` defaults to the zero free vector (i.e. the minimum-norm
    feasible point); it is checked to be finite and 1-D here and held as a
    read-only copy, and its length is checked when the solve starts, the
    first time that length is known. The fields are checked once, on
    construction, and cannot be reassigned.
    """

    alpha: float = 0.25
    beta: float = 0.5
    epsilon: float = 1e-10
    max_iter: int = 100
    g0: np.ndarray | None = None

    def __post_init__(self):
        if not (is_real(self.alpha) and 0.0 < self.alpha < 0.5):
            raise ValueError("alpha must lie in (0, 1/2)")
        if not (is_real(self.beta) and 0.0 < self.beta < 1.0):
            raise ValueError("beta must lie in (0, 1)")
        if not (is_real(self.epsilon) and 0.0 < self.epsilon < math.inf):
            raise ValueError("epsilon must be finite and positive")
        if not is_integer(self.max_iter):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.g0 is not None:
            object.__setattr__(self, "g0", frozen_copy(as_vector(self.g0, "g0")))


@dataclass
class NewtonIteration:
    """State at the start of one executed Newton step."""

    g: np.ndarray
    x: np.ndarray
    h_value: float
    grad_norm: float  # ||E||_2 at g
    decrement_sq: float  # squared Newton decrement E^T F^{-1} E
    step_size: float  # accepted t

    @property
    def phase(self):
        """``"pure"`` for a full step (t = 1), else ``"damped"``."""
        return "pure" if self.step_size == 1.0 else "damped"


@dataclass
class NewtonTrace:
    """Full record of a Newton run.

    ``iterations`` holds one entry per executed step (pre-step state plus
    the accepted step size); the ``final_*`` fields describe the last
    iterate, where no further step was taken.
    """

    iterations: list = field(default_factory=list)
    converged: bool = False
    final_g: np.ndarray | None = None
    final_x: np.ndarray | None = None
    final_h: float = math.nan
    final_grad_norm: float = math.nan
    final_decrement_sq: float = math.nan

    def h_values(self):
        """Objective at every visited iterate, final included."""
        return [it.h_value for it in self.iterations] + [self.final_h]

    def grad_norms(self):
        """||E||_2 at every visited iterate, final included."""
        return [it.grad_norm for it in self.iterations] + [self.final_grad_norm]

    def _finish(self, expr, g, h, grad_norm, decrement_sq):
        """Record ``g`` as the last iterate and return the trace."""
        self.final_g = g
        self.final_x = expr.x0 + expr.basis @ g
        self.final_h = h
        self.final_grad_norm = grad_norm
        self.final_decrement_sq = decrement_sq
        return self


def _newton_step(oracle, g, iteration):
    """Gradient, Newton direction and squared decrement at g, from one
    evaluation of the restricted ``oracle`` and one Cholesky factorization.

    Raises ComputationError when the gradient, the Hessian, the step or the
    decrement is not finite and NonConvexError when the reduced Hessian
    fails its Cholesky factorization.
    """
    e, f = oracle.derivatives(g)
    if not (np.isfinite(e).all() and np.isfinite(f).all()):
        raise ComputationError(
            f"the oracle returned a non-finite gradient or Hessian at iteration {iteration}"
        )
    low = cholesky(f)
    if low is None:
        raise NonConvexError(
            f"reduced Hessian is not positive definite at iteration {iteration}",
            g=g.copy(),
            iteration=iteration,
        )
    step = -cholesky_solve(low, e)
    dec_sq = float(-(e @ step))  # E^T F^{-1} E
    if not math.isfinite(dec_sq):  # so also wherever the step is not finite
        what = "decrement" if np.isfinite(step).all() else "step"
        raise ComputationError(f"the Newton {what} overflows float range at iteration {iteration}")
    return e, step, max(dec_sq, 0.0)  # clamped against rounding


def _start_value(oracle, g):
    """``h(g)`` at the start point. Raises InfeasibleStartError when it is
    ``+inf`` (outside the domain) and ComputationError when its evaluation
    overflows (``inf - inf`` or ``0 * inf`` included) or it is NaN or
    ``-inf``, which come from overflow, not from a domain."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            h = float(oracle.value(g))
    except FloatingPointError:
        raise ComputationError("the objective overflows float range at the start point") from None
    if math.isnan(h) or h == -math.inf:
        raise ComputationError(
            f"the objective is {h} at the start point: it overflows float range there"
        )
    if h == math.inf:
        raise InfeasibleStartError(
            f"the objective is {h} at the start point (outside its domain, e.g. "
            f"a barrier row is violated); give a start point strictly inside it"
        )
    return h


def _armijo(oracle, g, direction, h0, slope, config):
    """Largest t in {1, beta, beta^2, ...} with sufficient decrease, for
    ``config``'s ``alpha`` and ``beta``.

    Returns ``(t, h(g + t direction), g + t direction)``: the accepted
    point is the array the value was taken at, and the caller steps to it.
    """
    t = 1.0
    while True:
        trial = g + t * direction
        h_t = float(oracle.value(trial))
        # written so that nan/inf trial values shrink t rather than pass
        if h_t <= h0 + config.alpha * t * slope:
            return t, h_t, trial
        t *= config.beta
        if t < 1e-300:
            raise LineSearchError(
                "backtracking underflowed without satisfying the decrease "
                "condition; the direction is not a usable descent direction"
            )


def _norm(v):
    """``||v||_2`` of a finite float64 vector, as ``sqrt(v . v)``: numpy
    takes the 2-norm of a real 1-D array as ``sqrt(x.dot(x))``, so this is
    ``np.linalg.norm(v)`` bit for bit where that is finite, without
    ``norm``'s Python-level argument handling. Where the sum of squares
    overflows, ``v`` is scaled by ``2^-600`` first, exactly but for entries
    far too small to count, and the norm scaled back (``inf`` only beyond
    range)."""
    out = math.sqrt(v.dot(v))
    return out if out < math.inf else 2.0**600 * float(np.linalg.norm(v * 2.0**-600))


@overflow_checked
def _newton_loop(reduced, config, damped):
    """The Newton iteration behind :func:`newton_solve` and :func:`sqp_iterate`.

    Damped: Armijo steps, stop when half the squared decrement drops to
    ``config.epsilon``. Pure: full steps, stop once the gradient or the
    last step is shorter than ``config.epsilon``, and raise
    :class:`DivergenceError` on three rises in a row or a step out of the
    objective's domain. Only ``config.g0`` comes from outside, and
    :class:`NewtonConfig` checked all but its length.
    """
    oracle, expr, tol = reduced.oracle, reduced.expr, config.epsilon
    g = np.zeros(expr.free_dim) if config.g0 is None else config.g0.copy()
    if g.shape[0] != expr.free_dim:
        raise ValueError(f"g0 has length {g.shape[0]}, expected {expr.free_dim}")
    trace = NewtonTrace()
    h_g = _start_value(oracle, g)
    rises = 0
    arrived = False
    while True:
        e, step, dec_sq = _newton_step(oracle, g, iteration=len(trace.iterations))
        grad_norm = _norm(e)
        if damped:
            done = dec_sq / 2.0 <= tol
        else:
            rose = trace.iterations and not h_g <= trace.iterations[-1].h_value
            rises = rises + 1 if rose else 0
            if rises >= 3:
                raise DivergenceError(
                    "pure Newton increased the objective three times in a row; "
                    "use the damped newton_solve instead",
                    trace=trace._finish(expr, g, h_g, grad_norm, dec_sq),
                )
            done = arrived or grad_norm < tol
        trace.converged = done
        if done or len(trace.iterations) >= config.max_iter:
            break
        if damped:
            t, h_next, g_next = _armijo(oracle, g, step, h_g, -dec_sq, config)
        else:
            g_next = g + step
            t, h_next = 1.0, float(oracle.value(g_next))
            if not math.isfinite(h_next):
                raise DivergenceError(
                    f"the full Newton step of iteration {len(trace.iterations)} left the "
                    f"objective's domain (h = {h_next}); use the damped newton_solve instead",
                    trace=trace._finish(expr, g, h_g, grad_norm, dec_sq),
                )
            arrived = _norm(step) < tol  # record the arrival point, then stop
        trace.iterations.append(
            NewtonIteration(
                g=g.copy(),
                x=expr.x0 + expr.basis @ g,
                h_value=h_g,
                grad_norm=grad_norm,
                decrement_sq=dec_sq,
                step_size=t,
            )
        )
        g, h_g = g_next, h_next
    return trace._finish(expr, g, h_g, grad_norm, dec_sq)


def newton_solve(reduced, config=NewtonConfig()):
    """Damped Newton with backtracking on the reduced objective.

    Starting from ``config.g0`` (default: zero, i.e. the minimum-norm
    feasible point), repeats: Newton step, Armijo backtracking, update —
    until half the squared decrement drops to ``config.epsilon``. Each
    executed step is recorded; exhausting ``max_iter`` returns a
    non-converged trace rather than raising. ``config`` defaults to
    ``NewtonConfig()``.

    Raises
    ------
    InfeasibleStartError
        If the objective is ``+inf`` at the start point.
    ComputationError
        If the objective overflows at the start point (also to NaN or
        ``-inf``), the oracle returns a non-finite gradient or Hessian, or
        a Newton step or its decrement overflows float range.
    NonConvexError
        If a reduced Hessian fails its Cholesky factorization.
    LineSearchError
        If backtracking underflows (gradient/value inconsistency).
    """
    return _newton_loop(reduced, config, damped=True)


def sqp_iterate(reduced, config=NewtonConfig()):
    """Pure Newton iteration: full steps, no line search.

    Starting from ``config.g0``, ``g <- g - F^{-1} E`` until either the
    step or the gradient drops below ``config.epsilon`` in the 2-norm, for
    at most ``config.max_iter`` steps; ``config`` defaults to
    ``NewtonConfig()``, and its ``alpha`` and ``beta`` go unused.
    Converges quadratically close to the solution but has no global
    safeguard: three consecutive increases of the objective, or a step to
    a point where it is not finite (outside a barrier's domain), raise
    :class:`DivergenceError` (carrying the partial trace, which ends at
    the last finite iterate); :func:`newton_solve` is the damped
    alternative. A start point where the objective is ``+inf`` raises
    :class:`InfeasibleStartError`; an objective that overflows there (also
    to NaN or ``-inf``), a non-finite gradient or Hessian, or a Newton
    step or decrement that overflows float range raises
    :class:`ComputationError`.
    """
    return _newton_loop(reduced, config, damped=False)


@dataclass(frozen=True)
class ConvergenceConstants:
    """Spectral constants feeding the a-priori certificates.

    ``m_strong`` and ``m_upper`` sandwich the reduced Hessian
    (``m I <= F <= M I``) on the initial sublevel set, and ``lipschitz`` is
    K, the Lipschitz constant of the reduced Hessian F there, as
    :func:`estimate_convergence_constants` returns it. A worst-case
    Lipschitz constant L of the *full-space* Hessian serves as well, since
    ``K <= L ||N||_2^3 = L`` for the orthonormal bases this library builds.
    All three must be finite real numbers (:func:`~eqopt.linalg.is_real`).
    """

    m_strong: float
    m_upper: float
    lipschitz: float

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (is_real(value) and -math.inf < value < math.inf):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if not 0.0 < self.m_strong <= self.m_upper:
            raise ValueError("need 0 < m_strong <= m_upper")
        if not self.lipschitz > 0.0:
            raise ValueError("lipschitz must be positive")


@dataclass
class IterationBound:
    """Certificate constants produced by :func:`iteration_bound`.

    ``eta`` splits the damped phase (``||E|| >= eta``) from the pure
    phase; ``gamma`` is the guaranteed objective decrease per damped
    step; ``d_max`` caps the total number of Newton iterations;
    ``contraction`` is ``K / (2 m^2)`` with ``K = lipschitz``, the factor in
    the pure-phase quadratic recursion ``c_{k+1} <= c_k^2`` for
    ``c_k = contraction * ||E_k||``.
    """

    eta: float
    gamma: float
    d_max: float
    contraction: float


def suboptimality_bound(grad_norm, constants):
    """Certified gap bound ``h(g) - h* <= ||E||^2 / (2 m)``.

    Valid whenever the reduced Hessian satisfies ``F >= m I`` on the
    sublevel set containing g. ``grad_norm`` must be a finite nonnegative
    real number. Raises ValueError, like :func:`iteration_bound`, when the
    bound leaves float range.
    """
    if not (is_real(grad_norm) and 0.0 <= grad_norm < math.inf):
        raise ValueError("grad_norm must be finite and nonnegative")
    try:
        bound = float(grad_norm) ** 2 / (2.0 * constants.m_strong)
    except OverflowError:  # float ** overflows
        bound = math.inf
    if bound == math.inf:
        raise ValueError(
            "grad_norm and m_strong are too extreme for a finite suboptimality bound"
        )
    return bound


def iteration_bound(constants, config, h0_minus_hstar):
    """A-priori phase constants and iteration cap for damped Newton.

    With ``K = lipschitz``, the Lipschitz constant of the reduced Hessian
    (see :class:`ConvergenceConstants`):

    * ``eta = min{1, 3 (1 - 2 alpha)} m^2 / K`` — while ``||E_k|| >= eta``
      every backtracking step decreases h by at least
      ``gamma = alpha beta eta^2 m / M^2``;
    * once ``||E_k|| < eta`` the iteration takes full steps and the
      scaled gradient norm ``K / (2 m^2) ||E||`` squares at every step;
    * the total number of iterations is then at most
      ``d_max = 6 + (h0 - h*) / gamma``.

    ``h0_minus_hstar`` is the initial objective gap, a real number (a
    finite upper bound on it is fine and just loosens the cap).

    Raises ValueError when the constants, though finite, are so extreme
    that a certificate quantity overflows or underflows to zero (``m^2``
    out of float range, ``gamma = 0``, an infinite ``d_max``): no
    finite cap can be stated then.
    """
    if not (is_real(h0_minus_hstar) and 0.0 <= h0_minus_hstar < math.inf):
        raise ValueError("h0_minus_hstar must be finite and nonnegative")
    try:
        m_sq = constants.m_strong**2
        eta = min(1.0, 3.0 * (1.0 - 2.0 * config.alpha)) * m_sq / constants.lipschitz
        gamma = (
            config.alpha
            * config.beta
            * eta**2
            * constants.m_strong
            / constants.m_upper**2
        )
        bound = IterationBound(
            eta=eta,
            gamma=gamma,
            d_max=6.0 + h0_minus_hstar / gamma,
            contraction=constants.lipschitz / (2.0 * m_sq),
        )
    except (OverflowError, ZeroDivisionError):  # float ** overflows, / 0 underflowed
        bound = None
    if bound is None or not all(
        0.0 < value < math.inf
        for value in (bound.eta, bound.gamma, bound.d_max, bound.contraction)
    ):
        raise ValueError(
            "the constants m_strong, m_upper and lipschitz are too extreme "
            "for a finite iteration cap (a certificate quantity leaves float range)"
        )
    return bound


@overflow_checked
def estimate_convergence_constants(reduced, points):
    """Empirical (m, M, K) sampled at the given free vectors.

    One reduced Hessian ``F(g_i)`` (k x k) is formed per sample and nothing
    in the full space. ``m`` and ``M`` are the extreme eigenvalues of the
    ``F(g_i)``; ``K``, returned as ``lipschitz``, is the largest
    spectral-norm difference quotient
    ``||F(g_i) - F(g_j)|| / ||g_i - g_j||`` over sample pairs, the
    Hessian-variation constant of the reduced objective that the
    certificates use. These are estimates tied to the sample, not
    certificates — pass worst-case constants to :func:`iteration_bound`
    when you have them. Each sample is checked once, as a finite vector of
    length ``free_dim``; a non-finite sampled Hessian raises
    ComputationError naming the sample.
    """
    points = [as_vector(p, "point", reduced.free_dim) for p in points]
    if len(points) < 1:
        raise ValueError("need at least one sample point")
    m_lo = math.inf
    m_hi = -math.inf
    hessians = []
    for i, g in enumerate(points):
        f = reduced.oracle.hessian(g)
        if not np.isfinite(f).all():
            raise ComputationError(f"the oracle returned a non-finite Hessian at sample {i}")
        w = np.linalg.eigvalsh(f)
        m_lo = min(m_lo, float(w[0]))
        m_hi = max(m_hi, float(w[-1]))
        hessians.append(f)
    lip = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            gap = float(np.linalg.norm(points[i] - points[j]))
            if gap == 0.0:
                continue
            lip = max(lip, float(np.linalg.norm(hessians[i] - hessians[j], 2)) / gap)
    if m_lo <= 0.0:
        raise NonConvexError(
            "sampled reduced Hessians are not uniformly positive definite"
        )
    # a quadratic objective has identical Hessians everywhere; keep the
    # constant valid (a smaller K only tightens the bound formulas)
    lip = max(lip, 1e-30)
    return ConvergenceConstants(m_strong=m_lo, m_upper=m_hi, lipschitz=lip)
