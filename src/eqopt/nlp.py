"""Newton solvers for smooth convex objectives on ``{x : A x = b}``.

The constraints are eliminated by the null-space parameterization
``x = x0 + N g``, leaving the unconstrained reduced problem
``h(g) = f(x0 + N g)`` with gradient ``N^T grad f`` and Hessian
``N^T (hess f) N``. :meth:`ObjectiveOracle.restrict` builds the oracle of
``h`` once per solve: a registry objective pulls its own data back through
``N`` (so no step forms an n x n Hessian), any other oracle is composed by
the chain rule, and one without an analytic Hessian has its reduced
gradient differenced along the k free coordinates. Everything after
:func:`reduce_problem` works in those k coordinates. Damped Newton
(:func:`newton_solve`) and pure Newton (:func:`sqp_iterate`) are the two
phases of one Newton iteration and run the same loop, which differs only
in its step rule (Armijo backtracking or the full step) and its stop rule
(the Newton decrement or the gradient and step norms). On top of it this
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
from .expressions import ConstrainedExpression
from .linalg import ConstraintFactorization, as_vector, cholesky, cholesky_solve

_FD_STEP = float(np.cbrt(np.finfo(np.float64).eps))


class ObjectiveOracle:
    """Bundle of callbacks (value, gradient, hessian) for a smooth f on R^n.

    Parameters
    ----------
    dim : int
        Dimension of the ambient space.
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
    """

    def __init__(self, dim, value, gradient, hessian=None, pullback=None):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        self.value = value
        self.gradient = gradient
        self.hessian = hessian if hessian is not None else self._fd_hessian
        self.pullback = pullback

    def _fd_hessian(self, x):
        x = np.asarray(x, dtype=np.float64)
        out = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            step = _FD_STEP * (1.0 + abs(x[i]))
            e = np.zeros(self.dim)
            e[i] = step
            out[:, i] = (self.gradient(x + e) - self.gradient(x - e)) / (2.0 * step)
        return 0.5 * (out + out.T)

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
            f = basis.T @ self.hessian(x0 + basis @ g) @ basis
            return 0.5 * (f + f.T)

        return ObjectiveOracle(basis.shape[1], value, gradient, hessian)


@dataclass
class ReducedObjective:
    """A full-space objective pulled back through a null-space expression.

    ``value``, ``gradient`` and ``hessian`` take a free vector ``g`` and
    evaluate ``oracle.restrict(expr.x0, expr.basis)``, built once here, so
    they are the reduced ``h(g)``, ``N^T grad f`` and the k x k
    ``N^T (hess f) N``; none of them forms an n x n array unless the
    oracle's own analytic Hessian does. :meth:`point` maps ``g`` back to
    the full space.
    """

    expr: ConstrainedExpression  # basis N
    oracle: ObjectiveOracle

    def __post_init__(self):
        self._restricted = self.oracle.restrict(self.expr.x0, self.expr.basis)

    @property
    def free_dim(self):
        return self.expr.free_dim

    def _checked(self, g):
        g = as_vector(g, "g")
        if g.shape[0] != self.free_dim:
            raise ValueError(f"g has length {g.shape[0]}, expected {self.free_dim}")
        return g

    def point(self, g):
        """The full-space point x(g) = x0 + N g."""
        return self.expr.embed(g)

    def value(self, g):
        return float(self._restricted.value(self._checked(g)))

    def gradient(self, g):
        return self._restricted.gradient(self._checked(g))

    def hessian(self, g):
        return self._restricted.hessian(self._checked(g))


def reduce_problem(oracle, constraints):
    """Eliminate the constraints: build x = x0 + N g and wrap the oracle.

    The constraints are factorized once
    (:class:`~eqopt.linalg.ConstraintFactorization`), so redundant rows
    are dropped and contradictory ones raise InfeasibleConstraintsError.
    The oracle is restricted to ``x0 + N g`` once
    (:meth:`ObjectiveOracle.restrict`): a registry objective pulls its data
    back through ``N`` here, and the pulled-back data lives as long as the
    returned :class:`ReducedObjective`.
    """
    if oracle.dim != constraints.n:
        raise ValueError(
            f"objective dimension {oracle.dim} != constraint columns {constraints.n}"
        )
    f = ConstraintFactorization(constraints.a, constraints.b)
    expr = ConstrainedExpression(x0=f.x0, basis=f.null_basis)
    if expr.free_dim == 0:
        raise ValueError(
            "the feasible set is a single point; nothing to optimize"
        )
    return ReducedObjective(expr=expr, oracle=oracle)


@dataclass
class NewtonConfig:
    """Knobs for :func:`newton_solve`.

    ``alpha`` in (0, 1/2) and ``beta`` in (0, 1) are the backtracking
    parameters; ``epsilon`` is the termination threshold on half the
    squared Newton decrement; ``g0`` defaults to the zero free vector
    (i.e. the minimum-norm feasible point).
    """

    alpha: float = 0.25
    beta: float = 0.5
    epsilon: float = 1e-10
    max_iter: int = 100
    g0: np.ndarray | None = None

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ValueError("alpha must lie in (0, 1/2)")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in (0, 1)")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError("epsilon must be finite and positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.g0 is not None:
            self.g0 = as_vector(self.g0, "g0")


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

    def _finish(self, reduced, g, h, grad_norm, decrement_sq):
        """Record ``g`` as the last iterate and return the trace."""
        self.final_g = g
        self.final_x = reduced.point(g)
        self.final_h = h
        self.final_grad_norm = grad_norm
        self.final_decrement_sq = decrement_sq
        return self


def _newton_step(reduced, g, iteration):
    """Gradient, Newton direction and squared decrement at g.

    Raises ComputationError when the gradient or Hessian is not finite and
    NonConvexError when the reduced Hessian fails its Cholesky
    factorization.
    """
    e = reduced.gradient(g)
    f = reduced.hessian(g)
    if not (np.isfinite(e).all() and np.isfinite(f).all()):
        raise ComputationError(
            f"the oracle returned a non-finite gradient or Hessian at iteration {iteration}"
        )
    u = cholesky(f)
    if u is None:
        raise NonConvexError(
            f"reduced Hessian is not positive definite at iteration {iteration}",
            g=g.copy(),
            iteration=iteration,
        )
    step = -cholesky_solve(u, e)
    dec_sq = max(float(-(e @ step)), 0.0)  # E^T F^{-1} E, clamped against rounding
    return e, step, dec_sq


def newton_decrement(reduced, g):
    """Newton decrement and step at g.

    Returns ``(lambda, step)`` where ``lambda = sqrt(E^T F^{-1} E)`` and
    ``step = -F^{-1} E``. Raises NonConvexError if F is not positive
    definite.
    """
    g = as_vector(g, "g")
    _, step, dec_sq = _newton_step(reduced, g, iteration=0)
    return math.sqrt(dec_sq), step


def _start_value(reduced, g):
    """``h(g)`` at the start point; raises InfeasibleStartError unless finite."""
    h = reduced.value(g)
    if not math.isfinite(h):
        raise InfeasibleStartError(
            f"the objective is {h} at the start point (outside its domain, e.g. "
            f"a barrier row is violated); give a start point strictly inside it"
        )
    return h


def _armijo(reduced, g, direction, h0, slope, alpha, beta):
    """Largest t in {1, beta, beta^2, ...} with sufficient decrease.

    Returns ``(t, h(g + t direction))``; the value is that of the point
    ``g + t * direction`` the caller steps to, bit for bit.
    """
    t = 1.0
    while True:
        h_t = reduced.value(g + t * direction)
        # written so that nan/inf trial values shrink t rather than pass
        if h_t <= h0 + alpha * t * slope:
            return t, h_t
        t *= beta
        if t < 1e-300:
            raise LineSearchError(
                "backtracking underflowed without satisfying the decrease "
                "condition; the direction is not a usable descent direction"
            )


def backtracking_line_search(reduced, g, direction, alpha=0.25, beta=0.5):
    """Armijo backtracking along a descent direction.

    Returns the largest ``t`` in ``{1, beta, beta^2, ...}`` satisfying
    ``h(g + t d) <= h(g) + alpha t grad^T d``.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError("alpha must lie in (0, 1/2)")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    g = as_vector(g, "g")
    direction = as_vector(direction, "direction")
    slope = float(reduced.gradient(g) @ direction)
    if not slope < 0.0:
        raise ValueError("direction is not a descent direction (grad^T d >= 0)")
    return _armijo(reduced, g, direction, reduced.value(g), slope, alpha, beta)[0]


def _newton_loop(reduced, g0, max_iter, tol, armijo=None):
    """The Newton iteration behind :func:`newton_solve` and :func:`sqp_iterate`.

    Damped (``armijo = (alpha, beta)``): Armijo steps, stop when half the
    squared decrement drops to ``tol``. Pure (``armijo = None``): full
    steps, stop once the gradient or the last step is shorter than ``tol``,
    and raise :class:`DivergenceError` on three rises in a row or a step
    out of the objective's domain.
    """
    g = np.zeros(reduced.free_dim) if g0 is None else as_vector(g0, "g0").copy()
    if g.shape[0] != reduced.free_dim:
        raise ValueError(f"g0 has length {g.shape[0]}, expected {reduced.free_dim}")
    trace = NewtonTrace()
    h_g = _start_value(reduced, g)
    rises = 0
    arrived = False
    while True:
        e, step, dec_sq = _newton_step(reduced, g, iteration=len(trace.iterations))
        grad_norm = float(np.linalg.norm(e))
        if armijo is None:
            rose = trace.iterations and not h_g <= trace.iterations[-1].h_value
            rises = rises + 1 if rose else 0
            if rises >= 3:
                raise DivergenceError(
                    "pure Newton increased the objective three times in a row; "
                    "use the damped newton_solve instead",
                    trace=trace._finish(reduced, g, h_g, grad_norm, dec_sq),
                )
            done = arrived or grad_norm < tol
        else:
            done = dec_sq / 2.0 <= tol
        trace.converged = done
        if done or len(trace.iterations) >= max_iter:
            break
        if armijo is None:
            t, h_next = 1.0, reduced.value(g + step)
            if not math.isfinite(h_next):
                raise DivergenceError(
                    f"the full Newton step of iteration {len(trace.iterations)} left the "
                    f"objective's domain (h = {h_next}); use the damped newton_solve instead",
                    trace=trace._finish(reduced, g, h_g, grad_norm, dec_sq),
                )
            arrived = float(np.linalg.norm(step)) < tol  # record the arrival point, then stop
        else:
            t, h_next = _armijo(reduced, g, step, h_g, -dec_sq, *armijo)
        trace.iterations.append(
            NewtonIteration(
                g=g.copy(),
                x=reduced.point(g),
                h_value=h_g,
                grad_norm=grad_norm,
                decrement_sq=dec_sq,
                step_size=t,
            )
        )
        g = g + t * step
        h_g = h_next
    return trace._finish(reduced, g, h_g, grad_norm, dec_sq)


def newton_solve(reduced, config=None):
    """Damped Newton with backtracking on the reduced objective.

    Starting from ``config.g0`` (default: zero, i.e. the minimum-norm
    feasible point), repeats: Newton step, Armijo backtracking, update —
    until half the squared decrement drops to ``config.epsilon``. Each
    executed step is recorded; exhausting ``max_iter`` returns a
    non-converged trace rather than raising.

    Raises
    ------
    InfeasibleStartError
        If the objective is not finite at the start point.
    ComputationError
        If the oracle returns a non-finite gradient or Hessian.
    NonConvexError
        If a reduced Hessian fails its Cholesky factorization.
    LineSearchError
        If backtracking underflows (gradient/value inconsistency).
    """
    config = config if config is not None else NewtonConfig()
    return _newton_loop(
        reduced, config.g0, config.max_iter, config.epsilon, (config.alpha, config.beta)
    )


def sqp_iterate(reduced, g0=None, tol_g=1e-10, max_iter=100):
    """Pure Newton iteration: full steps, no line search.

    ``g <- g - F^{-1} E`` until either the step or the gradient drops
    below ``tol_g`` in the 2-norm. Converges quadratically close to the
    solution but has no global safeguard: three consecutive increases of
    the objective, or a step to a point where it is not finite (outside
    a barrier's domain), raise :class:`DivergenceError` (carrying the
    partial trace, which ends at the last finite iterate);
    :func:`newton_solve` is the damped alternative. A start point
    where the objective is not finite raises :class:`InfeasibleStartError`
    and a non-finite gradient or Hessian :class:`ComputationError`.
    """
    if not (math.isfinite(tol_g) and tol_g > 0.0):
        raise ValueError("tol_g must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    return _newton_loop(reduced, g0, max_iter, tol_g)


@dataclass
class ConvergenceConstants:
    """Spectral constants feeding the a-priori certificates.

    ``m_strong`` and ``m_upper`` sandwich the reduced Hessian
    (``m I <= F <= M I``) on the initial sublevel set, and ``lipschitz`` is
    K, the Lipschitz constant of the reduced Hessian F there, as
    :func:`estimate_convergence_constants` returns it. A worst-case
    Lipschitz constant L of the *full-space* Hessian serves as well, since
    ``K <= L ||N||_2^3 = L`` for the orthonormal bases this library builds.
    All three must be finite.
    """

    m_strong: float
    m_upper: float
    lipschitz: float

    def __post_init__(self):
        for name in ("m_strong", "m_upper", "lipschitz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
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
    sublevel set containing g. ``grad_norm`` must be finite and nonnegative.
    Raises ValueError, like :func:`iteration_bound`, when the bound leaves
    float range.
    """
    if not (math.isfinite(grad_norm) and grad_norm >= 0.0):
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

    ``h0_minus_hstar`` is the initial objective gap (a finite upper bound
    on it is fine and just loosens the cap).

    Raises ValueError when the constants, though finite, are so extreme
    that a certificate quantity overflows or underflows to zero (``m^2``
    out of float range, ``gamma = 0``, an infinite ``d_max``): no
    finite cap can be stated then.
    """
    if config is None:
        config = NewtonConfig()
    if not (math.isfinite(h0_minus_hstar) and h0_minus_hstar >= 0.0):
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
    when you have them. A non-finite sampled Hessian raises
    ComputationError naming the sample.
    """
    points = [as_vector(p, "point") for p in points]
    if len(points) < 1:
        raise ValueError("need at least one sample point")
    m_lo = math.inf
    m_hi = -math.inf
    hessians = []
    for i, g in enumerate(points):
        f = reduced.hessian(g)
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
