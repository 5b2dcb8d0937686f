"""Registry of smooth convex test objectives with analytic derivatives.

Each builder returns an :class:`~eqopt.nlp.ObjectiveOracle`; the string
registry exists so problem files and the CLI can name objectives.

Every objective here is one composite
``f(x) = phi(C x + s) + 1/2 x^T Q x + c^T x + const`` with a separable
``phi`` on ``z = C x + s``, and one body (:func:`_composite`) writes its
value, gradient ``C^T phi'(z) + Q x + c``, Hessian, pull-back and
``derivatives``, which forms z and ``phi'(z)`` once for a Newton step's
gradient and Hessian:

* :func:`quadratic` has no rows in C;
* :func:`log_sum_exp` and :func:`sum_exp` have no quadratic part;
* :func:`neg_log_barrier_quadratic` is ``phi(z) = -mu sum_i log(-z_i)`` on
  ``z = barrier_a x - barrier_b`` plus its quadratic.

With ``hess phi(z) = diag(w^2) - p p^T`` (``p`` only for log-sum-exp) and
``W = diag(w) C``, the Hessian is formed once as
``W^T W - (C^T p)(C^T p)^T + Q``, exactly symmetric. Restricted to
``x = x0 + N g``, f is the same composite on ``C N``, ``C x0 + s`` and the
quadratic pulled back by :func:`~eqopt.linalg.pull_back_quadratic`.
:func:`~eqopt.nlp.reduce_problem` computes that data once per solve, and
the reduced value, gradient and Hessian then cost O(r k) and O(r k^2) for
r rows of C and k free variables.
"""

import math
import numbers

import numpy as np

from .errors import ComputationError, UnknownObjectiveError
from .linalg import as_matrix, as_vector, pull_back_quadratic, quadratic_data
from .nlp import ObjectiveOracle


def _composite(phi, cmat, s, quad=None):
    """The oracle of ``f(x) = phi(C x + s) + 1/2 x^T Q x + c^T x + const``.

    ``phi = (value, slope, curvature)`` acts on ``z = C x + s``: ``slope(z)``
    is ``phi'(z)`` and ``curvature(z, dz)`` is ``(w, p)`` with
    ``hess phi(z) = diag(w^2) - p p^T``, ``p`` None when that term is absent;
    ``dz`` is ``slope(z)`` when the caller already has it, else None.
    ``quad`` is ``(Q, c, const)`` with Q symmetric, or None for no quadratic
    part. ``derivatives`` forms z and ``phi'(z)`` once for both the gradient
    and the Hessian, bit for bit the two separate callbacks. The pull-back
    through ``x = x0 + B g`` is this body again; it raises ComputationError
    when the quadratic part at x0, its constant, overflows float range.
    """
    phi_value, slope, curvature = phi

    def value(x):
        v = phi_value(cmat @ x + s)
        if quad is None:
            return v
        q, c, const = quad
        return float(0.5 * x @ q @ x + c @ x + const + v)

    def gradient_from(x, dz):
        grad = cmat.T @ dz
        if quad is None:
            return grad
        q, c, _ = quad
        return q @ x + c + grad

    def hessian_from(z, dz):
        w, p = curvature(z, dz)
        wc = w[:, None] * cmat
        h = wc.T @ wc
        if p is not None:
            cp = cmat.T @ p
            h -= np.outer(cp, cp)
        if quad is not None:
            h += quad[0]
        return h

    def gradient(x):
        return gradient_from(x, slope(cmat @ x + s))

    def hessian(x):
        return hessian_from(cmat @ x + s, None)

    def derivatives(x):
        z = cmat @ x + s
        dz = slope(z)
        return gradient_from(x, dz), hessian_from(z, dz)

    def pullback(x0, basis):
        pulled = None
        if quad is not None:
            q, c, const = quad
            qb, cb, const_b = pull_back_quadratic(q, c, x0, basis)
            const += const_b
            if not math.isfinite(const):
                raise ComputationError(
                    f"the objective's quadratic part overflows float range at x0 (it is {const})"
                )
            pulled = (qb, cb, const)
        return _composite(phi, cmat @ basis, cmat @ x0 + s, pulled)

    return ObjectiveOracle(
        dim=cmat.shape[1],
        value=value,
        gradient=gradient,
        hessian=hessian,
        pullback=pullback,
        derivatives=derivatives,
    )


_SUM_EXP = (
    lambda z: float(np.sum(np.exp(z))),
    np.exp,
    lambda z, dz: (np.exp(0.5 * z), None),
)


def _log_sum_exp_value(z):
    zmax = float(np.max(z))
    return float(np.log(np.sum(np.exp(z - zmax))) + zmax)


def _softmax(z):
    w = np.exp(z - float(np.max(z)))
    return w / np.sum(w)


def _log_sum_exp_curvature(z, p):
    if p is None:  # else p is the slope, softmax(z)
        p = _softmax(z)
    return np.sqrt(p), p


_LOG_SUM_EXP = (_log_sum_exp_value, _softmax, _log_sum_exp_curvature)


def _neg_log(mu):
    """``phi(z) = -mu sum_i log(-z_i)``. Unless every ``z_i < 0`` its value is
    ``+inf`` and its slope and curvature raise ValueError."""

    def inside(z, part):
        if np.max(z, initial=-np.inf) >= 0.0:
            raise ValueError(f"{part} requested outside the barrier domain")
        return z

    def value(z):
        if np.max(z, initial=-np.inf) >= 0.0:
            return np.inf
        return -mu * float(np.sum(np.log(-z)))

    return (
        value,
        lambda z: -mu / inside(z, "gradient"),
        lambda z, dz: (math.sqrt(mu) / -inside(z, "hessian"), None),
    )


def _checked_quadratic(q, c):
    """:func:`quadratic` of a Q and c already checked, Q symmetric, as
    :func:`~eqopt.linalg.quadratic_data` returns them (and
    :class:`~eqopt.qp.QpProblem` holds them): nothing is checked or copied."""
    # C has no rows, so phi adds nothing
    return _composite(_SUM_EXP, np.zeros((0, q.shape[0])), np.zeros(0), (q, c, 0.0))


def quadratic(q, c=None):
    """``f(x) = 1/2 x^T Q x + c^T x`` (Q symmetrized)."""
    return _checked_quadratic(*quadratic_data(q, c))


def sum_exp(dim=None, rates=None):
    """``f(x) = sum_i exp(r_i x_i)``; rates default to all ones.

    ``dim`` must be integral; a boolean is refused rather than read as 0 or 1.
    """
    if dim is not None:
        integral = isinstance(dim, numbers.Integral) or (
            isinstance(dim, numbers.Real) and float(dim).is_integer()
        )
        if isinstance(dim, bool) or not integral:  # numpy's bool is not a number
            raise ValueError(f"dim must be an integer, got {dim!r}")
        dim = int(dim)
    if rates is not None:
        r = as_vector(rates, "rates")
        if dim is not None and dim != r.shape[0]:
            raise ValueError(f"dim={dim} but rates has length {r.shape[0]}")
    elif dim is not None:
        r = np.ones(dim)
    else:
        raise ValueError("sum_exp needs dim or rates")
    # Separable in full space (C = diag(r)), so no r x r matrix is stored.
    return ObjectiveOracle(
        dim=r.shape[0],
        value=lambda x: float(np.sum(np.exp(r * x))),
        gradient=lambda x: r * np.exp(r * x),
        hessian=lambda x: np.diag(r * r * np.exp(r * x)),
        pullback=lambda x0, basis: _composite(_SUM_EXP, r[:, None] * basis, r * x0),
    )


def log_sum_exp(a, shift=None):
    """``f(x) = log sum_i exp(a_i . x + s_i)``, max-shifted for stability.

    Strictly convex on the reduced space when the rows of ``a`` span it;
    use k >= a few times n rows for a well-conditioned reduced Hessian.
    """
    a = as_matrix(a, "a")
    k = a.shape[0]
    if k < 1:
        raise ValueError("a needs at least one row")
    s = np.zeros(k) if shift is None else as_vector(shift, "shift", k)
    return _composite(_LOG_SUM_EXP, a, s)


def neg_log_barrier_quadratic(q, c=None, barrier_a=None, barrier_b=None, mu=1.0):
    """Quadratic plus log-barrier: ``1/2 x^T Q x + c^T x - mu sum_i log(u_i - a_i . x)``.

    The value is ``+inf`` outside the open domain ``barrier_a x < barrier_b``,
    which makes backtracking reject infeasible trial points; gradient and
    Hessian require a strictly interior point.
    """
    q, c = quadratic_data(q, c)
    n = q.shape[0]
    if barrier_a is None or barrier_b is None:
        raise ValueError("neg_log_barrier_quadratic needs barrier_a and barrier_b")
    ba = as_matrix(barrier_a, "barrier_a")
    if ba.shape[1] != n:
        raise ValueError(f"barrier_a has {ba.shape[1]} columns, expected {n}")
    bb = as_vector(barrier_b, "barrier_b", ba.shape[0])
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("mu must be finite and positive")
    return _composite(_neg_log(mu), ba, -bb, (q, c, 0.0))


_REGISTRY = {
    "quadratic": quadratic,
    "sum_exp": sum_exp,
    "log_sum_exp": log_sum_exp,
    "neg_log_barrier_quadratic": neg_log_barrier_quadratic,
}


def objective_names():
    """Registered objective names, sorted."""
    return sorted(_REGISTRY)


def objective_registry(name, params=None):
    """Instantiate a registered objective by name.

    ``params`` is the keyword dictionary for the builder (arrays may be
    nested lists). Unknown names raise UnknownObjectiveError; bad
    parameter shapes raise ValueError.
    """
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownObjectiveError(
            f"unknown objective {name!r}; registered: {', '.join(objective_names())}"
        ) from None
    return builder(**(params or {}))
