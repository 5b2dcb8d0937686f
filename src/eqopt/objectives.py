"""Registry of smooth convex test objectives with analytic derivatives.

Each builder returns an :class:`~eqopt.nlp.ObjectiveOracle`; the string
registry exists so problem files and the CLI can name objectives.

Every objective here is one composite
``f(x) = phi(C x + s) + 1/2 x^T Q x + c^T x + const`` with a separable
``phi`` on ``z = C x + s``, and one body (:func:`_composite`) writes its
value, gradient ``C^T phi'(z) + Q x + c``, Hessian, pull-back and
``derivatives``, which forms z, ``phi'(z)`` and ``C^T phi'(z)`` once for a
Newton step's gradient and Hessian:

* :func:`quadratic` has no rows in C;
* :func:`log_sum_exp` and :func:`sum_exp` have no quadratic part;
  ``sum_exp``'s full-space oracle is separable and written out in its
  builder (C = diag(r) is never stored), with the default
  ``derivatives``; its pull-back is a :func:`_composite`;
* :func:`neg_log_barrier_quadratic` is ``phi(z) = -mu sum_i log(-z_i)`` on
  ``z = barrier_a x - barrier_b`` plus its quadratic.

phi is ``(value, slope, weight, rank_one)``: ``slope(z)`` is
``phi'(z)`` and ``hess phi(z) = diag(w^2) - p p^T`` with
``w = weight(z, phi'(z))``; ``rank_one`` says whether the ``p p^T`` term
is there, and only log-sum-exp sets it, because its ``p`` is the slope
``phi'(z)`` itself, the softmax. With ``W = diag(w) C`` the Hessian is
formed in one place, ``derivatives``, as
``W^T W - (C^T phi'(z))(C^T phi'(z))^T + Q``, exactly symmetric, from
the gradient's own ``C^T phi'(z)``; the oracle's ``hessian`` is that
body's second half. phi's reductions are array methods (``z.max()``,
``w.sum()``), and the rank-one term a broadcast product: the same ufunc
loops as ``np.max``, ``np.sum`` and ``np.outer`` without their
Python-level dispatch. Restricted to
``x = x0 + N g``, f is the same composite on ``C N``, ``C x0 + s`` and the
quadratic pulled back by :func:`~eqopt.linalg.pull_back_quadratic`.
:func:`~eqopt.nlp.reduce_problem` computes that data once per solve, and
the reduced value, gradient and Hessian then cost O(r k) and O(r k^2) for
r rows of C and k free variables.
"""

import math

import numpy as np

from .errors import ComputationError, UnknownObjectiveError
from .linalg import as_matrix, as_vector, is_integer, is_real, pull_back_quadratic, quadratic_data
from .nlp import ObjectiveOracle


def _composite(phi, cmat, s, quad=None):
    """The oracle of ``f(x) = phi(C x + s) + 1/2 x^T Q x + c^T x + const``.

    ``phi = (value, slope, weight, rank_one)`` acts on ``z = C x + s``:
    ``slope(z)`` is ``phi'(z)``, and ``weight(z, dz)``, given that slope
    ``dz``, is the ``w`` of ``hess phi(z) = diag(w^2) - p p^T``, where the
    rank-one term, present when ``rank_one`` is true, has ``p = dz``.
    ``quad`` is ``(Q, c, const)`` with Q symmetric, or None for no quadratic
    part. ``derivatives`` is the one body that forms the Hessian: it forms
    z, ``phi'(z)`` and ``C^T phi'(z)`` once for both the gradient and the
    Hessian's rank-one term, and ``hessian(x)`` is ``derivatives(x)[1]``.
    The pull-back through ``x = x0 + B g`` is this body again; it raises
    ComputationError when the quadratic part at x0, its constant, overflows
    float range.
    """
    phi_value, slope, weight, rank_one = phi

    def value(x):
        v = phi_value(cmat @ x + s)
        if quad is None:
            return v
        q, c, const = quad
        return float(0.5 * x @ q @ x + c @ x + const + v)

    def gradient(x):
        cdz = cmat.T @ slope(cmat @ x + s)
        return cdz if quad is None else quad[0] @ x + quad[1] + cdz

    def derivatives(x):
        z = cmat @ x + s
        dz = slope(z)
        cdz = cmat.T @ dz  # C^T phi'(z)
        wc = weight(z, dz)[:, None] * cmat
        h = wc.T @ wc
        if rank_one:
            h -= cdz[:, None] * cdz
        if quad is None:
            return cdz, h
        q, c, _ = quad
        h += q
        return q @ x + c + cdz, h

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
        hessian=lambda x: derivatives(x)[1],
        pullback=pullback,
        derivatives=derivatives,
    )


_SUM_EXP = (lambda z: float(np.exp(z).sum()), np.exp, lambda z, dz: np.exp(0.5 * z), False)


def _log_sum_exp_value(z):
    zmax = float(z.max())
    return float(np.log(np.exp(z - zmax).sum()) + zmax)


def _softmax(z):
    w = np.exp(z - float(z.max()))
    return w / w.sum()


# hess phi(z) = diag(p) - p p^T with p the slope, softmax(z)
_LOG_SUM_EXP = (_log_sum_exp_value, _softmax, lambda z, p: np.sqrt(p), True)


def _neg_log(mu):
    """``phi(z) = -mu sum_i log(-z_i)``. Unless every ``z_i < 0`` its value is
    ``+inf`` and its slope raises ValueError; the weight, given the slope,
    does not check z again."""

    def inside(z):
        if z.max(initial=-np.inf) >= 0.0:
            raise ValueError("derivatives requested outside the barrier domain")
        return z

    def value(z):
        if z.max(initial=-np.inf) >= 0.0:
            return np.inf
        return -mu * float(np.log(-z).sum())

    root_mu = math.sqrt(mu)
    return value, lambda z: -mu / inside(z), lambda z, dz: root_mu / -z, False


def _checked_quadratic(q, c):
    """:func:`quadratic` of a Q and c already checked, Q symmetric, as
    :func:`~eqopt.linalg.quadratic_data` returns them (and
    :class:`~eqopt.qp.QpProblem` holds them): nothing is checked or copied.
    Outside this module only :attr:`~eqopt.qp.QpProblem.oracle` calls it."""
    # C has no rows, so phi adds nothing
    return _composite(_SUM_EXP, np.zeros((0, q.shape[0])), np.zeros(0), (q, c, 0.0))


def quadratic(q, c=None):
    """``f(x) = 1/2 x^T Q x + c^T x`` (Q symmetrized).

    A float64 Q equal to its symmetric part is kept as given
    (:func:`~eqopt.linalg.quadratic_data`), not copied, so a later write
    to it reaches the objective.
    """
    return _checked_quadratic(*quadratic_data(q, c))


def sum_exp(dim=None, rates=None):
    """``f(x) = sum_i exp(r_i x_i)``; rates default to all ones.

    ``dim`` must be an integer (:func:`~eqopt.linalg.is_integer`): neither
    ``3.0`` nor a boolean, which would be read as 0 or 1.
    """
    if dim is not None and not is_integer(dim):
        raise ValueError(f"dim must be an integer, got {dim!r}")
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
    s = 0.0 if shift is None else as_vector(shift, "shift", k)  # C x + 0.0 rounds as C x + 0
    return _composite(_LOG_SUM_EXP, a, s)


def neg_log_barrier_quadratic(q, c=None, barrier_a=None, barrier_b=None, mu=1.0):
    """Quadratic plus log-barrier: ``1/2 x^T Q x + c^T x - mu sum_i log(u_i - a_i . x)``.

    The value is ``+inf`` outside the open domain ``barrier_a x < barrier_b``,
    which makes backtracking reject infeasible trial points; gradient and
    Hessian require a strictly interior point. A symmetric float64 Q is
    kept as given, as ``barrier_a`` is, so a later write to either
    reaches the objective.
    """
    q, c = quadratic_data(q, c)
    n = q.shape[0]
    if barrier_a is None or barrier_b is None:
        raise ValueError("neg_log_barrier_quadratic needs barrier_a and barrier_b")
    ba = as_matrix(barrier_a, "barrier_a")
    if ba.shape[1] != n:
        raise ValueError(f"barrier_a has {ba.shape[1]} columns, expected {n}")
    bb = as_vector(barrier_b, "barrier_b", ba.shape[0])
    if not (is_real(mu) and 0.0 < mu < math.inf):
        raise ValueError("mu must be finite and positive")
    return _composite(_neg_log(float(mu)), ba, -bb, (q, c, 0.0))


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
