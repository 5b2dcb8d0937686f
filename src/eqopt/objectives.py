"""Registry of smooth convex test objectives with analytic derivatives.

Each builder returns an :class:`~eqopt.nlp.ObjectiveOracle`; the string
registry exists so problem files and the CLI can name objectives.

Every objective here has the form ``phi(C x + s) + 1/2 x^T Q x + c^T x``,
so each supplies a ``pullback``: restricted to ``x = x0 + N g`` it is an
objective of the same form on the data ``C N``, ``C x0 + s``, ``N^T Q N``
and ``N^T (Q x0 + c)``. :func:`~eqopt.nlp.reduce_problem` computes that
data once per solve, and the reduced value, gradient and Hessian then
cost O(r k) and O(r k^2) for r rows of C and k free variables.
"""

import math

import numpy as np

from .errors import UnknownObjectiveError
from .linalg import as_matrix, as_vector
from .nlp import ObjectiveOracle


def _quadratic_data(q, c):
    """Validate ``(Q, c)``; returns the symmetrized Q and c (zeros if None)."""
    q = as_matrix(q, "q")
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"q must be square, got shape {q.shape}")
    q = 0.5 * (q + q.T)
    n = q.shape[0]
    c = np.zeros(n) if c is None else as_vector(c, "c")
    if c.shape[0] != n:
        raise ValueError(f"c has length {c.shape[0]}, expected {n}")
    return q, c


def _pull_back_quadratic(q, c, const, x0, basis):
    """``1/2 x^T Q x + c^T x + const`` at ``x = x0 + N g``, as data in g.

    Returns ``(N^T Q N, N^T (Q x0 + c), const + 1/2 x0^T Q x0 + c^T x0)``.
    """
    qx0 = q @ x0
    qn = basis.T @ (q @ basis)
    return (
        0.5 * (qn + qn.T),
        basis.T @ (qx0 + c),
        const + float(0.5 * x0 @ qx0 + c @ x0),
    )


def _quadratic(q, c, const):
    def pullback(x0, basis):
        return _quadratic(*_pull_back_quadratic(q, c, const, x0, basis))

    return ObjectiveOracle(
        dim=q.shape[0],
        value=lambda x: 0.5 * x @ q @ x + c @ x + const,
        gradient=lambda x: q @ x + c,
        hessian=lambda x: q.copy(),
        pullback=pullback,
    )


def quadratic(q, c=None):
    """``f(x) = 1/2 x^T Q x + c^T x`` (Q symmetrized)."""
    return _quadratic(*_quadratic_data(q, c), 0.0)


def _affine_sum_exp(a, s):
    """``g -> sum_i exp(a_i . g + s_i)``: :func:`sum_exp` after a pull-back."""

    def value(g):
        return float(np.sum(np.exp(a @ g + s)))

    def gradient(g):
        return a.T @ np.exp(a @ g + s)

    def hessian(g):
        w = np.exp(0.5 * (a @ g + s))[:, None] * a
        return w.T @ w  # a^T diag(e) a

    def pullback(x0, basis):
        return _affine_sum_exp(a @ basis, a @ x0 + s)

    return ObjectiveOracle(
        dim=a.shape[1], value=value, gradient=gradient, hessian=hessian, pullback=pullback
    )


def sum_exp(dim=None, rates=None):
    """``f(x) = sum_i exp(r_i x_i)``; rates default to all ones."""
    if rates is not None:
        r = as_vector(rates, "rates")
        if dim is not None and int(dim) != r.shape[0]:
            raise ValueError(f"dim={dim} but rates has length {r.shape[0]}")
    elif dim is not None:
        r = np.ones(int(dim))
    else:
        raise ValueError("sum_exp needs dim or rates")

    def value(x):
        return float(np.sum(np.exp(r * x)))

    def gradient(x):
        return r * np.exp(r * x)

    def hessian(x):
        return np.diag(r * r * np.exp(r * x))

    def pullback(x0, basis):
        return _affine_sum_exp(r[:, None] * basis, r * x0)

    return ObjectiveOracle(
        dim=r.shape[0], value=value, gradient=gradient, hessian=hessian, pullback=pullback
    )


def _log_sum_exp(a, s):
    def _weights(x):
        z = a @ x + s
        zmax = float(np.max(z))
        w = np.exp(z - zmax)
        return w, zmax

    def value(x):
        w, zmax = _weights(x)
        return float(np.log(np.sum(w)) + zmax)

    def gradient(x):
        w, _ = _weights(x)
        p = w / np.sum(w)
        return a.T @ p

    def hessian(x):
        w, _ = _weights(x)
        p = w / np.sum(w)
        grad = a.T @ p
        ap = np.sqrt(p)[:, None] * a
        return ap.T @ ap - np.outer(grad, grad)  # a^T diag(p) a - grad grad^T

    def pullback(x0, basis):
        return _log_sum_exp(a @ basis, a @ x0 + s)

    return ObjectiveOracle(
        dim=a.shape[1], value=value, gradient=gradient, hessian=hessian, pullback=pullback
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
    s = np.zeros(k) if shift is None else as_vector(shift, "shift")
    if s.shape[0] != k:
        raise ValueError(f"shift has length {s.shape[0]}, expected {k}")
    return _log_sum_exp(a, s)


def _barrier(q, c, const, ba, bb, mu):
    def _slack(x):
        return bb - ba @ x

    def value(x):
        s = _slack(x)
        if np.min(s, initial=np.inf) <= 0.0:
            return np.inf
        return float(0.5 * x @ q @ x + c @ x + const - mu * np.sum(np.log(s)))

    def gradient(x):
        s = _slack(x)
        if np.min(s, initial=np.inf) <= 0.0:
            raise ValueError("gradient requested outside the barrier domain")
        return q @ x + c + mu * (ba.T @ (1.0 / s))

    def hessian(x):
        s = _slack(x)
        if np.min(s, initial=np.inf) <= 0.0:
            raise ValueError("hessian requested outside the barrier domain")
        w = (1.0 / s)[:, None] * ba
        return q + mu * (w.T @ w)  # Q + mu a^T diag(1/s^2) a

    def pullback(x0, basis):
        q_g, c_g, const_g = _pull_back_quadratic(q, c, const, x0, basis)
        return _barrier(q_g, c_g, const_g, ba @ basis, bb - ba @ x0, mu)

    return ObjectiveOracle(
        dim=q.shape[0], value=value, gradient=gradient, hessian=hessian, pullback=pullback
    )


def neg_log_barrier_quadratic(q, c=None, barrier_a=None, barrier_b=None, mu=1.0):
    """Quadratic plus log-barrier: ``1/2 x^T Q x + c^T x - mu sum_i log(u_i - a_i . x)``.

    The value is ``+inf`` outside the open domain ``barrier_a x < barrier_b``,
    which makes backtracking reject infeasible trial points; gradient and
    Hessian require a strictly interior point.
    """
    q, c = _quadratic_data(q, c)
    n = q.shape[0]
    if barrier_a is None or barrier_b is None:
        raise ValueError("neg_log_barrier_quadratic needs barrier_a and barrier_b")
    ba = as_matrix(barrier_a, "barrier_a")
    bb = as_vector(barrier_b, "barrier_b")
    if ba.shape[1] != n:
        raise ValueError(f"barrier_a has {ba.shape[1]} columns, expected {n}")
    if bb.shape[0] != ba.shape[0]:
        raise ValueError(
            f"barrier_b has length {bb.shape[0]}, expected {ba.shape[0]}"
        )
    mu = float(mu)
    if not (math.isfinite(mu) and mu > 0.0):
        raise ValueError("mu must be finite and positive")
    return _barrier(q, c, 0.0, ba, bb, mu)


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
