"""Reference computations shared by the test modules.

The finite-difference oracles are deliberately independent of the
library's own finite-difference fallback: central differences with a
per-coordinate relative step. :func:`full_saddle_solve` is the dense
saddle-point solve on the full matrix. :func:`short_of_memory` makes
large random draws fail as on a machine that cannot hold them.
"""

import math

import numpy as np
import scipy.linalg.lapack

from eqopt.nlp import ObjectiveOracle


def chain_rule_oracle(oracle):
    """The same callbacks without a pull-back, so ``restrict`` composes them."""
    return ObjectiveOracle(oracle.dim, oracle.value, oracle.gradient, oracle.hessian)


def fd_gradient(value, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1 + abs(x[i]))
        out[i] = (value(x + e) - value(x - e)) / (2 * e[i])
    return out


def fd_hessian(gradient, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h * (1 + abs(x[i]))
        out[:, i] = (gradient(x + e) - gradient(x - e)) / (2 * e[i])
    return 0.5 * (out + out.T)


def full_saddle_solve(problem):
    """Solve ``[[Q, A^T], [A, 0]] z = [-c; b]`` on the full C-ordered matrix.

    Both triangles are assembled and LAPACK's wrapper gets its own copy for
    ``dsytrf``/``dsytrs`` (lower storage), at the block size that
    ``dsytrf_lwork`` returns, not eqopt's own. Returns ``(x, lam, kkt, resid)``
    with ``resid = kkt @ z - rhs`` taken on the whole matrix.
    """
    q, c = problem.q, problem.c
    a, b = problem.constraints.a, problem.constraints.b
    n, m = q.shape[0], a.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = q
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    rhs = np.concatenate([-c, b])
    lwork, _ = scipy.linalg.lapack.dsytrf_lwork(n + m, lower=1)
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(kkt, lower=1, lwork=int(lwork))
    assert info == 0
    z, info = scipy.linalg.lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    assert info == 0
    return z[:n], z[n:], kkt, kkt @ z - rhs


class _ShortOfMemoryGenerator:
    """A numpy generator whose ``uniform`` refuses more than ``entries``
    entries with MemoryError, before allocating anything; every other draw
    is the real generator's."""

    def __init__(self, rng, entries):
        self._rng, self._entries = rng, entries

    def uniform(self, low, high, size):
        if math.prod(size) > self._entries:
            raise MemoryError(f"cannot allocate {math.prod(size)} float64 entries")
        return self._rng.uniform(low, high, size)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def short_of_memory(monkeypatch, entries=10**6):
    """Patch ``np.random.default_rng``, which :func:`eqopt.problems.generate`
    calls, to return generators whose ``uniform`` draws of more than
    ``entries`` entries raise MemoryError, so a size the machine cannot
    hold is tested without trying to allocate it."""
    real = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng", lambda *a: _ShortOfMemoryGenerator(real(*a), entries)
    )
