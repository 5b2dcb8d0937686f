"""Feasible-set parameterizations for linear equality constraints.

The paper's two constrained expressions are each a
:class:`ConstrainedExpression` ``x = x0 + B g``: every free vector ``g``
gives a point with ``A x = b``, turning constrained problems into
unconstrained ones over ``g``:

* null-space form (:func:`build_nullspace`): ``B = N``, an orthonormal
  basis of ker(A), with the minimum-norm particular solution ``x0``;
  ``g`` has the intrinsic dimension ``n - rank(A)``.
* projector form (:func:`build_projector`): ``B = D = I - H (A H)^{-1} A``
  and ``x0 = H (A H)^{-1} b`` with ``H = A^T``; ``g`` lives in the full
  space and ``D`` projects it orthogonally onto ker(A).

:func:`build_nullspace` is the one path from ``A x = b`` to an
expression: it reads ``x0 = Q_1 y`` and ``N = Q_2`` off one
:class:`~eqopt.linalg.ConstraintFactorization` (a rank-revealing QR of
the row-equilibrated ``A^T``, kept in Householder form), and
:func:`build_projector` swaps ``N`` for ``D = N N^T``. Neither factorizes
``A H``, and both accept redundant rows.

Each input is checked once, where it enters, and then cannot change:
:class:`EqualityConstraints` checks A and b on construction and holds
read-only copies of them, the factorization takes that checked set and
checks nothing again, and a :class:`ConstrainedExpression` holds its
``x0`` and ``B`` read-only. Both types are frozen dataclasses. One
:func:`~eqopt.linalg.as_vector` check guards the length of every ``g``
and ``x`` they take from outside.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .linalg import EPS, ConstraintFactorization, as_matrix, as_vector, frozen_copy
from .linalg import overflow_checked


@dataclass(frozen=True)
class EqualityConstraints:
    """Linear equality constraints ``A x = b`` with A of shape (m, n).

    A and b are checked once, here, and held as read-only copies, so
    neither the caller's later writes nor a write through ``a`` or ``b``
    can change a checked set.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", frozen_copy(as_matrix(self.a, "A")))
        object.__setattr__(self, "b", frozen_copy(as_vector(self.b, "b", self.m)))

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]

    @overflow_checked
    def residual(self, x):
        """Feasibility defect ``||A x - b||_inf`` at x; raises
        ComputationError where ``A x - b`` overflows float range, as it can
        at a finite x."""
        x = as_vector(x, "x", self.n)
        defect = np.max(np.abs(self.a @ x - self.b), initial=0.0)
        if not np.isfinite(defect):
            raise ComputationError(f"A x - b overflows float range at x (it is {defect})")
        return float(defect)


@dataclass(frozen=True)
class ConstrainedExpression:
    """Parameterization ``x(g) = x0 + B g`` of the feasible set.

    ``basis`` is the projector ``D`` (g of length n) or the null-space
    basis ``N`` (g of length n - rank). :func:`build_nullspace` and
    :func:`build_projector` hand it both arrays new, out of the
    factorization, so it takes them over as they are and marks them
    read-only rather than copying them.
    """

    x0: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        self.x0.flags.writeable = self.basis.flags.writeable = False

    @property
    def free_dim(self):
        return self.basis.shape[1]

    def embed(self, g):
        """The point ``x0 + B g``; it satisfies ``A x = b`` for every g."""
        return self.x0 + self.basis @ as_vector(g, "g", self.free_dim)


def build_nullspace(constraints, eps=EPS):
    """Build the null-space expression ``x = x0 + N g`` of ``A x = b``.

    One :class:`~eqopt.linalg.ConstraintFactorization` (``eps`` is its
    rank and consistency tolerance) gives the minimum-norm solution ``x0``
    and the orthonormal basis ``N`` of ker(A). Redundant rows are dropped,
    so A need not have full row rank. At rank 0, ``N = I`` and ``x0 = 0``;
    at rank n, ``N`` has no columns.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    """
    f = ConstraintFactorization(constraints, eps)
    return ConstrainedExpression(x0=f.x0, basis=f.null_basis)


def build_projector(constraints):
    """Build the projector-form expression ``x = x0 + D g`` of ``A x = b``.

    ``H = A^T``: the null-space expression with ``D = N N^T``, the
    orthogonal projector onto ker(A), in place of ``N``; ``x0`` is the
    minimum-norm solution. ``N N^T`` runs as one ``syrk``, so ``D`` is
    exactly symmetric. Nothing forms ``(A H)^{-1}``, and the rank-revealing QR
    already decided the rank, so redundant rows need no care. At rank 0,
    ``D = I``; at rank n, ``D = 0``.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    """
    null = build_nullspace(constraints)
    return ConstrainedExpression(x0=null.x0, basis=null.basis @ null.basis.T)
