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
``A H``, and both accept redundant rows. One
:func:`~eqopt.linalg.as_vector` check guards the length of every ``g``
and ``x`` they take.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import EPS, ConstraintFactorization, as_matrix, as_vector


@dataclass
class EqualityConstraints:
    """Linear equality constraints ``A x = b`` with A of shape (m, n)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = as_matrix(self.a, "A")
        self.b = as_vector(self.b, "b", self.a.shape[0])

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]

    def residual(self, x):
        """Feasibility defect ``||A x - b||_inf`` at x."""
        x = as_vector(x, "x", self.n)
        if self.m == 0:
            return 0.0
        return float(np.max(np.abs(self.a @ x - self.b)))


@dataclass
class ConstrainedExpression:
    """Parameterization ``x(g) = x0 + B g`` of the feasible set.

    ``basis`` is the projector ``D`` (g of length n) or the null-space
    basis ``N`` (g of length n - rank).
    """

    x0: np.ndarray
    basis: np.ndarray

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
    f = ConstraintFactorization(constraints.a, constraints.b, eps)
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
