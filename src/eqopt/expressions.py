"""Feasible-set parameterizations for linear equality constraints.

Both forms are one :class:`ConstrainedExpression` ``x = x0 + B g``: every
free vector ``g`` gives a point with ``A x = b``, turning constrained
problems into unconstrained ones over ``g``:

* projector form: ``B = D = I - H (A H)^{-1} A`` and
  ``x0 = H (A H)^{-1} b`` with ``H = A^T``; ``g`` lives in the full space
  and ``D`` projects it orthogonally onto ker(A) (:func:`build_projector`).
* null-space form: ``B = N``, an orthonormal basis of ker(A), with the
  minimum-norm particular solution ``x0``; ``g`` has the intrinsic
  dimension ``n - rank(A)``.

Both are read off one :class:`~eqopt.linalg.ConstraintFactorization`
(a pivoted QR of the row-equilibrated ``A^T``, kept in Householder form):
``x0 = Q_1 y``, ``N = Q_2`` (its ``null_basis``) and ``D = N N^T``. Both
forms are built from ``N`` alone; neither factorizes ``A H``, and both
accept redundant rows.
"""

from dataclasses import dataclass

import numpy as np

from .linalg import ConstraintFactorization, as_matrix, as_vector


@dataclass
class EqualityConstraints:
    """Linear equality constraints ``A x = b`` with A of shape (m, n)."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.a = as_matrix(self.a, "A")
        self.b = as_vector(self.b, "b")
        if self.b.shape[0] != self.a.shape[0]:
            raise ValueError(
                f"b has length {self.b.shape[0]}, expected {self.a.shape[0]}"
            )

    @property
    def m(self):
        return self.a.shape[0]

    @property
    def n(self):
        return self.a.shape[1]

    def residual(self, x):
        """Feasibility defect ``||A x - b||_inf`` at x."""
        x = as_vector(x, "x")
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
        g = as_vector(g, "g")
        if g.shape[0] != self.free_dim:
            raise ValueError(f"g has length {g.shape[0]}, expected {self.free_dim}")
        return self.x0 + self.basis @ g


def projector_from(factorization):
    """Projector-form expression ``x = x0 + D g`` of a factorization.

    With ``H = A^T`` no further factorization is needed: ``x0 = Q_1 y`` is
    the minimum-norm solution and ``D = N N^T``, with ``N`` the orthonormal
    ``null_basis``, is the orthogonal projector onto ker(A). ``N N^T`` runs
    as one ``syrk``, so ``D`` is exactly symmetric. Neither forms
    ``(A H)^{-1}``, and the rank was already decided by the pivoted QR, so
    redundant rows need no care. At rank 0, ``N = I``, so ``D = I`` and
    ``x0 = 0``; at rank n, ``N`` has no columns and ``D = 0``.
    """
    null = factorization.null_basis
    return ConstrainedExpression(x0=factorization.x0, basis=null @ null.T)


def build_projector(constraints):
    """Build the projector-form expression ``x = x0 + D g`` of ``A x = b``.

    ``H = A^T``: ``D`` is the orthogonal projector onto ker(A) and ``x0`` the
    minimum-norm solution. Redundant rows are dropped by the factorization,
    so A need not have full row rank.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    """
    return projector_from(ConstraintFactorization(constraints.a, constraints.b))
