"""Feasible-set parameterizations for linear equality constraints.

Both forms are one :class:`ConstrainedExpression` ``x = x0 + B g``: every
free vector ``g`` gives a point with ``A x = b``, turning constrained
problems into unconstrained ones over ``g``:

* projector form: ``B = D = I - H (A H)^{-1} A`` and
  ``x0 = H (A H)^{-1} b``; ``g`` lives in the full space and ``D``
  projects it onto ker(A) along range(H) (:func:`build_projector`).
* null-space form: ``B = N``, an orthonormal basis of ker(A), with the
  minimum-norm particular solution ``x0``; ``g`` has the intrinsic
  dimension ``n - rank(A)``.

Both are read off one :class:`~eqopt.linalg.ConstraintFactorization`
(a pivoted QR of the row-equilibrated ``A^T``, kept in Householder form):
``x0 = Q_1 y``, ``N = Q_2`` (its ``null_basis``) and, for the default
``H = A^T``, ``D = I - Q_1 Q_1^T``. The projector forms only ``Q_1`` and
the null-space form only ``N``. Only another choice of ``H`` factorizes
``A H`` as well.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import InvalidHMatrixError
from .linalg import EPS, ConstraintFactorization, as_matrix, as_vector


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


def projector_from(factorization, h_choice="transpose_of_a"):
    """Projector-form expression on the independent rows of a factorization.

    ``h_choice`` is as in :func:`build_projector`, with ``m`` the rank. For
    ``H = A^T`` no further factorization is needed: ``x0 = Q_1 y`` is the
    minimum-norm solution and ``D = I - Q_1 Q_1^T`` is the orthogonal
    projector onto ker(A). Neither forms ``(A H)^{-1}``, and the rank was
    already decided by the pivoted QR, so no ``A H`` is checked. Any other
    H is checked through the singular values of ``A H`` and applied
    through its LU factorization.
    """
    f = factorization
    n, p = f.a.shape[1], f.rank
    if p == 0:
        return ConstrainedExpression(x0=np.zeros(n), basis=np.eye(n))
    if isinstance(h_choice, str) and h_choice == "transpose_of_a":
        q1 = f.range_basis
        return ConstrainedExpression(x0=f.x0, basis=np.eye(n) - q1 @ q1.T)
    if isinstance(h_choice, str):
        if h_choice != "identity_block":
            raise ValueError(
                f"unknown h_choice {h_choice!r}; use 'transpose_of_a', "
                f"'identity_block' or pass an (n, m) matrix"
            )
        h = np.zeros((n, p))
        h[:p, :p] = np.eye(p)
    else:
        h = as_matrix(h_choice, "H")
        if h.shape != (n, p):
            raise ValueError(f"H has shape {h.shape}, expected ({n}, {p})")

    a = f.a[f.selected]
    ah = a @ h
    sv = scipy.linalg.svdvals(ah)
    if sv[0] == 0.0 or sv[-1] <= EPS * p * sv[0]:
        raise InvalidHMatrixError(
            "the m-by-m matrix A H is singular at tolerance; choose an H whose "
            "range is complementary to ker(A) (H = A^T always works)"
        )
    lu = scipy.linalg.lu_factor(ah)
    x0 = h @ scipy.linalg.lu_solve(lu, f.b[f.selected])
    d = np.eye(n) - h @ scipy.linalg.lu_solve(lu, a)
    return ConstrainedExpression(x0=x0, basis=d)


def build_projector(constraints, h_choice="transpose_of_a"):
    """Build the projector-form expression for a full-row-rank system.

    Parameters
    ----------
    constraints : EqualityConstraints
        Must already have full row rank; the rows ``f.a[f.selected]``,
        ``f.b[f.selected]`` of a :class:`~eqopt.linalg.ConstraintFactorization`
        ``f`` are an equivalent system that has.
    h_choice : str or (n, m) array_like
        ``"transpose_of_a"`` uses H = A^T, which always makes A H
        nonsingular for full-row-rank A. ``"identity_block"`` uses
        H = [I; 0]. A custom matrix may be supplied directly. Choices
        that leave A H singular at tolerance are rejected.

    Raises
    ------
    InvalidHMatrixError
        If A H is singular at tolerance, which includes every H when A
        lacks full row rank.
    """
    f = ConstraintFactorization(constraints.a, constraints.b)
    if f.rank < constraints.m:
        raise InvalidHMatrixError(
            f"A has numerical row rank {f.rank} < {constraints.m}, so A H is "
            f"singular for every H; drop the redundant rows first"
        )
    return projector_from(f, h_choice)
