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

:func:`build_nullspace` is the one place ``A x = b`` is factored: one
rank-revealing QR of the row-equilibrated ``A^T``, kept in Householder
form, gives the rank, the kept and the dropped rows, the consistency
check, ``x0 = Q_1 y`` and ``N = Q_2``, and the expression carries them
all. :func:`build_projector` swaps ``N`` for ``D = N N^T`` and keeps the
rest. Neither factorizes ``A H``, and both accept redundant rows. The QR
kernels they use are array kernels in :mod:`eqopt.linalg`, which knows
no type of this module.

Each input is checked once, where it enters, and then cannot change:
:class:`EqualityConstraints` checks A and b on construction and holds
read-only copies of them, the builders take that checked set and check
nothing again, and a :class:`ConstrainedExpression` holds its ``x0``,
``B``, ``selected`` and ``dropped`` read-only. Both types are frozen
dataclasses. One :func:`~eqopt.linalg.as_vector` check guards the length
of every ``g`` and ``x`` they take from outside.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ComputationError, InfeasibleConstraintsError
from .linalg import EPS, _apply_q, _full_rank_qr, _pivoted_qr, _upper_solve
from .linalg import as_matrix, as_vector, frozen_copy, is_real, overflow_checked


@dataclass(frozen=True, eq=False)
class EqualityConstraints:
    """Linear equality constraints ``A x = b`` with A of shape (m, n).

    A and b are checked once, here, and held as read-only copies, so
    neither the caller's later writes nor a write through ``a`` or ``b``
    can change a checked set. A set is equal only to itself, and hashes
    by identity, as every frozen type holding arrays does.
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
        return self._residual(as_vector(x, "x", self.n))

    def _residual(self, x):
        """:meth:`residual` of an x already checked finite and of length n,
        such as a solver's own; the caller runs it under
        :func:`~eqopt.linalg.overflow_checked`."""
        defect = float(np.abs(self.a @ x - self.b).max(initial=0.0))
        if not math.isfinite(defect):
            raise ComputationError(f"A x - b overflows float range at x (it is {defect})")
        return defect


@dataclass(frozen=True, eq=False)
class ConstrainedExpression:
    """Parameterization ``x(g) = x0 + B g`` of the feasible set of ``A x = b``.

    ``basis`` is the projector ``D`` (g of length n) or the null-space
    basis ``N`` (g of length n - rank). ``selected`` holds the indices of
    the rows of A kept, ``rank = len(selected)`` of them, and ``dropped``
    those of the redundant rows, each a combination of the kept ones with
    a consistent ``b``; ``A[selected] x = b[selected]`` is an equivalent
    full-row-rank system. Only :func:`build_nullspace` and
    :func:`build_projector` build one. They hand it its arrays new, out of the factorization, so it
    takes them over as they are and marks them read-only rather than
    copying them.
    """

    x0: np.ndarray
    basis: np.ndarray
    selected: np.ndarray
    dropped: np.ndarray

    def __post_init__(self):
        for array in (self.x0, self.basis, self.selected, self.dropped):
            array.flags.writeable = False

    @property
    def rank(self):
        return len(self.selected)

    @property
    def free_dim(self):
        return self.basis.shape[1]

    def embed(self, g):
        """The point ``x0 + B g``; it satisfies ``A x = b`` for every g."""
        return self.x0 + self.basis @ as_vector(g, "g", self.free_dim)


@overflow_checked
def build_nullspace(constraints, eps=EPS):
    """Build the null-space expression ``x = x0 + N g`` of ``A x = b``.

    This is the one place ``A x = b`` is factored. Row ``i`` of ``(A, b)``
    is divided by ``max_j |A[i, j]|`` (an all-zero row is left as it is),
    so the units of a constraint decide neither its rank nor its
    consistency. With ``A_s`` the scaled matrix, one QR ``A_s^T P = Q R``
    (:func:`~eqopt.linalg._pivoted_qr`, or, from n = 150 unknowns on, the
    unpivoted :func:`~eqopt.linalg._full_rank_qr` with ``P = I`` when it
    finds A of full row rank) gives every part of the expression:

    * the rank p: the largest k with
      ``|R[k-1, k-1]| > eps * max(m, n) * |R[0, 0]|``;
    * ``selected``, the rows ``P[:p]`` kept, and ``dropped``, the
      redundant rows ``P[p:]``;
    * ``x0 = Q [y; 0]`` with ``R_11^T y = b_s[selected]``: the minimum-norm
      solution, since it lies in the row space ``range(Q[:, :p])``;
    * the orthonormal basis ``N = Q[:, p:]`` of ker(A);
    * consistency (:func:`_check_consistency`).

    Q itself is never formed: ``[x0, N] = Q [y, 0; 0, I]`` is one
    application of all its reflectors (:func:`~eqopt.linalg._apply_q`).
    The reflectors past p meet only the zeros below ``y`` and leave that
    column as it is, so ``x0 = Q[:, :p] y``. Redundant rows are dropped,
    so A need not have full row rank. At rank 0, ``N = I`` and ``x0 = 0``;
    at rank n, ``N`` has no columns. ``constraints`` was checked when it
    was built; nothing here checks A or b again.

    ``eps`` is the relative tolerance of both the rank decision and the
    consistency check. It must be a real number (not a bool or a string)
    with ``0 < eps < 1``: at ``eps >= 1`` (or NaN) the rank cut would call
    every pivot negligible and drop every row.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    ComputationError
        If the QR factorization fails, or if the scaled ``b`` or ``x0``
        overflows float range.
    """
    m, n = constraints.m, constraints.n
    if not (is_real(eps) and 0.0 < eps < 1.0):  # also rejects NaN
        raise ValueError(f"eps must satisfy 0 < eps < 1, got {eps!r}")
    scale = np.abs(constraints.a).max(axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    a, b = constraints.a / scale[:, None], constraints.b / scale
    found = _full_rank_qr(a, eps)
    if found is not None:
        (qr, t), tau, piv, p = found, None, np.arange(m), m
    else:
        (qr, piv, tau), t = _pivoted_qr(a.T), None
        e = np.abs(qr.diagonal())  # non-increasing: the QR pivots on column norms
        kept = (e > eps * max(m, n) * e[0]).nonzero()[0] if e.size else e
        p = int(kept[-1]) + 1 if kept.size else 0
    r11 = qr[:p, :p]
    # Q [y, 0; 0, I] in one application of the reflectors: x0 and N
    out = np.eye(n, n - p + 1, 1 - p, order="F")
    out[:p, :1] = _upper_solve(r11, b[piv[:p], None], trans=1)
    out = _apply_q(qr[:, : min(m, n)], t, tau, out)
    x0 = out[:, 0]
    # the scaled b and x0 may overflow even though a and b are finite
    if not (np.isfinite(b).all() and np.isfinite(x0).all()):
        raise ComputationError(
            "the row-scaled b or the minimum-norm solution of A x = b overflows float range"
        )
    if p < m:
        _check_consistency(a, b, x0, piv, p, _upper_solve(r11, qr[:p, p:]), eps)
    return ConstrainedExpression(x0, out[:, 1:], piv[:p], piv[p:])


def _check_consistency(a, b, x0, piv, p, c, eps):
    """Raise InfeasibleConstraintsError if a dropped row of the scaled
    system ``(a, b)``, one of ``piv[p:]``, fails at ``x0``.

    ``c = R_11^-1 R_12`` writes each dropped row as a combination of the
    kept ones ``piv[:p]``, so a consistent system leaves its residual
    ``r_j`` the same combination of theirs: it must satisfy
    ``|r_j - (c^T r_kept)_j| <= eps * max(m, n) * (1 + s_j + (|c|^T s_kept)_j)``
    with ``s = |b| + |a| |x0|``, the rounding error of the residuals. An
    error in ``c`` then multiplies only those residuals, never a large
    ``b``, and each row is judged by the rounding error of its own
    residual, so no other row's ``b`` loosens its bound.
    """
    selected, dropped = piv[:p], piv[p:]
    resid = a @ x0 - b
    size = np.abs(b) + np.abs(a) @ np.abs(x0)
    leftover = np.abs(resid[dropped] - c.T @ resid[selected])
    bound = eps * max(a.shape) * (1.0 + size[dropped] + np.abs(c).T @ size[selected])
    worst = int((leftover / bound).argmax())
    if leftover[worst] > bound[worst]:
        raise InfeasibleConstraintsError(
            f"constraints are inconsistent: redundant row {int(dropped[worst])} "
            f"leaves residual {leftover[worst]:.6e} (tolerance {bound[worst]:.6e})"
        )


def build_projector(constraints):
    """Build the projector-form expression ``x = x0 + D g`` of ``A x = b``.

    ``H = A^T``: the null-space expression with ``D = N N^T``, the
    orthogonal projector onto ker(A), in place of ``N``; ``x0``, the rank
    and the kept and dropped rows are the null-space expression's. ``N N^T``
    runs as one ``syrk``, so ``D`` is exactly symmetric. Nothing forms
    ``(A H)^{-1}``, and the rank-revealing QR already decided the rank, so
    redundant rows need no care. At rank 0, ``D = I``; at rank n, ``D = 0``.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    """
    null = build_nullspace(constraints)
    return replace(null, basis=null.basis @ null.basis.T)
