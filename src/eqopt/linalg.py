"""Dense linear-algebra kernels.

The constraint system ``A x = b`` is factorized once per solve: one
column-pivoted QR of the row-equilibrated ``A^T``
(:class:`ConstraintFactorization`, LAPACK ``dgeqp3``) yields the rank,
the redundant rows, the consistency check and the minimum-norm
particular solution. Q stays in Householder form; the orthonormal basis
``N`` of ker(A) is formed from the reflectors (``dormqr``) only when a
caller asks for it, so no n-by-n Q is built. Both QP eliminations and the
Newton paths work on its k columns, ``k = n - rank(A)``. Reduced
symmetric k-by-k systems are solved by one Cholesky factorization
(:func:`cholesky`, LAPACK ``dpotrf``/``dpotrs``) when they are positive
definite and otherwise with one ``eigh`` (:func:`symmetric_solve`), which
also gives their inertia. No solver computes an SVD. A quadratic
``1/2 x^T Q x + c^T x`` is validated once (:func:`quadratic_data`) and
restricted to ``x = x0 + B g`` by one kernel (:func:`pull_back_quadratic`)
that the QP eliminations and the registry objectives share.
"""

from functools import cached_property

import numpy as np
import scipy.linalg
import scipy.linalg.lapack

from .errors import ComputationError, InfeasibleConstraintsError

EPS = float(np.finfo(np.float64).eps)


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array or raise ValueError."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(v, name="vector"):
    """Coerce to a finite 1-D float64 array or raise ValueError."""
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def quadratic_data(q, c=None):
    """Validate ``(Q, c)`` (c defaults to zeros); returns ``(Q + Q^T) / 2``,
    the only part of Q a quadratic form senses, and c."""
    q = as_matrix(q, "Q")
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    q = 0.5 * q  # halved first, so finite entries near the float maximum stay finite
    q += q.T  # in place on the new array; numpy buffers the overlapping q.T
    n = q.shape[0]
    c = np.zeros(n) if c is None else as_vector(c, "c")
    if c.shape[0] != n:
        raise ValueError(f"c has length {c.shape[0]}, expected {n}")
    return q, c


def pull_back_quadratic(q, c, x0, basis):
    """``1/2 x^T Q x + c^T x`` at ``x = x0 + B g``, as data in g.

    Returns ``(B^T Q B, B^T (Q x0 + c), 1/2 x0^T Q x0 + c^T x0)``; the first
    is formed as ``(B^T Q) B`` and symmetrized like :func:`quadratic_data`
    does, so it is exactly symmetric.
    """
    qx0 = q @ x0
    qb = 0.5 * (basis.T @ q @ basis)
    qb += qb.T
    return qb, basis.T @ (qx0 + c), float(0.5 * x0 @ qx0 + c @ x0)


def cholesky(m, overwrite=False):
    """Upper Cholesky factor of the symmetric ``m`` (LAPACK ``dpotrf``; its
    strict lower triangle is garbage), or None if ``m`` is not positive
    definite. Raises ComputationError if LAPACK rejects an argument.

    With ``overwrite``, an F-contiguous ``m`` is factored in place (also
    when the factorization fails partway) and no copy is made; give it a
    buffer the caller owns. Any other ``m`` is copied first and left intact.
    """
    u, info = scipy.linalg.lapack.dpotrf(m, lower=0, clean=0, overwrite_a=int(overwrite))
    if info > 0:
        return None
    if info < 0:
        raise ComputationError(f"Cholesky factorization failed (dpotrf info={info})")
    return u


def cholesky_solve(u, rhs):
    """``m^-1 rhs`` from the upper factor ``u`` of :func:`cholesky` (``dpotrs``)."""
    x, info = scipy.linalg.lapack.dpotrs(u, rhs, lower=0)
    if info != 0:
        raise ComputationError(f"Cholesky solve failed (dpotrs info={info})")
    return x


class ConstraintFactorization:
    """One column-pivoted QR of the row-equilibrated ``A^T``.

    Row ``i`` of ``(A, b)`` is divided by ``max_j |A[i, j]|`` (an all-zero
    row is left as it is), so the units of a constraint decide neither its
    rank nor its consistency. With ``A_s`` the scaled matrix, the one
    factorization ``A_s^T P = Q R`` (LAPACK ``dgeqp3``) gives everything
    the elimination paths need:

    * ``rank`` p: the largest k with
      ``|R[k-1, k-1]| > eps * max(m, n) * |R[0, 0]|``;
    * ``selected``, the rows ``P[:p]`` kept, and ``dropped``, the
      redundant rows ``P[p:]``; ``a[selected] x = b[selected]`` is an
      equivalent full-row-rank system;
    * ``x0 = Q [y; 0]`` with ``R_11^T y = b_s[selected]``: the minimum-norm
      solution, since it lies in the row space ``range(Q[:, :p])``;
    * consistency: with ``c = R_11^-1 R_12``, dropped row ``j`` is
      ``sum_k c[k, j] * (kept row k)``, so its residual ``r_j`` at ``x0``
      must be that combination of the kept rows' residuals:
      ``|r_j - (c^T r_kept)_j| <= eps * max(m, n) * (1 + s_j + (|c|^T s_kept)_j)``
      with ``s = |b_s| + |A_s| |x0|``, the rounding error of the residuals.
      The bound is per row, so no other row's ``b`` loosens it;
    * the orthonormal basis ``N = Q[:, p:]`` of ker(A), formed from the
      Householder reflectors the first time it is asked for.

    Q itself is never formed: it stays the product of the reflectors
    ``dgeqp3`` leaves below the diagonal of R, and ``x0`` and ``N`` are
    applications of it (``dormqr``).

    Attributes ``a`` and ``b`` hold the scaled system; residuals of a
    solution belong on the original one.

    Parameters
    ----------
    a : (m, n) array_like
    b : (m,) array_like
    eps : float, optional
        Relative tolerance for both the rank decision and the
        consistency check. Defaults to machine epsilon. Must satisfy
        ``0 < eps < 1``: at ``eps >= 1`` (or NaN) the rank cut would call
        every pivot negligible and drop every row.

    Raises
    ------
    InfeasibleConstraintsError
        If a dropped row is not satisfied at ``x0``.
    ComputationError
        If the QR factorization fails, or if the scaled ``b`` or ``x0``
        overflows float range.
    """

    def __init__(self, a, b, eps=None):
        a = as_matrix(a, "A")
        b = as_vector(b, "b")
        m, n = a.shape
        if b.shape[0] != m:
            raise ValueError(f"b has length {b.shape[0]}, expected {m}")
        if eps is None:
            eps = EPS
        elif not 0.0 < eps < 1.0:  # also rejects NaN
            raise ValueError(f"eps must satisfy 0 < eps < 1, got {eps!r}")
        scale = np.max(np.abs(a), axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        self.a = a / scale[:, None]
        self.b = b / scale
        if min(m, n) == 0:  # LAPACK rejects these shapes; there is nothing to factorize
            qr, piv, tau = np.zeros((n, m), order="F"), np.arange(m), np.zeros(0)
        else:
            # The wrapper's default lwork of 3(m + 1) would run the unblocked code.
            work, _ = scipy.linalg.lapack.dgeqp3(self.a.T, lwork=-1)[3:]
            qr, jpvt, tau, _, info = scipy.linalg.lapack.dgeqp3(self.a.T, lwork=int(work[0]))
            if info != 0:
                raise ComputationError(f"pivoted QR factorization failed (dgeqp3 info={info})")
            piv = jpvt - 1
        self._qr = qr[:, : tau.size]  # Householder vectors, with R above them
        self._tau = tau
        e = np.abs(np.diag(qr))  # non-increasing: the QR pivots on column norms
        kept = np.nonzero(e > eps * max(m, n) * e[0])[0] if e.size else e
        p = int(kept[-1]) + 1 if kept.size else 0
        self.rank = p
        self.selected = piv[:p]
        self.dropped = piv[p:]
        r11 = qr[:p, :p]  # solve_triangular reads only its upper triangle
        z = np.zeros((n, 1))
        # the scaled b and x0 may overflow even though a and b are finite
        z[:p, 0] = scipy.linalg.solve_triangular(
            r11, self.b[self.selected], trans="T", check_finite=False
        )
        self.x0 = self._apply_q(z, p)[:, 0]
        if not (np.isfinite(self.b).all() and np.isfinite(self.x0).all()):
            raise ComputationError(
                "the row-scaled b or the minimum-norm solution of A x = b overflows float range"
            )
        if p < m:
            self._check_consistency(scipy.linalg.solve_triangular(r11, qr[:p, p:]), eps)

    def _apply_q(self, c, reflectors):
        """``H_1 ... H_k c`` for the first ``k = reflectors`` Householder reflectors.

        Columns ``j < k`` of Q depend on the first k reflectors only, so
        ``k = p`` suffices for anything in the row space.
        """
        if reflectors == 0:  # dormqr rejects an empty set of reflectors
            return c
        v, tau = self._qr[:, :reflectors], self._tau[:reflectors]
        if c.shape[1] == 1:  # lwork=1 runs the unblocked code, faster for one column
            lwork = 1
        else:
            work, _ = scipy.linalg.lapack.dormqr("L", "N", v, tau, c, lwork=-1)[1:]
            lwork = int(work[0])
        out, _, info = scipy.linalg.lapack.dormqr(
            "L", "N", v, tau, c, lwork=lwork, overwrite_c=1
        )
        if info != 0:
            raise ComputationError(f"applying the QR reflectors failed (dormqr info={info})")
        return out

    def _check_consistency(self, c, eps):
        """Raise InfeasibleConstraintsError if a dropped row fails at ``x0``.

        ``c = R_11^-1 R_12`` writes each dropped row as a combination of
        the kept ones, so a consistent system leaves it the same
        combination of their residuals. An error in ``c`` then multiplies
        only those residuals, never a large ``b``, and each row is judged
        by the rounding error of its own residual.
        """
        m, n = self.a.shape
        resid = self.a @ self.x0 - self.b
        size = np.abs(self.b) + np.abs(self.a) @ np.abs(self.x0)
        leftover = np.abs(resid[self.dropped] - c.T @ resid[self.selected])
        bound = eps * max(m, n) * (1.0 + size[self.dropped] + np.abs(c).T @ size[self.selected])
        worst = int(np.argmax(leftover / bound))
        if leftover[worst] > bound[worst]:
            raise InfeasibleConstraintsError(
                f"constraints are inconsistent: redundant row {int(self.dropped[worst])} "
                f"leaves residual {leftover[worst]:.6e} (tolerance {bound[worst]:.6e})"
            )

    @cached_property
    def null_basis(self):
        """``N``: orthonormal basis of ker(A), shape (n, n - p)."""
        n, p = self.a.shape[1], self.rank
        return self._apply_q(np.eye(n, n - p, -p, order="F"), self._tau.size)


def symmetric_solve(m, rhs, tol=None):
    """Minimum-norm solution of a symmetric system, and its eigenvalues.

    One ``eigh`` gives both: eigenvalues ``w[i]`` with
    ``|w[i]| <= tol * k * max|w|`` are treated as zero (``|w|`` are the
    singular values, so this is the usual relative cutoff of a
    pseudo-inverse), and ``w`` carries the inertia of ``m``.

    Parameters
    ----------
    m : (k, k) ndarray
        Symmetric matrix; only its lower triangle is read.
    rhs : (k,) ndarray
    tol : float, optional
        Relative cutoff. Defaults to machine epsilon.

    Returns
    -------
    x : (k,) ndarray
        ``m^+ rhs``.
    w : (k,) ndarray
        Eigenvalues of ``m`` in ascending order.

    Raises
    ------
    ComputationError
        If the eigendecomposition fails to converge.
    """
    if tol is None:
        tol = EPS
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(
            f"eigendecomposition did not converge for a {m.shape[0]}x{m.shape[0]} matrix"
        ) from exc
    inv = np.zeros_like(w)
    keep = np.abs(w) > tol * w.shape[0] * float(np.max(np.abs(w), initial=0.0))
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ (v.T @ rhs), w
