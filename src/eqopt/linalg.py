"""Dense linear-algebra kernels.

The constraint system ``A x = b`` is factorized once per solve: one
rank-revealing QR of the row-equilibrated ``A^T``
(:class:`ConstraintFactorization`) yields the rank, the redundant rows,
the consistency check and the minimum-norm particular solution. It is the
column-pivoted LAPACK ``dgeqp3``, except that from n = 150 unknowns on the
unpivoted recursive ``dgeqrt`` runs first and is kept when a ``dtrcon``
condition estimate says A has full row rank. A with a zero row or with
two rows equal up to sign goes straight to ``dgeqp3``; any other
rank-deficient A fails the estimate and falls back to ``dgeqp3``, the one
case in which A is factored twice. Q stays in
Householder form, and one application of its reflectors (``dormqr``, or
``dgemqrt`` after ``dgeqrt``) to one n-by-(k + 1) block gives both the
minimum-norm solution and the orthonormal basis ``N`` of ker(A), so no
n-by-n Q is built. Both QP eliminations and the
Newton paths work on its k columns, ``k = n - rank(A)``. Reduced
symmetric k-by-k systems are solved by one Cholesky factorization
(:func:`cholesky`, LAPACK ``dpotrf``/``dpotrs`` on the lower triangle, the
faster variant at these sizes) when they are positive definite, by one
Bunch-Kaufman factorization (:func:`bunch_kaufman_solve`, ``dsytrf``,
``dsycon`` and ``dsytrs``), which also counts their inertia, when they are
indefinite and well conditioned, and otherwise with one ``eigh``
(:func:`symmetric_solve`), which gives the minimum-norm solution. The last
two also return the inertia of the system, and each kernel factors a copy,
so its input is left intact. No solver computes an SVD. A quadratic
``1/2 x^T Q x + c^T x`` is validated once (:func:`quadratic_data`) and
restricted to ``x = x0 + B g`` by one kernel (:func:`pull_back_quadratic`)
that the QP eliminations and the registry objectives share.

:func:`as_matrix` and :func:`as_vector` check an array from outside, and
:func:`frozen_copy` gives the frozen input types
(:class:`~eqopt.expressions.EqualityConstraints`,
:class:`~eqopt.qp.QpProblem`, :class:`~eqopt.nlp.NewtonConfig`) the
read-only copy they hold, so a checked array neither changes with the
caller's nor takes a write. The checks do not copy: a registry objective
keeps the caller's arrays, as a copy would double the memory they hold.
:class:`ConstraintFactorization` takes an already checked
:class:`~eqopt.expressions.EqualityConstraints` and checks A and b no
more. Only buffers a routine allocated itself are passed to LAPACK to be
overwritten (``solve_kkt``'s saddle matrix, the right-hand sides of
``dormqr`` and ``dgemqrt``).

**Overflow.** A finite problem can still overflow float range on its way
to a solution. The rule is that such an overflow is refused by the check
on the value it reaches, with a :class:`~eqopt.errors.ComputationError`,
and that numpy does not warn first. It is stated once, as the decorator
:func:`overflow_checked` (overflow and invalid operations ignored), and
every call that solves runs under it: the constraint factorization, the
residual and the objective of a solution, both QP eliminations and the
KKT oracle, the Newton reduction, loop and constant estimates, and
:func:`pull_back_quadratic`, which also restricts the registry objectives.
So ``eqopt solve`` exits with its documented code also when numpy
warnings are errors. The state decides only whether numpy warns; it
never changes a value. Its boundary is those calls: the other kernels
here, and an :class:`~eqopt.nlp.ObjectiveOracle`'s callbacks, called
directly keep the caller's own numpy error state. Inside the Newton
calls above an oracle's callbacks run under it, so a custom oracle's own
overflow warnings are not shown there either.
"""

from functools import wraps

import numpy as np
import scipy.linalg.lapack

from .errors import ComputationError, InfeasibleConstraintsError

EPS = float(np.finfo(np.float64).eps)


def overflow_checked(func):
    """Run ``func`` under the one numpy error state of a solve: overflow and
    invalid operations ignored (the module docstring gives the rule).

    Each call enters a new error-state context and restores the caller's
    state on return, so decorated calls nest safely on every numpy version
    (one shared ``errstate`` object, as a decorator, does so only from
    numpy 2.0 on).
    """

    @wraps(func)
    def checked(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return func(*args, **kwargs)

    return checked


# A constraint set on at least this many unknowns, with _QRT_BLOCK <= m <= n
# rows, is factored without pivoting first (ConstraintFactorization). At one
# BLAS thread that built x0 and N on a full-rank A 15-32 % faster from
# n = 150 on (and, without the repeated-row screen, 3-29 % faster at
# n = 100-120 and from 5 % slower to 9 % faster at n = 80), while a
# rank-deficient A without repeated rows, factored twice, took 1.3-1.55
# times as long: the crossover tables in BENCH_17.json.
_QRT_MIN_COLS = 150
_QRT_BLOCK = 32  # dgeqrt's block size nb; it must not exceed m


def as_matrix(a, name="matrix"):
    """Coerce to a finite 2-D float64 array or raise ValueError."""
    out = np.asarray(a, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_vector(v, name="vector", length=None):
    """Coerce to a finite 1-D float64 array, of ``length`` entries when it
    is given, or raise ValueError."""
    out = np.asarray(v, dtype=np.float64)
    if out.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    if length is not None and out.shape[0] != length:
        raise ValueError(f"{name} has length {out.shape[0]}, expected {length}")
    return out


def frozen_copy(a):
    """A read-only copy of the checked array ``a``, for a frozen input type
    to hold: neither a later write to ``a`` nor one through the holder can
    change it."""
    out = a.copy()
    out.flags.writeable = False
    return out


def symmetric_part(m):
    """``(M + M^T) / 2`` of a square ``m``, exactly symmetric, in a new array.

    ``m`` is halved first, so finite entries near the float maximum stay
    finite; on normal floats this is bit for bit ``0.5 * (m + m.T)``.
    """
    out = 0.5 * m
    out += out.T  # in place on the new array; numpy buffers the overlapping out.T
    return out


def quadratic_data(q, c=None):
    """Validate ``(Q, c)`` (c defaults to zeros); returns ``(Q + Q^T) / 2``,
    the only part of Q a quadratic form senses, and c. The Q returned is
    the new array of :func:`symmetric_part`, marked read-only, not a copy."""
    q = as_matrix(q, "Q")
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    q = symmetric_part(q)
    q.flags.writeable = False
    n = q.shape[0]
    c = np.zeros(n) if c is None else as_vector(c, "c", n)
    return q, c


@overflow_checked
def pull_back_quadratic(q, c, x0, basis):
    """``1/2 x^T Q x + c^T x`` at ``x = x0 + B g``, as data in g.

    Returns ``(B^T Q B, B^T (Q x0 + c), 1/2 x0^T Q x0 + c^T x0)``; the first
    is formed as ``(B^T Q) B`` and made exactly symmetric by
    :func:`symmetric_part`. An entry that overflows comes back as ``inf``
    or NaN without a warning; the callers check what they solve with.
    """
    qx0 = q @ x0
    qb = symmetric_part(basis.T @ q @ basis)
    return qb, basis.T @ (qx0 + c), float(0.5 * x0 @ qx0 + c @ x0)


def cholesky(m):
    """Lower Cholesky factor of the symmetric ``m`` (LAPACK ``dpotrf``; only
    the lower triangle of ``m`` is read, and the strict upper triangle of the
    factor is garbage), or None if ``m`` is not positive definite. Raises
    ComputationError if LAPACK rejects an argument.

    ``dpotrf`` factors a copy that its wrapper makes, so ``m`` is left
    intact, also when the factorization fails partway.
    """
    low, info = scipy.linalg.lapack.dpotrf(m, lower=1, clean=0)
    if info > 0:
        return None
    if info < 0:
        raise ComputationError(f"Cholesky factorization failed (dpotrf info={info})")
    return low


def cholesky_solve(low, rhs):
    """``m^-1 rhs`` from the lower factor ``low`` of :func:`cholesky` (``dpotrs``)."""
    x, info = scipy.linalg.lapack.dpotrs(low, rhs, lower=1)
    if info != 0:
        raise ComputationError(f"Cholesky solve failed (dpotrs info={info})")
    return x


def _upper_solve(r, rhs, trans=0):
    """``R^-1 rhs`` (``R^-T rhs`` with ``trans=1``) from the upper triangle of
    the square ``r`` (LAPACK ``dtrtrs``). Raises ComputationError if LAPACK
    reports a zero pivot or a bad argument.

    ``R^T`` goes in as a lower triangle: for a strided ``r`` this is the
    order ``scipy.linalg.solve_triangular`` solves in, bit for bit, without
    its wrapper's overhead.
    """
    if r.shape[0] == 0:  # dtrtrs rejects an empty system
        return np.zeros(rhs.shape)
    x, info = scipy.linalg.lapack.dtrtrs(r.T, rhs, lower=1, trans=1 - trans)
    if info != 0:
        raise ComputationError(f"triangular solve failed (dtrtrs info={info})")
    return x


def _may_repeat_a_row(a, tol):
    """False only if the row-equilibrated ``a`` has no zero row and no two
    rows equal or opposite to within ``tol`` in every entry.

    Either makes A rank-deficient or nearly so. It is the redundancy a model
    most often carries (one constraint stated twice, perhaps in other
    units), and it is ruled out in O(mn) time: such rows have projections
    ``h`` on the fixed ``w = sin(1, ..., n)`` within ``tol * ||w||_1 <=
    tol * n`` of each other, or of 0, in absolute value. Other rows whose
    projections come that close by chance answer True as well, which only
    costs a full-rank A the unpivoted fast path.
    """
    n = a.shape[1]
    h = np.abs(a @ np.sin(np.arange(1.0, n + 1.0)))
    h.sort()
    return bool(h[0] <= tol * n or np.min(h[1:] - h[:-1]) <= tol * n)


def _full_rank_qr(a, eps):
    """Unpivoted QR of ``a^T`` for an m-by-n ``a`` estimated to have rank m.

    Returns ``(qr, t)`` from LAPACK's recursive compact-WY ``dgeqrt``: R on
    and above the diagonal of ``qr``, the Householder vectors below it, and
    the block reflector factors ``t`` that ``dgemqrt`` applies Q with.
    Returns None without factoring below the size crossover
    (``_QRT_MIN_COLS``, ``_QRT_BLOCK``) and when ``a`` may repeat a row
    (:func:`_may_repeat_a_row`), and returns None after factoring when
    ``dtrcon``'s 1-norm rcond estimate of R is at most
    ``cut = 10 * m * eps * max(m, n)``; :class:`ConstraintFactorization`
    says why a larger one means the pivoted rank rule keeps all m rows.
    """
    m, n = a.shape
    if n < _QRT_MIN_COLS or not _QRT_BLOCK <= m <= n:
        return None
    cut = 10.0 * m * eps * max(m, n)
    if _may_repeat_a_row(a, cut):
        return None
    qr, t, info = scipy.linalg.lapack.dgeqrt(_QRT_BLOCK, a.T)
    if info != 0:
        raise ComputationError(f"QR factorization failed (dgeqrt info={info})")
    # The wrapper reads an order-n triangle, n taken from the row count: pass R alone.
    rcond, info = scipy.linalg.lapack.dtrcon(qr[:m, :m])
    if info != 0:
        raise ComputationError(f"condition estimate failed (dtrcon info={info})")
    return (qr, t) if rcond > cut else None


def _apply_q(v, t, tau, c):
    """``Q c`` for the Q of a QR held as its Householder vectors ``v``, in
    place on the F-ordered ``c``: ``dgemqrt`` with the block factors ``t``
    of ``dgeqrt``, or, when ``t`` is None, ``dormqr`` with the scalar
    factors ``tau`` of ``dgeqp3``."""
    if v.shape[1] == 0:  # LAPACK rejects an empty set of reflectors
        return c
    if t is not None:
        routine = "dgemqrt"
        out, info = scipy.linalg.lapack.dgemqrt(v, t, c, overwrite_c=1)
    else:
        routine = "dormqr"
        work, _ = scipy.linalg.lapack.dormqr("L", "N", v, tau, c, lwork=-1)[1:]
        out, _, info = scipy.linalg.lapack.dormqr(
            "L", "N", v, tau, c, lwork=int(work[0]), overwrite_c=1
        )
    if info != 0:
        raise ComputationError(f"applying the QR reflectors failed ({routine} info={info})")
    return out


class ConstraintFactorization:
    """One rank-revealing QR of the row-equilibrated ``A^T``.

    Row ``i`` of ``(A, b)`` is divided by ``max_j |A[i, j]|`` (an all-zero
    row is left as it is), so the units of a constraint decide neither its
    rank nor its consistency. With ``A_s`` the scaled matrix, the one
    factorization ``A_s^T P = Q R`` (LAPACK's column-pivoted ``dgeqp3``, or
    the unpivoted fast path below) gives everything the elimination paths
    need:

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
    * the orthonormal basis ``N = Q[:, p:]`` of ker(A), attribute
      ``null_basis``.

    **Fast path for full-rank A.** ``dgeqp3`` updates its column norms with
    level-2 code (Golub & Van Loan, *Matrix Computations*, §5.4). From
    ``n = 150`` unknowns on, with ``32 <= m <= n``, the unpivoted recursive
    compact-WY QR ``dgeqrt`` (Elmroth & Gustavson, IBM J. Res. Dev. 44(4),
    2000) factors ``A_s^T`` first, ``P = I``. Its R is kept, with ``p = m``,
    when ``dtrcon``'s estimate of ``rcond_1(R)`` exceeds
    ``10 * m * eps * max(m, n)``. If the estimate is at most 10 times the
    true rcond, the pivoted rule would keep every row too: every diagonal
    entry of any QR of ``A_s^T`` has ``|R[k, k]| >= sigma_min``, the pivoted
    ``|R[0, 0]|`` (the largest column norm) is at most ``sigma_max``, and
    ``kappa_2 <= m * kappa_1``, so each of its ratios
    ``|R[k, k]| / |R[0, 0]| >= rcond_1 / m``. That factor is an assumption
    about the estimator, not a bound: ``dtrcon`` can underestimate
    ``||R^-1||_1`` by more (Higham, *Accuracy and Stability of Numerical
    Algorithms*, §15.3), and then a nearly dependent row is kept and its
    consistency goes unchecked. On the seeded sweeps in BENCH_17.json the
    two paths made the same decisions every time. No row is dropped, so
    there is nothing to check for consistency; ``N`` is another orthonormal
    basis of the same kernel.

    Tried on a rank-deficient A, the fast path wastes a ``dgeqrt``. A zero
    row, or two rows equal or opposite to within that same cut after
    equilibration, is ruled out in O(mn) time first; where it cannot be
    (rarely, also for a full-rank A), A goes straight to ``dgeqp3``. Any
    other rank-deficient or nearly rank-deficient A fails the estimate and
    ``dgeqp3`` factors ``A_s^T`` again: the one case in which A is factored
    twice.

    Q itself is never formed: it stays the product of the reflectors the QR
    leaves below the diagonal of R, and ``[x0, N] = Q [y, 0; 0, I]`` is one
    application of all of them (``dormqr``, or ``dgemqrt`` with the block
    factors ``dgeqrt`` returns). The reflectors past p meet only the zeros
    below ``y`` and leave that column as it is, so ``x0 = Q[:, :p] y``.

    Attributes ``a`` and ``b`` hold the scaled system; residuals of a
    solution belong on the original one.

    Parameters
    ----------
    constraints : EqualityConstraints
        ``A x = b``, checked once when it was built; nothing here checks
        A or b again.
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

    @overflow_checked
    def __init__(self, constraints, eps=EPS):
        a, b = constraints.a, constraints.b
        m, n = a.shape
        if not 0.0 < eps < 1.0:  # also rejects NaN
            raise ValueError(f"eps must satisfy 0 < eps < 1, got {eps!r}")
        scale = np.max(np.abs(a), axis=1, initial=0.0)
        scale[scale == 0.0] = 1.0
        self.a = a / scale[:, None]
        self.b = b / scale
        found = _full_rank_qr(self.a, eps)
        t = tau = None
        if found is not None:
            qr, t = found
            piv, p = np.arange(m), m
        else:
            if min(m, n) == 0:  # LAPACK rejects these shapes; there is nothing to factorize
                qr, piv = np.zeros((n, m), order="F"), np.arange(m)
            else:
                # The wrapper's default lwork of 3(m + 1) would run the unblocked code.
                work, _ = scipy.linalg.lapack.dgeqp3(self.a.T, lwork=-1)[3:]
                qr, jpvt, tau, _, info = scipy.linalg.lapack.dgeqp3(self.a.T, lwork=int(work[0]))
                if info != 0:
                    raise ComputationError(f"pivoted QR factorization failed (dgeqp3 info={info})")
                piv = jpvt - 1
            e = np.abs(np.diag(qr))  # non-increasing: the QR pivots on column norms
            kept = np.nonzero(e > eps * max(m, n) * e[0])[0] if e.size else e
            p = int(kept[-1]) + 1 if kept.size else 0
        self.rank = p
        self.selected = piv[:p]
        self.dropped = piv[p:]
        r11 = qr[:p, :p]
        # Q [y, 0; 0, I] in one application of the reflectors: x0 and N
        out = np.eye(n, n - p + 1, 1 - p, order="F")
        out[:p, :1] = _upper_solve(r11, self.b[self.selected, None], trans=1)
        out = _apply_q(qr[:, : min(m, n)], t, tau, out)
        self.x0, self.null_basis = out[:, 0], out[:, 1:]
        # the scaled b and x0 may overflow even though a and b are finite
        if not (np.isfinite(self.b).all() and np.isfinite(self.x0).all()):
            raise ComputationError(
                "the row-scaled b or the minimum-norm solution of A x = b overflows float range"
            )
        if p < m:
            self._check_consistency(_upper_solve(r11, qr[:p, p:]), eps)

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


def bunch_kaufman_solve(m, rhs, norm_1, min_rcond):
    """Solve the symmetric, possibly indefinite ``m y = rhs`` and count its
    inertia, or return None when ``m`` may be too close to singular.

    One Bunch-Kaufman factorization ``P m P^T = L D L^T`` (LAPACK ``dsytrf``
    on a copy of the lower triangle of ``m``, which is left intact) is
    accepted only when ``dsycon``'s estimate of ``rcond_1(m)``, from the
    given ``norm_1 = ||m||_1``, exceeds ``min_rcond``; ``dsytrs`` then gives
    ``y``. ``D`` is congruent to ``m``, so by Sylvester's law of inertia
    its eigenvalue signs are those of ``m``: each 1x1 pivot counts by its
    sign, and each 2x2 block (rows i, i + 1 with ``ipiv[i] = ipiv[i + 1] <
    0``) counts once positive and once negative. Every 2x2 block that
    ``dsytrf`` takes is indefinite: its pivot test, with ``alpha = (1 +
    sqrt(17)) / 8``, leaves ``|a e| < alpha^2 c^2`` for the block
    ``[[a, c], [c, e]]``, so ``det < -(1 - alpha^2) c^2 < 0`` (Bunch &
    Kaufman, *Math. Comp.* 31, 1977).

    Returns
    -------
    None, or ``(y, pos, neg)``: the solution and the numbers of positive
    and negative eigenvalues of ``m``.

    Raises
    ------
    ComputationError
        If LAPACK rejects an argument.
    """
    k = m.shape[0]
    lwork, _ = scipy.linalg.lapack.dsytrf_lwork(k, lower=1)
    # m is symmetric: m.T is its F-ordered view, which the wrapper copies as it is
    ldu, ipiv, info = scipy.linalg.lapack.dsytrf(m.T, lower=1, lwork=int(lwork))
    if info < 0:
        raise ComputationError(f"Bunch-Kaufman factorization failed (dsytrf info={info})")
    if info > 0:  # an exactly zero pivot: m is singular
        return None
    rcond, info = scipy.linalg.lapack.dsycon(ldu, ipiv, norm_1, lower=1)
    if info != 0 or not rcond > min_rcond:
        return None
    y, info = scipy.linalg.lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    if info != 0:
        raise ComputationError(f"Bunch-Kaufman solve failed (dsytrs info={info})")
    # Python numbers: at these sizes a loop beats a handful of numpy calls
    pos = neg = 0
    for d, p in zip(ldu.diagonal().tolist(), ipiv.tolist()):
        if p > 0:
            pos += d > 0
            neg += d < 0
    blocks = (k - pos - neg) // 2  # a 1x1 pivot is nonzero, else info > 0 above
    return y, pos + blocks, neg + blocks


def symmetric_solve(m, rhs, tol=EPS):
    """Minimum-norm solution of a symmetric system, and its inertia.

    One ``eigh`` gives both: eigenvalues ``w[i]`` with
    ``|w[i]| <= tol * k * max|w|`` are treated as zero (``|w|`` are the
    singular values, so this is the usual relative cutoff of a
    pseudo-inverse). The eigenvalues kept are inverted, and the same ones
    are counted by sign; this is the one place the cut is computed.

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
    pos, neg : int
        The numbers of positive and negative eigenvalues above the cut.

    Raises
    ------
    ComputationError
        If the eigendecomposition fails to converge, or an eigenvalue is not
        finite, which the cut cannot measure.
    """
    k = m.shape[0]
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigh did not converge for a {k}x{k} matrix") from exc
    scale = float(np.max(np.abs(w), initial=0.0))
    if not np.isfinite(scale):
        raise ComputationError(f"the eigenvalues of a {k}x{k} symmetric matrix are not finite")
    keep = np.abs(w) > tol * k * scale
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ (v.T @ rhs), int(np.sum(w[keep] > 0.0)), int(np.sum(w[keep] < 0.0))
