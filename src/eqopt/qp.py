"""Closed-form solvers for equality-constrained quadratic programs.

Three independent routes to a stationary point of
``1/2 x^T Q x + c^T x`` on ``{x : A x = b}``:

* :func:`solve_projector` — projector-form reduction with ``H = A^T``
  (``D = N N^T``); its n-by-n stationary system has rank
  ``k = n - rank(A)`` and is solved exactly through the k-by-k system of
  the null-space form, never formed;
* :func:`solve_nullspace` — null-space reduction to a k-by-k solve with
  one Cholesky factorization, or one Bunch-Kaufman factorization when the
  reduced Hessian is indefinite (:func:`~eqopt.linalg.solve_reduced`);
* :func:`solve_kkt` — the saddle-point (KKT) system, kept strict and
  unreduced so it can serve as an independent verification oracle; one
  Bunch-Kaufman factorization (LAPACK ``dsytrf`` at the block size
  ``linalg._SYTRF_BLOCK``), run in place on the lower triangle it
  assembles (the ``A^T`` block above it is never written), gives both its
  inertia, read off the diagonal of the block-diagonal factor with each
  2x2 block replaced by its two eigenvalues, and, through ``dsytrs``, its
  solution. When Q and the rows of A are far out of
  scale, it first balances the system by powers of two, a congruence
  that keeps the inertia and rounds no entry, so units alone never make
  it refuse. It refuses a solution whose two residuals, stationarity and
  feasibility, are large at the scale of the balanced system; nothing
  reads the saddle matrix after the factorization.

The two elimination routes share one body (:func:`_solve_eliminated`):
it builds the null-space expression ``x = x0 + N g`` with
:func:`~eqopt.expressions.build_nullspace`, the one place ``A x = b`` is
factored (one rank-revealing QR of the row-equilibrated ``A^T``; the
expression also carries the rank and the kept and dropped rows), and
the routes differ only in the basis ``B`` (``D = N N^T`` or ``N``) whose
stationarity residual they report. Both pull the quadratic back
through ``N`` and solve the one k-by-k system ``N^T Q N y = N^T (Q x0 + c)``
(Nocedal & Wright, *Numerical Optimization*, §16.2), so they return the
same x and classification bit for bit. The reduced solve is one kernel,
:func:`~eqopt.linalg.solve_reduced`, with ``eps`` as the one cut: one
Cholesky, one Bunch-Kaufman or one ``eigh`` solve, chosen by LAPACK's
condition estimates, returns the solution with the inertia of the
reduced Hessian, which labels the point in one place (:func:`_label`).
No caller's array is overwritten. Every solution carries the
feasibility and stationarity residuals plus a classification of the
stationary point from reduced-Hessian inertia. This module calls LAPACK
only in the KKT oracle, which shares no kernel with the eliminations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError, OracleUnavailableError
from .expressions import EqualityConstraints, build_nullspace
from .linalg import _SYTRF_BLOCK, EPS, as_vector, frozen_copy, lapack, overflow_checked
from .linalg import pull_back_quadratic, quadratic_data, solve_reduced
from .objectives import _checked_quadratic


@dataclass(frozen=True, eq=False)
class QpProblem:
    """``min 1/2 x^T Q x + c^T x  s.t.  A x = b``.

    Q is symmetrized on construction (:func:`~eqopt.linalg.quadratic_data`):
    the quadratic form only senses ``(Q + Q^T) / 2``. Q and c are checked
    once, here, and each held as a read-only copy, as the constraints hold
    A and b.
    """

    q: np.ndarray
    c: np.ndarray
    constraints: EqualityConstraints

    def __post_init__(self):
        q, c = quadratic_data(self.q, self.c)
        object.__setattr__(self, "q", frozen_copy(q))
        object.__setattr__(self, "c", frozen_copy(c))
        if self.constraints.n != self.n:
            raise ValueError(f"A has {self.constraints.n} columns, expected {self.n}")

    @property
    def n(self):
        return self.q.shape[0]

    @property
    def oracle(self):
        """The objective as an :class:`~eqopt.nlp.ObjectiveOracle`, built
        from the checked Q and c, as :class:`~eqopt.problems.NlpProblem`
        builds its own from its objective's name and params; Newton on a
        QP runs on it."""
        return _checked_quadratic(self.q, self.c)

    @overflow_checked
    def objective_value(self, x):
        """``1/2 x^T Q x + c^T x``; raises ComputationError where it
        overflows float range, as it can at a finite x."""
        return self._objective_value(as_vector(x, "x", self.n))

    def _objective_value(self, x):
        """:meth:`objective_value` of an x already checked finite and of
        length n, such as a solver's own; the caller runs it under
        :func:`~eqopt.linalg.overflow_checked`."""
        value = float(0.5 * x @ self.q @ x + self.c @ x)
        if not math.isfinite(value):
            raise ComputationError(f"the objective overflows float range at x (it is {value})")
        return value


@dataclass(frozen=True, eq=False)
class Solution:
    """A stationary point with its certificates: the answer of every method.

    ``classification`` is one of ``"min"``, ``"max"``, ``"saddle"``,
    ``"non_unique"`` (flat directions exist) or ``"point"`` (the feasible
    set is a single point, also flagged by :attr:`degenerate`).
    ``constraint_residual`` is measured against the *original* system,
    ``stationarity_residual`` is the method's own first-order condition
    in the infinity norm. Both residuals and the multipliers must be
    finite: a solution whose reported numbers overflow float range raises
    ComputationError here, the one check of them for every route.
    ``trace`` is the :class:`~eqopt.nlp.NewtonTrace` of a ``newton`` or
    ``sqp`` run and None for the QP routes. The fields cannot be
    reassigned, and ``x`` and the multipliers are read-only.
    """

    x: np.ndarray
    objective: float
    method: str
    constraint_residual: float
    stationarity_residual: float
    classification: str
    lagrange_multipliers: np.ndarray | None = None
    trace: object = None  # NewtonTrace

    def __post_init__(self):
        residuals = (self.constraint_residual, self.stationarity_residual)
        lam = self.lagrange_multipliers
        finite = math.isfinite(residuals[0]) and math.isfinite(residuals[1])
        if not (finite and (lam is None or np.isfinite(lam).all())):
            raise ComputationError(f"residuals {residuals} or multipliers overflow float range")
        self.x.flags.writeable = False  # handed new by its method: marked, not copied
        if lam is not None:
            lam.flags.writeable = False

    @property
    def degenerate(self):
        """Whether the feasible set is a single point."""
        return self.classification == "point"


def _label(pos, neg, k):
    """Label a stationary point from the inertia of its k-by-k reduced
    Hessian: ``pos`` positive and ``neg`` negative eigenvalues, the rest
    zero. Any zero means flat directions, i.e. a non-unique stationary
    point."""
    if pos + neg < k:
        return "non_unique"
    if neg == 0:
        return "min"
    if pos == 0:
        return "max"
    return "saddle"


@overflow_checked
def _solve_eliminated(problem, method, eps):
    """Stationary point on the expression ``x = x0 + B g``: the body of both
    eliminations (``method`` is ``"projector"``, ``B = D``, or
    ``"nullspace"``, ``B = N``).

    The constraints go through :func:`~eqopt.expressions.build_nullspace`
    once, and both routes solve the same k-by-k system,
    ``k = n - rank(A)``: the quadratic is pulled back through ``N`` once
    with :func:`~eqopt.linalg.pull_back_quadratic`, the kernel the registry
    objectives pull back through too, ``N^T Q N y = N^T (Q x0 + c)`` is
    solved by :func:`~eqopt.linalg.solve_reduced` (``eps`` is its cut, and
    the factorization's tolerance), whose inertia :func:`_label` names, and
    ``x = x0 - N y``. For ``B = N`` that is
    ``g = y``; for ``B = D = N N^T``, ``g = N y`` is the minimum-norm
    solution of ``(D Q D) g = D (Q x0 + c)``, whose pseudo-inverse is
    ``N (N^T Q N)^+ N^T``. The stationarity
    residual is the expression's own, ``||B^T (Q x + c)||_inf``; only it
    forms ``D = N N^T``. When ``k = 0`` the feasible set is one point.
    Raises ComputationError when x overflows float range.
    """
    expr = build_nullspace(problem.constraints, eps)
    x0, null = expr.x0, expr.basis
    if null.shape[1] == 0:
        x = x0
        sol_class = "point"
    else:
        # an overflow here ends in a non-finite reduced system or x; both raise ComputationError
        aa, rhs, _ = pull_back_quadratic(problem.q, problem.c, x0, null)
        y, pos, neg = solve_reduced(aa, rhs, eps)
        sol_class = _label(pos, neg, null.shape[1])
        x = x0 - null @ y
        if not np.isfinite(x).all():
            raise ComputationError("the solution overflows float range (x is not finite)")
    grad = problem.q @ x + problem.c
    basis = null @ null.T if method == "projector" else null
    return Solution(
        x=x,
        objective=problem._objective_value(x),
        method=method,
        constraint_residual=problem.constraints._residual(x),
        stationarity_residual=float(np.abs(basis.T @ grad).max(initial=0.0)),
        classification=sol_class,
    )


def solve_projector(problem, eps=EPS):
    """Stationary point via the projector form.

    The constraints are factorized once (their redundant rows dropped) and
    the expression ``x = x0 + D g`` with ``H = A^T`` and ``D = N N^T`` is
    built. Its stationary system ``(D^T Q D) g = -(D^T Q x0 + D^T c)`` is
    never formed: ``D`` has rank ``k = n - rank(A)``, so
    ``(D Q D)^+ = N (N^T Q N)^+ N^T`` and the k-by-k system the null-space
    form solves gives its minimum-norm ``g`` (:func:`_solve_eliminated`).
    The reduced-Hessian eigenvalues it classifies by are those of
    ``D Q D`` without its ``rank(A)`` structural zeros.

    Raises
    ------
    InfeasibleConstraintsError
        If the constraints are contradictory.
    """
    return _solve_eliminated(problem, "projector", eps)


def solve_nullspace(problem, eps=EPS):
    """Stationary point via the null-space form.

    Solves ``(N^T Q N) g = -(N^T Q x0 + N^T c)`` by
    :func:`~eqopt.linalg.solve_reduced` (:func:`_solve_eliminated`).
    """
    return _solve_eliminated(problem, "nullspace", eps)


def _bunch_kaufman_eigs(ldu, ipiv):
    """Eigenvalues of the block-diagonal factor D of LAPACK's ``dsytrf``
    (lower storage), in no particular order.

    A 1x1 block is its diagonal entry, so the diagonal of ``ldu`` is read
    as it is and only the 2x2 blocks are replaced. Rows with ``ipiv < 0``
    come in consecutive pairs, one pair per 2x2 block ``[[a, c], [c, e]]``,
    with ``c`` below the diagonal; its eigenvalues go where ``a`` and ``e``
    were. Without 2x2 blocks (the generated SPD problems take none) that
    step is skipped, as its small numpy calls cost more than the rest.
    """
    eigs = ldu.diagonal().copy()
    pairs = np.flatnonzero(ipiv < 0)[::2]
    if pairs.size:
        a, c, e = eigs[pairs], ldu[pairs + 1, pairs], eigs[pairs + 1]
        t = a + e
        disc = np.sqrt(np.maximum(t * t - 4.0 * (a * e - c * c), 0.0))
        eigs[pairs], eigs[pairs + 1] = 0.5 * (t - disc), 0.5 * (t + disc)
    return eigs


# The KKT oracle factors its saddle matrix as given while max|Q| and the
# largest entry of every row of A lie in [2^-9, 2^8) (binary exponents within
# this bound) and no row's exponent exceeds max|Q|'s by more than the bound.
# So the generated problems (entries in [-1, 1], an SPD Q up to about n / 3
# for n < 750; in a seeded sweep of 640 of them, n 2-400, no row's exponent
# exceeded Q's) are factored unchanged. Q and a row are then at most 2^17
# apart; about 2^20 apart (the corners of a bound of 10), a few seeded
# well-posed problems were already refused.
#
# Rows that dominate Q are balanced, because there the Schur-complement
# pivots |A|^2 / |Q| lose accuracy first: on 40 seeded SPD 40:20 problems,
# the largest relative gap between the KKT and null-space x went from
# 1.3e-11 to 8.4e-15 at max|Q| = 2^-8.6 with rows 2^7.4, from 3.9e-13 to
# 5.0e-15 at 2^-4 with rows 2^5.5, and from 3.3e-13 to 5.0e-15 at 2^-8.9
# with rows 2^0, all inside the band of each block alone.
#
# Systems where Q dominates stay unbalanced, which is also faster. Scaling
# a Q that dominates the rows down to [1/2, 1) leaves the entries of A the
# largest in their columns, so dsytrf's pivot test takes 2x2 pivots where
# it took every 1x1 pivot in place. On 40 SPD 200:120 problems (one BLAS
# thread, Intel Xeon, 8 alternated passes), balancing all of them
# (_KKT_BAND = -1) took 1 to 15 2x2 pivots per problem (median 7) against
# none; the median dsytrf went from 1.00 to 1.39 ms and the median
# solve_kkt from 1.68 to 2.17 ms.
_KKT_BAND = 8


def _kkt_shifts(q_max, row_max, c, b):
    """Binary exponents ``(s, r)`` that balance the saddle system: Q and c
    are multiplied by ``2^s``, row i of (A, b) by ``2^r[i]``.

    With ``e`` the exponent of ``frexp`` (``x = f 2^e``, ``1/2 <= f < 1``;
    ``e = 0`` for x = 0), both are zero while ``|e| <= _KKT_BAND`` for
    ``q_max = max|Q|`` and for each ``row_max[i] = max_j |A[i, j]|``, and
    no row's ``e`` exceeds ``q_max``'s by more than ``_KKT_BAND``.
    Otherwise each is ``-e``, which brings that block into ``[1/2, 1)``,
    but at most ``1024 - e(max|c|)`` or ``1024 - e(|b[i]|)``, so that c and
    b stay finite.
    """
    e = np.frexp(np.append(row_max, q_max))[1]
    if (np.abs(e) <= _KKT_BAND).all() and e.max() - e[-1] <= _KKT_BAND:
        return 0, np.zeros(row_max.shape, dtype=e.dtype)
    room = 1024 - np.frexp(np.append(np.abs(b), np.abs(c).max(initial=0.0)))[1]
    shift = np.minimum(-e, room)
    return int(shift[-1]), shift[:-1]


@overflow_checked
def solve_kkt(problem):
    """Independent oracle: solve the saddle-point system directly.

    Assembles ``[[Q, A^T], [A, 0]] [x; lam] = [-c; b]`` and solves it
    densely with LAPACK's Bunch-Kaufman kernels: one ``dsytrf``
    factorization ``L D L^T`` and one ``dsytrs`` solve. Only the lower
    triangle that they read (the Q block, the A block below it and the
    trailing zero block) is written, in an uninitialized Fortran-ordered
    buffer that ``dsytrf`` factors in place; the ``A^T`` block above is
    left as allocated. ``dsytrf`` runs at the block size
    ``linalg._SYTRF_BLOCK`` = 32, not the 64 its workspace query returns,
    which is faster at these orders and takes the same pivots. The
    constraints are *not* reduced: a singular system (rank deficiency,
    singular reduced Hessian) raises :class:`OracleUnavailableError`
    instead of guessing. The classification comes from the inertia of the
    saddle matrix, that of the same ``D``, which exceeds that of the
    reduced Hessian by exactly (m, m): its eigenvalues are the diagonal of
    ``D``, each 2x2 block's two entries replaced by the block's
    eigenvalues (:func:`_bunch_kaufman_eigs`).

    **Units.** Its Schur-complement pivots are about ``|A|^2 / |Q|``, so
    when Q and the rows of A are far out of scale they fall below the
    inertia cut ``EPS (n + m) max|eig(D)|`` although the problem is well
    posed, and entries near the float maximum overflow ``D``. The system
    is therefore balanced first when a block's largest entry is far from 1
    (:func:`_kkt_shifts`): Q and c are multiplied by ``2^s`` and row i of
    (A, b) by ``2^r_i``, which solves for ``x`` and ``mu = 2^(s - r) lam``.
    The balanced matrix is ``2^s S K S`` with ``S = diag(I, 2^(r - s))``, a
    positive multiple of a congruence, so it has the inertia of K, and
    powers of two round no entry (short of underflow).

    A finite solution is accepted only when the residual of the balanced
    system, ``||K z - rhs||_inf``, is at most ``1e-8`` times
    ``max(1, max|K| max(1, ||z||_inf) + ||rhs||_inf)`` there, with
    ``max|K| = max(max|Q|, max|A|)``; otherwise the system is numerically
    singular and :class:`OracleUnavailableError` is raised. Its two blocks
    are ``2^s (Q x + c + A^T lam)`` and ``2^r (A x - b)``: scaled back by
    the same powers of two, they give the two residuals the solution
    reports, stationarity and feasibility. No step reads the saddle matrix
    again after it is factored.

    Returns the Lagrange multipliers alongside the point; the
    stationarity residual is ``||Q x + c + A^T lam||_inf``. Multipliers or
    residuals that overflow float range on their way back to the problem's
    units are refused by :class:`Solution` (ComputationError).
    """
    q, c = problem.q, problem.c
    a, b = problem.constraints.a, problem.constraints.b
    n, m = problem.n, problem.constraints.m
    q_max = np.abs(q).max()
    row_max = np.abs(a).max(axis=1, initial=0.0)
    s, r = _kkt_shifts(q_max, row_max, c, b)
    if s or r.any():
        q, c, q_max = np.ldexp(q, s), np.ldexp(c, s), np.ldexp(q_max, s)
        a, b, row_max = np.ldexp(a, r[:, None]), np.ldexp(b, r), np.ldexp(row_max, r)
    # dsytrf(lower=1) and dsytrs read the lower triangle only: Q, the A block
    # below it and the zero block, so the A^T block above stays unwritten.
    # Fortran order lets dsytrf factor this buffer in place, and Q, exactly
    # symmetric (also balanced), is copied through its F-ordered view q.T.
    kkt = np.empty((n + m, n + m), order="F")
    kkt[:n, :n] = q.T
    kkt[n:, :n] = a
    kkt[n:, n:] = 0.0
    rhs = np.concatenate([-c, b])

    # One Bunch-Kaufman factorization kkt = L D L^T (LAPACK dsytrf) gives
    # both the inertia and the solve. It is a congruence, so it preserves
    # inertia: zero eigenvalues of D mean the saddle matrix is singular at
    # tolerance, and the system is not solved at all.
    ldu, ipiv, _ = lapack.dsytrf(kkt, lower=1, lwork=(n + m) * _SYTRF_BLOCK, overwrite_a=1)
    eigs = _bunch_kaufman_eigs(ldu, ipiv)
    scale_e = float(np.abs(eigs).max(initial=0.0))
    cut = EPS * (n + m) * scale_e
    pos = int((eigs > cut).sum())
    neg = int((eigs < -cut).sum())
    if pos + neg < n + m:
        raise OracleUnavailableError(
            "the saddle-point system is singular at tolerance (rank-deficient "
            "constraints or a singular reduced Hessian); the direct oracle "
            "cannot certify this problem"
        )
    z, _ = lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    if not np.isfinite(z).all():
        raise OracleUnavailableError(
            "the saddle-point system is numerically singular (its solution is not finite)"
        )
    x, mu = z[:n], z[n:]
    # K z - rhs of the balanced system: (Q x + c + A^T mu, A x - b) in its units
    stationary = q @ x + c + a.T @ mu
    feasible = a @ x - b
    stationarity = float(np.abs(stationary).max())
    feasibility = float(np.abs(feasible).max(initial=0.0))
    resid = max(stationarity, feasibility)
    max_k = max(q_max, row_max.max(initial=0.0))  # max|K|
    scale = float(max_k * max(1.0, np.abs(z).max()) + np.abs(rhs).max(initial=0.0))
    if resid > 1e-8 * max(scale, 1.0):
        raise OracleUnavailableError(
            f"the saddle-point system is numerically singular "
            f"(residual {resid:.3e} at scale {scale:.3e})"
        )
    # back to the problem's units by the same powers of two (all 2^0 when not balanced)
    lam = np.ldexp(mu, r - s)
    stationarity = float(np.ldexp(stationarity, -s))
    feasibility = float(np.abs(np.ldexp(feasible, -r)).max(initial=0.0))

    pos -= m
    neg -= m
    free = n - m
    if free <= 0:
        sol_class = "point"
    elif neg == 0:
        sol_class = "min"
    elif pos == 0:
        sol_class = "max"
    else:
        sol_class = "saddle"

    return Solution(
        x=x,
        objective=problem._objective_value(x),
        method="kkt",
        constraint_residual=feasibility,
        stationarity_residual=stationarity,
        classification=sol_class,
        lagrange_multipliers=lam,
    )
