"""Closed-form solvers for equality-constrained quadratic programs.

Three independent routes to a stationary point of
``1/2 x^T Q x + c^T x`` on ``{x : A x = b}``:

* :func:`solve_projector` — projector-form reduction with ``H = A^T``
  (``D = N N^T``); its n-by-n stationary system has rank
  ``k = n - rank(A)`` and is solved exactly through the k-by-k system of
  the null-space form, never formed;
* :func:`solve_nullspace` — null-space reduction to a k-by-k solve with
  one Cholesky factorization;
* :func:`solve_kkt` — the saddle-point (KKT) system, kept strict and
  unreduced so it can serve as an independent verification oracle; one
  Bunch-Kaufman factorization (LAPACK ``dsytrf``), run in place on the
  lower triangle it assembles, gives both its inertia and, through
  ``dsytrs``, its solution. It refuses a solution whose two reported
  residuals, stationarity and feasibility, are large at the scale of
  the system; nothing reads the saddle matrix after the factorization.

The two elimination routes factorize the constraints once, with one
pivoted QR of the row-equilibrated ``A^T``
(:class:`~eqopt.linalg.ConstraintFactorization`), build one
:class:`~eqopt.expressions.ConstrainedExpression` ``x = x0 + B g``
(``B = D`` or ``N``) from it and share one body
(:func:`_solve_eliminated`) that differs only in that expression, which
sets the reported stationarity residual. Both pull the quadratic back
through ``N`` and solve the one k-by-k system ``N^T Q N y = N^T (Q x0 + c)``
(Nocedal & Wright, *Numerical Optimization*, §16.2), so they return the
same x and classification bit for bit. The reduced solve is decided by
one rule (:func:`_solve_reduced`), with ``eps`` as the one cut: a
reduced-Hessian eigenvalue below it is neither inverted nor counted as
curved. The Cholesky solve certifies a minimum when LAPACK's condition
estimate clears a margin above that cut; an indefinite, singular or
ill-conditioned reduced system is solved with one ``eigh`` instead, which
yields the minimum-norm stationary point and its classification. The
Cholesky factorization runs in place on a matrix the reduced solve
allocates itself, so no caller's array is overwritten. Every solution
carries the feasibility and stationarity residuals plus a classification
of the stationary point from reduced-Hessian inertia.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import ComputationError, OracleUnavailableError
from .expressions import ConstrainedExpression, EqualityConstraints, projector_from
from .linalg import EPS, ConstraintFactorization, as_vector, cholesky, cholesky_solve
from .linalg import pull_back_quadratic, quadratic_data, symmetric_solve


@dataclass
class QpProblem:
    """``min 1/2 x^T Q x + c^T x  s.t.  A x = b``.

    Q is symmetrized on construction (:func:`~eqopt.linalg.quadratic_data`):
    the quadratic form only senses ``(Q + Q^T) / 2``.
    """

    q: np.ndarray
    c: np.ndarray
    constraints: EqualityConstraints

    def __post_init__(self):
        self.q, self.c = quadratic_data(self.q, self.c)
        if self.constraints.n != self.n:
            raise ValueError(f"A has {self.constraints.n} columns, expected {self.n}")

    @property
    def n(self):
        return self.q.shape[0]

    def objective_value(self, x):
        x = as_vector(x, "x")
        return float(0.5 * x @ self.q @ x + self.c @ x)


@dataclass
class QpSolution:
    """A stationary point with its certificates.

    ``classification`` is one of ``"min"``, ``"max"``, ``"saddle"``,
    ``"non_unique"`` (flat directions exist) or ``"point"`` (the feasible
    set is a single point, also flagged by :attr:`degenerate`).
    ``constraint_residual`` is measured against the *original* system,
    ``stationarity_residual`` is the method's own first-order condition
    in the infinity norm.
    """

    x: np.ndarray
    objective: float
    method: str
    constraint_residual: float
    stationarity_residual: float
    classification: str
    lagrange_multipliers: np.ndarray | None = None

    @property
    def degenerate(self):
        """Whether the feasible set is a single point."""
        return self.classification == "point"


def _classify(eigs, tol):
    """Label a stationary point from the eigenvalues of ``N^T Q N``.

    An eigenvalue with ``|w| <= tol * k * max|w|`` counts as zero: the cut
    :func:`~eqopt.linalg.symmetric_solve` uses to decide which eigenvalues
    it inverts. Any zero means flat directions, i.e. a non-unique
    stationary point.
    """
    k = eigs.shape[0]
    scale = float(np.max(np.abs(eigs), initial=0.0))
    if scale == 0.0:
        return "non_unique"  # reduced Hessian vanishes: every direction is flat
    cut = tol * k * scale
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    if pos + neg < k:
        return "non_unique"
    if neg == 0:
        return "min"
    if pos == 0:
        return "max"
    return "saddle"


def _solve_reduced(aa, rhs, tol=None):
    """Solve the k-by-k reduced system ``aa y = rhs`` and classify the point.

    ``aa = N^T Q N`` is symmetric. ``tol`` (machine epsilon by default)
    sets one cut, ``tol k max|eig|``, below which an eigenvalue is neither
    inverted nor counted as curved. Cholesky first: its solve is accepted,
    and the point called a minimum, only when LAPACK's ``dpocon`` estimate
    of ``rcond_1(aa)`` exceeds ``10 k^2 tol``: as ``kappa_2 <= k kappa_1``,
    every eigenvalue of ``aa`` then clears that cut with a factor of 10 to
    spare. Otherwise one ``eigh`` gives the minimum-norm solution
    (eigenvalues below the cut dropped) and the classification.

    ``dpotrf`` factors a copy of ``aa`` that this function owns, in place
    through its F-ordered view (the copy is symmetric), after its 1-norm
    is taken. ``aa`` is left intact, so the ``eigh`` fallback sees it even
    after a Cholesky factorization that failed partway.

    Returns
    -------
    y : (k,) ndarray
    classification : str
    """
    k = aa.shape[0]
    if tol is None:
        tol = EPS
    m = aa.copy()  # dpotrf overwrites m, and eigh below must see aa intact
    norm_1 = np.linalg.norm(m, 1)
    u = cholesky(m.T, overwrite=True)  # m is symmetric: m.T is its F-ordered view
    if u is not None:  # else not positive definite
        rcond, info = scipy.linalg.lapack.dpocon(u, norm_1)
        if info == 0 and rcond > 10.0 * k * k * tol:
            return cholesky_solve(u, rhs), "min"
    y, eigs = symmetric_solve(aa, rhs, tol)
    return y, _classify(eigs, tol)


def _solve_eliminated(problem, factorization, expr, method, eps=None):
    """Stationary point on the expression ``x = x0 + B g``: the body of both
    eliminations.

    Both solve the same k-by-k system, ``k = n - rank(A)``: the quadratic
    is pulled back through ``N`` once with
    :func:`~eqopt.linalg.pull_back_quadratic`, the kernel the registry
    objectives pull back through too, ``N^T Q N y = N^T (Q x0 + c)`` is
    solved by :func:`_solve_reduced` (``eps`` is its cut) and
    ``x = x0 - N y``. For ``B = N`` that is ``g = y``; for ``B = D = N N^T``,
    ``g = N y`` is the minimum-norm solution of ``(D Q D) g = D (Q x0 + c)``,
    whose pseudo-inverse is ``N (N^T Q N)^+ N^T``. The stationarity
    residual is the expression's own, ``||B^T (Q x + c)||_inf``. When
    ``k = 0`` the feasible set is one point. Raises ComputationError when
    x overflows float range.
    """
    x0, null = expr.x0, factorization.null_basis
    if null.shape[1] == 0:
        x = x0
        sol_class = "point"
    else:
        aa, rhs, _ = pull_back_quadratic(problem.q, problem.c, x0, null)
        y, sol_class = _solve_reduced(aa, rhs, tol=eps)
        x = x0 - null @ y
        if not np.isfinite(x).all():
            raise ComputationError("the solution overflows float range (x is not finite)")
    grad = problem.q @ x + problem.c
    return QpSolution(
        x=x,
        objective=problem.objective_value(x),
        method=method,
        constraint_residual=problem.constraints.residual(x),
        stationarity_residual=float(np.max(np.abs(expr.basis.T @ grad), initial=0.0)),
        classification=sol_class,
    )


def solve_projector(problem, eps=None):
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
    cons = problem.constraints
    factorization = ConstraintFactorization(cons.a, cons.b, eps)
    return _solve_eliminated(problem, factorization, projector_from(factorization),
                             "projector", eps)


def solve_nullspace(problem, eps=None):
    """Stationary point via the null-space form.

    Solves ``(N^T Q N) g = -(N^T Q x0 + N^T c)`` by :func:`_solve_reduced`:
    a Cholesky factorization, certifying a minimizer when it succeeds
    and its condition estimate clears the margin, and an
    eigendecomposition for indefinite, singular or ill-conditioned
    reduced Hessians, where zero modes are dropped pseudo-inverse style.
    """
    cons = problem.constraints
    f = ConstraintFactorization(cons.a, cons.b, eps)
    expr = ConstrainedExpression(x0=f.x0, basis=f.null_basis)
    return _solve_eliminated(problem, f, expr, "nullspace", eps)


def _bunch_kaufman_eigs(ldu, ipiv):
    """Eigenvalues of the block-diagonal factor D of LAPACK's ``dsytrf``
    (lower storage). Rows with ``ipiv < 0`` come in consecutive pairs, one
    pair per 2x2 block; every other row is a 1x1 block."""
    pairs = np.flatnonzero(ipiv < 0)[::2]
    single = np.flatnonzero(ipiv > 0)
    a, c, e = ldu[pairs, pairs], ldu[pairs + 1, pairs], ldu[pairs + 1, pairs + 1]
    t = a + e
    disc = np.sqrt(np.maximum(t * t - 4.0 * (a * e - c * c), 0.0))
    return np.concatenate([ldu[single, single], 0.5 * (t - disc), 0.5 * (t + disc)])


def solve_kkt(problem):
    """Independent oracle: solve the saddle-point system directly.

    Assembles ``[[Q, A^T], [A, 0]] [x; lam] = [-c; b]`` and solves it
    densely with LAPACK's Bunch-Kaufman kernels: one ``dsytrf``
    factorization ``L D L^T`` and one ``dsytrs`` solve. Only the lower
    triangle that ``dsytrf`` reads (the Q and A blocks) is filled, in a
    Fortran-ordered buffer that it factors in place. The constraints
    are *not* reduced: a singular system (rank deficiency, singular
    reduced Hessian) raises :class:`OracleUnavailableError` instead of
    guessing. The classification comes from the inertia of the saddle
    matrix, read off the 1x1/2x2 blocks of the same ``D``, which exceeds
    that of the reduced Hessian by exactly (m, m).

    A finite solution is accepted only when ``||K z - rhs||_inf``, which
    is ``max(||Q x + c + A^T lam||_inf, ||A x - b||_inf)``, the two
    residuals the solution reports, is at most ``1e-8`` times
    ``max(1, max|K| max(1, ||z||_inf) + ||rhs||_inf)``, with
    ``max|K| = max(max|Q|, max|A|)``; otherwise the system is numerically
    singular and :class:`OracleUnavailableError` is raised. No step
    reads the saddle matrix again after it is factored.

    Returns the Lagrange multipliers alongside the point; the
    stationarity residual is ``||Q x + c + A^T lam||_inf``.
    """
    q, c = problem.q, problem.c
    a, b = problem.constraints.a, problem.constraints.b
    n, m = problem.n, problem.constraints.m
    # dsytrf(lower=1) reads the lower triangle only: Q and the A block below
    # it. Fortran order lets it factor this buffer in place.
    kkt = np.zeros((n + m, n + m), order="F")
    kkt[:n, :n] = q
    kkt[n:, :n] = a
    rhs = np.concatenate([-c, b])

    # One Bunch-Kaufman factorization kkt = L D L^T (LAPACK dsytrf) gives
    # both the inertia and the solve. It is a congruence, so it preserves
    # inertia: zero eigenvalues of D mean the saddle matrix is singular at
    # tolerance, and the system is not solved at all.
    lwork, _ = scipy.linalg.lapack.dsytrf_lwork(n + m, lower=1)
    ldu, ipiv, _ = scipy.linalg.lapack.dsytrf(kkt, lower=1, lwork=int(lwork), overwrite_a=1)
    eigs = _bunch_kaufman_eigs(ldu, ipiv)
    scale_e = float(np.max(np.abs(eigs), initial=0.0))
    cut = EPS * (n + m) * scale_e
    pos = int(np.sum(eigs > cut))
    neg = int(np.sum(eigs < -cut))
    if pos + neg < n + m:
        raise OracleUnavailableError(
            "the saddle-point system is singular at tolerance (rank-deficient "
            "constraints or a singular reduced Hessian); the direct oracle "
            "cannot certify this problem"
        )
    z, _ = scipy.linalg.lapack.dsytrs(ldu, ipiv, rhs, lower=1)
    if not np.all(np.isfinite(z)):
        raise OracleUnavailableError(
            "the saddle-point system is numerically singular (its solution is not finite)"
        )
    x, lam = z[:n], z[n:]
    # K z - rhs is (Q x + c + A^T lam, A x - b): the two residuals reported.
    stationarity = float(np.max(np.abs(q @ x + c + a.T @ lam), initial=0.0))
    feasibility = problem.constraints.residual(x)
    resid = max(stationarity, feasibility)
    max_k = max(np.max(np.abs(q)), np.max(np.abs(a), initial=0.0))  # max|K|
    scale = float(max_k * max(1.0, np.max(np.abs(z))) + np.max(np.abs(rhs), initial=0.0))
    if resid > 1e-8 * max(scale, 1.0):
        raise OracleUnavailableError(
            f"the saddle-point system is numerically singular "
            f"(residual {resid:.3e} at scale {scale:.3e})"
        )

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

    return QpSolution(
        x=x,
        objective=problem.objective_value(x),
        method="kkt",
        constraint_residual=feasibility,
        stationarity_residual=stationarity,
        classification=sol_class,
        lagrange_multipliers=lam,
    )
