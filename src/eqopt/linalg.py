"""Dense linear-algebra kernels: array in, array out, no problem types.

Each decision of the two eliminations is made once, here, by one kernel.
:func:`_rank_revealing_qr` factors the transpose of a row-equilibrated
constraint matrix and decides its rank: from n = 150 unknowns on it tries
the unpivoted recursive ``dgeqrt`` first and keeps it when a ``dtrcon``
condition estimate says A has full row rank, and otherwise it takes the
column-pivoted ``dgeqp3`` and cuts its R. Q stays in Householder form;
:func:`_apply_q` applies all of its reflectors at once (``dormqr``, or
``dgemqrt`` after ``dgeqrt``), and :func:`_upper_solve` solves with R.
One function outside this module calls the QR kernels:
``eqopt.expressions.build_nullspace``, which checks consistency and reads
the constrained expression off them. :func:`solve_reduced` solves the
symmetric k-by-k reduced system and returns its inertia: by one Cholesky
factorization when it is positive definite, by one Bunch-Kaufman
factorization when it is indefinite, each only when its condition
estimate clears one guard, and otherwise by one ``eigh``, which gives the
minimum-norm solution. Each factorization works on a copy, so its input
is left intact. No solver computes an SVD. A quadratic
``1/2 x^T Q x + c^T x`` is validated once (:func:`quadratic_data`) and
restricted to ``x = x0 + B g`` by one kernel (:func:`pull_back_quadratic`)
that the QP eliminations and the registry objectives share.

**What a number is** is stated once, here, for every input: the library's
constructors and builders and a problem file alike. An array's entries
must be numbers (:func:`as_float_array`): a string, ``None``, a boolean
or a complex entry is refused with ValueError rather than read as a
number or cut to its real part. A scalar setting is a real number that
is not a bool and converts to a float64 (:func:`is_real`: an integer
beyond the float64 range does not), within the range its caller states, and
a count, a seed or a dimension is integral as well (:func:`is_integer`):
``2.0`` is not. A test fails if another module imports
:mod:`numbers`, calls ``np.asarray`` or tests for a bool itself.
:func:`as_matrix` and :func:`as_vector` check an array
from outside by this rule, and :func:`frozen_copy` gives the frozen
input types the read-only copy they hold, so a checked array neither
changes with the caller's nor takes a write. The checks do not copy a
float64 array: a registry objective keeps the caller's arrays, as a
copy would double the memory they hold (:func:`quadratic_data` returns
a Q equal to its symmetric part as given, not marked read-only), and
:class:`~eqopt.problems.NlpProblem` hands its builder the float64
arrays it converted, once, from its own read-only copies of the params.
The kernels check no argument again.
Only buffers a routine allocated itself are passed to LAPACK to be
overwritten (``solve_kkt``'s saddle matrix, the right-hand sides of
``dormqr`` and ``dgemqrt``).

**Block sizes.** Every block size and workspace is stated once, here,
and no workspace is queried (``lwork=-1``): ``_QRT_BLOCK`` for
``dgeqrt``, ``_SYTRF_BLOCK`` = 32 for both ``dsytrf`` calls
(:func:`solve_reduced` and the KKT oracle, which the self-check's
KKT-form Newton steps through), and ``_QR_WORK_BLOCK`` = nb = 32 for
the workspaces of ``dgeqp3``, ``2 m + (m + 1) nb`` for m columns, and
of ``dormqr``, ``ncols nb + 65 * 64`` for ncols right-hand columns (the
65 * 64 hold its block reflector); ``dgeqp3``'s wrapper defaults to
``3 (m + 1)``, which would run it unblocked. The two formulas are
LAPACK's own, at the block size ``ilaenv`` gives both routines, so they
are the sizes the queries return (1562 and 5152 at n:m = 60:45, 1052 and 6432 at 100:30);
a test checks that no query returns more, over a sweep of shapes.
``dsytrf``'s workspace query asks for block size 64, but its panel
routine ``dlasyf`` does level-2 work in proportion to the block size,
and at the orders eqopt factors 32 was the faster of the two, with the
same pivots (the sweep is quoted beside the constant). Up to order 64
``dsytrf`` runs unblocked at either size, so there its factors are bit
for bit those at the queried size.

**How LAPACK is reached.** Every routine eqopt calls (``dpotrf``,
``dpotrs``, ``dtrtrs``, ``dgeqrt``, ``dtrcon``, ``dgeqp3``, ``dgemqrt``,
``dormqr``, ``dsytrf``, ``dsycon``, ``dsytrs``,
``dpocon``) is looked up at call time on one handle, :data:`lapack`: the
extension module ``scipy.linalg._flapack``, whose functions
``scipy.linalg.lapack`` re-exports. The ``scipy.linalg`` package is not
imported, as its init clones numpy's namespace and so imports every lazy
numpy submodule, code eqopt never calls: a fresh interpreter took 0.47 s
to import numpy and ``scipy.linalg``, and 0.19 s to import numpy and
load the extension alone, on a 2-vCPU Xeon (BENCH_31.json). The handle
is the module ``sys.modules`` holds under the extension's name if there
is one; else the extension file in scipy's ``linalg`` directory, found
through ``importlib.util.find_spec("scipy")`` (which imports nothing),
loaded and registered under that name; else, if there is no such file,
the extension imported the usual way. ``scipy.linalg`` reaches the
extension only through ``from scipy.linalg import _flapack``, which takes
the registered module, so a ``scipy.linalg`` imported before or after
eqopt shares it, and LAPACK is initialized once. When eqopt loads it
first, the ``scipy.linalg`` package gets no ``_flapack`` attribute, as
the import system sets one only on a module it loads itself; scipy does
not need one (``qr``, ``cho_factor``, ``lu_factor``, ``eigh`` and
``scipy.optimize`` run as usual after such a load). To count or replace
a routine eqopt calls, patch it on :data:`lapack`, not on
``scipy.linalg.lapack``.

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

import importlib.machinery
import importlib.util
import itertools
import math
import numbers
import os
import sys
from functools import wraps

import numpy as np

from .errors import ComputationError

EPS = float(np.finfo(np.float64).eps)

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    """scipy's LAPACK extension module, without importing the ``scipy.linalg``
    package where it can (the module docstring says how and why)."""
    if _FLAPACK in sys.modules:
        return sys.modules[_FLAPACK]
    scipy_spec = importlib.util.find_spec("scipy")  # locates scipy, imports nothing
    if scipy_spec is not None and scipy_spec.origin is not None:
        finder = importlib.machinery.FileFinder(
            os.path.join(os.path.dirname(scipy_spec.origin), "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES),
        )
        spec = finder.find_spec(_FLAPACK)
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            sys.modules[_FLAPACK] = module
            spec.loader.exec_module(module)
            return module
    return importlib.import_module(_FLAPACK)


#: scipy's LAPACK extension module; every LAPACK routine eqopt calls is
#: looked up on it at call time.
lapack = _load_flapack()


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
# rows, is factored without pivoting first (_rank_revealing_qr). At one
# BLAS thread that built x0 and N on a full-rank A 15-32 % faster from
# n = 150 on (and, without the repeated-row screen, 3-29 % faster at
# n = 100-120 and from 5 % slower to 9 % faster at n = 80), while a
# rank-deficient A without repeated rows, factored twice, took 1.3-1.55
# times as long: the crossover tables in BENCH_17.json.
_QRT_MIN_COLS = 150
_QRT_BLOCK = 32  # dgeqrt's block size nb; it must not exceed m
# dsytrf's block size nb in solve_reduced and qp.solve_kkt, passed as
# lwork = order * nb (the module docstring says why not the query's 64). At
# one BLAS thread, on seeded KKT systems, nb = 32 against 64 took dsytrf
# 9-25 % less time from order 140 to 560 (1.28 to 1.06 ms at n:m =
# 200:120) and was within 3 % at order 96; 24-32 were the fastest sizes at
# every order from 140 on, and every size from 8 to 64 took the same
# pivots: the sweep in BENCH_35.json.
_SYTRF_BLOCK = 32
# The block size nb of the dgeqp3 and dormqr workspaces (the module docstring
# gives both formulas). A workspace below the query's makes either routine
# shrink its blocks, and so round differently.
_QR_WORK_BLOCK = 32


def is_real(x):
    """The scalar number rule: whether ``x`` is a real number (a Python or
    numpy int or float, any :class:`numbers.Real`) that is not a bool and
    converts to a float64. A string, ``None``, an array and a finite number
    beyond the float64 range are not: an integer such as ``10**400``,
    which Python compares with ``inf`` exactly, and a wider float such as
    ``np.longdouble('1e400')``, which ``float`` turns into ``inf`` without
    a word. Whether a float is finite is part of the range each caller
    states, so NaN and +-inf are real numbers here."""
    if not isinstance(x, numbers.Real) or isinstance(x, bool):
        return False
    try:
        f = float(x)
    except OverflowError:
        return False
    return not math.isinf(f) or f == x


def is_integer(x):
    """The integer rule: whether ``x`` is integral (a Python or numpy int,
    any :class:`numbers.Integral`) and not a bool. ``2.0`` is not."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _holds_bool(raw, out):
    """Whether the nested list ``raw`` holds a boolean.

    ``out = np.asarray(raw)`` has a numeric dtype, so numpy read any boolean
    as 0 or 1; only the entries equal to 0 or 1 are looked up in ``raw``.
    """
    suspects = np.flatnonzero((out == 0) | (out == 1))
    if suspects.size == 0:
        return False
    for _ in range(out.ndim - 1):
        raw = list(itertools.chain.from_iterable(raw))
    return any(isinstance(raw[i], (bool, np.bool_)) for i in suspects)


def as_float_array(a, name):
    """The array number rule: ``a`` as a float64 array of any shape, or
    ValueError naming it ``name``.

    An int or float ndarray is converted without a look at its entries, as
    none of them can be a boolean. Otherwise the dtype numpy infers refuses
    strings, ``None``, objects, complex numbers and all-boolean arrays; a
    boolean mixed with numbers in a nested list (``[True, 1.5]``) is caught
    by :func:`_holds_bool`. Python ints beyond 64 bits give an object
    array; they are converted one by one, so that both JSON parsers of
    :func:`~eqopt.problems.load` accept the same entries. Whether the
    entries are finite is left to :func:`as_matrix` and :func:`as_vector`.
    """
    if isinstance(a, np.ndarray) and a.dtype.kind in "iuf":
        return np.asarray(a, dtype=np.float64)
    try:
        out = np.asarray(a)
    except (TypeError, ValueError):
        raise ValueError(f"{name} is not a rectangular numeric array") from None
    if out.dtype.kind == "O" and all(type(v) in (int, float) for v in out.flat):
        try:
            out = out.astype(np.float64)
        except OverflowError:
            raise ValueError(f"{name} holds an integer beyond the float64 range") from None
    if out.dtype.kind not in "iuf":
        raise ValueError(f"{name} has non-numeric entries (numpy dtype {out.dtype})")
    if isinstance(a, (list, tuple)) and _holds_bool(a, out):
        raise ValueError(f"{name} has non-numeric entries (a boolean)")
    return out.astype(np.float64, copy=False)


def _finite(a, name, ndim):
    """``a`` as a finite float64 array of ``ndim`` dimensions
    (:func:`as_float_array`), or ValueError naming it ``name``."""
    out = as_float_array(a, name)
    if out.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def as_matrix(a, name="matrix"):
    """``a`` as a finite 2-D float64 array, or ValueError."""
    return _finite(a, name, 2)


def as_vector(v, name="vector", length=None):
    """``v`` as a finite 1-D float64 array, of ``length`` entries when it
    is given, or ValueError."""
    out = _finite(v, name, 1)
    if length is not None and out.shape[0] != length:
        raise ValueError(f"{name} has length {out.shape[0]}, expected {length}")
    return out


def frozen_copy(a):
    """A read-only copy of the checked array ``a``, for a frozen input type
    to hold: neither a later write to ``a`` nor one through the holder can
    change it."""
    out = a.copy()
    out.setflags(write=False)
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
    the only part of Q a quadratic form senses, and c. A checked float64 Q
    equal bit for bit to its symmetric part (so a -0.0 opposite a +0.0
    counts as asymmetric) is returned as given; any other Q as the new
    array of :func:`symmetric_part`. Neither is marked read-only."""
    q = as_matrix(q, "Q")
    if q.shape[0] != q.shape[1]:
        raise ValueError(f"Q must be square, got shape {q.shape}")
    sym = symmetric_part(q)
    if not np.array_equal(sym.view(np.int64), q.view(np.int64)):
        q = sym
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
    low, info = lapack.dpotrf(m, lower=1, clean=0)
    if info > 0:
        return None
    if info < 0:
        raise ComputationError(f"Cholesky factorization failed (dpotrf info={info})")
    return low


def cholesky_solve(low, rhs):
    """``m^-1 rhs`` from the lower factor ``low`` of :func:`cholesky` (``dpotrs``)."""
    x, info = lapack.dpotrs(low, rhs, lower=1)
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
    x, info = lapack.dtrtrs(r.T, rhs, lower=1, trans=1 - trans)
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


def _rank_revealing_qr(a, eps):
    """QR of ``a^T`` for a row-equilibrated m-by-n ``a``, and the rank of ``a``.

    Returns ``(qr, t, tau, piv, rank)``: R on and above the diagonal of
    ``qr`` and the Householder vectors below it, the factors that
    :func:`_apply_q` applies Q with (the block reflector factors ``t`` of
    ``dgeqrt``, or the scalar factors ``tau`` of ``dgeqp3``, the other one
    None), the 0-based row order ``piv`` of ``a`` (the column order of
    ``a^T P = Q R``), and the rank p. The rows ``piv[:p]`` are the ones
    kept. Two paths decide the rank by one rule:

    * **Pivoted** (LAPACK ``dgeqp3``): p is the largest k with
      ``|R[k-1, k-1]| > eps * max(m, n) * |R[0, 0]|``; the diagonal of R
      is non-increasing, as the QR pivots on column norms. An empty
      ``a^T``, which LAPACK rejects, has ``piv = 0..m-1``, rank 0 and no
      reflectors.
    * **Unpivoted** (recursive compact-WY ``dgeqrt``, Elmroth & Gustavson,
      IBM J. Res. Dev. 44(4), 2000), tried first from the size crossover
      on (``_QRT_MIN_COLS`` unknowns, ``_QRT_BLOCK <= m <= n``): its R is
      kept, with ``P = I`` and p = m, when ``dtrcon``'s 1-norm rcond
      estimate of R exceeds ``cut = 10 * m * eps * max(m, n)``. If the
      estimate is at most 10 times the true rcond, every diagonal entry of
      any QR of ``a^T`` has ``|R[k, k]| >= sigma_min``, the pivoted
      ``|R[0, 0]|`` (the largest column norm) is at most ``sigma_max``,
      and ``kappa_2 <= m * kappa_1``, so each pivoted ratio ``|R[k, k]| /
      |R[0, 0]| >= rcond_1 / m`` clears the pivoted cut and every row is
      kept there too. That factor is an assumption about the estimator,
      not a bound: ``dtrcon`` can underestimate ``||R^-1||_1`` by more
      (Higham, *Accuracy and Stability of Numerical Algorithms*, §15.3),
      and then a nearly dependent row is kept and its consistency goes
      unchecked. On the seeded sweeps in BENCH_17.json the two rules made
      the same decisions every time.

    ``dgeqp3`` updates its column norms with level-2 code (Golub & Van
    Loan, *Matrix Computations*, §5.4), which is why the unpivoted path is
    faster on a full-rank ``a``. A zero row, or two rows equal or opposite
    to within the cut (:func:`_may_repeat_a_row`), go straight to
    ``dgeqp3`` (rarely a full-rank ``a`` does too). Any other
    rank-deficient or nearly rank-deficient ``a`` fails the estimate and is
    factored again by ``dgeqp3``: the one case in which A is factored
    twice. Raises ComputationError if LAPACK reports a bad argument.
    """
    m, n = a.shape
    cut = 10.0 * m * eps * max(m, n)
    if n >= _QRT_MIN_COLS and _QRT_BLOCK <= m <= n and not _may_repeat_a_row(a, cut):
        qr, t, info = lapack.dgeqrt(_QRT_BLOCK, a.T)
        if info != 0:
            raise ComputationError(f"QR factorization failed (dgeqrt info={info})")
        # The wrapper reads an order-n triangle, n taken from the row count: pass R alone.
        rcond, info = lapack.dtrcon(qr[:m, :m])
        if info != 0:
            raise ComputationError(f"condition estimate failed (dtrcon info={info})")
        if rcond > cut:
            return qr, t, None, np.arange(m), m
    if min(m, n) == 0:
        return np.zeros((n, m), order="F"), None, None, np.arange(m), 0
    qr, jpvt, tau, _, info = lapack.dgeqp3(a.T, lwork=2 * m + (m + 1) * _QR_WORK_BLOCK)
    if info != 0:
        raise ComputationError(f"pivoted QR factorization failed (dgeqp3 info={info})")
    e = np.abs(qr.diagonal())
    kept = np.flatnonzero(e > eps * max(m, n) * e[0])
    return qr, None, tau, jpvt - 1, int(kept[-1]) + 1 if kept.size else 0


def _apply_q(v, t, tau, c):
    """``Q c`` for the Q of a QR held as its Householder vectors ``v``, in
    place on the F-ordered ``c``: ``dgemqrt`` with the block factors ``t``
    of ``dgeqrt``, or, when ``t`` is None, ``dormqr`` with the scalar
    factors ``tau`` of ``dgeqp3``."""
    if v.shape[1] == 0:  # LAPACK rejects an empty set of reflectors
        return c
    if t is not None:
        routine = "dgemqrt"
        out, info = lapack.dgemqrt(v, t, c, overwrite_c=1)
    else:
        routine = "dormqr"
        lwork = c.shape[1] * _QR_WORK_BLOCK + 65 * 64
        out, _, info = lapack.dormqr("L", "N", v, tau, c, lwork=lwork, overwrite_c=1)
    if info != 0:
        raise ComputationError(f"applying the QR reflectors failed ({routine} info={info})")
    return out


def solve_reduced(aa, rhs, tol):
    """Solve the symmetric k-by-k reduced system ``aa y = rhs`` and count
    the inertia of ``aa``: the one rule of both eliminations, for
    ``aa = N^T Q N``.

    ``tol`` sets one cut, ``tol k max|eig|``, below which an eigenvalue is
    neither inverted nor counted as curved. A factorization is accepted
    only when LAPACK's estimate of ``rcond_1(aa)`` exceeds the guard
    ``10 k^2 tol``: as ``kappa_2 <= kappa_1`` for a symmetric matrix, every
    eigenvalue of ``aa`` then clears that cut by a factor of k, provided
    the estimate is within a factor 10 of the true rcond (an assumption
    about the estimator, not a bound). Three branches, each tried only
    when the one before it declines:

    1. Cholesky (:func:`cholesky`, ``dpotrf``) with ``dpocon``: ``aa`` is
       positive definite, with inertia ``(k, 0)``;
    2. when ``dpotrf`` fails (``aa`` is not positive definite), one
       Bunch-Kaufman factorization ``P aa P^T = L D L^T`` (``dsytrf`` at
       the block size ``_SYTRF_BLOCK``) with ``dsycon``, which gives
       rcond = 0 where ``dsytrf`` met an exactly zero pivot, and its
       ``dsytrs`` solve. ``D`` is congruent to ``aa``, so by Sylvester's
       law of inertia its eigenvalue signs are those of ``aa``: each 1x1
       pivot counts by its sign, and each 2x2 block (rows i, i + 1 with
       ``ipiv[i] = ipiv[i + 1] < 0``) counts once positive and once
       negative. Every 2x2 block that ``dsytrf`` takes is indefinite: its
       pivot test, with ``alpha = (1 + sqrt(17)) / 8``, leaves ``|a e| <
       alpha^2 c^2`` for the block ``[[a, c], [c, e]]``, so ``det < -(1 -
       alpha^2) c^2 < 0`` (Bunch & Kaufman, *Math. Comp.* 31, 1977);
    3. otherwise (a guard refused, so ``aa`` is singular or nearly so at
       the cut) one ``eigh``: the minimum-norm solution ``aa^+ rhs``, the
       eigenvalues below the cut (``|w|`` are the singular values, so this
       is the usual relative cutoff of a pseudo-inverse) neither inverted
       nor counted.

    An indefinite ``aa`` thus costs a ``dpotrf`` that fails partway and one
    ``dsytrf``; only a refused one pays for ``eigh`` as well.

    When the 1-norm of ``aa`` overflows float range although its entries
    are finite, ``aa`` and ``rhs`` are both scaled by the power of two
    ``2^-b``, ``b`` the bit length of k, which brings the norm back into
    range. The scaling rounds no entry (short of underflow), so the scaled
    system has the same solution y. Any other ``aa`` is factored as given,
    and its eigenvalues are bounded by its finite 1-norm.

    ``dpotrf`` and ``dsytrf`` each factor the lower triangle of a copy
    that their LAPACK wrapper makes of ``aa``'s F-ordered view (``aa`` is
    symmetric), so each later branch sees ``aa`` intact, also after a
    Cholesky factorization that failed partway, and neither ``aa`` nor
    ``rhs`` is written.

    Returns
    -------
    y : (k,) ndarray
    pos, neg : int
        The numbers of positive and negative eigenvalues of ``aa`` (above
        the cut, in the ``eigh`` branch).

    Raises
    ------
    ComputationError
        If ``aa`` is not finite, or its 1-norm overflows and ``rhs`` is
        not finite: a system that no scaling brings into range; if
        ``eigh`` does not converge; or if LAPACK rejects an argument.
    """
    k = aa.shape[0]
    norm_1 = np.abs(aa).sum(axis=0).max()  # np.linalg.norm(aa, 1), without its wrapper
    if not np.isfinite(norm_1):
        if not (np.isfinite(aa).all() and np.isfinite(rhs).all()):
            raise ComputationError("the reduced system N^T Q N y = N^T (Q x0 + c) is not finite")
        shift = -k.bit_length()
        aa, rhs = np.ldexp(aa, shift), np.ldexp(rhs, shift)
        norm_1 = np.abs(aa).sum(axis=0).max()
    guard = 10.0 * k * k * tol
    low = cholesky(aa.T)  # aa is symmetric: aa.T is its F-ordered view
    if low is not None:
        rcond, info = lapack.dpocon(low, norm_1, uplo="L")
        if info == 0 and rcond > guard:
            return cholesky_solve(low, rhs), k, 0
    else:
        ldu, ipiv, info = lapack.dsytrf(aa.T, lower=1, lwork=k * _SYTRF_BLOCK)
        if info < 0:
            raise ComputationError(f"Bunch-Kaufman factorization failed (dsytrf info={info})")
        rcond, info = lapack.dsycon(ldu, ipiv, norm_1, lower=1)
        if info == 0 and rcond > guard:
            y, info = lapack.dsytrs(ldu, ipiv, rhs, lower=1)
            if info != 0:
                raise ComputationError(f"Bunch-Kaufman solve failed (dsytrs info={info})")
            # Python numbers: at these sizes a loop beats a handful of numpy calls
            pos = neg = 0
            for d, p in zip(ldu.diagonal().tolist(), ipiv.tolist()):
                if p > 0:
                    pos += d > 0
                    neg += d < 0
            blocks = (k - pos - neg) // 2  # rcond > 0: no 1x1 pivot is zero
            return y, pos + blocks, neg + blocks
    try:
        w, v = np.linalg.eigh(aa)
    except np.linalg.LinAlgError as exc:
        raise ComputationError(f"eigh did not converge for a {k}x{k} matrix") from exc
    keep = np.abs(w) > tol * k * float(np.abs(w).max(initial=0.0))
    inv = np.zeros_like(w)
    inv[keep] = 1.0 / w[keep]
    return (v * inv) @ (v.T @ rhs), int((w[keep] > 0.0).sum()), int((w[keep] < 0.0).sum())
