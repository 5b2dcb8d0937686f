"""Problem files, seeded random problem generation, and the one front door
for solving.

:func:`solve` runs a problem by method name: it is the one place that
decides which routine runs for which method and problem kind, and every
method's answer is one :class:`~eqopt.qp.Solution`. The names
are stated once, in :data:`_QP_SOLVERS` and :data:`_NEWTON_SOLVERS`, and
``eqopt solve``, ``eqopt bench`` and the self-checks that pick a method
by name all go through it. Both problem kinds carry an ``oracle`` and
their ``constraints``, so Newton runs the same way on either. Each builds
its oracle itself, from its own held data: :class:`NlpProblem` from its
objective's name and params, which are all a problem file records of it,
so :func:`save` writes the objective that :func:`solve` solves. What a
number is is stated once, in :mod:`eqopt.linalg`: the constructors and
builders refuse what a file may not hold, with ValueError, and
:func:`load` checks no number itself but turns their refusal into a
ProblemSchemaError naming the file.

The on-disk format is JSON with a fixed top level: ``formatVersion``
(currently 1), ``kind`` (``"qp"`` or ``"nlp"``), the dimensions ``n``
and ``m``, the constraint data ``A`` (m rows of n numbers) and ``b``
(m numbers), plus ``Q``/``c`` for quadratic programs or an
``objective`` object (``name`` + ``params``) for nonlinear ones. Array
entries are JSON numbers, and so is every objective param or each entry
of it; a ``dim`` param must be the integer ``n``. Floats are written with
Python's shortest-round-trip repr, so values survive a save/load cycle
bit for bit.

:func:`write_json` writes every JSON document eqopt writes: problem files,
and the solutions, traces, bench reports and counterexamples of
:mod:`eqopt.cli` (which imports this module, so the writer lives here).
It turns numpy arrays and scalars into lists and numbers through json's
``default`` hook, so no caller converts them first.

:func:`load` parses with orjson, which reads the long float arrays of a
problem file several times faster than the standard library and gives
bit-identical floats. Whatever orjson refuses is parsed again, unchanged,
by the standard library (UTF-8 text mode, then ``json.load``), so those
files get exactly the standard library's verdict: ``NaN``, ``Infinity``
and overflowing literals such as ``1e400`` parse and are then rejected
by the schema as non-finite; malformed JSON reports its line and column;
invalid UTF-8 is a parse error. orjson recurses on the C stack with no
depth limit and kills the process on deep nesting (a segfault at depth
~131,000 with an 8 MB stack), so a file goes to orjson only when its count
of ``[`` and ``{`` bytes, a bound on its nesting depth, is at most
:data:`ORJSON_MAX_BRACKETS`; every other file takes the standard-library
path, whose recursion limit makes deep nesting a parse error. One
difference remains between the parsers: orjson reads an integer literal
beyond 64 bits as a float, the standard library as an int. Array
entries and float parameters such as ``mu`` come out as the same
float64 either way, and the integer fields (``formatVersion``, ``n``,
``m``, ``dim``) reject such a value from either parser; only the type
kept in :attr:`NlpProblem.objective_params` shows which parser ran.
"""

import io
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np
import orjson

from . import objectives
from .errors import ProblemParseError, ProblemSchemaError
from .expressions import EqualityConstraints
from .linalg import EPS, as_float_array, frozen_copy, is_integer, is_real, overflow_checked
from .nlp import NewtonConfig, NewtonTrace, _start_value, newton_solve, reduce_problem, sqp_iterate
from .qp import QpProblem, Solution, solve_kkt, solve_nullspace, solve_projector

FORMAT_VERSION = 1

#: Largest count of ``[`` and ``{`` bytes a file may hold to be parsed by
#: orjson. The count bounds the nesting depth. orjson 3.8.3 on x86-64
#: Linux uses about 64 bytes of C stack per level: it overflows an 8 MB
#: main-thread stack at depth ~131,000 and a 512 KB thread stack at
#: ~8,200, so 4096 levels leave a factor of two even there. A dense
#: problem holds about n + m brackets (one per row of Q and A).
ORJSON_MAX_BRACKETS = 4096

_Q_CLASSES = ("spd", "symmetric_indefinite")

# The one statement of the methods :func:`solve` dispatches by name;
# ``eqopt solve`` and ``eqopt bench`` take their choices from here.
_QP_SOLVERS = {"projector": solve_projector, "nullspace": solve_nullspace, "kkt": solve_kkt}
_NEWTON_SOLVERS = {"newton": newton_solve, "sqp": sqp_iterate}


def _refuse(self, *args, **kwargs):
    raise TypeError("objective params are read-only")


class _ReadOnlyDict(dict):
    """A dict of objective params that reads, compares, copies and is written
    as a dict but refuses every change."""

    __setitem__ = __delitem__ = __ior__ = _refuse
    clear = pop = popitem = setdefault = update = _refuse

    def __reduce__(self):
        return _ReadOnlyDict, (dict(self),)


class _ReadOnlyList(list):
    """A list of objective params that reads, compares, copies and is written
    as a list but refuses every change."""

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _refuse
    append = extend = insert = pop = remove = clear = sort = reverse = _refuse

    def __reduce__(self):
        return _ReadOnlyList, (list(self),)


def _read_only(value):
    """``value`` with every dict, list and array in it read-only, all the way
    down: arrays are copied, and ``json`` writes the result as it wrote
    ``value``. A list of plain numbers, each row of a matrix param, is
    copied in one step rather than entry by entry."""
    if isinstance(value, Mapping):
        return _ReadOnlyDict({key: _read_only(item) for key, item in value.items()})
    if isinstance(value, list):
        if set(map(type, value)) <= {int, float}:
            return _ReadOnlyList(value)
        return _ReadOnlyList(map(_read_only, value))
    if isinstance(value, np.ndarray):
        return frozen_copy(value)
    return value


@dataclass(frozen=True, eq=False)
class NlpProblem:
    """A named registry objective under linear equality constraints.

    Its ``oracle`` is built by the constructor, as
    ``objective_registry(objective_name, objective_params)`` on the
    params it holds, as :attr:`~eqopt.qp.QpProblem.oracle` comes from its
    own checked Q and c: the objective it solves is the one :func:`save`
    writes. ``objective_params`` is held read-only (:func:`_read_only`),
    so neither a later write to the caller's params nor one through the
    problem reaches the oracle.

    Each param is checked once, before the builder runs, by the number
    rule of :mod:`eqopt.linalg`, which is also a problem file's: a list,
    tuple or array is converted to a float64 array
    (:func:`~eqopt.linalg.as_float_array`) and handed to the builder as
    that array, anything else must be a real number
    (:func:`~eqopt.linalg.is_real`), and a ``dim`` param must be the
    integer ``n``, so no builder allocates an objective of another size.
    Such a param raises ValueError prefixed ``objective '<name>' param
    '<key>'``, and :func:`load` gives the same text after the file's
    name. Params the builder refuses (TypeError, ValueError or
    OverflowError) raise ValueError prefixed ``objective '<name>'
    params:``, an unknown name raises UnknownObjectiveError, and an
    objective whose dimension is not the constraints' ``n`` raises
    ValueError, as a mismatched Q does in :class:`~eqopt.qp.QpProblem`.
    The fields cannot be reassigned, and two problems are equal only if
    they are the same object.

    ``oracle`` is accepted as a keyword only so that the benchmark's
    ``build_nlp_newton`` call, which passes one, keeps working; the value
    passed is not held.
    """

    constraints: EqualityConstraints
    objective_name: str
    objective_params: dict
    oracle: object = field(default=None, kw_only=True)  # ObjectiveOracle

    def __post_init__(self):
        given, params = self.objective_params, _read_only(self.objective_params)
        object.__setattr__(self, "objective_params", params)
        what, n, args = f"objective {self.objective_name!r} param", self.constraints.n, {}
        for key, value in params.items():
            if isinstance(value, (list, tuple, np.ndarray)):
                value = as_float_array(value, f"{what} '{key}'")
            elif is_integer(value) and not is_real(value):
                raise ValueError(f"{what} '{key}' is an integer beyond the float64 range")
            elif not is_real(value):
                raise ValueError(
                    f"{what} '{key}' has type {type(given[key]).__name__}; "
                    f"objective params are JSON numbers or arrays of them"
                )
            args[key] = value
        dim = params.get("dim")
        if dim is not None and not (is_integer(dim) and dim == n):
            raise ValueError(
                f"{what} 'dim' is {dim!r}; the objective dimension must be the integer n={n}"
            )
        try:
            # UnknownObjectiveError passes through
            oracle = objectives.objective_registry(self.objective_name, args)
        except (TypeError, ValueError, OverflowError) as exc:  # e.g. an unknown keyword
            raise ValueError(f"objective {self.objective_name!r} params: {exc}") from None
        if oracle.dim != n:
            raise ValueError(f"objective dimension {oracle.dim} does not match n={n}")
        object.__setattr__(self, "oracle", oracle)


def _require(doc, field, kinds, where):
    if field not in doc:
        raise ProblemSchemaError(f"{where}: missing field '{field}'")
    value = doc[field]
    if not isinstance(value, kinds):
        raise ProblemSchemaError(
            f"{where}: field '{field}' has type {type(value).__name__}"
        )
    return value


def _array_field(doc, field, shape, where):
    """A float64 array of the given shape; JSON ``[]`` is an empty matrix.

    Entries must be numbers (:func:`~eqopt.linalg.as_float_array`); that
    they are finite is checked once, by the type that holds the array.
    """
    what = f"field '{field}'"
    out = _schema_checked(as_float_array, where, _require(doc, field, list, where), what)
    if out.shape == (0,) and len(shape) == 2:
        out = out.reshape(0, shape[1])
    if out.shape != shape:
        raise ProblemSchemaError(f"{where}: {what} has shape {out.shape}, expected {shape}")
    return out


def _schema_checked(make, where, *fields):
    """``make(*fields)``, the type or rule that checks them, with its
    ValueError (an entry that is not a number or not finite, objective
    params that are not numbers or that the builder refuses, an objective
    whose dimension is not n) raised as a ProblemSchemaError naming the
    file."""
    try:
        return make(*fields)
    except ValueError as exc:
        raise ProblemSchemaError(f"{where}: {exc}") from None


def _bracket_count(data):
    """Number of ``[`` and ``{`` bytes in ``data``, a bound on its nesting depth."""
    # two masks, one file-sized temporary alive at a time: the single test
    # (buf | 0x20) == 0x7B keeps two alive and was the slower form when each
    # count is followed by a load and a solve (BENCH_35.json)
    buf = np.frombuffer(data, np.uint8)
    return int(np.count_nonzero(buf == 0x5B) + np.count_nonzero(buf == 0x7B))


def _parse(data, where):
    """The JSON document in ``data`` (bytes); see the module docstring."""
    if _bracket_count(data) <= ORJSON_MAX_BRACKETS:
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass  # the standard library gives the verdict
    try:
        return json.load(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ProblemParseError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except UnicodeDecodeError as exc:
        raise ProblemParseError(
            f"{where}: not valid UTF-8 at byte {exc.start}: {exc.reason}"
        ) from None
    except RecursionError:
        raise ProblemParseError(f"{where}: JSON nested too deeply to parse") from None


def load(path):
    """Read a problem file.

    Returns a :class:`~eqopt.qp.QpProblem` or :class:`NlpProblem`
    depending on ``kind``. The file is read as bytes and parsed by
    orjson when it holds at most :data:`ORJSON_MAX_BRACKETS` ``[`` and
    ``{`` bytes; any other file, and any file orjson refuses, is parsed
    by the standard library in UTF-8 text mode, as the module docstring
    explains. Malformed JSON, invalid UTF-8 and nesting too deep for the
    standard library raise ProblemParseError (the first with the
    line/column); schema violations, numeric fields and objective params
    holding anything but JSON numbers included, raise ProblemSchemaError
    naming the offending field or param. A quadratic Q that is not
    symmetric is symmetrized with a warning. Q's asymmetry
    ``max|Q - Q^T|`` is measured only when the symmetrized Q the problem
    holds is not equal to the file's Q entry for entry, since an equal
    one makes Q symmetric: so never for a file :func:`save` wrote. The
    warning is given when the asymmetry exceeds ``1e-12 (1 + max|Q|)``.
    """
    where = str(path)
    with open(path, "rb") as fh:
        doc = _parse(fh.read(), where)
    if not isinstance(doc, dict):
        raise ProblemSchemaError(f"{where}: top level must be an object")

    version = _require(doc, "formatVersion", int, where)
    if not is_integer(version) or version != FORMAT_VERSION:
        raise ProblemSchemaError(
            f"{where}: unsupported formatVersion {version} (expected {FORMAT_VERSION})"
        )
    kind = _require(doc, "kind", str, where)
    if kind not in ("qp", "nlp"):
        raise ProblemSchemaError(f"{where}: unknown kind {kind!r} (expected 'qp' or 'nlp')")
    n = _require(doc, "n", int, where)
    m = _require(doc, "m", int, where)
    if not (is_integer(n) and is_integer(m)) or n < 1 or m < 0:
        raise ProblemSchemaError(f"{where}: need n >= 1 and m >= 0, got n={n}, m={m}")

    a = _array_field(doc, "A", (m, n), where)
    b = _array_field(doc, "b", (m,), where)
    constraints = _schema_checked(EqualityConstraints, where, a, b)

    if kind == "qp":
        q = _array_field(doc, "Q", (n, n), where)
        c = _array_field(doc, "c", (n,), where)
        problem = _schema_checked(QpProblem, where, q, c, constraints)
        # a Q equal to the exactly symmetric problem.q is symmetric: nothing to measure
        if (problem.q == q).all():
            return problem
        # max|Q - Q^T| bit for bit where that is finite, and inf, not a warning, beyond
        skew = 2.0 * float(np.abs(0.5 * q - 0.5 * q.T).max(initial=0.0))
        if skew > 1e-12 * (1.0 + float(np.abs(q).max(initial=0.0))):
            warnings.warn(
                f"{where}: Q is not symmetric (max asymmetry {skew:.3e}); "
                f"using (Q + Q^T)/2",
                stacklevel=2,
            )
        return problem

    obj = _require(doc, "objective", dict, where)
    name = _require(obj, "name", str, f"{where}: objective")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProblemSchemaError(f"{where}: objective params must be an object")
    return _schema_checked(NlpProblem, where, constraints, name, params)


@overflow_checked
def solve(problem, method="nullspace", *, eps=EPS, config=NewtonConfig()):
    """Solve ``problem`` by ``method``, a key of :data:`_QP_SOLVERS` or
    :data:`_NEWTON_SOLVERS`, and return its :class:`~eqopt.qp.Solution`.

    A QP method takes a :class:`~eqopt.qp.QpProblem`; ``projector`` and
    ``nullspace`` take ``eps``, and the ``kkt`` oracle takes neither
    ``eps`` nor ``config``. ``newton`` and ``sqp`` take either kind of
    problem: they restrict its ``oracle`` to its ``constraints``
    (:func:`~eqopt.nlp.reduce_problem`, the one factorization of A) and
    run under ``config``. Their answer holds the run's trace, its last
    iterate and value, the inf-norm of its last reduced gradient as the
    stationarity residual, and ``min``, as the last step's Cholesky
    succeeded. On a one-point feasible set no step is run: x0 is the
    answer, a ``point`` with an empty converged trace, and its value
    passes Newton's start-point rule. An unknown method, or a QP method on
    an :class:`NlpProblem`, raises ValueError.
    """
    if method in _QP_SOLVERS:
        if not isinstance(problem, QpProblem):
            raise ValueError(
                f"method {method!r} requires a quadratic problem; "
                f"only {' and '.join(_NEWTON_SOLVERS)} take an NlpProblem"
            )
        solver = _QP_SOLVERS[method]
        return solver(problem) if method == "kkt" else solver(problem, eps)
    if method not in _NEWTON_SOLVERS:
        raise ValueError(f"unknown method {method!r}")
    oracle = problem.oracle
    reduced = reduce_problem(oracle, problem.constraints)
    if reduced.free_dim:
        trace = _NEWTON_SOLVERS[method](reduced, config)
    else:  # one feasible point: no step, and x0 valued by Newton's start-point rule
        g = config._start(0)  # also the empty reduced gradient
        h = _start_value(oracle, reduced.expr.x0)
        trace = NewtonTrace((), True, g, reduced.expr.x0, h, 0.0, 0.0, g)
    return Solution(
        x=trace.final_x,
        objective=trace.final_h,
        method=method,
        constraint_residual=problem.constraints._residual(trace.final_x),
        stationarity_residual=float(np.abs(trace.final_gradient).max(initial=0.0)),
        classification="min" if reduced.free_dim else "point",
        trace=trace,
    )


def _jsonable(value):
    """A numpy array or scalar as the list or number json writes for it."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(doc, path=None):
    """Write ``doc`` as JSON indented by two, to ``path`` with a final
    newline or, with no path, to stdout.

    Every document eqopt writes goes through here. numpy arrays and
    scalars are written as the lists and numbers ``tolist`` gives, so
    floats keep Python's shortest-round-trip repr.
    """
    if path is None:
        print(json.dumps(doc, indent=2, default=_jsonable))
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, default=_jsonable)
        fh.write("\n")


def save(path, problem):
    """Write a problem file (inverse of :func:`load`)."""
    constraints = problem.constraints
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "qp" if isinstance(problem, QpProblem) else "nlp",
        "n": constraints.n,
        "m": constraints.m,
    }
    if isinstance(problem, QpProblem):
        doc["Q"] = problem.q
        doc["c"] = problem.c
    elif isinstance(problem, NlpProblem):
        doc["objective"] = {"name": problem.objective_name, "params": problem.objective_params}
    else:
        raise TypeError(f"cannot save a {type(problem).__name__}")
    doc["A"] = constraints.a
    doc["b"] = constraints.b
    write_json(doc, path)


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for one random QP; equal specs generate identical problems.

    ``q_class`` (one of :data:`_Q_CLASSES`) selects the Hessian family:
    ``"spd"`` builds ``R^T R + 1e-3 n I`` from a random R,
    ``"symmetric_indefinite"`` takes a random matrix, which
    :class:`~eqopt.qp.QpProblem` symmetrizes on construction.
    ``rank_deficiency`` appends that many duplicated constraint rows,
    keeping the system consistent. ``n``, ``m``, ``seed`` and
    ``rank_deficiency`` are integers (:func:`~eqopt.linalg.is_integer`),
    and ``seed`` is nonnegative, as numpy's generators require. Neither
    float64 array, Q (n x n) nor A ((m + rank_deficiency) x n), may exceed
    numpy's limit of ``np.iinfo(np.intp).max`` bytes; a spec within it can
    still exceed the memory at hand, and :func:`generate` then raises
    ValueError.
    """

    n: int
    m: int
    seed: int = 0
    q_class: str = "spd"
    rank_deficiency: int = 0

    def __post_init__(self):
        for name in ("n", "m", "seed", "rank_deficiency"):
            if not is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 <= self.m < self.n:
            raise ValueError(f"need 0 <= m < n, got n={self.n}, m={self.m}")
        if self.q_class not in _Q_CLASSES:
            raise ValueError(
                f"unknown q_class {self.q_class!r}; choose from {_Q_CLASSES}"
            )
        if self.rank_deficiency < 0:
            raise ValueError("rank_deficiency must be nonnegative")
        if self.rank_deficiency > 0 and self.m == 0:
            raise ValueError("rank_deficiency needs at least one constraint row")
        limit = np.iinfo(np.intp).max
        for name, rows in (("Q", self.n), ("A", self.m + self.rank_deficiency)):
            if 8 * rows * self.n > limit:
                raise ValueError(
                    f"{name} would be a {rows} x {self.n} float64 array, "
                    f"beyond numpy's limit of {limit} bytes"
                )


def generate(spec):
    """Build the random QP described by ``spec``.

    Entries are drawn uniformly from [-1, 1] with a PCG64 stream seeded
    by ``spec.seed``; the draw order is fixed (Q material, c, A, b,
    duplication choices) so results are reproducible bit for bit. A size
    the machine cannot hold raises ValueError naming the shapes and bytes
    of Q and A, not numpy's bare MemoryError.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m

    def u(*shape):
        return rng.uniform(-1.0, 1.0, shape)

    try:
        q = u(n, n)
        if spec.q_class == "spd":
            q = q.T @ q + 1e-3 * n * np.eye(n)
        c = u(n)
        a = u(m, n)
        b = u(m)
        if spec.rank_deficiency > 0:
            picks = rng.integers(0, m, size=spec.rank_deficiency)
            a = np.vstack([a, a[picks]])
            b = np.concatenate([b, b[picks]])
        return QpProblem(q=q, c=c, constraints=EqualityConstraints(a, b))
    except MemoryError:
        rows = m + spec.rank_deficiency
        raise ValueError(
            f"Q ({n} x {n}, {8 * n * n} bytes) and A ({rows} x {n}, {8 * rows * n} bytes) "
            f"float64 arrays do not fit in the memory at hand"
        ) from None
