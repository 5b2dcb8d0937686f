"""Problem files and seeded random problem generation.

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
import itertools
import json
import warnings
from dataclasses import dataclass

import numpy as np
import orjson

from .errors import ProblemParseError, ProblemSchemaError
from .expressions import EqualityConstraints
from .objectives import objective_registry
from .qp import QpProblem

FORMAT_VERSION = 1

#: Largest count of ``[`` and ``{`` bytes a file may hold to be parsed by
#: orjson. The count bounds the nesting depth. orjson 3.8.3 on x86-64
#: Linux uses about 64 bytes of C stack per level: it overflows an 8 MB
#: main-thread stack at depth ~131,000 and a 512 KB thread stack at
#: ~8,200, so 4096 levels leave a factor of two even there. A dense
#: problem holds about n + m brackets (one per row of Q and A).
ORJSON_MAX_BRACKETS = 4096

_Q_CLASSES = ("spd", "symmetric_indefinite")


@dataclass
class NlpProblem:
    """A named registry objective under linear equality constraints."""

    oracle: object  # ObjectiveOracle
    constraints: EqualityConstraints
    objective_name: str
    objective_params: dict


def _require(doc, field, kinds, where):
    if field not in doc:
        raise ProblemSchemaError(f"{where}: missing field '{field}'")
    value = doc[field]
    if not isinstance(value, kinds):
        raise ProblemSchemaError(
            f"{where}: field '{field}' has type {type(value).__name__}"
        )
    return value


def _holds_bool(raw, out):
    """Whether the nested list ``raw`` holds a JSON boolean.

    ``out = np.asarray(raw)`` has a numeric dtype, so numpy read any boolean
    as 0 or 1; only the entries equal to 0 or 1 are looked up in ``raw``.
    """
    suspects = np.flatnonzero((out == 0) | (out == 1))
    if suspects.size == 0:
        return False
    for _ in range(out.ndim - 1):
        raw = list(itertools.chain.from_iterable(raw))
    return any(type(raw[i]) is bool for i in suspects)


def _numbers(raw, what):
    """The JSON array ``raw`` as a float64 array, refusing anything but numbers.

    The dtype numpy infers refuses strings, ``null``, objects and all-boolean
    arrays; a boolean mixed with numbers (``[true, 1.5]``) is caught by
    :func:`_holds_bool`. Integers beyond 64 bits give an object array; they
    are converted one by one, so that both parsers accept the same entries.
    ``what`` names the array in the ProblemSchemaError.
    """
    try:
        out = np.asarray(raw)
    except (TypeError, ValueError):
        raise ProblemSchemaError(f"{what} is not a rectangular numeric array") from None
    if out.dtype.kind == "O" and all(type(v) in (int, float) for v in out.flat):
        try:
            out = out.astype(np.float64)
        except OverflowError:
            raise ProblemSchemaError(
                f"{what} holds an integer beyond the float64 range"
            ) from None
    if out.dtype.kind not in "iuf":
        raise ProblemSchemaError(f"{what} has non-numeric entries (numpy dtype {out.dtype})")
    if _holds_bool(raw, out):
        raise ProblemSchemaError(f"{what} has non-numeric entries (a boolean)")
    return out.astype(np.float64, copy=False)


def _array_field(doc, field, shape, where):
    """A float64 array of the given shape; JSON ``[]`` is an empty matrix.

    Entries must be JSON numbers (:func:`_numbers`); that they are finite is
    checked once, by the type that holds the array.
    """
    out = _numbers(_require(doc, field, list, where), f"{where}: field '{field}'")
    if out.shape == (0,) and len(shape) == 2:
        out = out.reshape(0, shape[1])
    if out.shape != shape:
        raise ProblemSchemaError(
            f"{where}: field '{field}' has shape {out.shape}, expected {shape}"
        )
    return out


def _schema_checked(make, where, *arrays):
    """``make(*arrays)``, the type that checks them, with its ValueError (a
    non-finite entry) raised as a ProblemSchemaError naming the file."""
    try:
        return make(*arrays)
    except ValueError as exc:
        raise ProblemSchemaError(f"{where}: {exc}") from None


def _objective_params(params, name, n, where):
    """The objective params as the builder takes them.

    Every param is a JSON number or an array of JSON numbers
    (:func:`_numbers`), which is passed on as a float64 array. A ``dim``
    param must be the JSON integer ``n``; it is checked here, before the
    builder allocates anything of that size.
    """
    what = f"{where}: objective {name!r} param"
    out = {}
    for key, value in params.items():
        if isinstance(value, list):
            out[key] = _numbers(value, f"{what} '{key}'")
        elif type(value) in (int, float):
            out[key] = value
        else:
            raise ProblemSchemaError(
                f"{what} '{key}' has type {type(value).__name__}; "
                f"objective params are JSON numbers or arrays of them"
            )
    dim = params.get("dim")
    if dim is not None and (type(dim) is not int or dim != n):
        raise ProblemSchemaError(
            f"{what} 'dim' is {dim!r}; the objective dimension must be the integer n={n}"
        )
    return out


def _bracket_count(data):
    """Number of ``[`` and ``{`` bytes in ``data``, a bound on its nesting depth."""
    # '[' is 0x5B and '{' is 0x7B; setting bit 0x20 maps both, and no
    # other byte, to 0x7B
    return int(np.count_nonzero((np.frombuffer(data, np.uint8) | 0x20) == 0x7B))


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
    symmetric is symmetrized with a warning.
    """
    where = str(path)
    with open(path, "rb") as fh:
        doc = _parse(fh.read(), where)
    if not isinstance(doc, dict):
        raise ProblemSchemaError(f"{where}: top level must be an object")

    version = _require(doc, "formatVersion", int, where)
    if isinstance(version, bool) or version != FORMAT_VERSION:
        raise ProblemSchemaError(
            f"{where}: unsupported formatVersion {version} (expected {FORMAT_VERSION})"
        )
    kind = _require(doc, "kind", str, where)
    if kind not in ("qp", "nlp"):
        raise ProblemSchemaError(f"{where}: unknown kind {kind!r} (expected 'qp' or 'nlp')")
    n = _require(doc, "n", int, where)
    m = _require(doc, "m", int, where)
    if isinstance(n, bool) or isinstance(m, bool) or n < 1 or m < 0:
        raise ProblemSchemaError(f"{where}: need n >= 1 and m >= 0, got n={n}, m={m}")

    a = _array_field(doc, "A", (m, n), where)
    b = _array_field(doc, "b", (m,), where)
    constraints = _schema_checked(EqualityConstraints, where, a, b)

    if kind == "qp":
        q = _array_field(doc, "Q", (n, n), where)
        c = _array_field(doc, "c", (n,), where)
        problem = _schema_checked(QpProblem, where, q, c, constraints)
        skew = float(np.max(np.abs(q - q.T), initial=0.0))  # q is finite now
        if skew > 1e-12 * (1.0 + float(np.max(np.abs(q), initial=0.0))):
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
    try:
        # UnknownObjectiveError passes through
        oracle = objective_registry(name, _objective_params(params, name, n, where))
    except (TypeError, ValueError, OverflowError) as exc:  # e.g. an unknown keyword
        raise ProblemSchemaError(f"{where}: objective {name!r} params: {exc}") from None
    if oracle.dim != n:
        raise ProblemSchemaError(
            f"{where}: objective dimension {oracle.dim} does not match n={n}"
        )
    return NlpProblem(
        oracle=oracle,
        constraints=constraints,
        objective_name=name,
        objective_params=params,
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
    keeping the system consistent.
    """

    n: int
    m: int
    seed: int = 0
    q_class: str = "spd"
    rank_deficiency: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0 <= self.m < self.n:
            raise ValueError("need 0 <= m < n")
        if self.q_class not in _Q_CLASSES:
            raise ValueError(
                f"unknown q_class {self.q_class!r}; choose from {_Q_CLASSES}"
            )
        if self.rank_deficiency < 0:
            raise ValueError("rank_deficiency must be nonnegative")
        if self.rank_deficiency > 0 and self.m == 0:
            raise ValueError("rank_deficiency needs at least one constraint row")


def generate(spec):
    """Build the random QP described by ``spec``.

    Entries are drawn uniformly from [-1, 1] with a PCG64 stream seeded
    by ``spec.seed``; the draw order is fixed (Q material, c, A, b,
    duplication choices) so results are reproducible bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m

    def u(*shape):
        return rng.uniform(-1.0, 1.0, shape)

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
