"""Problem files and seeded random problem generation.

The on-disk format is JSON with a fixed top level: ``formatVersion``
(currently 1), ``kind`` (``"qp"`` or ``"nlp"``), the dimensions ``n``
and ``m``, the constraint data ``A`` (m rows of n numbers) and ``b``
(m numbers), plus ``Q``/``c`` for quadratic programs or an
``objective`` object (``name`` + ``params``) for nonlinear ones. Floats
are written with Python's shortest-round-trip repr, so values survive a
save/load cycle bit for bit.
"""

import json
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ProblemParseError, ProblemSchemaError
from .expressions import EqualityConstraints
from .objectives import objective_registry
from .qp import QpProblem

FORMAT_VERSION = 1

_Q_CLASSES = ("spd", "symmetric_indefinite", "asymmetric")


@dataclass
class NlpProblem:
    """A named registry objective under linear equality constraints."""

    oracle: object  # ObjectiveOracle
    constraints: EqualityConstraints
    objective_name: str
    objective_params: dict

    @property
    def n(self):
        return self.constraints.n


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
    """A finite float64 array of the given shape; JSON ``[]`` is an empty matrix."""
    raw = _require(doc, field, list, where)
    try:
        out = np.asarray(raw, dtype=np.float64)
    except (TypeError, ValueError):
        raise ProblemSchemaError(
            f"{where}: field '{field}' is not a rectangular numeric array"
        ) from None
    if out.shape == (0,) and len(shape) == 2:
        out = out.reshape(0, shape[1])
    if out.shape != shape:
        raise ProblemSchemaError(
            f"{where}: field '{field}' has shape {out.shape}, expected {shape}"
        )
    if not np.all(np.isfinite(out)):
        raise ProblemSchemaError(f"{where}: field '{field}' contains non-finite values")
    return out


def load(path):
    """Read a problem file.

    Returns a :class:`~eqopt.qp.QpProblem` or :class:`NlpProblem`
    depending on ``kind``. Malformed JSON raises ProblemParseError with
    the line/column; schema violations raise ProblemSchemaError naming
    the offending field. A quadratic Q that is not symmetric is
    symmetrized with a warning.
    """
    where = str(path)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemParseError(
            f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
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
    constraints = EqualityConstraints(a, b)

    if kind == "qp":
        q = _array_field(doc, "Q", (n, n), where)
        c = _array_field(doc, "c", (n,), where)
        skew = float(np.max(np.abs(q - q.T), initial=0.0))
        if skew > 1e-12 * (1.0 + float(np.max(np.abs(q), initial=0.0))):
            warnings.warn(
                f"{where}: Q is not symmetric (max asymmetry {skew:.3e}); "
                f"using (Q + Q^T)/2",
                stacklevel=2,
            )
        return QpProblem(q=q, c=c, constraints=constraints)

    obj = _require(doc, "objective", dict, where)
    name = _require(obj, "name", str, f"{where}: objective")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise ProblemSchemaError(f"{where}: objective params must be an object")
    try:
        oracle = objective_registry(name, params)  # UnknownObjectiveError passes through
    except TypeError as exc:  # e.g. a missing or unknown keyword
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


def _listify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _listify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_listify(v) for v in value]
    return value


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
        doc["Q"] = problem.q.tolist()
        doc["c"] = problem.c.tolist()
    elif isinstance(problem, NlpProblem):
        doc["objective"] = {
            "name": problem.objective_name,
            "params": _listify(problem.objective_params),
        }
    else:
        raise TypeError(f"cannot save a {type(problem).__name__}")
    doc["A"] = constraints.a.tolist()
    doc["b"] = constraints.b.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


@dataclass
class GeneratorSpec:
    """Recipe for one random QP; equal specs generate identical problems.

    ``q_class`` selects the Hessian family: ``"spd"`` builds
    ``R^T R + 1e-3 n I`` from a random R, ``"symmetric_indefinite"``
    symmetrizes a random matrix, ``"asymmetric"`` leaves it raw (the
    problem symmetrizes on construction). ``rank_deficiency`` appends
    that many duplicated constraint rows, keeping the system consistent.
    """

    n: int
    m: int
    seed: int = 0
    q_class: str = "spd"
    entry_scale: float = 1.0
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
        if not self.entry_scale > 0.0:
            raise ValueError("entry_scale must be positive")
        if self.rank_deficiency < 0:
            raise ValueError("rank_deficiency must be nonnegative")
        if self.rank_deficiency > 0 and self.m == 0:
            raise ValueError("rank_deficiency needs at least one constraint row")


def generate(spec):
    """Build the random QP described by ``spec``.

    Entries are drawn uniformly from [-entry_scale, entry_scale] with a
    PCG64 stream seeded by ``spec.seed``; the draw order is fixed
    (Q material, c, A, b, duplication choices) so results are
    reproducible bit for bit.
    """
    rng = np.random.default_rng(spec.seed)
    n, m = spec.n, spec.m

    def u(*shape):
        return rng.uniform(-spec.entry_scale, spec.entry_scale, shape)

    if spec.q_class == "spd":
        r = u(n, n)
        q = r.T @ r + 1e-3 * n * np.eye(n)
    elif spec.q_class == "symmetric_indefinite":
        raw = u(n, n)
        q = 0.5 * (raw + raw.T)
    else:
        q = u(n, n)
    c = u(n)
    a = u(m, n)
    b = u(m)
    if spec.rank_deficiency > 0:
        picks = rng.integers(0, m, size=spec.rank_deficiency)
        a = np.vstack([a, a[picks]])
        b = np.concatenate([b, b[picks]])
    return QpProblem(q=q, c=c, constraints=EqualityConstraints(a, b))
