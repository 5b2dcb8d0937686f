"""Problem file round-trips, schema errors, the random generator, and
:func:`~eqopt.problems.solve`, the one dispatch by method."""

import ast
import copy
import json
import os
import pickle
import subprocess
import sys
import warnings
from collections.abc import Mapping
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import orjson
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import eqopt
from eqopt import objectives, problems
from eqopt.errors import (
    ProblemParseError,
    ProblemSchemaError,
    UnknownObjectiveError,
)
from eqopt.expressions import EqualityConstraints
from eqopt.nlp import NewtonConfig, newton_solve, reduce_problem, sqp_iterate
from eqopt.problems import FORMAT_VERSION, GeneratorSpec, NlpProblem, generate, load, save, solve
from eqopt.qp import QpProblem, solve_kkt, solve_nullspace, solve_projector


def _write(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _qp_doc(**overrides):
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "qp",
        "n": 2,
        "m": 1,
        "Q": [[2.0, 0.0], [0.0, 2.0]],
        "c": [0.0, 0.0],
        "A": [[1.0, 1.0]],
        "b": [1.0],
    }
    doc.update(overrides)
    return doc


# ---------------------------------------------------------------------------
# save / load round trips


def test_qp_round_trip_is_exact(tmp_path):
    # awkward floats: non-representable decimals, subnormal-adjacent tiny
    # values, and a 17-digit value that only survives shortest-repr output
    q = np.array([[0.1, 1.0 / 3.0], [1.0 / 3.0, np.pi]])
    c = np.array([1e-300, 6.123233995736766e-17])
    a = np.array([[0.30000000000000004, -0.0]])
    b = np.array([-1.2345678901234567])
    problem = QpProblem(q=q, c=c, constraints=EqualityConstraints(a, b))

    path = tmp_path / "round.json"
    save(path, problem)
    back = load(path)

    assert isinstance(back, QpProblem)
    assert_array_equal(back.q, problem.q)
    assert_array_equal(back.c, problem.c)
    assert_array_equal(back.constraints.a, a)
    assert_array_equal(back.constraints.b, b)


def test_nlp_round_trip_preserves_params(tmp_path):
    params = {"a": [[1.0, 0.1], [0.25, 1.0 / 3.0], [-2.0, 1e-8]]}
    problem = NlpProblem(
        constraints=EqualityConstraints([[1.0, 1.0]], [0.5]),
        objective_name="log_sum_exp",
        objective_params=params,
    )
    path = tmp_path / "nlp.json"
    save(path, problem)
    back = load(path)

    assert isinstance(back, NlpProblem)
    assert back.objective_name == "log_sum_exp"
    assert back.objective_params == params
    assert back.oracle.dim == 2
    x = np.array([0.3, -0.7])
    assert back.oracle.value(x) == problem.oracle.value(x)
    assert_array_equal(back.constraints.a, problem.constraints.a)


def test_save_then_load_generated_problem(tmp_path):
    problem = generate(GeneratorSpec(n=7, m=3, seed=11))
    path = tmp_path / "gen.json"
    save(path, problem)
    back = load(path)
    assert_array_equal(back.q, problem.q)
    assert_array_equal(back.c, problem.c)
    assert_array_equal(back.constraints.a, problem.constraints.a)
    assert_array_equal(back.constraints.b, problem.constraints.b)


def test_nlp_round_trip_of_numpy_params(tmp_path):
    # numpy arrays and scalars in the params are written as the lists and
    # numbers tolist() gives: the same bytes as the plain Python params
    numpy_params = {"rates": np.array([0.5, 1.0 / 3.0, 2.0]), "dim": np.int64(3)}
    barrier_params = {
        "q": np.eye(3),
        "barrier_a": np.array([[1.0, 0.0, 0.0]]),
        "barrier_b": np.array([2.0]),
        "mu": np.float64(0.1),
    }
    for name, params in (("sum_exp", numpy_params), ("neg_log_barrier_quadratic", barrier_params)):
        plain = {key: value.tolist() for key, value in params.items()}
        paths = []
        for tag, record in (("numpy", params), ("plain", plain)):
            problem = NlpProblem(
                constraints=EqualityConstraints([[1.0, 1.0, 1.0]], [0.5]),
                objective_name=name,
                objective_params=record,
            )
            paths.append(tmp_path / f"{name}-{tag}.json")
            save(paths[-1], problem)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        back = load(paths[0])
        assert _same_document(back.objective_params, plain)
        x = np.array([0.1, 0.2, 0.3])
        assert back.oracle.value(x) == problem.oracle.value(x)


def test_save_rejects_unknown_type(tmp_path):
    class Fake:
        constraints = EqualityConstraints([[1.0]], [0.0])

    with pytest.raises(TypeError):
        save(tmp_path / "bad.json", Fake())


def _json_type(value):
    """The type of a JSON value: any mapping is an object and any list an
    array (a problem holds its objective params read-only), else its own."""
    return dict if isinstance(value, Mapping) else list if isinstance(value, list) else type(value)


def _same_document(a, b):
    """Equal JSON documents with equal types and bit-identical floats."""
    if _json_type(a) is not _json_type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_document, a, b))
    if isinstance(a, Mapping):
        return list(a) == list(b) and all(_same_document(a[k], b[k]) for k in a)
    return a == b


def test_qp_round_trip_is_exact_on_edge_floats(tmp_path):
    # the smallest subnormal, the smallest normal, the largest finite
    # double, a negative zero, and two decimals a naive parser rounds wrong
    edge = np.array(
        [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 0.1, 1e23]
    )
    # Q stays small: symmetrizing a Q that holds the largest double overflows
    problem = QpProblem(
        q=np.eye(edge.size), c=edge, constraints=EqualityConstraints(edge[None, :], edge[:1])
    )
    path = tmp_path / "edge.json"
    save(path, problem)
    back = load(path)

    for loaded, saved in (
        (back.q, problem.q),
        (back.c, problem.c),
        (back.constraints.a, problem.constraints.a),
        (back.constraints.b, problem.constraints.b),
    ):
        assert_array_equal(loaded.view(np.uint64), saved.view(np.uint64))


def test_orjson_and_the_standard_library_read_the_same_document(tmp_path):
    problem = generate(GeneratorSpec(n=20, m=8, seed=5, q_class="symmetric_indefinite"))
    path = tmp_path / "gen.json"
    save(path, problem)
    data = path.read_bytes()
    assert problems._bracket_count(data) <= problems.ORJSON_MAX_BRACKETS
    assert _same_document(orjson.loads(data), json.loads(data.decode("utf-8")))


def test_a_file_over_the_bracket_bound_loads_the_same(tmp_path, monkeypatch):
    problem = generate(GeneratorSpec(n=9, m=4, seed=3, rank_deficiency=1))
    path = tmp_path / "gen.json"
    save(path, problem)
    fast = load(path)
    monkeypatch.setattr(problems, "ORJSON_MAX_BRACKETS", 0)
    slow = load(path)
    for got, want in ((slow.q, fast.q), (slow.c, fast.c), (slow.constraints.a, fast.constraints.a)):
        assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_bracket_count_counts_every_opening_bracket():
    assert problems._bracket_count(b"") == 0
    assert problems._bracket_count(b'{"a": [[1], {}], "s": "[{"}') == 6
    # bytes one bit away from '[' and '{' are not brackets
    assert problems._bracket_count(bytes([0x5B ^ 0x01, 0x7B ^ 0x80, 0x3B, 0x1B])) == 0
    rng = np.random.default_rng(35)
    buffers = [bytes([v]) for v in range(256)] + [bytes(range(256)) * 3]
    buffers += [rng.integers(0, 256, int(size), dtype=np.uint8).tobytes()
                for size in rng.integers(1, 1 << 18, 20)]
    buffers.append(rng.choice(np.frombuffer(b"[{}] ,", np.uint8), 1 << 20).tobytes())
    for data in buffers:
        assert problems._bracket_count(data) == data.count(b"[") + data.count(b"{")


# ---------------------------------------------------------------------------
# load errors


def test_load_invalid_json_reports_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"formatVersion": 1,,}', encoding="utf-8")
    with pytest.raises(ProblemParseError) as err:
        load(path)
    assert "line 1" in str(err.value)


def test_load_missing_field_names_it(tmp_path):
    doc = _qp_doc()
    del doc["Q"]
    with pytest.raises(ProblemSchemaError, match="'Q'"):
        load(_write(tmp_path / "p.json", doc))


def test_load_wrong_shape_names_field(tmp_path):
    doc = _qp_doc(A=[[1.0, 1.0, 1.0]])
    with pytest.raises(ProblemSchemaError, match="'A'"):
        load(_write(tmp_path / "p.json", doc))
    doc = _qp_doc(c=[0.0])
    with pytest.raises(ProblemSchemaError, match="'c'"):
        load(_write(tmp_path / "p.json", doc))


def test_load_ragged_matrix_rejected(tmp_path):
    doc = _qp_doc(n=2, m=2, A=[[1.0, 1.0], [1.0]], b=[1.0, 2.0])
    with pytest.raises(ProblemSchemaError, match="'A'"):
        load(_write(tmp_path / "p.json", doc))


def test_load_top_level_must_be_an_object(tmp_path):
    for doc in ([_qp_doc()], 1.0, "qp", None):
        with pytest.raises(ProblemSchemaError, match="top level must be an object"):
            load(_write(tmp_path / "p.json", doc))


def test_load_bad_kind_and_version(tmp_path):
    with pytest.raises(ProblemSchemaError, match="kind"):
        load(_write(tmp_path / "p.json", _qp_doc(kind="lp")))
    for version in (2, True):
        with pytest.raises(ProblemSchemaError, match="formatVersion"):
            load(_write(tmp_path / "p.json", _qp_doc(formatVersion=version)))


def test_load_bad_dimensions(tmp_path):
    with pytest.raises(ProblemSchemaError):
        load(_write(tmp_path / "p.json", _qp_doc(n=0)))
    with pytest.raises(ProblemSchemaError):
        load(_write(tmp_path / "p.json", _qp_doc(n=True)))
    with pytest.raises(ProblemSchemaError):
        load(_write(tmp_path / "p.json", _qp_doc(n="2")))


def test_load_non_finite_entry_rejected(tmp_path):
    # json.load happily parses the Infinity literal, so this must be
    # caught by the schema check rather than the parser
    path = tmp_path / "inf.json"
    path.write_text(
        '{"formatVersion": 1, "kind": "qp", "n": 2, "m": 1,'
        ' "Q": [[2.0, 0.0], [0.0, 2.0]], "c": [0.0, Infinity],'
        ' "A": [[1.0, 1.0]], "b": [1.0]}',
        encoding="utf-8",
    )
    with pytest.raises(ProblemSchemaError, match="non-finite"):
        load(path)


def test_load_checks_each_array_once(tmp_path, input_checks):
    # the shape is the schema's to check; that the entries are finite is
    # checked by EqualityConstraints and QpProblem alone
    load(_write(tmp_path / "p.json", _qp_doc()))
    assert input_checks == [
        ("as_matrix", "A"),
        ("as_vector", "b", 1),
        ("as_matrix", "Q"),
        ("as_vector", "c", 2),
    ]


def test_load_huge_integer_is_a_schema_error(tmp_path):
    # 400 digits overflow float64; the parser hands over an int either way
    path = tmp_path / "big.json"
    text = json.dumps(_qp_doc()).replace('"c": [0.0, 0.0]', '"c": [0.0, 1' + "0" * 400 + "]")
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ProblemSchemaError, match="'c'"):
        load(path)


def test_load_integer_beyond_64_bits_reads_the_same_on_both_parsers(tmp_path, monkeypatch):
    # orjson reads 10**23 as a float, the standard library as an int
    path = _write(tmp_path / "p.json", _qp_doc(c=[0.5, 10**23]))
    assert load(path).c[1] == 1e23
    monkeypatch.setattr(problems, "ORJSON_MAX_BRACKETS", 0)
    assert load(path).c[1] == 1e23


def test_load_deep_nesting_is_a_parse_error(tmp_path):
    # deeper than both the bracket bound and Python's recursion limit, yet
    # shallow enough that orjson would survive it, were it ever handed over
    depth = 20_000
    path = tmp_path / "deep.json"
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    with pytest.raises(ProblemParseError, match="nested too deeply"):
        load(path)


def test_load_invalid_utf8_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(json.dumps(_qp_doc(kind="qpX")).encode().replace(b"qpX", b"qp\xe9"))
    with pytest.raises(ProblemParseError, match="UTF-8"):
        load(path)


@pytest.mark.parametrize(
    "entries",
    [[0.0, "1"], [True, False], [None, 1.0], [{}, 1.0], [True, 1.5], [0, False]],
    ids=["str", "bool", "null", "object", "bool-among-floats", "bool-among-ints"],
)
def test_load_numeric_field_accepts_only_json_numbers(tmp_path, entries):
    with pytest.raises(ProblemSchemaError, match="'c'"):
        load(_write(tmp_path / "p.json", _qp_doc(c=entries)))


def test_load_integers_are_numbers(tmp_path):
    problem = load(_write(tmp_path / "p.json", _qp_doc(Q=[[2, 0], [0, 2]], b=[1])))
    assert problem.q.dtype == np.float64
    assert_array_equal(problem.q, 2.0 * np.eye(2))


def test_load_deep_nesting_never_reaches_orjson(tmp_path):
    # orjson recurses on the C stack and segfaults long before depth
    # 200,000; a child process turns a broken guard into a failed test
    # rather than a dead test run
    depth = 200_000
    path = tmp_path / "deep.json"
    path.write_bytes(b"[" * depth + b"]" * depth)
    script = (
        "import sys\n"
        "from eqopt.errors import ProblemParseError\n"
        "from eqopt.problems import load\n"
        "try:\n"
        "    load(sys.argv[1])\n"
        "except ProblemParseError:\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    src = str(Path(eqopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run(
        [sys.executable, "-c", script, str(path)], env=env, capture_output=True, timeout=120
    )
    assert child.returncode == 0, (child.returncode, child.stderr.decode(errors="replace"))


def test_load_unknown_objective(tmp_path):
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "does_not_exist", "params": {}},
        "A": [[1.0, 1.0]],
        "b": [1.0],
    }
    with pytest.raises(UnknownObjectiveError, match="does_not_exist"):
        load(_write(tmp_path / "p.json", doc))


def test_load_objective_dimension_mismatch(tmp_path):
    # a dim param that is not n, and a log_sum_exp whose a has n + 1 columns
    for objective, message in (
        ({"name": "sum_exp", "params": {"dim": 2}}, "'dim' is 2; the objective dimension"),
        (
            {"name": "log_sum_exp", "params": {"a": [[1.0, 0.0, 0.0, 1.0]]}},
            "objective dimension 4 does not match n=3",
        ),
        ({"name": "sum_exp", "params": {"rates": [1.0, 2.0]}}, "dimension 2 does not match n=3"),
    ):
        doc = {
            "formatVersion": FORMAT_VERSION,
            "kind": "nlp",
            "n": 3,
            "m": 1,
            "objective": objective,
            "A": [[1.0, 1.0, 1.0]],
            "b": [1.0],
        }
        path = _write(tmp_path / "p.json", doc)
        with pytest.raises(ProblemSchemaError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)


def test_a_nonlinear_problem_refuses_an_objective_of_another_dimension(tmp_path):
    # so save cannot write a file that load refuses; an unknown name and
    # params the builder refuses constructed and saved such a file
    constraints = EqualityConstraints([[1.0, 1.0]], [1.0])
    with pytest.raises(ValueError, match=r"^objective dimension 3 does not match n=2$"):
        NlpProblem(constraints, "sum_exp", {"rates": [1.0, 2.0, 3.0]})
    # a dim param is refused before the builder allocates that size, as load refuses it
    with pytest.raises(ValueError, match=r"^objective 'sum_exp' param 'dim' is 3; .* integer n=2$"):
        NlpProblem(constraints, "sum_exp", {"dim": 3})
    with pytest.raises(UnknownObjectiveError, match="unknown objective 'cubic'"):
        NlpProblem(constraints, "cubic", {"dim": 2})
    with pytest.raises(ValueError, match=r"^objective 'sum_exp' params: .*'bogus'"):
        NlpProblem(constraints, "sum_exp", {"dim": 2, "bogus": 1})
    problem = NlpProblem(constraints, "sum_exp", {"dim": 2})
    save(tmp_path / "p.json", problem)
    assert load(tmp_path / "p.json").oracle.dim == 2


_BARRIER = {"q": [[1.0, 0.0], [0.0, 1.0]], "barrier_a": [[1.0, 0.0]], "barrier_b": [1.0]}


@pytest.mark.parametrize(
    "name, params",
    [
        ("log_sum_exp", {"a": [["1", 2.0], [0.0, 1.0]]}),
        ("log_sum_exp", {"a": [[10**400, 1.0], [0.0, 1.0]]}),
        ("sum_exp", {"rates": [True, 1.0]}),
        ("neg_log_barrier_quadratic", {**_BARRIER, "mu": "2"}),
        ("neg_log_barrier_quadratic", {**_BARRIER, "mu": True}),
        ("neg_log_barrier_quadratic", {**_BARRIER, "mu": {"value": 2.0}}),
        ("neg_log_barrier_quadratic", {**_BARRIER, "mu": 10**400}),
        ("log_sum_exp", {"a": [[1.0, 0.0], [0.0, 1.0]], "shift": None}),
        ("sum_exp", {"dim": 1_000_000_000_000}),
        ("sum_exp", {"dim": 2.0}),
        ("sum_exp", {"dim": True}),
        ("sum_exp", {"dim": [2]}),
    ],
    ids=["string-entry", "huge-entry", "boolean-entry", "string-mu", "boolean-mu",
         "object-mu", "huge-mu", "null-shift", "dim-1e12", "dim-2.0", "dim-true", "dim-list"],
)
def test_a_nonlinear_problem_refuses_the_params_load_refuses(tmp_path, monkeypatch, name, params):
    # the constructor states the file's number rule, so save cannot write
    # such params, and load's text is the constructor's after the file name;
    # neither runs the builder, which would allocate 7 TiB for the 1e12 dim
    def refuse(**kwargs):
        raise AssertionError("the builder ran on params the number rule refuses")

    monkeypatch.setitem(objectives._REGISTRY, name, refuse)
    doc = _qp_doc(kind="nlp", objective={"name": name, "params": params})
    del doc["Q"], doc["c"]
    path = _write(tmp_path / "p.json", doc)
    with pytest.raises(ProblemSchemaError) as from_file:
        load(path)
    with pytest.raises(ValueError) as from_library:
        NlpProblem(EqualityConstraints([[1.0, 1.0]], [1.0]), name, params)
    assert str(from_file.value) == f"{path}: {from_library.value}"
    assert str(from_library.value).startswith(f"objective {name!r} param ")


def test_load_hands_the_builder_float64_arrays(tmp_path, monkeypatch):
    # each array param is converted once, by the problem, and the builder
    # checks the float64 array it is handed without converting it again
    seen = []
    builder = objectives._REGISTRY["neg_log_barrier_quadratic"]

    def spy(**kwargs):
        seen.append(kwargs)
        return builder(**kwargs)

    monkeypatch.setitem(objectives._REGISTRY, "neg_log_barrier_quadratic", spy)
    params = {"q": [[1, 0], [0, 1]], "barrier_a": [[1.0, 0.0]], "barrier_b": [2.0], "mu": 2}
    doc = _qp_doc(kind="nlp", objective={"name": "neg_log_barrier_quadratic", "params": params})
    del doc["Q"], doc["c"]
    problem = load(_write(tmp_path / "p.json", doc))
    (args,) = seen
    assert args.keys() == params.keys() and args["mu"] == 2
    for key in ("q", "barrier_a", "barrier_b"):
        assert type(args[key]) is np.ndarray and args[key].dtype == np.float64, key
        assert_array_equal(args[key], params[key])
    assert problem.objective_params == params
    # float64 arrays from a caller reach the builder as the problem's own copies
    arrays = {key: np.array(params[key], dtype=np.float64) for key in ("q", "barrier_a", "barrier_b")}
    problem = NlpProblem(problem.constraints, "neg_log_barrier_quadratic", {**arrays, "mu": 2.0})
    for key in arrays:
        assert seen[-1][key] is problem.objective_params[key], key


def test_a_nonlinear_problem_solves_the_objective_it_saves(tmp_path):
    # an oracle passed in was solved, sum exp(x), while save wrote the
    # params, sum exp(5 x); and replace kept that oracle for new params
    constraints = EqualityConstraints([[1.0, 1.0]], [1.0])
    given = NlpProblem(
        oracle=objectives.sum_exp(dim=2),
        constraints=constraints,
        objective_name="sum_exp",
        objective_params={"rates": [5.0, 5.0]},
    )
    replaced = replace(given, objective_params={"rates": [3.0, 3.0]})
    x = np.array([0.3, 0.7])
    for problem, expected in ((given, np.exp(1.5) + np.exp(3.5)),
                              (replaced, np.exp(0.9) + np.exp(2.1))):
        save(tmp_path / "p.json", problem)
        back = load(tmp_path / "p.json")
        assert_allclose(problem.oracle.value(x), expected, rtol=1e-15)
        assert problem.oracle.value(x) == back.oracle.value(x)
        assert solve(problem, "newton").final_h == solve(back, "newton").final_h


def test_load_objective_params_must_be_an_object(tmp_path):
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "sum_exp", "params": [2]},
        "A": [[1.0, 1.0]],
        "b": [1.0],
    }
    with pytest.raises(ProblemSchemaError, match="objective params must be an object"):
        load(_write(tmp_path / "p.json", doc))


def test_load_objective_params_that_do_not_fit_the_builder(tmp_path):
    # an unknown and a missing keyword: schema errors naming the objective,
    # not a bare TypeError from the builder
    for name, params in (("sum_exp", {"dim": 2, "bogus": 1.0}), ("log_sum_exp", {})):
        doc = {
            "formatVersion": FORMAT_VERSION,
            "kind": "nlp",
            "n": 2,
            "m": 1,
            "objective": {"name": name, "params": params},
            "A": [[1.0, 1.0]],
            "b": [1.0],
        }
        with pytest.raises(ProblemSchemaError, match=name):
            load(_write(tmp_path / "p.json", doc))


def test_load_objective_params_the_builder_cannot_read(tmp_path):
    # a string entry and an integer beyond float64 in the objective's
    # matrix: schema errors naming the objective, not a bare ValueError
    # or OverflowError from numpy
    for a in ([["x", 1.0], [0.0, 1.0]], [[10**400, 1.0], [0.0, 1.0]]):
        doc = {
            "formatVersion": FORMAT_VERSION,
            "kind": "nlp",
            "n": 2,
            "m": 1,
            "objective": {"name": "log_sum_exp", "params": {"a": a}},
            "A": [[1.0, 1.0]],
            "b": [1.0],
        }
        with pytest.raises(ProblemSchemaError, match="log_sum_exp"):
            load(_write(tmp_path / "p.json", doc))


def test_load_keeps_objective_params_as_written(tmp_path):
    # the builder gets float64 arrays; the record keeps the parsed JSON
    params = {"q": [[1, 0], [0, 1]], "barrier_a": [[1.0, 0.0]], "barrier_b": [2.0], "mu": 2}
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "neg_log_barrier_quadratic", "params": params},
        "A": [[1.0, 1.0]],
        "b": [1.0],
    }
    problem = load(_write(tmp_path / "p.json", doc))
    assert problem.objective_params == params
    # and holds it read-only, down to the rows of an array
    with pytest.raises(TypeError):
        problem.objective_params["mu"] = 3
    with pytest.raises(TypeError):
        problem.objective_params["q"].append([0, 0])
    with pytest.raises(TypeError):
        problem.objective_params["q"][0][0] = 5
    assert problem.objective_params == params
    assert_allclose(problem.oracle.value(np.array([0.5, 0.5])), 0.25 - 2.0 * np.log(1.5))
    # a deep copy and a pickle round trip keep them equal and read-only
    for held in (copy.deepcopy(problem.objective_params),
                 pickle.loads(pickle.dumps(problem.objective_params))):
        assert held == params
        assert type(held) is type(problem.objective_params)
        assert type(held["q"]) is type(problem.objective_params["q"])
        with pytest.raises(TypeError):
            held["mu"] = 3
        with pytest.raises(TypeError):
            held["q"][0].append(0)


def test_load_asymmetric_q_warns_and_symmetrizes(tmp_path):
    doc = _qp_doc(Q=[[1.0, 2.0], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="not symmetric"):
        problem = load(_write(tmp_path / "p.json", doc))
    assert_array_equal(problem.q, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_load_an_asymmetry_beyond_float_range_warns_without_overflow(tmp_path):
    # Q - Q^T overflows: the note says inf, and numpy warned "overflow
    # encountered in subtract" first
    doc = _qp_doc(Q=[[2.0, 1e308], [-1e308, 2.0]])
    with pytest.warns(UserWarning, match=r"not symmetric \(max asymmetry inf\)"):
        problem = load(_write(tmp_path / "p.json", doc))
    assert_array_equal(problem.q, np.array([[2.0, 0.0], [0.0, 2.0]]))


def test_load_symmetric_q_is_silent(tmp_path, recwarn):
    load(_write(tmp_path / "p.json", _qp_doc()))
    assert len(recwarn) == 0


@pytest.mark.parametrize(
    "q, held",
    [
        # exactly symmetric, but halving rounds 5e-324 to 0: the held Q differs
        # from the file's, so the asymmetry is measured, and it is 0
        ([[2.0, 5e-324], [5e-324, -5e-324]], [[2.0, 0.0], [0.0, 0.0]]),
        # an asymmetry of 1e-13, below the cut 1e-12 (1 + max|Q|)
        ([[2.0, 1e-13], [0.0, 2.0]], [[2.0, 5e-14], [5e-14, 2.0]]),
    ],
)
def test_load_a_q_symmetric_to_within_the_cut_is_silent(tmp_path, q, held):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        problem = load(_write(tmp_path / "p.json", _qp_doc(Q=q)))
    assert_array_equal(problem.q, np.array(held))


# ---------------------------------------------------------------------------
# generator


def test_generate_is_deterministic():
    spec = GeneratorSpec(n=9, m=4, seed=123, q_class="symmetric_indefinite")
    first = generate(spec)
    second = generate(GeneratorSpec(n=9, m=4, seed=123, q_class="symmetric_indefinite"))
    assert_array_equal(first.q, second.q)
    assert_array_equal(first.c, second.c)
    assert_array_equal(first.constraints.a, second.constraints.a)
    assert_array_equal(first.constraints.b, second.constraints.b)

    other = generate(GeneratorSpec(n=9, m=4, seed=124, q_class="symmetric_indefinite"))
    assert not np.array_equal(first.q, other.q)


def test_each_q_class_draws_a_different_hessian():
    # a class that repeated another would only name the same problems twice
    qs = [generate(GeneratorSpec(n=6, m=2, q_class=name)).q for name in problems._Q_CLASSES]
    for i in range(len(qs)):
        for j in range(i + 1, len(qs)):
            assert not np.array_equal(qs[i], qs[j]), problems._Q_CLASSES[i:j + 1]


def test_generate_spd_class():
    for seed in range(5):
        problem = generate(GeneratorSpec(n=12, m=5, seed=seed, q_class="spd"))
        assert_array_equal(problem.q, problem.q.T)
        assert np.linalg.eigvalsh(problem.q).min() > 0.0


def test_generate_rank_deficiency_duplicates_rows():
    spec = GeneratorSpec(n=8, m=3, seed=7, rank_deficiency=2)
    problem = generate(spec)
    a, b = problem.constraints.a, problem.constraints.b
    assert a.shape == (5, 8)
    assert np.linalg.matrix_rank(a) <= 3
    # appended rows are exact copies, so the system stays consistent
    for i in range(3, 5):
        matches = [j for j in range(3) if np.array_equal(a[i], a[j])]
        assert matches, f"row {i} is not a duplicate"
        assert b[i] == b[matches[0]]
    stacked = np.hstack([a, b[:, None]])
    assert np.linalg.matrix_rank(stacked) == np.linalg.matrix_rank(a)


def test_generated_spd_problem_solves_cleanly():
    problem = generate(GeneratorSpec(n=15, m=6, seed=42))
    solution = solve_nullspace(problem)
    assert solution.classification == "min"
    assert solution.constraint_residual < 1e-9


def test_generator_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(n=0, m=0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=3)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=1, q_class="dense")
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=1, rank_deficiency=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=0, rank_deficiency=1)
    # generate raised numpy's bare "expected non-negative integer"
    with pytest.raises(ValueError, match="^seed must be nonnegative$"):
        GeneratorSpec(n=3, m=1, seed=-1)
    # integers, not floats or bools: generate raised a bare numpy TypeError
    for spec, name in (
        (dict(n=2.5, m=1), "n"),
        (dict(n=True, m=0), "n"),
        (dict(n=3, m=1, seed=1.5), "seed"),
        (dict(n=3, m=1, rank_deficiency=1.0), "rank_deficiency"),
        (dict(n=3, m=np.True_), "m"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            GeneratorSpec(**spec)
    assert generate(GeneratorSpec(n=np.int64(3), m=1, seed=np.uint64(5))).constraints.n == 3


# ---------------------------------------------------------------------------
# one JSON writer


def test_only_the_problems_module_writes_json():
    # every document eqopt writes goes through problems.write_json, so the
    # float format and the numpy conversion live in one place
    writers = {"dump", "dumps"}
    offenders = []
    for path in sorted(Path(eqopt.__file__).parent.glob("*.py")):
        if path.name == "problems.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            called = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            if called and node.func.attr in writers and getattr(node.func.value, "id", None) == "json":
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                offenders += [f"{path.name}:{node.lineno}" for a in node.names if a.name in writers]
    assert offenders == []


def test_only_the_linalg_module_silences_numpy():
    # the numpy error state of a solve is stated once, as
    # linalg.overflow_checked; a module that ignored overflow on its own
    # would state a second policy
    offenders = []
    for path in sorted(Path(eqopt.__file__).parent.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            func = getattr(node, "func", None)  # only a call has one
            called = getattr(func, "attr", getattr(func, "id", None)) == "errstate"
            values = [k.value for k in node.keywords] + list(node.args) if called else []
            if any(isinstance(v, ast.Constant) and v.value == "ignore" for v in values):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_writer_refuses_what_json_cannot_hold(tmp_path):
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        problems.write_json({"x": object()}, tmp_path / "doc.json")


# ---------------------------------------------------------------------------
# solve: the one dispatch by method


def _same(a, b):
    """Whether two results hold the same values bit for bit, field by field."""
    if is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a)
        )
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return type(a) is type(b) and np.array_equal(a, b)


def _lse_problem():
    """``min log_sum_exp(C x)`` on ``x1 + x2 + x3 = 1``, with a minimum."""
    params = {"a": [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, -1.0]]}
    return NlpProblem(EqualityConstraints([[1.0, 1.0, 1.0]], [1.0]), "log_sum_exp", params)


# each method called directly: the QP routes themselves, and Newton on the
# oracle given (for a QP, the quadratic the public builder makes of Q and c)
_DIRECT = {
    "projector": solve_projector,
    "nullspace": solve_nullspace,
    "kkt": solve_kkt,
    "newton": lambda p, oracle: newton_solve(reduce_problem(oracle, p.constraints)),
    "sqp": lambda p, oracle: sqp_iterate(reduce_problem(oracle, p.constraints)),
}


@pytest.mark.parametrize("method", [*problems._QP_SOLVERS, *problems._NEWTON_SOLVERS])
def test_solve_returns_what_the_method_returns(method):
    spd = generate(GeneratorSpec(n=12, m=5, seed=3))
    indefinite = generate(GeneratorSpec(n=12, m=5, seed=4, q_class="symmetric_indefinite"))
    if method in problems._QP_SOLVERS:
        for problem in (spd, indefinite):
            assert _same(solve(problem, method), _DIRECT[method](problem)), method
        return
    lse = _lse_problem()
    assert _same(solve(lse, method), _DIRECT[method](lse, lse.oracle))
    direct = _DIRECT[method](spd, objectives.quadratic(spd.q, spd.c))
    assert direct.converged and _same(solve(spd, method), direct)


def test_solve_passes_eps_to_the_eliminations_and_neither_setting_to_kkt(monkeypatch):
    calls = []

    def recorder(name):
        return lambda *args: calls.append((name, args))

    for name in problems._QP_SOLVERS:
        monkeypatch.setitem(problems._QP_SOLVERS, name, recorder(name))
    problem = generate(GeneratorSpec(n=4, m=2))
    for name in problems._QP_SOLVERS:
        solve(problem, name, eps=1e-6, config=NewtonConfig(max_iter=1))
    assert calls == [
        ("projector", (problem, 1e-6)),
        ("nullspace", (problem, 1e-6)),
        ("kkt", (problem,)),
    ]
    # and it is the cutoff the method reads: 1e-6 drops a row 1e-9 off another
    monkeypatch.undo()
    rows = EqualityConstraints([[1.0, 0.0, 0.0], [1.0, 1e-9, 0.0]], [1.0, 1.0])
    near = QpProblem(np.eye(3), np.ones(3), rows)
    for name in ("projector", "nullspace"):
        coarse = solve(near, name, eps=1e-6)
        assert _same(coarse, _DIRECT[name](near, 1e-6))
        assert not _same(coarse, solve(near, name))


def test_solve_runs_newton_under_the_config():
    for problem in (generate(GeneratorSpec(n=6, m=2, seed=1)), _lse_problem()):
        for method in problems._NEWTON_SOLVERS:
            g0 = np.full(problem.constraints.n - problem.constraints.m, 0.5)
            trace = solve(problem, method, config=NewtonConfig(max_iter=1, g0=g0))
            assert len(trace.iterations) == 1, method
            assert_array_equal(trace.iterations[0].g, g0)


def test_solve_refuses_an_unknown_method_and_a_qp_method_on_a_nonlinear_problem():
    with pytest.raises(ValueError, match="unknown method 'simplex'"):
        solve(generate(GeneratorSpec(n=3, m=1)), "simplex")
    for method in problems._QP_SOLVERS:
        with pytest.raises(ValueError, match=f"method '{method}' requires a quadratic problem"):
            solve(_lse_problem(), method)


def test_the_oracle_of_a_qp_is_its_quadratic():
    problem = generate(GeneratorSpec(n=6, m=2, seed=1, q_class="symmetric_indefinite"))
    oracle, ref = problem.oracle, objectives.quadratic(problem.q, problem.c)
    assert oracle.dim == ref.dim == 6
    for x in np.random.default_rng(0).uniform(-2, 2, (3, 6)):
        assert oracle.value(x) == ref.value(x)
        assert_array_equal(oracle.gradient(x), ref.gradient(x))
        assert_array_equal(oracle.hessian(x), ref.hessian(x))


def _referenced_names(path):
    """``(line, name)`` for every name, attribute, imported name and part of
    an imported module's path in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            names = (node.module or "").split(".")
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        yield from ((node.lineno, name) for name in names if name)


def _class_lines(path, name):
    """The line numbers of the class ``name`` in the module at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return range(node.lineno, node.end_lineno + 1)
    raise AssertionError(f"no class {name} in {path.name}")


def test_the_cli_reaches_the_solvers_only_through_solve():
    # which routine runs for which method and problem kind is decided once,
    # in problems.solve: cli names no solver and no objective builder; only
    # objectives and QpProblem.oracle (in qp) build the quadratic of a Q and
    # c checked already; and only NlpProblem turns an objective's name and
    # params into its oracle (objectives defines the registry, __init__
    # re-exports it)
    solvers = {"solve_projector", "solve_nullspace", "solve_kkt", "newton_solve", "sqp_iterate",
               "reduce_problem", "objectives"}
    package = Path(eqopt.__file__).parent
    offenders = [f"cli.py:{line} names {name}"
                 for line, name in _referenced_names(package / "cli.py") if name in solvers]
    nlp_problem = _class_lines(package / "problems.py", "NlpProblem")
    for path in sorted(package.glob("*.py")):
        for line, name in _referenced_names(path):
            if name == "_checked_quadratic" and path.name not in ("objectives.py", "qp.py"):
                offenders.append(f"{path.name}:{line} names {name}")
            if name == "objective_registry" and path.name not in ("objectives.py", "__init__.py"):
                if path.name != "problems.py" or line not in nlp_problem:
                    offenders.append(f"{path.name}:{line} names {name}")
    assert offenders == []
