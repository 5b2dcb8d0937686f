"""Problem file round-trips, schema errors, and the random generator."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import orjson
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import eqopt
from eqopt import problems
from eqopt.errors import (
    ProblemParseError,
    ProblemSchemaError,
    UnknownObjectiveError,
)
from eqopt.expressions import EqualityConstraints
from eqopt.objectives import objective_registry
from eqopt.problems import FORMAT_VERSION, GeneratorSpec, NlpProblem, generate, load, save
from eqopt.qp import QpProblem, solve_nullspace


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
        oracle=objective_registry("log_sum_exp", params),
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
                oracle=objective_registry(name, params),
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


def _same_document(a, b):
    """Equal JSON documents with equal types and bit-identical floats."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same_document, a, b))
    if isinstance(a, dict):
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
        with pytest.raises(ProblemSchemaError, match=message):
            load(_write(tmp_path / "p.json", doc))


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
    assert_allclose(problem.oracle.value(np.array([0.5, 0.5])), 0.25 - 2.0 * np.log(1.5))


def test_load_asymmetric_q_warns_and_symmetrizes(tmp_path):
    doc = _qp_doc(Q=[[1.0, 2.0], [0.0, 1.0]])
    with pytest.warns(UserWarning, match="not symmetric"):
        problem = load(_write(tmp_path / "p.json", doc))
    assert_array_equal(problem.q, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_load_symmetric_q_is_silent(tmp_path, recwarn):
    load(_write(tmp_path / "p.json", _qp_doc()))
    assert len(recwarn) == 0


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


def test_the_writer_refuses_what_json_cannot_hold(tmp_path):
    with pytest.raises(TypeError, match="Object of type object is not JSON serializable"):
        problems.write_json({"x": object()}, tmp_path / "doc.json")
