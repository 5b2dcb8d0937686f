"""Problem file round-trips, schema errors, and the random generator."""

import json

import numpy as np
import pytest
from numpy.testing import assert_array_equal

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


def test_save_rejects_unknown_type(tmp_path):
    class Fake:
        constraints = EqualityConstraints([[1.0]], [0.0])

    with pytest.raises(TypeError):
        save(tmp_path / "bad.json", Fake())


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
    doc = {
        "formatVersion": FORMAT_VERSION,
        "kind": "nlp",
        "n": 3,
        "m": 1,
        "objective": {"name": "sum_exp", "params": {"dim": 2}},
        "A": [[1.0, 1.0, 1.0]],
        "b": [1.0],
    }
    with pytest.raises(ProblemSchemaError, match="dimension"):
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


def test_generate_spd_class():
    for seed in range(5):
        problem = generate(GeneratorSpec(n=12, m=5, seed=seed, q_class="spd"))
        assert_array_equal(problem.q, problem.q.T)
        assert np.linalg.eigvalsh(problem.q).min() > 0.0


def test_generate_entry_scale():
    problem = generate(GeneratorSpec(n=6, m=2, seed=0, entry_scale=0.25))
    assert np.max(np.abs(problem.constraints.a)) <= 0.25
    assert np.max(np.abs(problem.c)) <= 0.25


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
        GeneratorSpec(n=3, m=1, entry_scale=0.0)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=1, rank_deficiency=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(n=3, m=0, rank_deficiency=1)
