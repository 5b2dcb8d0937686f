"""End-to-end tests for the eqopt command line driver.

Everything goes through ``cli.main(argv)`` so the exit codes and emitted
files are exactly what a shell user would see.
"""

import argparse
import inspect
import io
import json
import math
import warnings
from dataclasses import is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from eqopt import cli, expressions, objectives, problems, qp, selfcheck
from eqopt.errors import (
    ComputationError,
    DivergenceError,
    InfeasibleConstraintsError,
    InfeasibleStartError,
    LineSearchError,
    NonConvexError,
    OracleUnavailableError,
)
from eqopt.expressions import EqualityConstraints
from eqopt.nlp import NewtonTrace


def _write_doc(path, doc):
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return str(path)


def _qp_file(tmp_path, name="qp.json", **overrides):
    doc = {
        "formatVersion": 1,
        "kind": "qp",
        "n": 2,
        "m": 1,
        "Q": [[2.0, 0.0], [0.0, 2.0]],
        "c": [0.0, 0.0],
        "A": [[1.0, 0.0]],
        "b": [1.0],
    }
    doc.update(overrides)
    return _write_doc(tmp_path / name, doc)


def _lse_file(tmp_path, name="nlp.json", a=((1.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), b=2.0):
    """``min log_sum_exp(a x)`` subject to ``x1 + x2 = b``."""
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "log_sum_exp", "params": {"a": [list(row) for row in a]}},
        "A": [[1.0, 1.0]],
        "b": [b],
    }
    return _write_doc(tmp_path / name, doc)


# min log(e^{3 x1} + e^{x2} + e^{-x1-x2}) on x1 + x2 = 4: the optimum has
# e^{4 x1} = e^4 / 3, and Newton from the minimum-norm point (2, 2) needs
# one damped step and then full ones
_ASYMMETRIC_LSE = {"a": ((3.0, 0.0), (0.0, 1.0), (-1.0, -1.0)), "b": 4.0}


# ---------------------------------------------------------------------------
# solve


def test_solve_qp_to_stdout(tmp_path, capsys):
    code = cli.main(["solve", "--input", _qp_file(tmp_path)])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["method"] == "nullspace"
    assert doc["classification"] == "min"
    np.testing.assert_allclose(doc["x"], [1.0, 0.0], atol=1e-12)
    assert doc["constraintResidual"] < 1e-12
    assert doc["lagrangeMultipliers"] is None


def test_solve_qp_methods_agree(tmp_path):
    path = _qp_file(tmp_path)
    docs = {}
    for method in ("projector", "nullspace", "kkt"):
        out = tmp_path / f"{method}.json"
        code = cli.main(
            ["solve", "--input", path, "--method", method, "--output", str(out)]
        )
        assert code == 0
        docs[method] = json.loads(out.read_text())
    xs = [np.asarray(d["x"]) for d in docs.values()]
    assert max(np.max(np.abs(xs[0] - x)) for x in xs[1:]) < 1e-10
    # the saddle-point route is the only one that reports multipliers
    assert docs["kkt"]["lagrangeMultipliers"] is not None
    assert docs["projector"]["lagrangeMultipliers"] is None


def test_solve_infeasible_exits_2(tmp_path, capsys):
    path = _qp_file(
        tmp_path, m=2, A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0]
    )
    code = cli.main(["solve", "--input", path])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_solve_method_kind_mismatch_exits_4(tmp_path, capsys):
    code = cli.main(["solve", "--input", _lse_file(tmp_path), "--method", "kkt"])
    assert code == 4
    assert "quadratic" in capsys.readouterr().err


def test_solve_missing_file_exits_4(tmp_path, capsys):
    code = cli.main(["solve", "--input", str(tmp_path / "nowhere.json")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_solve_malformed_json_exits_4(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops", encoding="utf-8")
    code = cli.main(["solve", "--input", str(path)])
    assert code == 4
    assert "invalid JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mangle, message",
    [
        (lambda text: text.replace(b'"c": [', b'"c": [1' + b"0" * 400 + b","), "float64 range"),
        (lambda text: b"[" * 20_000 + b"]" * 20_000, "nested too deeply"),
        (lambda text: text.replace(b'"qp"', b'"qp\xe9"'), "UTF-8"),
        (lambda text: text.replace(b'"c": [', b'"c": ["1",'), "non-numeric"),
        # Q's asymmetry, inf - inf here, is measured only once Q is accepted
        (lambda text: text.replace(b"2.0", b"1e400", 1), "qp.json: Q contains non-finite"),
    ],
    ids=["huge-integer", "deep-nesting", "invalid-utf8", "string-entry", "non-finite-q"],
)
def test_solve_malformed_problem_file_exits_4(tmp_path, capsys, mangle, message):
    path = tmp_path / "qp.json"
    _qp_file(tmp_path)
    path.write_bytes(mangle(path.read_bytes()))
    code = cli.main(["solve", "--input", str(path)])
    assert code == 4
    assert message in capsys.readouterr().err


def test_solve_unknown_objective_exits_4(tmp_path, capsys):
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "mystery", "params": {}},
        "A": [[1.0, 1.0]],
        "b": [0.0],
    }
    code = cli.main(["solve", "--input", _write_doc(tmp_path / "u.json", doc)])
    assert code == 4
    assert "mystery" in capsys.readouterr().err


def test_solve_objective_params_that_do_not_fit_exit_4(tmp_path, capsys):
    for name, params in (("sum_exp", {"dim": 2, "bogus": 1.0}), ("log_sum_exp", {})):
        doc = {
            "formatVersion": 1,
            "kind": "nlp",
            "n": 2,
            "m": 1,
            "objective": {"name": name, "params": params},
            "A": [[1.0, 1.0]],
            "b": [0.0],
        }
        code = cli.main(["solve", "--input", _write_doc(tmp_path / "p.json", doc)])
        assert code == 4, name
        assert name in capsys.readouterr().err


_BARRIER_PARAMS = {"q": [[1.0, 0.0], [0.0, 1.0]], "barrier_a": [[1.0, 0.0]], "barrier_b": [1.0]}


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("log_sum_exp", {"a": [["1", 2.0], [0.0, 1.0]]}, "param 'a'"),
        ("sum_exp", {"rates": [1.0, True]}, "param 'rates'"),
        ("neg_log_barrier_quadratic", {**_BARRIER_PARAMS, "mu": "2"}, "param 'mu'"),
        ("neg_log_barrier_quadratic", {**_BARRIER_PARAMS, "mu": True}, "param 'mu'"),
        ("neg_log_barrier_quadratic", {**_BARRIER_PARAMS, "mu": {"value": 2.0}}, "param 'mu'"),
        # orjson refuses the 400-digit mu and the standard library parses it
        ("neg_log_barrier_quadratic", {**_BARRIER_PARAMS, "mu": 10**400},
         "param 'mu' is an integer beyond the float64 range"),
        ("log_sum_exp", {"a": [[1.0, 0.0], [0.0, 1.0]], "shift": None}, "param 'shift'"),
        ("sum_exp", {"dim": 1_000_000_000_000}, "param 'dim'"),
        ("sum_exp", {"dim": 2.5}, "param 'dim'"),
        ("sum_exp", {"dim": True}, "param 'dim'"),
        ("sum_exp", {"dim": 2.0}, "param 'dim'"),
        ("sum_exp", {"dim": [2]}, "param 'dim'"),
    ],
    ids=[
        "string-entry",
        "boolean-entry",
        "string-mu",
        "boolean-mu",
        "object-mu",
        "huge-mu",
        "null-shift",
        "dim-1e12",
        "dim-2.5",
        "dim-true",
        "dim-2.0",
        "dim-list",
    ],
)
def test_solve_objective_params_that_are_not_json_numbers_exit_4(
    tmp_path, capsys, monkeypatch, name, params, message
):
    def refuse(**kwargs):
        raise AssertionError("the builder ran on params the schema refuses")

    # the 1e12 dim must be refused before sum_exp could allocate 7 TiB
    monkeypatch.setitem(objectives._REGISTRY, name, refuse)
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": name, "params": params},
        "A": [[1.0, 1.0]],
        "b": [0.0],
    }
    code = cli.main(["solve", "--input", _write_doc(tmp_path / "p.json", doc), "--method", "newton"])
    assert code == 4
    err = capsys.readouterr().err
    assert name in err and message in err


def test_solve_nan_tolerance_exits_4(tmp_path, capsys):
    # a NaN cut would call every pivot negligible and drop every constraint row
    path = _qp_file(tmp_path, m=3, A=[[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], b=[1.0, 1.0, 2.0])
    for method in ("projector", "nullspace"):
        code = cli.main(["solve", "--input", path, "--method", method, "--tol", "nan"])
        assert code == 4, method
        assert "eps" in capsys.readouterr().err


def test_solve_infinite_tolerance_exits_4(tmp_path, capsys):
    # an infinite tolerance would stop Newton before its first step and
    # report convergence at the start point
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "sum_exp", "params": {"rates": [1.0, 3.0]}},
        "A": [[1.0, 1.0]],
        "b": [1.0],
    }
    path = _write_doc(tmp_path / "sum_exp.json", doc)
    for method in ("newton", "sqp"):
        code = cli.main(["solve", "--input", path, "--method", method, "--tol", "inf"])
        assert code == 4, method
        assert "finite" in capsys.readouterr().err
    assert cli.main(["solve", "--input", path, "--method", "newton"]) == 0


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tol", "nan", "epsilon must be finite and positive"),
        ("--max-iter", "0", "max_iter must be at least 1"),
        ("--alpha", "0.9", "alpha must lie in (0, 1/2)"),
        ("--beta", "2", "beta must lie in (0, 1)"),
    ],
)
def test_solve_checks_newton_settings_before_the_constraints(
    tmp_path, capsys, flag, value, message
):
    # neither an inconsistent nor a single-point feasible set may hide an
    # invalid setting; sqp checks the backtracking settings it leaves unused,
    # and the QP methods check alpha, beta and max_iter, which they all leave
    # unused (--tol is their own cutoff there)
    qp_paths = [
        _qp_file(tmp_path, "inconsistent.json", m=2, A=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0]),
        _qp_file(tmp_path, "point.json", n=1, Q=[[2.0]], c=[0.0], A=[[1.0]], b=[1.0]),
    ]
    for path in [*qp_paths, _lse_file(tmp_path)]:
        methods = [*problems._NEWTON_SOLVERS]
        if path in qp_paths and flag != "--tol":
            methods += problems._QP_SOLVERS
        for method in methods:
            code = cli.main(["solve", "--input", path, "--method", method, flag, value])
            assert code == 4, (path, method)
            assert f"error: {message}" in capsys.readouterr().err, (path, method)


def test_solve_writes_no_solution_when_the_trace_cannot_be_written(tmp_path, capsys):
    # the trace is written first, so an unwritable path leaves stdout empty
    argv = ["solve", "--input", _lse_file(tmp_path), "--method", "newton"]
    assert cli.main(argv + ["--trace", str(tmp_path / "missing" / "trace.json")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "trace.json" in captured.err


def test_solve_kkt_notes_that_it_ignores_tol(tmp_path, capsys):
    path = _qp_file(tmp_path)
    code = cli.main(["solve", "--input", path, "--method", "kkt", "--tol", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "kkt oracle takes no tolerance" in captured.err
    np.testing.assert_allclose(json.loads(captured.out)["x"], [1.0, 0.0], atol=1e-12)
    assert cli.main(["solve", "--input", path, "--method", "kkt"]) == 0
    assert capsys.readouterr().err == ""


def test_solve_qp_method_notes_that_it_ignores_trace(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    argv = ["solve", "--input", _qp_file(tmp_path), "--trace", str(trace_path)]
    for method in ("projector", "nullspace", "kkt"):
        assert cli.main(argv + ["--method", method]) == 0
        assert "--trace is only produced by newton/sqp" in capsys.readouterr().err
    assert not trace_path.exists()


def test_solve_barrier_start_outside_the_domain_exits_5(tmp_path, capsys):
    # the minimum-norm point (1, 1) of x1 + x2 = 2 violates the barrier x1 < 0.5
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {
            "name": "neg_log_barrier_quadratic",
            "params": {
                "q": [[1.0, 0.0], [0.0, 1.0]],
                "c": [0.0, 0.0],
                "barrier_a": [[1.0, 0.0]],
                "barrier_b": [0.5],
                "mu": 1.0,
            },
        },
        "A": [[1.0, 1.0]],
        "b": [2.0],
    }
    path = _write_doc(tmp_path / "barrier.json", doc)
    for method in ("newton", "sqp"):
        assert cli.main(["solve", "--input", path, "--method", method]) == 5, method
        assert "start point" in capsys.readouterr().err


def test_solve_sqp_step_out_of_the_barrier_domain_exits_3(tmp_path, capsys):
    # the full Newton step from (0, 0) leaves the barrier's domain x1 < 1
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {
            "name": "neg_log_barrier_quadratic",
            "params": {
                "q": [[1.0, 0.0], [0.0, 1.0]],
                "c": [-10.0, 0.0],
                "barrier_a": [[1.0, 0.0]],
                "barrier_b": [1.0],
                "mu": 1e-3,
            },
        },
        "A": [[1.0, 1.0]],
        "b": [0.0],
    }
    path = _write_doc(tmp_path / "barrier.json", doc)
    assert cli.main(["solve", "--input", path, "--method", "sqp"]) == 3
    assert "domain" in capsys.readouterr().err
    assert cli.main(["solve", "--input", path, "--method", "newton"]) == 0


_OVERFLOWING_SOLUTIONS = [
    # the minimum-norm point x0 = (1e310, 0, 0) overflows
    (np.eye(3).tolist(), [0.0] * 3, [[1e-300, 0.0, 0.0]], [1e10]),
    # x0 = (1, 1e300, 0) is finite, but Q x0 and so the solution overflow
    ((1e300 * np.eye(3)).tolist(), [1e300] * 3, [[1e-300, 1.0, 0.0]], [1e300]),
    # x = (2e154, 2e154, 2e154) is finite, but the objective x^T x / 2 ~ 6e308 is not
    (np.eye(3).tolist(), [0.0] * 3, [[1.0, 1.0, 1.0]], [6e154]),
    # the eliminations' Q x + c overflows at the solution (the objective does too); with
    # warnings as errors projector and nullspace stopped on numpy's warning (exit 1)
    ([[1e155, 1e146], [1e146, 0.0]], [-1.0, -1.0], [[1.0, 1e-300]], [1.0]),
    # x = (2e25, 2e25) is finite, but A x - b is not: kkt's feasibility, scaled
    # back from the balanced system, overflowed and it wrote "constraintResidual":
    # Infinity with exit 0, or stopped on numpy's warning (exit 1)
    ([[1.0, 0.0], [0.0, 1.0]], [-1e25, -3e25], [[1e300, -1e300]], [0.0]),
]


@pytest.mark.parametrize("q, c, a, b", _OVERFLOWING_SOLUTIONS)
def test_solve_a_solution_that_overflows_exits_3(tmp_path, capsys, q, c, a, b):
    # numpy's own warning settings: the typed failure, no warning and no document
    path = _qp_file(tmp_path, n=len(q), Q=q, c=c, A=a, b=b)
    for method in ("projector", "nullspace", "kkt", "newton", "sqp"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
        assert caught == [], method
        captured = capsys.readouterr()
        assert captured.out == "", method
        assert "error:" in captured.err, method


@pytest.mark.parametrize("q, c, a, b", _OVERFLOWING_SOLUTIONS)
def test_solve_a_solution_that_overflows_exits_3_without_a_warning(
    tmp_path, capsys, q, c, a, b
):
    # warnings as errors: the overflow in the row scaling of b, in the
    # pulled-back Q x0 or in a residual must end in the typed failure, not a warning
    path = _qp_file(tmp_path, n=len(q), Q=q, c=c, A=a, b=b)
    for method in ("projector", "nullspace", "kkt", "newton", "sqp"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
        captured = capsys.readouterr()
        assert "error:" in captured.err
        assert "Infinity" not in captured.out


def test_solve_a_constraint_residual_that_overflows_exits_3(tmp_path, capsys):
    # finite data whose solution x4 = -3.4e25 overflows A x against the
    # 1e300 entry: the eliminations wrote "constraintResidual": Infinity,
    # which is not JSON, and exited 0
    q = [
        [-0.679, 0.436, 0.335, 0.597],
        [0.436, 1e154, 0.074, -0.793],
        [0.335, 0.074, 0.131, -0.277],
        [0.597, -0.793, -0.277, -0.380],
    ]
    c = [-1e196, -9.53e195, 2.02e195, -9.16e195]
    a = [[-0.190, 1e8, 1e8, -0.904], [0.0, -0.569, 1e-154, 1e300]]
    path = _qp_file(tmp_path, n=4, m=2, Q=q, c=c, A=a, b=[-0.694, 0.774])
    for method in ("projector", "nullspace", "kkt"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
        captured = capsys.readouterr()
        assert captured.out == "", method
        assert "error:" in captured.err, method


def test_solve_a_log_sum_exp_hessian_that_overflows_exits_3(tmp_path, capsys):
    # x0 = (0, 0) and N = (1, 0): the pulled-back rows 1e200 and -1e200 are
    # finite, but the Hessian's W^T W overflows. With warnings as errors,
    # newton and sqp stopped on numpy's warning (exit 1)
    a = ((1e200, 0.0), (-1e200, 0.0))
    path = _write_doc(
        tmp_path / "nlp.json",
        {
            "formatVersion": 1,
            "kind": "nlp",
            "n": 2,
            "m": 1,
            "objective": {"name": "log_sum_exp", "params": {"a": [list(row) for row in a]}},
            "A": [[0.0, 1.0]],
            "b": [0.0],
        },
    )
    for method in ("newton", "sqp"):
        for action in ("always", "error"):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter(action)
                assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
            assert caught == [], (method, action)
            captured = capsys.readouterr()
            assert captured.out == "", (method, action)
            assert "non-finite gradient or Hessian at iteration 0" in captured.err


def test_solve_a_gradient_norm_whose_square_overflows(tmp_path, capsys):
    # Q = 1.5e308 I and c = (1e160, 0) on x1 + x2 = 0: at the start point
    # E = N^T c has norm 1e160 / sqrt(2), whose square overflows; the trace
    # records that norm, not inf (written as the non-JSON token Infinity)
    q = [[1.5e308, 0.0], [0.0, 1.5e308]]
    path = _qp_file(tmp_path, Q=q, c=[1e160, 0.0], A=[[1.0, 1.0]], b=[0.0])
    trace_path = tmp_path / "trace.json"
    for method in ("newton", "sqp"):
        argv = ["solve", "--input", path, "--method", method, "--trace", str(trace_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(argv) == 0, method
        assert capsys.readouterr().err == ""
        text = trace_path.read_text()
        assert "Infinity" not in text
        first = json.loads(text)["iterations"][0]["gradNorm"]
        assert first == pytest.approx(1e160 / math.sqrt(2.0), rel=1e-15), method


def test_solve_a_reduced_hessian_beyond_float_range(tmp_path, capsys):
    # N^T Q N has finite entries but an overflowing 1-norm: both
    # eliminations scale it by a power of two and find the saddle point,
    # without a warning, instead of calling x0 = (0, 0, 1) "non_unique".
    # The oracle balances its saddle matrix by powers of two, so its D does
    # not overflow either, and the multiplier -1.7e308 stays in range.
    q = (1.7e308 * np.array([[1.0, 0.9, 0.0], [0.9, -1.0, 0.0], [0.0, 0.0, 1.0]])).tolist()
    path = _qp_file(tmp_path, n=3, Q=q, c=[1e308, 0.0, 0.0], A=[[0.0, 0.0, 1.0]], b=[1.0])
    x1 = -1.0 / (1.7 * 1.81)
    for method in ("projector", "nullspace", "kkt"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--input", path, "--method", method]) == 0, method
        captured = capsys.readouterr()
        assert captured.err == ""
        doc = json.loads(captured.out)
        assert doc["classification"] == "saddle"
        np.testing.assert_allclose(doc["x"], [x1, 0.9 * x1, 1.0], rtol=1e-14)
    np.testing.assert_allclose(doc["lagrangeMultipliers"], [-1.7e308], rtol=1e-14)


def test_solve_a_newton_step_that_overflows_exits_3(tmp_path, capsys):
    # every entry is finite, but the reduced solution g = -1 / 1e-320
    # overflows: each method says so with exit 3 and no numpy warning
    q = [[1e-320, 0.0], [0.0, 1e-320]]
    path = _qp_file(tmp_path, Q=q, c=[1.0, 0.0], A=[[0.0, 1.0]], b=[0.0])
    for method in ("projector", "nullspace", "kkt", "newton", "sqp"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
        err = capsys.readouterr().err
        if method in ("newton", "sqp"):
            assert "error: the Newton step overflows float range at iteration 0" in err
        else:
            assert "error:" in err


def test_solve_a_newton_decrement_that_overflows_exits_3(tmp_path, capsys):
    # the gradient 1e250 and the step -1e150 are finite, their product is
    # not: newton wrote "objective": -Infinity and "decrementSq": Infinity,
    # which is not JSON, and with warnings as errors both methods stopped on
    # numpy's overflow warning
    q = [[1e100, 0.0], [0.0, 1e100]]
    path = _qp_file(tmp_path, Q=q, c=[1e250, 0.0], A=[[0.0, 1.0]], b=[0.0])
    out, trace = tmp_path / "sol.json", tmp_path / "trace.json"
    for method in ("newton", "sqp"):
        for action in ("default", "error"):
            argv = ["solve", "--input", path, "--method", method, "--output", str(out)]
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                assert cli.main([*argv, "--trace", str(trace)]) == 3, (method, action)
            err = capsys.readouterr().err
            assert "error: the Newton decrement overflows float range at iteration 0" in err
            assert not out.exists() and not trace.exists()


def test_solve_newton_on_a_qp_file_checks_each_input_once(tmp_path, capsys, input_checks):
    # load checks A, b, Q and c; Newton builds its oracle from the checked
    # Q and c, and the solve checks only its own x, for the residual
    path = _qp_file(tmp_path)
    for method in ("newton", "sqp"):
        input_checks.clear()
        assert cli.main(["solve", "--input", path, "--method", method]) == 0, method
        assert input_checks == [
            ("as_matrix", "A"),
            ("as_vector", "b", 1),
            ("as_matrix", "Q"),
            ("as_vector", "c", 2),
            ("as_vector", "x", 2),
        ], method


def test_solve_newton_whose_start_value_overflows_exits_3(tmp_path, capsys):
    # an objective that overflows at the start is exit 3, like the QP routes
    # report it, not a point outside a domain (exit 5), with numpy's
    # warnings as errors too. x0 = (1, 1e300, 0): the constant 1/2 x0^T Q x0
    # + c^T x0 of the pulled-back quadratic overflows; sum_exp with rates
    # (1, 3) starts at (400, 400), where exp(1200) overflows.
    q = (1e300 * np.eye(3)).tolist()
    qp_path = _qp_file(tmp_path, n=3, Q=q, c=[1e300] * 3, A=[[1e-300, 1.0, 0.0]], b=[1e300])
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {"name": "sum_exp", "params": {"rates": [1.0, 3.0]}},
        "A": [[1.0, 1.0]],
        "b": [800.0],
    }
    sum_exp_path = _write_doc(tmp_path / "sum_exp.json", doc)
    for path, message in (
        (qp_path, "quadratic part overflows float range at x0"),
        (sum_exp_path, "overflows float range at the start point"),
    ):
        for method in ("newton", "sqp"):
            for action in ("default", "error"):
                with warnings.catch_warnings():
                    warnings.simplefilter(action)
                    assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
                assert message in capsys.readouterr().err


# Entries partly from the edges of float range, where a finite problem's
# solution, residuals and Newton iterates overflow.
_EDGE = (0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300, 1e154, -1e154, 1e-154, -1e-154,
         5e-324, 1e8, -1e8, 1e-8, -1e-8)


def _matrix(rng, rows, cols):
    """A rows x cols list of lists, half of them scaled by 10^[-200, 200]."""
    scale = 10.0 ** int(rng.integers(-200, 201)) if rng.random() < 0.5 else 1.0
    out = []
    for _ in range(rows):
        row = [float(rng.choice(_EDGE) if rng.random() < 0.5 else rng.uniform(-1.0, 1.0))
               for _ in range(cols)]
        # Python floats: a product beyond float range keeps its entry unscaled
        out.append([v * scale if math.isfinite(v * scale) else v for v in row])
    return out


def _problem(rng):
    """A QP or NLP problem on n <= 4 unknowns: the constraints, and Q and c
    or an objective."""
    n = int(rng.integers(1, 5))
    m = int(rng.integers(0, n + 1))
    constraints = EqualityConstraints(
        np.array(_matrix(rng, m, n)).reshape(m, n), _matrix(rng, 1, m)[0]
    )
    kind = str(rng.choice(["qp", "log_sum_exp", "sum_exp", "neg_log_barrier_quadratic"]))
    if kind == "qp":
        return qp.QpProblem(_matrix(rng, n, n), _matrix(rng, 1, n)[0], constraints)
    rows = int(rng.integers(1, 5))
    if kind == "log_sum_exp":
        params = {"a": _matrix(rng, rows, n)}
    elif kind == "sum_exp":
        params = {"rates": _matrix(rng, 1, n)[0]}
    else:
        params = {
            "q": _matrix(rng, n, n),
            "c": _matrix(rng, 1, n)[0],
            "barrier_a": _matrix(rng, rows, n),
            "barrier_b": _matrix(rng, 1, rows)[0],
        }
    return problems.NlpProblem(constraints, kind, params)


# the residuals a QP (the first two) or Newton (the first and the last two) document reports
_RESIDUAL_KEYS = ("constraintResidual", "stationarityResidual", "gradNorm", "decrementSq")


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def test_solve_sweep_keeps_the_exit_code_and_output_contract(tmp_path):
    # whatever a finite problem file holds, each method exits with a
    # documented code, lets no numpy warning escape, and writes an exit-0
    # document that is JSON with finite residuals; with warnings ignored
    # it ends the same way
    rng = np.random.default_rng(0)
    path, out = tmp_path / "problem.json", tmp_path / "solution.json"
    for draw in range(150):
        problem = _problem(rng)
        methods = (*cli._QP_SOLVERS, *cli._NEWTON_SOLVERS)
        if isinstance(problem, problems.NlpProblem):
            methods = tuple(cli._NEWTON_SOLVERS)
        problems.save(path, problem)
        for method in methods:
            ends = []
            for action in ("error", "ignore"):
                out.unlink(missing_ok=True)
                with warnings.catch_warnings():
                    warnings.simplefilter(action)
                    code = cli.main(
                        ["solve", "--input", str(path), "--method", method, "--output", str(out)]
                    )
                assert code in (0, 2, 3, 4, 5), (draw, method, action, code)
                text = out.read_text() if out.exists() else None
                if code == 0:
                    doc = json.loads(text, parse_constant=_refuse_constant)
                    residuals = [doc[key] for key in _RESIDUAL_KEYS if key in doc]
                    assert residuals and all(map(math.isfinite, residuals)), (draw, method, doc)
                ends.append((code, text))
            assert ends[0] == ends[1], (draw, method)


# Each error a solve raises, with its exit code and its bench kind, as the
# README's exit codes and bench failure kinds state them: 2 (`infeasible`)
# infeasible constraints, 3 (`non_convex`, `non_converged`,
# `ill_conditioned`) non-convergence or numerical failure, 5
# (`infeasible_start`) a start point outside the objective's domain.
_SOLVE_FAILURES = [
    (InfeasibleConstraintsError, 2, "infeasible"),
    (InfeasibleStartError, 5, "infeasible_start"),
    (NonConvexError, 3, "non_convex"),
    (DivergenceError, 3, "non_converged"),
    (LineSearchError, 3, "non_converged"),
    (OracleUnavailableError, 3, "ill_conditioned"),
    (ComputationError, 3, "ill_conditioned"),
]


@pytest.mark.parametrize(("error", "code"), [case[:2] for case in _SOLVE_FAILURES])
def test_solve_exits_with_the_code_of_each_solve_error(tmp_path, capsys, monkeypatch, error, code):
    def refuse(problem):
        raise error(f"refused by {error.__name__}")

    monkeypatch.setitem(problems._QP_SOLVERS, "kkt", refuse)
    out = tmp_path / "solution.json"
    argv = ["solve", "--input", _qp_file(tmp_path), "--method", "kkt", "--output", str(out)]
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.err == f"error: refused by {error.__name__}\n"
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("action", ["default", "error"])
def test_solve_shows_a_file_warning_as_one_line(tmp_path, capsys, action):
    # the note on an asymmetric Q names the file, not a line of eqopt, and
    # does not turn into an error under -W error
    path = _qp_file(tmp_path, Q=[[1.0, 2.0], [0.0, 1.0]])
    with warnings.catch_warnings(record=True) as escaped:
        warnings.simplefilter(action)
        assert cli.main(["solve", "--input", path]) == 0
    assert escaped == []
    captured = capsys.readouterr()
    assert captured.err == (
        f"warning: {path}: Q is not symmetric (max asymmetry 2.000e+00); using (Q + Q^T)/2\n"
    )
    assert "cli.py" not in captured.err
    assert json.loads(captured.out)["classification"] == "min"


def test_solve_newton_with_trace(tmp_path):
    out = tmp_path / "sol.json"
    trace_path = tmp_path / "trace.json"
    code = cli.main(
        [
            "solve",
            "--input",
            _lse_file(tmp_path, **_ASYMMETRIC_LSE),
            "--method",
            "newton",
            "--output",
            str(out),
            "--trace",
            str(trace_path),
        ]
    )
    assert code == 0
    sol = json.loads(out.read_text())
    assert sol["converged"] is True
    assert sol["constraintResidual"] < 1e-9
    assert sol["decrementSq"] / 2.0 <= 1e-10
    x1 = 1.0 - math.log(3.0) / 4.0
    np.testing.assert_allclose(sol["x"], [x1, 4.0 - x1], atol=1e-6)

    trace = json.loads(trace_path.read_text())
    assert trace["converged"] is True
    iterations = trace["iterations"]
    assert len(iterations) == sol["iterations"] >= 1
    for it in iterations:
        assert set(it) == {"g", "x", "hValue", "gradNorm", "decrementSq", "stepSize", "phase"}
        assert (it["phase"] == "pure") == (it["stepSize"] == 1.0)
        assert abs(it["x"][0] + it["x"][1] - 4.0) < 1e-9
    assert {it["phase"] for it in iterations} == {"damped", "pure"}
    hs = [it["hValue"] for it in iterations] + [trace["finalH"]]
    assert all(hs[i + 1] <= hs[i] + 1e-12 for i in range(len(hs) - 1))


def test_solve_a_problem_file_without_constraints(tmp_path, capsys):
    # A with no rows is saved as [] and read back as a (0, n) matrix
    path = tmp_path / "free.json"
    free = EqualityConstraints(np.zeros((0, 3)), np.zeros(0))
    problems.save(path, qp.QpProblem(q=2.0 * np.eye(3), c=np.ones(3), constraints=free))
    assert json.loads(path.read_text())["A"] == []
    for method in ("projector", "nullspace", "kkt", "newton", "sqp"):
        assert cli.main(["solve", "--input", str(path), "--method", method]) == 0, method
        doc = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(doc["x"], [-0.5] * 3, atol=1e-12, err_msg=method)
        assert doc["constraintResidual"] == 0.0


def test_solve_sqp(tmp_path, capsys):
    code = cli.main(["solve", "--input", _lse_file(tmp_path), "--method", "sqp"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    assert doc["gradNorm"] < 1e-8


def test_solve_quadratic_through_newton(tmp_path, capsys):
    # a qp file is also accepted by the nonlinear drivers
    code = cli.main(
        ["solve", "--input", _qp_file(tmp_path), "--method", "newton"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True
    np.testing.assert_allclose(doc["x"], [1.0, 0.0], atol=1e-9)


def test_solve_out_of_iterations_exits_3(tmp_path, capsys):
    # Newton needs three steps on this instance
    out = tmp_path / "sol.json"
    code = cli.main(
        [
            "solve",
            "--input",
            _lse_file(tmp_path, **_ASYMMETRIC_LSE),
            "--method",
            "newton",
            "--max-iter",
            "1",
            "--output",
            str(out),
        ]
    )
    assert code == 3
    assert "did not converge" in capsys.readouterr().err
    # the partial result is still written for inspection
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["iterations"] == 1


# ---------------------------------------------------------------------------
# bench


def test_bench_report_structure(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(
        [
            "bench",
            "--sizes",
            "8:3,6:2",
            "--trials",
            "3",
            "--seed",
            "7",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["formatVersion"] == 1
    assert report["trials"] == 3
    assert len(report["rows"]) == 6  # 2 sizes x 3 methods
    assert [(r["n"], r["m"]) for r in report["rows"]] == sorted(
        (r["n"], r["m"]) for r in report["rows"]
    )
    for row in report["rows"]:
        assert row["solved"] == 3
        assert row["meanTimeMs"] > 0.0
        assert row["medianTimeMs"] > 0.0
        assert row["maxConstraintResidual"] < 1e-8
        assert row["maxCrossMethodDisagreement"] < 1e-8
        assert row["failures"] == {}
    table = capsys.readouterr().out
    assert "mean-ms" in table and "median-ms" in table
    assert "report written" in table


def test_bench_report_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report_path = tmp_path / "report.json"
    code = cli.main(["bench", "--sizes", "6:2", "--trials", "1", "--output", str(report_path)])
    assert code == 0
    env = json.loads(report_path.read_text())["environment"]
    assert set(env) == {
        "python", "numpy", "scipy", "cpuCount", "blasThreads",
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    }
    # numpy's and scipy's wheels each bundle an OpenBLAS, which reports its count
    threads = env["blasThreads"]
    assert threads and all(isinstance(v, int) and v >= 1 for v in threads.values()), threads
    assert env["numpy"] == np.__version__
    assert env["cpuCount"] >= 1
    assert env["OMP_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None


def test_blas_threads_says_why_a_count_is_unavailable(monkeypatch):
    def unreadable(*args, **kwargs):
        raise OSError("no maps")

    monkeypatch.setattr(cli, "open", unreadable, raising=False)
    assert cli._blas_threads() == "unavailable: no maps"

    def maps(text):
        return lambda *args, **kwargs: io.StringIO(text)

    monkeypatch.setattr(cli, "open", maps("7f00 r-xp 0 08:01 1 /lib/libc.so.6\n"), raising=False)
    assert cli._blas_threads() == "unavailable: no OpenBLAS loaded"

    def load(path):
        if "scipy" in path:
            raise OSError("cannot load")
        return object()  # a library without a *_get_num_threads symbol

    text = "7f00 r-xp 0 08:01 1 /lib/libopenblas.so\n7f01 r-xp 0 08:01 2 /lib/libscipy_openblas.so"
    monkeypatch.setattr(cli, "open", maps(text), raising=False)
    monkeypatch.setattr(cli.ctypes, "CDLL", load)
    assert cli._blas_threads() == {
        "libopenblas.so": "unavailable: no *_get_num_threads symbol",
        "libscipy_openblas.so": "unavailable: cannot load",
    }


def test_bench_zero_trials_gives_empty_rows(tmp_path, capsys, monkeypatch):
    # nothing is measured, so no problem is generated, not even a warm-up
    def refuse(spec):
        raise AssertionError("generated a problem")

    monkeypatch.setattr(cli, "generate", refuse)
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["bench", "--sizes", "6:2", "--trials", "0", "--output", str(report_path)]
    )
    assert code == 0
    assert json.loads(report_path.read_text())["rows"] == []
    header, rule, written = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["n", "m", "method"] and set(rule) == {"-"}
    assert written == f"report written to {report_path}"


def test_bench_negative_trials_exit_4(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["bench", "--sizes", "6:2", "--trials", "-3", "--output", str(report_path)]
    )
    assert code == 4
    assert "trials" in capsys.readouterr().err
    assert not report_path.exists()


def test_bench_seed_reproduces_everything_but_times(tmp_path):
    def run(name):
        path = tmp_path / name
        assert (
            cli.main(
                [
                    "bench",
                    "--sizes",
                    "7:2",
                    "--trials",
                    "4",
                    "--seed",
                    "3",
                    "--output",
                    str(path),
                ]
            )
            == 0
        )
        rows = json.loads(path.read_text())["rows"]
        for row in rows:
            row.pop("meanTimeMs")
            row.pop("medianTimeMs")
        return rows

    assert run("a.json") == run("b.json")


def test_bench_repeated_method_gives_one_row(tmp_path):
    report_path = tmp_path / "report.json"
    argv = ["bench", "--sizes", "6:2", "--trials", "3", "--output", str(report_path)]
    assert cli.main(argv + ["--methods", "projector,projector"]) == 0
    report = json.loads(report_path.read_text())
    assert report["methods"] == ["projector"]
    assert [row["method"] for row in report["rows"]] == ["projector"]
    assert report["rows"][0]["solved"] == report["trials"] == 3
    # first-seen order, each method once
    assert cli.main(argv + ["--methods", "kkt,projector,kkt"]) == 0
    report = json.loads(report_path.read_text())
    assert report["methods"] == ["kkt", "projector"]
    assert [row["solved"] for row in report["rows"]] == [3, 3]


def test_bench_bad_sizes_exit_4(tmp_path, capsys):
    for bad in ("8", "8:x", "4:4", "0:0", ""):
        code = cli.main(
            ["bench", "--sizes", bad, "--trials", "1", "--output", str(tmp_path / "r.json")]
        )
        assert code == 4, bad
    assert "error:" in capsys.readouterr().err


def test_bench_bad_method_exit_4(tmp_path, capsys):
    code = cli.main(
        [
            "bench",
            "--sizes",
            "6:2",
            "--trials",
            "1",
            "--methods",
            "newton",
            "--output",
            str(tmp_path / "r.json"),
        ]
    )
    assert code == 4
    assert "unknown method" in capsys.readouterr().err
    argv = ["bench", "--sizes", "6:2", "--methods", "", "--output", str(tmp_path / "r.json")]
    assert cli.main(argv) == 4
    assert "no methods given" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


def test_bench_counts_the_failures_of_a_method(tmp_path, capsys, monkeypatch):
    for error, _, kind in _SOLVE_FAILURES:

        def refuse(problem, eps=None, error=error):
            raise error("refused")

        monkeypatch.setitem(problems._QP_SOLVERS, "kkt", refuse)
        report_path = tmp_path / "report.json"
        argv = ["bench", "--sizes", "6:2", "--trials", "3", "--methods", "projector,kkt"]
        assert cli.main(argv + ["--output", str(report_path)]) == 0, error
        rows = {row["method"]: row for row in json.loads(report_path.read_text())["rows"]}
        assert rows["kkt"]["solved"] == 0
        assert rows["kkt"]["failures"] == {kind: 3}, error
        assert rows["kkt"]["meanTimeMs"] is None and rows["kkt"]["medianTimeMs"] is None
        assert rows["projector"]["solved"] == 3 and rows["projector"]["failures"] == {}
        line = next(ln for ln in capsys.readouterr().out.splitlines() if " kkt " in ln)
        assert line.split()[5:8] == ["-", "-", "-"]  # mean, median and ratio
        assert line.endswith(f"{kind}:3"), error


# ---------------------------------------------------------------------------
# check


def test_check_invariants_smoke(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    code = cli.main(
        [
            "check",
            "--suite",
            "invariants",
            "--trials",
            "1",
            "--counterexample",
            str(cx),
        ]
    )
    assert code == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert len(lines) == 4
    assert all(ln.startswith("PASS invariants/") for ln in lines)
    assert not cx.exists()


def test_check_all_suites_pass(tmp_path, capsys):
    cx = tmp_path / "cx.json"
    code = cli.main(
        ["check", "--suite", "all", "--trials", "50", "--seed", "0", "--counterexample", str(cx)]
    )
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln]
    assert code == 0, lines
    assert len(lines) == 14
    assert all(ln.startswith("PASS ") and ln.endswith("(50/50)") for ln in lines)
    assert not cx.exists()


def test_check_failure_writes_counterexample(tmp_path, capsys, monkeypatch):
    def broken(seed, trials):
        return 2, {"witness": [1.0, 2.0]}

    monkeypatch.setattr(
        selfcheck, "_SUITES", {"oracle": [("always_breaks", broken)]}
    )
    cx = tmp_path / "cx.json"
    code = cli.main(
        ["check", "--suite", "oracle", "--trials", "9", "--counterexample", str(cx)]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert "FAIL oracle/always_breaks" in captured.out
    assert "counterexample" in captured.err
    doc = json.loads(cx.read_text())
    assert doc["suite"] == "oracle"
    assert doc["check"] == "always_breaks"
    assert doc["trial"] == 2
    assert doc["details"] == {"witness": [1.0, 2.0]}


def test_check_convergence_calls_the_library_suboptimality_bound(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(selfcheck, "suboptimality_bound", lambda grad_norm, constants: -1.0)
    cx = tmp_path / "cx.json"
    code = cli.main(
        ["check", "--suite", "convergence", "--trials", "2", "--counterexample", str(cx)]
    )
    assert code == 1
    assert "FAIL convergence/suboptimality" in capsys.readouterr().out


def test_check_oracle_compares_the_eliminations_classification(tmp_path, capsys, monkeypatch):
    # x stays right, only the label of the reduced Hessian's inertia is broken
    monkeypatch.setattr(qp, "_label", lambda pos, neg, k: "min")
    cx = tmp_path / "cx.json"
    code = cli.main(["check", "--suite", "oracle", "--trials", "5", "--counterexample", str(cx)])
    assert code == 1
    assert "FAIL oracle/indefinite_agreement" in capsys.readouterr().out


def _mutated_composite(old, new):
    """``objectives._composite`` with the source text ``old`` replaced by ``new``."""
    source = inspect.getsource(objectives._composite)
    assert source.count(old) == 1
    namespace = dict(vars(objectives))  # the copy's pull-back builds the copy again
    exec(source.replace(old, new), namespace)
    return namespace["_composite"]


@pytest.mark.parametrize(
    "old, new",
    [
        # the pull-back's basis columns rotated
        ("cmat @ basis, cmat @ x0 + s", "cmat @ np.roll(basis, 1, axis=1), cmat @ x0 + s"),
        # the pull-back's offset wrong: it moves the shifted log-sum-exp and
        # the barrier
        ("cmat @ basis, cmat @ x0 + s", "cmat @ basis, cmat @ x0 + 0.5 * s"),
    ],
    ids=["rotated_basis", "wrong_offset"],
)
def test_check_oracle_catches_a_wrong_pull_back(tmp_path, capsys, monkeypatch, old, new):
    monkeypatch.setattr(objectives, "_composite", _mutated_composite(old, new))
    cx = tmp_path / "cx.json"
    code = cli.main(["check", "--suite", "oracle", "--trials", "50", "--seed", "0",
                     "--counterexample", str(cx)])
    assert code == 1
    assert "FAIL oracle/newton_agreement" in capsys.readouterr().out
    doc = json.loads(cx.read_text())
    assert doc["check"] == "newton_agreement"
    assert {"n", "m", "objective"} <= set(doc["details"])


def _option(command, dest):
    """The argparse action of ``eqopt <command>``'s option ``dest``."""
    sub = next(a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in sub.choices[command]._actions if a.dest == dest)


def test_check_suite_choices_come_from_the_registry():
    assert _option("check", "suite").choices == [*selfcheck._SUITES, "all"]


def test_method_and_class_choices_come_from_their_registries():
    assert _option("solve", "method").choices == [*problems._QP_SOLVERS, *problems._NEWTON_SOLVERS]
    assert _option("bench", "methods").default == ",".join(problems._QP_SOLVERS)
    assert _option("bench", "q_class").choices == problems._Q_CLASSES


def _edited(**edits):
    """Break a library call: each named attribute of its result is edited."""

    def wrap(real):
        def broken(*args, **kwargs):
            out = real(*args, **kwargs)
            edited = {name: edit(getattr(out, name)) for name, edit in edits.items()}
            if is_dataclass(out):  # a frozen one takes no assignment
                return replace(out, **edited)
            for name, value in edited.items():
                setattr(out, name, value)
            return out

        return broken

    return wrap


# check name -> (the library call it inspects, how that call is broken)
_BROKEN_CALLS = {
    # one kept row fewer: the rank, len(selected), is one too low
    "rrqr_rank": ("build_nullspace", _edited(selected=lambda s: s[:-1])),
    "null_basis": ("build_nullspace", _edited(basis=lambda nb: 2.0 * nb)),
    "projector_algebra": ("build_projector", _edited(basis=lambda d: 2.0 * d)),
    "embed_feasibility": ("build_nullspace", _edited(x0=lambda x0: x0 + 1.0)),
    "spd_agreement": ("solve_kkt", _edited(x=lambda x: x + 1.0)),
    "indefinite_agreement": ("solve_nullspace", _edited(classification=lambda c: "point")),
    # x moves with the number of rows, duplicated ones included
    "redundant_rows": (
        "solve",
        lambda real: lambda p, method: replace(
            real(p, method), x=real(p, method).x + p.constraints.m
        ),
    ),
    "newton_agreement": ("newton_solve", _edited(final_x=lambda x: x + 1.0)),
    "quadratic_one_step": ("newton_solve", _edited(converged=lambda c: False)),
    "sqp_quadratic": ("sqp_iterate", _edited(converged=lambda c: False)),
    "newton_descent": ("newton_solve", _edited(converged=lambda c: False)),
    "contraction_bound": ("iteration_bound", _edited(d_max=lambda d: 0)),
    "suboptimality": ("suboptimality_bound", lambda real: lambda grad_norm, constants: -1.0),
    "termination_gap": ("newton_solve", _edited(final_h=lambda h: h + 1.0)),
}


def _ends_above_start(real):
    """Break newton_solve: its final value lies 1 above its start."""

    def broken(*args, **kwargs):
        trace = real(*args, **kwargs)
        trace.final_h = trace.h_values()[0] + 1.0
        return trace

    return broken


def _x0_moved_along_the_kernel(real):
    """Break build_nullspace: x0 moves by ``N 1``, so it stays feasible but
    is no longer the minimum-norm solution."""

    def broken(*args, **kwargs):
        expr = real(*args, **kwargs)
        return replace(expr, x0=expr.x0 + expr.basis.sum(axis=1))

    return broken


def _refuses_the_start(real):
    """Break newton_solve: it refuses every start as outside the domain."""

    def refuse(*args, **kwargs):
        raise InfeasibleStartError("refused")

    return refuse


# further breaks, each reaching a report the check's first break does not:
# case -> (check, library call, how it is broken); a call outside selfcheck
# is named by (module, attribute)
_FURTHER_BREAKS = {
    # the check once raised on these two (exit 4, no counterexample)
    # gram = N^T N - I would not broadcast against the one column short N
    "null_basis_a_column_short": (
        "null_basis",
        "build_nullspace",
        _edited(basis=lambda nb: nb[:, 1:]),
    ),
    # iteration_bound refuses the negative decrease
    "contraction_bound_final_value_above_start": (
        "contraction_bound",
        "newton_solve",
        _ends_above_start,
    ),
    # a perturbed b that no dropped row flags as inconsistent
    "rrqr_rank_misses_an_inconsistent_row": (
        "rrqr_rank",
        (expressions, "_check_consistency"),
        lambda real: lambda *args: None,
    ),
    # a feasible x0 that is not the minimum-norm solution
    "rrqr_rank_x0_off_the_row_space": (
        "rrqr_rank",
        "build_nullspace",
        _x0_moved_along_the_kernel,
    ),
    # a typed error at a start the KKT form accepts is a counterexample, not exit 5
    "newton_agreement_refused_start": (
        "newton_agreement",
        "newton_solve",
        _refuses_the_start,
    ),
    "termination_gap_not_converged": (
        "termination_gap",
        "newton_solve",
        _edited(converged=lambda c: False),
    ),
}


def test_every_check_has_a_broken_call():
    names = {name for checks in selfcheck._SUITES.values() for name, _ in checks}
    assert set(_BROKEN_CALLS) == names


@pytest.mark.parametrize(
    "check, target, breaker",
    [(check, *call) for check, call in _BROKEN_CALLS.items()] + list(_FURTHER_BREAKS.values()),
    ids=[*_BROKEN_CALLS, *_FURTHER_BREAKS],
)
def test_check_reports_a_broken_library_call(
    tmp_path, capsys, monkeypatch, check, target, breaker
):
    # each check alone, so the broken call cannot trip another check first
    suite = next(s for s, checks in selfcheck._SUITES.items() if check in dict(checks))
    fn = dict(selfcheck._SUITES[suite])[check]
    owner, name = target if isinstance(target, tuple) else (selfcheck, target)
    monkeypatch.setattr(owner, name, breaker(getattr(owner, name)))
    monkeypatch.setattr(selfcheck, "_SUITES", {suite: [(check, fn)]})
    cx = tmp_path / "cx.json"
    code = cli.main(["check", "--suite", suite, "--trials", "3", "--counterexample", str(cx)])
    assert code == 1
    assert capsys.readouterr().out.startswith(f"FAIL {suite}/{check} (failed at trial ")
    doc = json.loads(cx.read_text())
    assert (doc["suite"], doc["check"]) == (suite, check)
    assert {"n", "m"} <= set(doc["details"])


def _raise_unavailable(real):
    def refuse(problem):
        raise OracleUnavailableError("refused")

    return refuse


@pytest.mark.parametrize(
    "check, target, breaker",
    [
        # the oracle certifies no problem, so there is nothing to compare
        ("indefinite_agreement", "solve_kkt", _raise_unavailable),
        # Newton starts at the optimum, so there is no step to check
        ("quadratic_one_step", "newton_solve", lambda real: lambda reduced: NewtonTrace()),
    ],
)
def test_check_passes_a_trial_it_cannot_judge(capsys, monkeypatch, check, target, breaker):
    def compare(problem):
        raise AssertionError("compared a trial the check cannot judge")

    suite = next(s for s, checks in selfcheck._SUITES.items() if check in dict(checks))
    fn = dict(selfcheck._SUITES[suite])[check]
    monkeypatch.setattr(selfcheck, "_SUITES", {suite: [(check, fn)]})
    monkeypatch.setattr(selfcheck, target, breaker(getattr(selfcheck, target)))
    for name in ("solve_projector", "solve_nullspace"):
        monkeypatch.setattr(selfcheck, name, compare)
    assert cli.main(["check", "--suite", suite, "--trials", "3"]) == 0
    assert capsys.readouterr().out == f"PASS {suite}/{check} (3/3)\n"


def test_check_zero_trials_exit_4(capsys):
    assert cli.main(["check", "--trials", "0"]) == 4
    assert "trials" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "check"])
def test_a_negative_seed_exits_4_before_any_work(tmp_path, capsys, command):
    # numpy's generators take no negative seed: its bare "expected
    # non-negative integer" came after the work had begun
    written = tmp_path / "written.json"
    argv = {"bench": ["bench", "--sizes", "6:2", "--trials", "1", "--output", str(written)],
            "check": ["check", "--trials", "1", "--counterexample", str(written)]}[command]
    assert cli.main([*argv, "--seed", "-1"]) == 4
    assert capsys.readouterr() == ("", "error: --seed must be nonnegative\n")
    assert not written.exists()


# ---------------------------------------------------------------------------
# argument errors


def test_unknown_flag_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", "x.json", "--frobnicate"])
    assert exc.value.code == 4
    assert "error:" in capsys.readouterr().err


def test_missing_required_argument_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve"])
    assert exc.value.code == 4
    capsys.readouterr()


def test_no_subcommand_exits_4(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 4
    capsys.readouterr()
