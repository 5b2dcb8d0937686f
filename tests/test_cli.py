"""End-to-end tests for the eqopt command line driver.

Everything goes through ``cli.main(argv)`` so the exit codes and emitted
files are exactly what a shell user would see.
"""

import json

import numpy as np
import pytest

from eqopt import cli, objectives, selfcheck


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


def _lse_file(tmp_path, name="nlp.json"):
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {
            "name": "log_sum_exp",
            "params": {"a": [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]},
        },
        "A": [[1.0, 1.0]],
        "b": [2.0],
    }
    return _write_doc(tmp_path / name, doc)


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
    ],
    ids=["huge-integer", "deep-nesting", "invalid-utf8", "string-entry"],
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


def test_solve_kkt_notes_that_it_ignores_tol(tmp_path, capsys):
    path = _qp_file(tmp_path)
    code = cli.main(["solve", "--input", path, "--method", "kkt", "--tol", "0.5"])
    assert code == 0
    captured = capsys.readouterr()
    assert "kkt oracle takes no tolerance" in captured.err
    np.testing.assert_allclose(json.loads(captured.out)["x"], [1.0, 0.0], atol=1e-12)
    assert cli.main(["solve", "--input", path, "--method", "kkt"]) == 0
    assert capsys.readouterr().err == ""


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


@pytest.mark.parametrize(
    "q, c, a, b",
    [
        # the minimum-norm point x0 = (1e310, 0, 0) overflows
        (np.eye(3).tolist(), [0.0] * 3, [[1e-300, 0.0, 0.0]], [1e10]),
        # x0 = (1, 1e300, 0) is finite, but Q x0 and so the solution overflow
        ((1e300 * np.eye(3)).tolist(), [1e300] * 3, [[1e-300, 1.0, 0.0]], [1e300]),
    ],
)
def test_solve_a_solution_that_overflows_exits_3(tmp_path, capsys, q, c, a, b):
    path = _qp_file(tmp_path, n=3, Q=q, c=c, A=a, b=b)
    for method in ("projector", "nullspace", "kkt"):
        with np.errstate(over="ignore", invalid="ignore"):
            assert cli.main(["solve", "--input", path, "--method", method]) == 3, method
        assert "error:" in capsys.readouterr().err


def test_solve_newton_with_trace(tmp_path):
    out = tmp_path / "sol.json"
    trace_path = tmp_path / "trace.json"
    code = cli.main(
        [
            "solve",
            "--input",
            _lse_file(tmp_path),
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

    trace = json.loads(trace_path.read_text())
    assert trace["converged"] is True
    hs = [it["hValue"] for it in trace["iterations"]] + [trace["finalH"]]
    assert all(hs[i + 1] <= hs[i] + 1e-12 for i in range(len(hs) - 1))
    # symmetric problem: optimum splits the budget evenly
    np.testing.assert_allclose(sol["x"], [1.0, 1.0], atol=1e-6)


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
    # asymmetric instance whose optimum is well away from the starting
    # point; full Newton needs three steps here
    doc = {
        "formatVersion": 1,
        "kind": "nlp",
        "n": 2,
        "m": 1,
        "objective": {
            "name": "log_sum_exp",
            "params": {"a": [[3.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]},
        },
        "A": [[1.0, 1.0]],
        "b": [4.0],
    }
    out = tmp_path / "sol.json"
    code = cli.main(
        [
            "solve",
            "--input",
            _write_doc(tmp_path / "hard.json", doc),
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
        assert row["maxConstraintResidual"] < 1e-8
        assert row["maxCrossMethodDisagreement"] < 1e-8
        assert row["failures"] == {}
    table = capsys.readouterr().out
    assert "mean-ms" in table
    assert "report written" in table


def test_bench_report_records_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    report_path = tmp_path / "report.json"
    code = cli.main(["bench", "--sizes", "6:2", "--trials", "1", "--output", str(report_path)])
    assert code == 0
    env = json.loads(report_path.read_text())["environment"]
    assert set(env) == {
        "python", "numpy", "scipy", "cpuCount",
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    }
    assert env["numpy"] == np.__version__
    assert env["cpuCount"] >= 1
    assert env["OMP_NUM_THREADS"] == "3"
    assert env["MKL_NUM_THREADS"] is None


def test_bench_zero_trials_gives_empty_rows(tmp_path):
    report_path = tmp_path / "report.json"
    code = cli.main(
        ["bench", "--sizes", "6:2", "--trials", "0", "--output", str(report_path)]
    )
    assert code == 0
    assert json.loads(report_path.read_text())["rows"] == []


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
    assert len(lines) == 13
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


def test_check_zero_trials_exit_4(capsys):
    assert cli.main(["check", "--trials", "0"]) == 4
    assert "trials" in capsys.readouterr().err


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
