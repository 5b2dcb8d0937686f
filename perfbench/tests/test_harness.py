"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests
"""

import dataclasses
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def _solve_all(instance):
    return {op.label: op.call() for op in instance.ops}


def _shifted(result, field, delta):
    return dataclasses.replace(result, **{field: getattr(result, field) + delta})


def test_gate_accepts_and_rejects_qp_dense():
    instance = workloads.qp_dense_instance(workloads.qp_dense_inputs(0, 1)[0])
    results = _solve_all(instance)
    assert instance.check(results) == {}
    bad = dict(results, projector=_shifted(results["projector"], "x", 1e-6))
    assert instance.check(bad) == {"projector": "check.residual"}
    bad = dict(results, nullspace=dataclasses.replace(results["nullspace"], classification="saddle"))
    assert instance.check(bad) == {"nullspace": "check.classification"}


def test_gate_rejects_disagreement_on_the_feasible_set():
    problem = workloads.qp_dense_inputs(1, 1)[0]
    instance = workloads.qp_dense_instance(problem)
    results = _solve_all(instance)
    # a step along ker(A) stays feasible but leaves the KKT point
    kernel_direction = np.linalg.svd(problem.constraints.a)[2][-1]
    moved = results["projector"].x + 1e-6 * kernel_direction
    bad = dict(results, projector=dataclasses.replace(results["projector"], x=moved))
    assert instance.check(bad) == {"projector": "check.agreement"}


def test_gate_rejects_qp_degenerate_mismatch(tmp_path):
    instance = workloads.build_qp_degenerate(0, 1, tmp_path).instances[0]
    results = _solve_all(instance)
    assert instance.check(results) == {}
    results["nullspace"] = _shifted(results["nullspace"], "x", 1e-6)
    assert instance.check(results) == {"nullspace": "check.residual"}


def test_gate_rejects_nlp_results(tmp_path):
    instance = workloads.build_nlp_newton(0, 1, tmp_path).instances[0]
    results = _solve_all(instance)
    assert instance.check(results) == {}
    bad = dict(results)
    bad["newton/barrier"] = _shifted(results["newton/barrier"], "final_x", 1e-6)
    assert instance.check(bad) == {"newton/barrier": "check.residual"}
    bad = dict(results)
    bad["sqp/sum_exp"] = _shifted(results["sqp/sum_exp"], "final_h", 1e-6)
    assert instance.check(bad) == {"sqp/sum_exp": "check.agreement"}
    bad = dict(results)
    bad["newton/log_sum_exp"] = dataclasses.replace(results["newton/log_sum_exp"], converged=False)
    assert instance.check(bad) == {"newton/log_sum_exp": "check.converged"}


def _arrays(inputs):
    out = []
    for item in inputs:
        if isinstance(item, dict):
            out.extend(item[key] for key in sorted(item))
        else:
            out.extend([item.q, item.c, item.constraints.a, item.constraints.b])
    return out


@pytest.mark.parametrize(
    "make", [workloads.qp_dense_inputs, workloads.qp_degenerate_inputs, workloads.nlp_newton_inputs]
)
def test_same_seed_same_inputs(make):
    first, again, other = make(7, 3), make(7, 3), make(8, 3)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(_arrays(first), _arrays(again)))
    assert any(x.tobytes() != y.tobytes() for x, y in zip(_arrays(first), _arrays(other)))


def test_same_seed_same_problem_files(tmp_path):
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        workloads.build_qp_degenerate(5, 2, tmp_path / run)
    for name in ("qp_degenerate-0.json", "qp_degenerate-1.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_barrier_start_is_strictly_interior():
    for arrays in workloads.nlp_newton_inputs(3, 5):
        x0 = np.linalg.lstsq(arrays["a"], arrays["b"], rcond=None)[0]
        assert np.min(arrays["barrier_b"] - arrays["barrier_a"] @ x0) > 0.0


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0, 0.0)


def test_self_times_partition_a_parent():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("b1", 5.0, 6.0, 2),
        _span("b2", 6.5, 7.0, 2),
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([4.0, 2.0, 2.5, 1.0, 0.5])
    assert sum(selfs) == pytest.approx(10.0)
    assert selfs[2] + selfs[3] + selfs[4] == pytest.approx(spans[2].end - spans[2].start)


def test_recorded_spans_nest_and_sum():
    recorder = tracing.Recorder()
    recorder.op = 0

    def leaf():
        return sum(range(2000))

    inner = recorder.wrap("inner", lambda: [leaf_traced() for _ in range(3)])
    leaf_traced = recorder.wrap("leaf", leaf)
    outer = recorder.wrap("outer", lambda: (inner(), leaf_traced()))
    outer()
    spans = recorder.spans
    assert [s.name for s in spans].count("leaf") == 4
    assert spans[0].name == "outer" and spans[0].parent == -1
    assert all(s.parent >= 0 for s in spans[1:])
    total = sum(tracing.self_times(spans))
    assert total == pytest.approx(spans[0].end - spans[0].start, rel=1e-9, abs=1e-12)


def test_recorder_is_silent_outside_operations():
    recorder = tracing.Recorder()
    recorder.wrap("f", lambda: 1)()
    assert recorder.spans == []


def test_install_traces_references_held_by_other_modules(tmp_path):
    import eqopt.linalg

    instance = workloads.build_qp_degenerate(0, 1, tmp_path).instances[0]
    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    original = eqopt.linalg.rrqr_reduce
    patches.enable()
    try:
        recorder.op = 0
        instance.ops[0].call()
    finally:
        recorder.op = -1
        patches.disable()
    assert eqopt.linalg.rrqr_reduce is original
    spans = recorder.spans
    names = [s.name for s in spans]
    assert names[0] == "problems.load"
    assert any(name.startswith("kernel.") for name in names)
    # qp reaches rrqr_reduce through another module's reference to it
    (reduce_span,) = [s for s in spans if s.name == "linalg.rrqr_reduce"]
    ancestor = reduce_span.parent
    while spans[ancestor].parent >= 0:
        ancestor = spans[ancestor].parent
    assert spans[ancestor].name == "qp.solve_projector"
    assert reduce_span.note == workloads.QP_DEGENERATE_SPEC["rank_deficiency"]


def test_layer_metrics_average_per_operation_and_method():
    spans = [
        tracing.Span("qp.solve_projector", 0.0, 0.010, -1, 0, 0.0),
        tracing.Span("kernel.numpy.linalg.svd", 0.001, 0.004, 0, 0, 100.0),
        tracing.Span("kernel.scipy.linalg.qr", 0.005, 0.006, 0, 0, 50.0),
        tracing.Span("qp.solve_kkt", 0.020, 0.024, -1, 1, 0.0),
        tracing.Span("kernel.scipy.linalg.solve", 0.021, 0.023, 3, 1, 30.0),
    ]
    ops = {0: ("projector", None, None), 1: ("kkt", None, None)}
    metrics = tracing.layer_metrics(spans, ops, workloads.METHODS)
    assert metrics["kernel.factorizations"] == 1.5
    assert metrics["kernel.projector.factorizations"] == 2
    assert metrics["kernel.kkt.factorizations"] == 1
    assert metrics["kernel.newton.factorizations"] == 0
    assert metrics["kernel.projector.flop_computed"] == 150.0
    assert metrics["kernel.projector.ms"] == pytest.approx(4.0)
    assert metrics["qp.solve_projector.self_ms"] == pytest.approx(6.0 / 2)
    assert metrics["qp.solve_kkt.self_ms"] == pytest.approx(2.0 / 2)


def test_newton_counts_come_from_the_trace():
    class Step:
        def __init__(self, t):
            self.step_size = t

    class Trace:
        iterations = [Step(0.25), Step(1.0), Step(0.5)]

    assert tracing.armijo_trials(Trace, 0.5) == 3 + 1 + 2
    spans = [
        tracing.Span("nlp.newton_solve", 0.0, 0.010, -1, 0, 0.0),
        tracing.Span("objectives.value", 0.001, 0.002, 0, 0, 0.0),
        tracing.Span("objectives.hessian", 0.003, 0.006, 0, 0, 0.0),
    ]
    metrics = tracing.layer_metrics(spans, {0: ("newton", 3, 6)}, workloads.METHODS)
    assert metrics["nlp.self_ms"] == pytest.approx(6.0)
    assert metrics["nlp.armijo_accept_ratio"] == 0.5
    assert metrics["objectives.value.calls"] == 1


def test_qr_flops_match_the_textbook_count():
    a = np.zeros((200, 120))
    k = 120
    j = np.arange(k)
    triangularize = 4 * np.sum((200 - j) * (120 - j))
    form_q = 4 * np.sum((200 - j) ** 2)
    assert tracing._flops_qr((a,), {}, None) == pytest.approx(triangularize + form_q)
    assert triangularize == pytest.approx(2 * 120**2 * (200 - 120 / 3), rel=0.02)


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "qp_dense",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
