"""Seeded workload inputs, the operations run on them, and the correctness gate.

Every input is built from the benchmark seed before any timing starts (the
QP inputs by eqopt's own seeded generator, as for its problem files); the
library under test receives only the generated arrays and problem files.
An *instance* is one generated input together with every operation the
workload runs on it; the gate compares those operations with each other,
so an instance is also the unit of the end-to-end latency.
"""

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

import eqopt.nlp as nlp
import eqopt.objectives as objectives
import eqopt.problems as problems
import eqopt.qp as qp
from eqopt.expressions import EqualityConstraints

# Tolerances of the acceptance suite (tests/test_acceptance.py).
RESIDUAL_TOL = 1e-9  # times (1 + ||b||_inf)
AGREEMENT_TOL = 1e-8  # relative x gap between two methods
# Damped Newton stops once half its squared decrement is at most epsilon,
# which bounds its objective gap (criterion 8) but leaves x up to ~1e-5
# from the optimum, so Newton is compared with pure Newton on the
# objective: |h_newton - h_sqp| <= epsilon + NEWTON_ROUNDING (1 + |h|).
NEWTON_EPSILON = nlp.NewtonConfig().epsilon
NEWTON_ROUNDING = 1e-12

METHODS = ("projector", "nullspace", "kkt", "newton", "sqp")


@dataclass
class Op:
    """One timed call: ``call()`` returns the solver's result."""

    label: str  # unique within an instance, e.g. "newton/sum_exp"
    method: str  # one of METHODS
    call: Callable[[], object]


@dataclass
class Instance:
    """One generated input and the operations run on it.

    ``check`` maps ``{label: result}`` (only the operations that returned)
    to ``{label: failure kind}`` for the ones that failed the gate.
    ``oracles`` are the objective callbacks built by the benchmark, which
    the traced run wraps.
    """

    ops: list
    check: Callable[[dict], dict]
    oracles: list = field(default_factory=list)


@dataclass
class Workload:
    name: str
    instances: list
    cli_input: str  # problem file the cold-start child solves
    cli_method: str
    cli_reference: object  # (constraints, x) the child's answer must match
    reference: Callable[[], None]  # see "Reference computations" below


def rel_gap(x, y):
    x, y = np.asarray(x), np.asarray(y)
    scale = 1.0 + max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def feasible(constraints, x):
    """Constraint residual check, computed here rather than read from the solver."""
    a, b = constraints.a, constraints.b
    allowed = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(b), initial=0.0)))
    return float(np.max(np.abs(a @ np.asarray(x) - b), initial=0.0)) <= allowed


# ---------------------------------------------------------------------------
# qp_dense: SPD QPs at one shape, solved three ways and checked against KKT.

QP_DENSE_SHAPE = (200, 120)


def _qp_dense_check(problem):
    def check(results):
        failed = {}
        ref = results.get("kkt")
        for label, sol in results.items():
            if not feasible(problem.constraints, sol.x):
                failed[label] = "check.residual"
            elif sol.classification != "min":
                failed[label] = "check.classification"
            elif label != "kkt" and ref is not None and rel_gap(sol.x, ref.x) > AGREEMENT_TOL:
                failed[label] = "check.agreement"
        return failed

    return check


def qp_dense_instance(problem):
    ops = [
        Op("projector", "projector", lambda: qp.solve_projector(problem)),
        Op("nullspace", "nullspace", lambda: qp.solve_nullspace(problem)),
        Op("kkt", "kkt", lambda: qp.solve_kkt(problem)),
    ]
    return Instance(ops=ops, check=_qp_dense_check(problem))


def qp_dense_inputs(seed, count):
    rng = np.random.default_rng([seed, 1])
    n, m = QP_DENSE_SHAPE
    return [
        problems.generate(problems.GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        for _ in range(count)
    ]


def build_qp_dense(seed, count, workdir):
    probs = qp_dense_inputs(seed, count)
    path = str(workdir / "qp_dense-0.json")
    problems.save(path, probs[0])
    ref = qp.solve_nullspace(probs[0]).x
    return Workload(
        name="qp_dense",
        instances=[qp_dense_instance(p) for p in probs],
        cli_input=path,
        cli_method="nullspace",
        cli_reference=(probs[0].constraints, ref),
        reference=dense_reference(),
    )


# ---------------------------------------------------------------------------
# qp_degenerate: indefinite QPs with duplicated rows, read from problem files.

QP_DEGENERATE_SPEC = dict(n=60, m=30, rank_deficiency=15, q_class="symmetric_indefinite")


def _load_and(solver_name, path):
    def call():  # looked up per call, so the traced run's wrappers are used
        return getattr(qp, solver_name)(problems.load(path))

    return call


def _qp_degenerate_check(constraints):
    def check(results):
        failed = {}
        for label, sol in results.items():
            if not feasible(constraints, sol.x):
                failed[label] = "check.residual"
        proj, null = results.get("projector"), results.get("nullspace")
        if proj is not None and null is not None and not failed:
            if null.classification != proj.classification:
                failed["nullspace"] = "check.classification"
            elif rel_gap(null.x, proj.x) > AGREEMENT_TOL:
                failed["nullspace"] = "check.agreement"
        return failed

    return check


def qp_degenerate_instance(path, constraints):
    ops = [
        Op("projector", "projector", _load_and("solve_projector", path)),
        Op("nullspace", "nullspace", _load_and("solve_nullspace", path)),
    ]
    return Instance(ops=ops, check=_qp_degenerate_check(constraints))


def qp_degenerate_inputs(seed, count):
    rng = np.random.default_rng([seed, 2])
    return [
        problems.generate(
            problems.GeneratorSpec(seed=int(rng.integers(2**63)), **QP_DEGENERATE_SPEC)
        )
        for _ in range(count)
    ]


def build_qp_degenerate(seed, count, workdir):
    probs = qp_degenerate_inputs(seed, count)
    paths = [str(workdir / f"qp_degenerate-{i}.json") for i in range(count)]
    for path, problem in zip(paths, probs):
        problems.save(path, problem)
    problem = probs[0]
    return Workload(
        name="qp_degenerate",
        instances=[qp_degenerate_instance(path, p.constraints) for path, p in zip(paths, probs)],
        cli_input=paths[0],
        cli_method="nullspace",
        cli_reference=(problem.constraints, qp.solve_nullspace(problem).x),
        reference=degenerate_reference(),
    )


# ---------------------------------------------------------------------------
# nlp_newton: one constraint set per instance, under three objectives.

NLP_SHAPE = (100, 30)


def nlp_newton_inputs(seed, count):
    rng = np.random.default_rng([seed, 3])
    return [_nlp_arrays(rng, *NLP_SHAPE) for _ in range(count)]


def _nlp_arrays(rng, n, m):
    """Arrays for one nlp_newton instance, built without calling eqopt.

    Row 0 of A is all ones: fixing sum(x) bounds every null-space ray of
    sum_exp with positive rates, so its minimum exists. The log-sum-exp
    rows come in +/- pairs, which keeps it bounded below on any affine set.
    The barrier rows leave the minimum-norm feasible point (lstsq, the
    Newton start g = 0) strictly inside their domain.
    """
    a = rng.uniform(-1.0, 1.0, (m, n))
    a[0, :] = 1.0
    b = rng.uniform(-1.0, 1.0, m)
    b[0] = rng.uniform(-0.3, 0.3) * n
    half = rng.uniform(-1.0, 1.0, (2 * n, n))
    lse_rows = np.vstack([half, -half])
    rates = rng.uniform(0.5, 1.5, n)
    r = rng.uniform(-1.0, 1.0, (n, n))
    q = r.T @ r / n + np.eye(n)
    c = rng.uniform(-1.0, 1.0, n)
    barrier_a = rng.uniform(-1.0, 1.0, (2 * n, n))
    x_start = np.linalg.lstsq(a, b, rcond=None)[0]
    barrier_b = barrier_a @ x_start + rng.uniform(0.5, 1.5, 2 * n)
    return dict(
        a=a, b=b, lse_rows=lse_rows, rates=rates, q=q, c=c,
        barrier_a=barrier_a, barrier_b=barrier_b,
    )


def _reduce_and(solver_name, oracle, constraints):
    def call():  # looked up per call, so the traced run's wrappers are used
        return getattr(nlp, solver_name)(nlp.reduce_problem(oracle, constraints))

    return call


def _nlp_check(constraints):
    def check(results):
        failed = {}
        for label, trace in results.items():
            if not trace.converged:
                failed[label] = "check.converged"
            elif not feasible(constraints, trace.final_x):
                failed[label] = "check.residual"
        pair = ("newton/sum_exp", "sqp/sum_exp")
        newton, sqp = (results.get(label) for label in pair)
        if newton is not None and sqp is not None and not failed.keys() & set(pair):
            allowed = NEWTON_EPSILON + NEWTON_ROUNDING * (1.0 + abs(sqp.final_h))
            if abs(newton.final_h - sqp.final_h) > allowed:
                failed["sqp/sum_exp"] = "check.agreement"
        return failed

    return check


def nlp_instance(arrays):
    constraints = EqualityConstraints(arrays["a"], arrays["b"])
    lse = objectives.log_sum_exp(arrays["lse_rows"])
    sexp = objectives.sum_exp(rates=arrays["rates"])
    barrier = objectives.neg_log_barrier_quadratic(
        arrays["q"], arrays["c"], arrays["barrier_a"], arrays["barrier_b"]
    )
    ops = [
        Op("newton/log_sum_exp", "newton", _reduce_and("newton_solve", lse, constraints)),
        Op("newton/sum_exp", "newton", _reduce_and("newton_solve", sexp, constraints)),
        Op("sqp/sum_exp", "sqp", _reduce_and("sqp_iterate", sexp, constraints)),
        Op("newton/barrier", "newton", _reduce_and("newton_solve", barrier, constraints)),
    ]
    return Instance(ops=ops, check=_nlp_check(constraints), oracles=[lse, sexp, barrier])


def build_nlp_newton(seed, count, workdir):
    inputs = nlp_newton_inputs(seed, count)
    first = inputs[0]
    constraints = EqualityConstraints(first["a"], first["b"])
    problem = problems.NlpProblem(
        oracle=objectives.sum_exp(rates=first["rates"]),
        constraints=constraints,
        objective_name="sum_exp",
        objective_params={"rates": first["rates"]},
    )
    path = str(workdir / "nlp_newton-0.json")
    problems.save(path, problem)
    ref = _reduce_and("newton_solve", problem.oracle, constraints)().final_x
    return Workload(
        name="nlp_newton",
        instances=[nlp_instance(arrays) for arrays in inputs],
        cli_input=path,
        cli_method="newton",
        cli_reference=(constraints, ref),
        reference=nlp_reference(),
    )


# ---------------------------------------------------------------------------
# Reference computations: the numpy/scipy/json work a workload spends its
# time in, at the workload's sizes and on fixed inputs, without eqopt. The
# runner times one after every instance. On a shared virtual machine the
# speed drifts by up to half within a minute, and the reference
# slows down with the workload, so run.py divides it out; each workload
# needs its own because parsing and LAPACK do not slow down alike.

REFERENCE_SEED = 20191010


def dense_reference():
    n, m = QP_DENSE_SHAPE
    a = np.random.default_rng(REFERENCE_SEED).uniform(-1.0, 1.0, (m, n))

    def reference():
        scipy.linalg.qr(a.T)
        np.linalg.svd(a, full_matrices=True)
        scipy.linalg.cho_factor(a @ a.T)

    return reference


def degenerate_reference():
    rng = np.random.default_rng(REFERENCE_SEED)
    n, m = QP_DEGENERATE_SPEC["n"], QP_DEGENERATE_SPEC["m"] + QP_DEGENERATE_SPEC["rank_deficiency"]
    doc = {"Q": rng.uniform(-1.0, 1.0, (n, n)).tolist(), "A": rng.uniform(-1.0, 1.0, (m, n)).tolist()}
    text = json.dumps(doc)
    square = rng.uniform(-1.0, 1.0, (n, n))

    def reference():
        doc = json.loads(text)
        np.asarray(doc["Q"])
        np.asarray(doc["A"])
        np.linalg.svd(square)

    return reference


def nlp_reference():
    rng = np.random.default_rng(REFERENCE_SEED)
    n, m = NLP_SHAPE
    rows = rng.uniform(-1.0, 1.0, (4 * n, n))
    basis = np.linalg.qr(rng.uniform(-1.0, 1.0, (n, n - m)))[0]
    x = rng.uniform(-0.1, 0.1, n)

    def reference():
        for _ in range(3):  # three log-sum-exp Newton steps
            z = rows @ x
            w = np.exp(z - z.max())
            p = w / w.sum()
            g = rows.T @ p
            f = basis.T @ (rows.T @ (p[:, None] * rows) - np.outer(g, g)) @ basis
            cf = scipy.linalg.cho_factor(0.5 * (f + f.T) + 1e-3 * np.eye(n - m))
            scipy.linalg.cho_solve(cf, basis.T @ g)

    return reference


BUILDERS = {
    "qp_dense": build_qp_dense,
    "qp_degenerate": build_qp_degenerate,
    "nlp_newton": build_nlp_newton,
}
