import ast
import dataclasses
import types
from collections.abc import Mapping
from functools import partial

import numpy as np
import pytest

import eqopt
from helpers import package_modules


def test_public_names_resolve():
    missing = [name for name in eqopt.__all__ if not hasattr(eqopt, name)]
    assert not missing


def test_public_names_sorted_and_unique():
    assert eqopt.__all__ == sorted(set(eqopt.__all__))


def test_the_public_names_are_what_the_package_imports():
    # __all__ is read off the package's globals: a star import binds exactly
    # it, and it names no module and nothing private
    namespace = {}
    exec("from eqopt import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == eqopt.__all__
    assert not [name for name in eqopt.__all__
                if name.startswith("_") or isinstance(getattr(eqopt, name), types.ModuleType)]


# each case builds one frozen type from the caller's own arrays and returns
# (object, (field, new value), the arrays it holds, the caller's arrays)
def _constraints():
    a, b = np.array([[1.0, 1.0, 0.0]]), np.array([1.0])
    return eqopt.EqualityConstraints(a, b), a, b


def _equality_constraints():
    cons, a, b = _constraints()
    # a b of the wrong length reached solve_kkt as numpy's bare matmul error
    return cons, ("b", np.ones(5)), [cons.a, cons.b], [a, b]


def _qp_problem():
    cons, a, b = _constraints()
    q, c = np.eye(3), np.ones(3)
    problem = eqopt.QpProblem(q, c, cons)
    return problem, ("c", np.zeros(3)), [problem.q, problem.c, cons.a], [q, c, a, b]


def _asymmetric_qp_problem():
    # QpProblem holds a read-only copy of (Q + Q^T) / 2, as it does of c
    cons, a, b = _constraints()
    q, c = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]]), np.ones(3)
    problem = eqopt.QpProblem(q, c, cons)
    return problem, ("q", np.eye(3)), [problem.q, problem.c, cons.a], [q, c, a, b]


def _newton_config():
    g0 = np.zeros(2)
    config = eqopt.NewtonConfig(g0=g0)
    # max_iter = 2.5 made pure Newton run 3 steps
    return config, ("max_iter", 2.5), [config.g0], [g0]


def _convergence_constants():
    return eqopt.ConvergenceConstants(1.0, 2.0, 3.0), ("m_strong", -1.0), [], []


def _generator_spec():
    return eqopt.GeneratorSpec(n=4, m=2), ("q_class", "asymmetric"), [], []


def _constrained_expression():
    a, b = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]]), np.array([1.0, 2.0])
    expr = eqopt.build_nullspace(eqopt.EqualityConstraints(a, b))  # one row kept, one dropped
    held = [expr.x0, expr.basis, expr.selected, expr.dropped]
    return expr, ("x0", np.zeros(3)), held, [a, b]


def _nlp_problem():
    cons, a, b = _constraints()
    rates = np.array([1.0, 2.0, 3.0])
    problem = eqopt.NlpProblem(cons, "sum_exp", {"rates": rates})
    # problem.constraints = None went through; and the oracle, built from
    # the caller's rates, took the caller's rates += 5
    return problem, ("constraints", None), [problem.constraints.a,
                                            problem.objective_params["rates"]], [a, b, rates]


def _reduced_objective():
    cons, a, b = _constraints()
    reduced = eqopt.reduce_problem(eqopt.sum_exp(dim=3), cons)
    # a new oracle went unused: Newton kept minimizing the one reduced first
    swap = ("oracle", eqopt.log_sum_exp(np.eye(3)))
    return reduced, swap, [reduced.expr.x0, reduced.expr.basis], [a, b]


@pytest.mark.parametrize(
    "case",
    [
        _equality_constraints,
        _qp_problem,
        _asymmetric_qp_problem,
        _newton_config,
        _convergence_constants,
        _generator_spec,
        _constrained_expression,
        _nlp_problem,
        _reduced_objective,
    ],
    ids=lambda case: case.__name__.strip("_"),
)
def test_a_checked_input_cannot_change_after_the_check(case):
    obj, (field, value), held, callers = case()
    before = getattr(obj, field)
    oracle = getattr(obj, "oracle", None)
    if oracle is not None:
        x = np.linspace(0.1, 0.7, oracle.dim)
        objective = oracle.value(x)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, value)
    assert getattr(obj, field) is before
    for value in (getattr(obj, f.name) for f in dataclasses.fields(obj)):
        if isinstance(value, Mapping):  # objective_params["rates"] = [5.0, 5.0] went through
            with pytest.raises(TypeError):
                value[next(iter(value))] = [5.0, 5.0]
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = np.nan
    kept = [array.copy() for array in held]
    for array in callers:
        array += 5.0
    for array, copy in zip(held, kept):
        assert np.array_equal(array, copy)
    if oracle is not None:
        assert obj.oracle.value(x) == objective


@pytest.mark.parametrize(
    "case",
    [_equality_constraints, _qp_problem, _constrained_expression, _nlp_problem, _reduced_objective],
    ids=lambda case: case.__name__.strip("_"),
)
def test_a_frozen_type_holding_arrays_compares_and_hashes_by_identity(case):
    # == of two built alike raised numpy's "truth value of an array is
    # ambiguous", and hash raised "unhashable type: 'numpy.ndarray'"
    obj, twin = case()[0], case()[0]
    assert obj == obj and obj != twin
    assert len({obj, obj, twin}) == 2
    assert {obj: "kept"}[obj] == "kept"


def test_the_frozen_settings_keep_value_equality():
    assert eqopt.GeneratorSpec(n=4, m=2) == eqopt.GeneratorSpec(n=4, m=2)
    assert eqopt.NewtonConfig(alpha=0.2) == eqopt.NewtonConfig(alpha=0.2)
    assert eqopt.ConvergenceConstants(1.0, 2.0, 3.0) == eqopt.ConvergenceConstants(1.0, 2.0, 3.0)


# each case returns an answer eqopt built, (field, new value), and the
# caller's arrays it was built from; sol.x[0] = 9.0 went through on every
# method's answer and, on a Newton answer, rewrote its trace's final_x,
# and sol.trace.converged = False rewrote the trace the answer held
def _spd_qp():
    return eqopt.generate(eqopt.GeneratorSpec(n=6, m=2, seed=1))


def _solution(method):
    solution = eqopt.solve(_spd_qp(), method)
    assert (solution.lagrange_multipliers is not None) == (method == "kkt")
    return solution, ("x", np.zeros(6)), []


def _newton_trace():
    g0 = np.full(4, 0.5)
    trace = eqopt.solve(_spd_qp(), "newton", config=eqopt.NewtonConfig(g0=g0)).trace
    return trace, ("converged", False), [g0]


def _newton_iteration():
    g0 = np.full(4, 0.5)
    trace = eqopt.solve(_spd_qp(), "sqp", config=eqopt.NewtonConfig(g0=g0)).trace
    return trace.iterations[0], ("g", np.zeros(4)), [g0]


def _divergence_trace():
    # h(g) = sqrt(1 + g^2): pure Newton maps g to -g^3, away from |g0| > 1
    oracle = eqopt.ObjectiveOracle(
        2,
        value=lambda x: float(np.sum(np.sqrt(1 + x**2))),
        gradient=lambda x: x / np.sqrt(1 + x**2),
        hessian=lambda x: np.diag((1 + x**2) ** -1.5),
    )
    g0 = np.array([1.5])
    reduced = eqopt.reduce_problem(oracle, eqopt.EqualityConstraints([[1.0, 0.0]], [0.0]))
    with pytest.raises(eqopt.DivergenceError) as info:
        eqopt.sqp_iterate(reduced, eqopt.NewtonConfig(g0=g0))
    return info.value.trace, ("iterations", ()), [g0]


def _iteration_bound():
    constants = eqopt.ConvergenceConstants(1.0, 2.0, 3.0)
    return eqopt.iteration_bound(constants, eqopt.NewtonConfig(), 1.0), ("d_max", 0.0), []


def _arrays(value):
    """Every array ``value`` holds, through fields, tuples and nested answers."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _arrays(getattr(value, f.name))


_METHODS = ("projector", "nullspace", "kkt", "newton", "sqp")


@pytest.mark.parametrize(
    "case",
    [pytest.param(partial(_solution, method), id=f"solution-{method}") for method in _METHODS]
    + [
        pytest.param(case, id=case.__name__.strip("_"))
        for case in (_newton_trace, _newton_iteration, _divergence_trace, _iteration_bound)
    ],
)
def test_an_answer_cannot_change_after_it_is_returned(case):
    obj, (field, value), callers = case()
    before = getattr(obj, field)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(obj, field, value)
    assert getattr(obj, field) is before
    held = list(_arrays(obj))
    for array in held:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = np.nan
    kept = [array.copy() for array in held]
    for array in callers:
        array += 5.0
    for array, copy in zip(held, kept):
        assert np.array_equal(array, copy)


def test_a_newton_trace_flags_no_array_its_oracle_returned():
    # the final reduced gradient is the oracle's own array; the trace holds
    # a copy, so the pull-back can still write the buffer it hands back
    buffer = np.empty(1)

    def gradient(g):
        buffer[:] = g - 1.0
        return buffer

    reduced_oracle = eqopt.ObjectiveOracle(
        1, lambda g: 0.5 * float((g - 1.0) @ (g - 1.0)), gradient, lambda g: np.eye(1)
    )
    oracle = eqopt.ObjectiveOracle(2, lambda x: 0.0, lambda x: x,
                                   pullback=lambda x0, basis: reduced_oracle)
    reduced = eqopt.reduce_problem(oracle, eqopt.EqualityConstraints([[1.0, 0.0]], [0.0]))
    trace = eqopt.newton_solve(reduced)
    assert trace.converged and buffer.flags.writeable
    assert np.array_equal(trace.final_gradient, buffer) and trace.final_gradient is not buffer


def test_every_dataclass_is_frozen():
    # inputs are checked once and answers built once, so no type eqopt
    # defines can change after it is built
    found, offenders = [], []
    for path, tree in package_modules():
        for node in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for deco in node.decorator_list:
                call = deco if isinstance(deco, ast.Call) else None
                target = call.func if call else deco
                if getattr(target, "id", getattr(target, "attr", None)) != "dataclass":
                    continue
                found.append(node.name)
                keywords = {k.arg: k.value for k in call.keywords} if call else {}
                frozen = keywords.get("frozen")
                if not (isinstance(frozen, ast.Constant) and frozen.value is True):
                    offenders.append(f"{path.name}:{node.lineno} {node.name}")
    assert found and offenders == []
