import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqopt.errors import ComputationError, UnknownObjectiveError
from eqopt.expressions import EqualityConstraints
from eqopt.objectives import (
    log_sum_exp,
    neg_log_barrier_quadratic,
    objective_names,
    objective_registry,
    quadratic,
    sum_exp,
)
from eqopt.qp import QpProblem
from helpers import chain_rule_oracle, fd_gradient, fd_hessian


def test_registry_names_and_lookup():
    assert objective_names() == [
        "log_sum_exp",
        "neg_log_barrier_quadratic",
        "quadratic",
        "sum_exp",
    ]
    oracle = objective_registry("sum_exp", {"dim": 3})
    assert oracle.dim == 3
    with pytest.raises(UnknownObjectiveError):
        objective_registry("cubic")
    # the registry error is also a KeyError, so dict-style handling works
    with pytest.raises(KeyError):
        objective_registry("cubic")


def test_quadratic_values():
    oracle = quadratic(np.eye(2))
    x = np.array([1.0, 0.0])
    assert oracle.value(x) == 0.5
    assert_allclose(oracle.gradient(x), [1.0, 0.0])
    assert_allclose(oracle.hessian(x), np.eye(2))
    with_c = quadratic(np.eye(2), [1.0, -1.0])
    assert with_c.value(x) == 1.5


def test_restricting_a_quadratic_that_overflows_is_a_computation_error():
    # called directly, outside any solve, the pull-back still refuses the
    # overflow with the typed error and lets no numpy warning escape first
    oracle = quadratic(np.diag([1e300, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ComputationError, match="quadratic part overflows float range"):
            oracle.restrict(np.array([1e10, 0.0]), np.eye(2))


def test_sum_exp_values():
    oracle = sum_exp(dim=4)
    zero = np.zeros(4)
    assert oracle.value(zero) == 4.0
    assert_allclose(oracle.gradient(zero), np.ones(4))
    assert_allclose(oracle.hessian(zero), np.eye(4))
    scaled = sum_exp(rates=[2.0, -1.0])
    assert_allclose(scaled.gradient(np.zeros(2)), [2.0, -1.0])
    assert_allclose(scaled.hessian(np.zeros(2)), np.diag([4.0, 1.0]))


def test_sum_exp_dim_must_be_an_integer():
    # 3.0 too, as a problem file refuses it: the integer rule of eqopt.linalg
    for dim in (True, np.True_, 2.5, 3.0, float("nan"), float("inf"), "two"):
        with pytest.raises(ValueError, match="dim"):
            sum_exp(dim=dim)
    with pytest.raises(ValueError, match="dim"):
        sum_exp(dim=False, rates=[1.0])
    assert sum_exp(dim=3).dim == sum_exp(dim=np.int64(3)).dim == 3


def test_log_sum_exp_values():
    oracle = log_sum_exp(np.eye(3))
    assert_allclose(oracle.value(np.zeros(3)), np.log(3.0))
    # softmax gradient sums to the simplex
    g = oracle.gradient(np.array([0.1, -0.2, 0.5]))
    assert_allclose(np.sum(g), 1.0, rtol=1e-12)


def test_log_sum_exp_overflow_stability():
    oracle = log_sum_exp(np.array([[1.0], [2.0]]))
    x = np.array([500.0])  # naive exp(1000) overflows
    assert np.isfinite(oracle.value(x))
    assert_allclose(oracle.value(x), 1000.0, atol=1e-9)
    assert np.all(np.isfinite(oracle.gradient(x)))
    assert np.all(np.isfinite(oracle.hessian(x)))


def test_barrier_values_and_domain():
    oracle = neg_log_barrier_quadratic(
        np.zeros((1, 1)), barrier_a=[[1.0]], barrier_b=[1.0]
    )
    assert oracle.value(np.array([0.0])) == 0.0  # -log(1)
    assert_allclose(oracle.gradient(np.array([0.0])), [1.0])
    assert_allclose(oracle.hessian(np.array([0.0])), [[1.0]])
    assert oracle.value(np.array([2.0])) == np.inf
    assert oracle.value(np.array([1.0])) == np.inf  # boundary excluded
    # all three fail in the slope, with one message
    with pytest.raises(ValueError, match="derivatives requested outside the barrier domain"):
        oracle.gradient(np.array([2.0]))
    with pytest.raises(ValueError, match="derivatives requested outside the barrier domain"):
        oracle.hessian(np.array([2.0]))
    with pytest.raises(ValueError, match="derivatives requested outside the barrier domain"):
        oracle.derivatives(np.array([2.0]))


def test_barrier_parameter_validation():
    with pytest.raises(ValueError):
        neg_log_barrier_quadratic(np.eye(2))
    with pytest.raises(ValueError):
        neg_log_barrier_quadratic(
            np.eye(2), barrier_a=[[1.0, 0.0]], barrier_b=[1.0, 2.0]
        )
    with pytest.raises(ValueError, match="barrier_a has 3 columns, expected 2"):
        neg_log_barrier_quadratic(np.eye(2), barrier_a=[[1.0, 0.0, 0.0]], barrier_b=[1.0])
    for mu in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            neg_log_barrier_quadratic(
                np.eye(2), barrier_a=[[1.0, 0.0]], barrier_b=[1.0], mu=mu
            )


def test_parameter_shape_validation():
    with pytest.raises(ValueError):
        quadratic(np.ones((2, 3)))
    with pytest.raises(ValueError):
        quadratic(np.eye(2), [1.0])
    with pytest.raises(ValueError):
        sum_exp()
    with pytest.raises(ValueError):
        sum_exp(dim=3, rates=[1.0, 2.0])
    with pytest.raises(ValueError):
        log_sum_exp(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        log_sum_exp(np.eye(2), shift=[1.0, 2.0, 3.0])


def _sample_point(rng, name, oracle, params):
    if name == "neg_log_barrier_quadratic":
        # stay well inside the barrier ball around the origin
        return rng.uniform(-0.1, 0.1, oracle.dim)
    if name == "sum_exp":
        return rng.uniform(-1.0, 1.0, oracle.dim)
    return rng.uniform(-2.0, 2.0, oracle.dim)


def registry_test_cases(rng, n=5):
    yield "quadratic", {"q": rng.uniform(-1, 1, (n, n)).tolist(), "c": rng.uniform(-1, 1, n).tolist()}
    yield "sum_exp", {"rates": rng.uniform(-1.5, 1.5, n).tolist()}
    yield "log_sum_exp", {
        "a": rng.uniform(-1, 1, (3 * n, n)).tolist(),
        "shift": rng.uniform(-0.5, 0.5, 3 * n).tolist(),
    }
    yield "neg_log_barrier_quadratic", {
        "q": np.eye(n).tolist(),
        "c": rng.uniform(-1, 1, n).tolist(),
        "barrier_a": rng.uniform(-1, 1, (2 * n, n)).tolist(),
        "barrier_b": (np.abs(rng.uniform(-1, 1, (2 * n, n))).sum(axis=1) * 0.1 + 1.0).tolist(),
        "mu": 0.7,
    }


def test_all_registry_oracles_pass_derivative_checks():
    rng = np.random.default_rng(55)
    for name, params in registry_test_cases(rng):
        oracle = objective_registry(name, params)
        for _ in range(10):
            x = _sample_point(rng, name, oracle, params)
            grad = oracle.gradient(x)
            grad_fd = fd_gradient(oracle.value, x)
            assert np.max(np.abs(grad - grad_fd)) < 1e-5 * (1 + np.max(np.abs(grad_fd))), name
            hess = oracle.hessian(x)
            hess_fd = fd_hessian(oracle.gradient, x)
            assert np.max(np.abs(hess - hess_fd)) < 1e-4 * (1 + np.max(np.abs(hess_fd))), name


def test_every_registry_objective_pulls_back():
    rng = np.random.default_rng(8)
    built = {name: objective_registry(name, params) for name, params in registry_test_cases(rng)}
    assert sorted(built) == objective_names()
    for name, oracle in built.items():
        assert oracle.pullback is not None, name


def test_pull_back_equals_composition_for_every_registry_objective():
    rng = np.random.default_rng(31)
    n, k = 5, 3
    for name, params in registry_test_cases(rng, n):
        oracle = objective_registry(name, params)
        x0 = 0.1 * rng.uniform(-1, 1, n)  # inside the barrier's domain
        basis = np.linalg.qr(rng.uniform(-1, 1, (n, k)))[0]
        pulled = oracle.restrict(x0, basis)
        composed = chain_rule_oracle(oracle).restrict(x0, basis)
        assert pulled.dim == composed.dim == k
        assert pulled.pullback is not None, name
        for _ in range(5):
            g = 0.1 * rng.uniform(-1, 1, k)
            value = composed.value(g)
            assert abs(pulled.value(g) - value) <= 1e-12 * max(1.0, abs(value)), name
            for part in ("gradient", "hessian"):
                got, want = getattr(pulled, part)(g), getattr(composed, part)(g)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-12 * scale, (name, part)
        if name == "neg_log_barrier_quadratic":
            # a free vector that moves x = x0 + N g past a barrier row
            row = np.asarray(params["barrier_a"])[0] @ basis
            g = 10.0 * float(params["barrier_b"][0]) * row / (row @ row)
            assert composed.value(g) == np.inf
            assert pulled.value(g) == np.inf
            with pytest.raises(ValueError):
                pulled.gradient(g)
            with pytest.raises(ValueError):
                pulled.hessian(g)


def test_every_registry_hessian_is_exactly_symmetric():
    rng = np.random.default_rng(33)
    for name, params in registry_test_cases(rng, 6):
        oracle = objective_registry(name, params)
        once = oracle.restrict(0.05 * rng.uniform(-1, 1, 6), np.linalg.qr(rng.uniform(-1, 1, (6, 4)))[0])
        twice = once.restrict(0.05 * rng.uniform(-1, 1, 4), np.linalg.qr(rng.uniform(-1, 1, (4, 2)))[0])
        for f in (oracle, once, twice):
            h = f.hessian(0.05 * rng.uniform(-1, 1, f.dim))
            assert np.array_equal(h, h.T), (name, f.dim)


def test_derivatives_equal_the_two_callbacks_for_every_registry_objective():
    # one evaluation gives the gradient and the Hessian, bit for bit
    rng = np.random.default_rng(34)
    n, k = 6, 4
    for name, params in registry_test_cases(rng, n):
        oracle = objective_registry(name, params)
        basis = np.linalg.qr(rng.uniform(-1, 1, (n, k)))[0]
        pulled = oracle.restrict(0.05 * rng.uniform(-1, 1, n), basis)
        for f in (oracle, pulled):
            for _ in range(3):
                x = 0.05 * rng.uniform(-1, 1, f.dim)
                grad, hess = f.derivatives(x)
                assert np.array_equal(grad, f.gradient(x)), (name, f.dim)
                assert np.array_equal(hess, f.hessian(x)), (name, f.dim)


def test_pull_back_composes():
    # restricting twice equals restricting once through the product basis
    rng = np.random.default_rng(32)
    for name, params in registry_test_cases(rng, 6):
        oracle = objective_registry(name, params)
        x0 = 0.05 * rng.uniform(-1, 1, 6)
        b1 = np.linalg.qr(rng.uniform(-1, 1, (6, 4)))[0]
        y0 = 0.05 * rng.uniform(-1, 1, 4)
        b2 = np.linalg.qr(rng.uniform(-1, 1, (4, 2)))[0]
        twice = oracle.restrict(x0, b1).restrict(y0, b2)
        once = chain_rule_oracle(oracle).restrict(x0 + b1 @ y0, b1 @ b2)
        g = 0.05 * rng.uniform(-1, 1, 2)
        assert abs(twice.value(g) - once.value(g)) <= 1e-12 * max(1.0, abs(once.value(g))), name
        assert_allclose(twice.gradient(g), once.gradient(g), rtol=1e-12, atol=1e-12)
        assert_allclose(twice.hessian(g), once.hessian(g), rtol=1e-12, atol=1e-12)


def test_a_symmetric_q_is_held_as_given():
    # each objective held a symmetrized copy of an already symmetric Q:
    # 100 % of q.nbytes traced
    rng = np.random.default_rng(35)
    r = rng.uniform(-1, 1, (300, 300))
    q = r + r.T  # exactly symmetric
    c, ba, bb = np.zeros(300), rng.uniform(-1, 1, (5, 300)), np.ones(5)
    for build in (lambda: quadratic(q), lambda: neg_log_barrier_quadratic(q, c, ba, bb)):
        tracemalloc.start()
        try:
            oracle = build()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.05 * q.nbytes, held
        assert oracle.dim == 300


@pytest.mark.parametrize(
    "q",
    [
        [[2.0, 1.0, 0.5], [-1.0, 3.0, 0.0], [0.25, 2.0, 4.0]],
        [[2.0, 5e-324, 0.0], [5e-324, -5e-324, 0.0], [0.0, 0.0, 1.0]],  # 5e-324 halves to 0
        [[1.0, -0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],  # -0.0 opposite +0.0
    ],
    ids=["asymmetric", "subnormal", "signed_zero"],
)
def test_a_quadratic_objective_agrees_with_its_qp_bit_for_bit(q):
    q, c = np.array(q), np.array([0.5, -1.0, 0.0])
    ours = quadratic(q, c)
    qps = QpProblem(q, c, EqualityConstraints(np.ones((1, 3)), np.ones(1))).oracle
    for x in ([0.0, 0.0, 0.0], [1.0, -2.0, 0.5], [-0.0, 1e-300, 3.0]):
        x = np.array(x)
        assert np.array(ours.value(x)).tobytes() == np.array(qps.value(x)).tobytes()
        for part in ("gradient", "hessian"):
            assert getattr(ours, part)(x).tobytes() == getattr(qps, part)(x).tobytes(), part
