import numpy as np
import pytest
from numpy.testing import assert_allclose

from eqopt import expressions
from eqopt.expressions import EqualityConstraints, build_nullspace, build_projector
from eqopt.linalg import ConstraintFactorization
from eqopt.nlp import reduce_problem
from eqopt.objectives import quadratic
from eqopt.qp import QpProblem, solve_nullspace, solve_projector


def test_constraints_validation():
    c = EqualityConstraints([[1.0, 2.0]], [3.0])
    assert c.m == 1 and c.n == 2
    assert c.residual([1.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        EqualityConstraints([[1.0, 2.0]], [3.0, 4.0])
    with pytest.raises(ValueError, match="^x has length 3, expected 2$"):
        c.residual([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="^x has length 1, expected 2$"):
        EqualityConstraints(np.zeros((0, 2)), np.zeros(0)).residual([1.0])


def test_constraints_reduced_drops_redundant_rows():
    c = EqualityConstraints([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
    f = ConstraintFactorization(c)
    red = EqualityConstraints(f.a[f.selected], f.b[f.selected])
    assert f.rank == 1
    assert red.m == 1 and red.n == 2


def test_projector_hand_example():
    # one constraint x1 + x2 = 2: particular solution (1, 1), D projects
    # onto the line x1 + x2 = 0
    expr = build_projector(EqualityConstraints([[1.0, 1.0]], [2.0]))
    assert_allclose(expr.x0, [1.0, 1.0], atol=1e-15)
    assert_allclose(expr.basis, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_projector_algebra_randomized():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, m)
        expr = build_projector(EqualityConstraints(a, b))
        assert np.max(np.abs(a @ expr.basis)) < 1e-10 * np.max(np.abs(a))
        assert np.max(np.abs(expr.basis @ expr.basis - expr.basis)) < 1e-10
        assert np.max(np.abs(a @ expr.x0 - b)) < 1e-9 * (1 + np.max(np.abs(b)))


def test_projector_drops_redundant_rows():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, m)
        pick = rng.integers(0, m, size=int(rng.integers(1, 4)))
        a_dup, b_dup = np.vstack([a, a[pick]]), np.concatenate([b, b[pick]])
        expr = build_projector(EqualityConstraints(a_dup, b_dup))
        assert np.max(np.abs(a_dup @ expr.basis)) < 1e-10 * np.max(np.abs(a))
        assert np.max(np.abs(a_dup @ expr.x0 - b_dup)) < 1e-9 * (1 + np.max(np.abs(b)))
        f = ConstraintFactorization(EqualityConstraints(a_dup, b_dup))
        kept = build_projector(EqualityConstraints(f.a[f.selected], f.b[f.selected]))
        assert_allclose(expr.basis, kept.basis, atol=1e-12)


def test_nullspace_expression_minimum_norm_particular_solution():
    rng = np.random.default_rng(14)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, m)
        expr = build_nullspace(EqualityConstraints(a, b))
        assert np.max(np.abs(a @ expr.x0 - b)) < 1e-9 * (1 + np.max(np.abs(b)))
        # minimum-norm solutions are orthogonal to the null space
        assert np.max(np.abs(expr.basis.T @ expr.x0), initial=0.0) < 1e-10
        assert expr.free_dim == n - m


def test_nullspace_build_rejects_rank_deficiency():
    # rank-deficient rows are not an error: the null-space expression has
    # n - rank free entries, not n - m
    cons = EqualityConstraints([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])
    f = ConstraintFactorization(cons)
    assert f.rank < cons.m
    assert f.null_basis.shape == (cons.n, cons.n - f.rank)


def test_embed_feasibility_both_forms():
    rng = np.random.default_rng(15)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, n))
        cons = EqualityConstraints(rng.uniform(-1, 1, (m, n)), rng.uniform(-1, 1, m))
        for expr in (build_projector(cons), build_nullspace(cons)):
            g = rng.uniform(-3, 3, expr.free_dim)
            x = expr.embed(g)
            assert cons.residual(x) < 1e-9 * (1 + np.max(np.abs(cons.b)))


def test_embed_dimension_mismatch():
    cons = EqualityConstraints([[1.0, 1.0, 0.0]], [1.0])
    proj = build_projector(cons)
    null = build_nullspace(cons)
    with pytest.raises(ValueError):
        proj.embed([1.0])  # projector form wants the full n-vector
    with pytest.raises(ValueError):
        null.embed([1.0, 2.0, 3.0])  # null-space form wants n - m entries


def test_no_constraints_edge_case():
    cons = EqualityConstraints(np.zeros((0, 4)), np.zeros(0))
    proj = build_projector(cons)
    null = build_nullspace(cons)
    assert_allclose(proj.basis, np.eye(4))
    assert_allclose(proj.x0, np.zeros(4))
    assert_allclose(null.basis, np.eye(4))
    assert null.free_dim == 4


def test_single_point_feasible_set():
    cons = EqualityConstraints(np.eye(3), [1.0, 2.0, 3.0])
    proj = build_projector(cons)
    null = build_nullspace(cons)
    assert_allclose(proj.x0, [1.0, 2.0, 3.0], atol=1e-12)
    assert np.max(np.abs(proj.basis)) < 1e-12
    assert null.free_dim == 0
    assert_allclose(null.embed(np.zeros(0)), [1.0, 2.0, 3.0], atol=1e-12)


def test_every_feasible_set_is_built_through_build_nullspace(monkeypatch):
    # eqopt.expressions holds the one call of ConstraintFactorization that
    # the solvers reach: patching it there counts every feasible set built
    built = []

    def counted(*args, **kwargs):
        built.append(args)
        return ConstraintFactorization(*args, **kwargs)

    monkeypatch.setattr(expressions, "ConstraintFactorization", counted)
    cons = EqualityConstraints([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]], [1.0, 2.0])
    problem = QpProblem(np.eye(3), np.ones(3), cons)
    builds = {
        "solve_projector": lambda: solve_projector(problem),
        "solve_nullspace": lambda: solve_nullspace(problem),
        "reduce_problem": lambda: reduce_problem(quadratic(problem.q, problem.c), cons),
        "build_projector": lambda: build_projector(cons),
        "build_nullspace": lambda: build_nullspace(cons),
    }
    for name, build in builds.items():
        built.clear()
        build()
        assert len(built) == 1, name
