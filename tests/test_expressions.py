import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import eqopt
from eqopt.expressions import EqualityConstraints, build_nullspace, build_projector


def test_constraints_validation():
    c = EqualityConstraints([[1.0, 2.0]], [3.0])
    assert c.m == 1 and c.n == 2
    assert c.residual([1.0, 1.0]) == 0.0
    with pytest.raises(ValueError):
        EqualityConstraints([[1.0, 2.0]], [3.0, 4.0])
    with pytest.raises(ValueError, match="^x has length 3, expected 2$"):
        c.residual([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="^x contains non-finite entries$"):
        c.residual([1.0, np.nan])
    with pytest.raises(ValueError, match="^x has length 1, expected 2$"):
        EqualityConstraints(np.zeros((0, 2)), np.zeros(0)).residual([1.0])
    # the rank cut's eps is a real number: a string raised a bare TypeError
    for eps in ("0.1", True, np.nan, 1.0, 0.0):
        with pytest.raises(ValueError, match="^eps must satisfy 0 < eps < 1, got "):
            build_nullspace(c, eps)
    assert build_nullspace(c, np.float64(1e-10)).rank == 1


def test_constraints_reduced_drops_redundant_rows():
    c = EqualityConstraints([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
    f = build_nullspace(c)
    red = EqualityConstraints(c.a[f.selected], c.b[f.selected])
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
        kept = build_projector(EqualityConstraints(a_dup[expr.selected], b_dup[expr.selected]))
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
    f = build_nullspace(cons)
    assert f.rank < cons.m
    assert f.basis.shape == (cons.n, cons.n - f.rank)


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


class _Calls(ast.NodeVisitor):
    """``(scope, name, owner)`` of every call in a module: ``name`` the
    called function's name, ``owner`` the name it is an attribute of
    (``lapack`` in ``lapack.dsytrf(...)``, else None), and ``scope`` the
    dotted path of the defs around it."""

    def __init__(self, module):
        self.scope, self.calls = [module], []

    def visit_FunctionDef(self, node):  # a method or a nested function too
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_ClassDef = visit_FunctionDef

    def visit_Call(self, node):
        name = getattr(node.func, "attr", getattr(node.func, "id", None))
        owner = getattr(getattr(node.func, "value", None), "id", None)
        self.calls.append((".".join(self.scope), name, owner))
        self.generic_visit(node)


def test_only_build_nullspace_factors_the_constraints():
    # A x = b is factored in one place: no function but
    # expressions.build_nullspace calls the QR kernels, and linalg, which
    # holds them, imports nothing of the expressions built on them. Each
    # decision of the eliminations is made in linalg: outside it, LAPACK is
    # called only by the two independent KKT references.
    kernels = {"_rank_revealing_qr", "_apply_q"}
    references = {"qp.solve_kkt", "selfcheck._kkt_newton"}
    offenders, called = [], set()
    for path in sorted(Path(eqopt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        calls = _Calls(path.stem)
        calls.visit(tree)
        offenders += [f"{scope} calls {name}" for scope, name, _ in calls.calls
                      if name in kernels and scope != "expressions.build_nullspace"]
        called |= {name for scope, name, _ in calls.calls if scope == "expressions.build_nullspace"}
        offenders += [f"{scope} calls lapack.{name}" for scope, name, owner in calls.calls
                      if owner == "lapack" and path.name != "linalg.py"
                      and scope not in references]
        if path.name != "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                if any(name.split(".")[-1] == "expressions" for name in names):
                    offenders.append(f"linalg.py:{node.lineno} imports expressions")
    assert offenders == []
    assert kernels <= called  # the names are the kernels' own
