import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqopt.errors import ComputationError, InfeasibleConstraintsError, OracleUnavailableError
from eqopt.expressions import EqualityConstraints, build_nullspace
from eqopt.nlp import ObjectiveOracle, newton_solve, reduce_problem
from eqopt.objectives import quadratic, sum_exp
from eqopt import linalg, qp
from eqopt.linalg import lapack
from eqopt.problems import _Q_CLASSES, GeneratorSpec, generate
from eqopt.qp import QpProblem, solve_kkt, solve_nullspace, solve_projector
from helpers import full_saddle_solve

ALL_SOLVERS = [solve_projector, solve_nullspace, solve_kkt]


def saddle_system_reference(problem):
    """Independent route: assemble and solve the saddle system right here."""
    q, c = problem.q, problem.c
    a, b = problem.constraints.a, problem.constraints.b
    n, m = q.shape[0], a.shape[0]
    top = np.hstack([q, a.T])
    bottom = np.hstack([a, np.zeros((m, m))])
    z = np.linalg.solve(np.vstack([top, bottom]), np.concatenate([-c, b]))
    return z[:n], z[n:]


def test_known_diagonal_problem():
    # min x1^2 + 2 x2^2 + 3 x3^2 + sum(x) subject to sum(x) = 3
    problem = QpProblem(
        np.diag([2.0, 4.0, 6.0]), np.ones(3), EqualityConstraints([[1.0, 1.0, 1.0]], [3.0])
    )
    expected = np.array([18.0, 9.0, 6.0]) / 11.0
    for solve in ALL_SOLVERS:
        sol = solve(problem)
        assert_allclose(sol.x, expected, atol=1e-12)
        assert sol.classification == "min"
        assert sol.constraint_residual < 1e-12
        assert sol.stationarity_residual < 1e-12
    lam = solve_kkt(problem).lagrange_multipliers
    # stationarity pins the multiplier: 2 x1 + 1 + lam = 0
    assert_allclose(lam, [-47.0 / 11.0], atol=1e-12)


def test_methods_agree_with_reference_on_random_spd():
    rng = np.random.default_rng(41)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n))
        problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        x_ref, lam_ref = saddle_system_reference(problem)
        for solve in ALL_SOLVERS:
            sol = solve(problem)
            assert np.max(np.abs(sol.x - x_ref)) < 1e-8 * (1 + np.max(np.abs(x_ref)))
            assert abs(sol.objective - problem.objective_value(x_ref)) < 1e-9 * (
                1 + abs(sol.objective)
            )
        assert_allclose(
            solve_kkt(problem).lagrange_multipliers,
            lam_ref,
            rtol=1e-7,
            atol=1e-9,
        )


def test_indefinite_and_asymmetric_agree_with_reference():
    # generate draws an asymmetric Q for the indefinite class; QpProblem symmetrizes it
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(3, 30))
        m = int(rng.integers(1, n))
        problem = generate(
            GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)), q_class="symmetric_indefinite")
        )
        x_ref, _ = saddle_system_reference(problem)
        for solve in ALL_SOLVERS:
            sol = solve(problem)
            assert np.max(np.abs(sol.x - x_ref)) < 1e-7 * (1 + np.max(np.abs(x_ref)))


def test_classification_saddle_and_max():
    # constraint fixes x1; the free block of Q decides the label
    cons = EqualityConstraints([[1.0, 0.0, 0.0]], [1.0])
    saddle = QpProblem(np.diag([5.0, 1.0, -1.0]), np.zeros(3), cons)
    maximum = QpProblem(np.diag([5.0, -1.0, -2.0]), np.zeros(3), cons)
    for solve in ALL_SOLVERS:
        assert solve(saddle).classification == "saddle"
        assert solve(maximum).classification == "max"


def test_classification_non_unique_flat_direction():
    # free block diag(1, 0): flat direction along x3
    cons = EqualityConstraints([[1.0, 0.0, 0.0]], [1.0])
    problem = QpProblem(np.diag([5.0, 1.0, 0.0]), np.zeros(3), cons)
    for solve in (solve_projector, solve_nullspace):
        sol = solve(problem)
        assert sol.classification == "non_unique"
        assert sol.stationarity_residual < 1e-12
        # minimum-norm convention zeroes the flat coordinate
        assert abs(sol.x[2]) < 1e-12
    with pytest.raises(OracleUnavailableError):
        solve_kkt(problem)  # singular saddle system: strict oracle refuses


def test_eps_sets_the_minimum_norm_cutoff_on_both_eliminations():
    # the free block diag(-1, 1, 1e-9) is indefinite, so both paths take the
    # eigendecomposition; eps = 1e-6 treats the 1e-9 mode as flat and leaves
    # its coordinate at zero, the default cutoff inverts it
    cons = EqualityConstraints([[0.0, 0.0, 0.0, 1.0]], [1.0])
    problem = QpProblem(np.diag([-1.0, 1.0, 1e-9, 2.0]), np.array([0.0, 0.0, 1.0, 0.0]), cons)
    for solve in (solve_projector, solve_nullspace):
        coarse = solve(problem, eps=1e-6)
        assert_allclose(coarse.x, [0.0, 0.0, 0.0, 1.0], atol=1e-12)
        assert coarse.classification == "non_unique"
        fine = solve(problem)
        assert_allclose(fine.x, [0.0, 0.0, -1e9, 1.0], rtol=1e-9)
        assert fine.classification == "saddle"


def test_eps_is_also_the_classification_cut():
    # one cut, eps * k * max|eig|, decides both whether the 1e-9 mode is
    # inverted and whether it counts as curved: a dropped mode is a flat
    # direction (non-unique, x3 = 0, stationarity residual |c3| = 1), a kept
    # one leaves a stationary point (x3 = -1e9) labelled by the other modes
    cons = EqualityConstraints([[0.0, 0.0, 0.0, 1.0]], [1.0])
    c = np.array([0.0, 0.0, 1.0, 0.0])
    for first, curved_label in ((-1.0, "saddle"), (1.0, "min")):
        problem = QpProblem(np.diag([first, 1.0, 1e-9, 2.0]), c, cons)
        for eps, dropped in ((None, False), (1e-12, False), (1e-10, False),
                             (1e-8, True), (1e-6, True)):
            for solve in (solve_projector, solve_nullspace):
                sol = solve(problem) if eps is None else solve(problem, eps=eps)
                where = (first, eps, solve.__name__)
                if dropped:
                    assert sol.classification == "non_unique", where
                    assert sol.x[2] == 0.0, where
                    assert_allclose(sol.stationarity_residual, 1.0, rtol=1e-12)
                else:
                    assert sol.classification == curved_label, where
                    assert_allclose(sol.x[2], -1e9, rtol=1e-6)
                    assert sol.stationarity_residual < 1e-6, where


def test_degenerate_single_point():
    problem = QpProblem(
        np.diag([1.0, 2.0]), np.ones(2), EqualityConstraints(np.eye(2), [3.0, 4.0])
    )
    for solve in ALL_SOLVERS:
        sol = solve(problem)
        assert sol.degenerate
        assert sol.classification == "point"
        assert_allclose(sol.x, [3.0, 4.0], atol=1e-12)


def test_unconstrained_problem():
    rng = np.random.default_rng(43)
    q = rng.uniform(-1, 1, (5, 5))
    q = q @ q.T + np.eye(5)
    c = rng.uniform(-1, 1, 5)
    problem = QpProblem(q, c, EqualityConstraints(np.zeros((0, 5)), np.zeros(0)))
    x_ref = np.linalg.solve(q, -c)
    for solve in ALL_SOLVERS:
        assert_allclose(solve(problem).x, x_ref, atol=1e-10)


def test_asymmetric_q_is_symmetrized():
    lopsided = QpProblem(
        [[1.0, 2.0], [0.0, 1.0]], np.zeros(2), EqualityConstraints([[1.0, 0.0]], [1.0])
    )
    symmetric = QpProblem(
        [[1.0, 1.0], [1.0, 1.0]], np.zeros(2), EqualityConstraints([[1.0, 0.0]], [1.0])
    )
    assert_allclose(lopsided.q, symmetric.q)
    assert_allclose(solve_nullspace(lopsided).x, solve_nullspace(symmetric).x, atol=1e-12)


def test_redundant_rows_do_not_change_solution():
    rng = np.random.default_rng(44)
    for _ in range(10):
        n = int(rng.integers(3, 25))
        m = int(rng.integers(1, n))
        seed = int(rng.integers(2**63))
        base = generate(GeneratorSpec(n=n, m=m, seed=seed))
        for k in (1, 2, 4):
            padded = generate(GeneratorSpec(n=n, m=m, seed=seed, rank_deficiency=k))
            for solve in (solve_projector, solve_nullspace):
                gap = np.max(np.abs(solve(padded).x - solve(base).x))
                assert gap < 1e-9 * (1 + np.max(np.abs(solve(base).x)))


def test_kkt_refuses_rank_deficient_constraints():
    problem = QpProblem(
        np.eye(3),
        np.zeros(3),
        EqualityConstraints([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0]], [3.0, 3.0]),
    )
    with pytest.raises(OracleUnavailableError):
        solve_kkt(problem)
    # the reducing solvers handle the same system
    assert_allclose(solve_nullspace(problem).x, np.ones(3), atol=1e-12)


def test_infeasible_constraints_raise():
    problem = QpProblem(
        np.eye(2), np.zeros(2), EqualityConstraints([[1.0, 1.0], [1.0, 1.0]], [1.0, 2.0])
    )
    for solve in (solve_projector, solve_nullspace):
        with pytest.raises(InfeasibleConstraintsError):
            solve(problem)


def test_solution_residuals_are_reported_against_original_system():
    padded = generate(GeneratorSpec(n=12, m=4, seed=7, rank_deficiency=2))
    sol = solve_nullspace(padded)
    assert padded.constraints.m == 6
    assert sol.constraint_residual == padded.constraints.residual(sol.x)


def test_problem_validation():
    with pytest.raises(ValueError):
        QpProblem(np.ones((2, 3)), np.zeros(2), EqualityConstraints([[1.0, 0.0]], [1.0]))
    with pytest.raises(ValueError):
        QpProblem(np.eye(2), np.zeros(3), EqualityConstraints([[1.0, 0.0]], [1.0]))
    with pytest.raises(ValueError):
        QpProblem(np.eye(3), np.zeros(3), EqualityConstraints([[1.0, 0.0]], [1.0]))
    problem = QpProblem(np.eye(2), np.zeros(2), EqualityConstraints([[1.0, 0.0]], [1.0]))
    with pytest.raises(ValueError, match="^x has length 3, expected 2$"):
        problem.objective_value([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="^x contains non-finite entries$"):
        problem.objective_value([np.inf, 0.0])


def test_row_scaling_does_not_make_feasible_constraints_infeasible():
    # rows 18 orders of magnitude apart: both are needed, and x1, x2 are pinned
    a = [[1e10, 0.0, 0.0], [0.0, 1e-8, 0.0]]
    problem = QpProblem(np.eye(3), np.zeros(3), EqualityConstraints(a, [1.0, 1e-8]))
    # the oracle balances its saddle matrix by powers of two, so its units do
    # not make it refuse this system either
    for solve in ALL_SOLVERS:
        sol = solve(problem)
        assert_allclose(sol.x, [1e-10, 1.0, 0.0], rtol=1e-14, atol=0.0)
        assert sol.classification == "min"
        assert sol.constraint_residual == problem.constraints.residual(sol.x)
        assert sol.constraint_residual <= 1e-9 * (1 + 1.0)


def newton_route(problem):
    """x from damped Newton on the reduced quadratic."""
    oracle = quadratic(problem.q, problem.c)
    return newton_solve(reduce_problem(oracle, problem.constraints)).final_x


def test_row_scaling_and_order_leave_solution_unchanged():
    rng = np.random.default_rng(45)
    for trial in range(20):
        n = int(rng.integers(3, 40))
        m = int(rng.integers(1, n))
        q_class = "spd" if trial % 2 == 0 else "symmetric_indefinite"
        seed = int(rng.integers(2**63))
        deficiency = int(rng.integers(0, 3))
        base = generate(GeneratorSpec(n=n, m=m, seed=seed, q_class=q_class,
                                      rank_deficiency=deficiency))
        rows = base.constraints.m
        scale = 10.0 ** rng.uniform(-8, 8, rows)
        order = rng.permutation(rows)
        a = (scale[:, None] * base.constraints.a)[order]
        b = (scale * base.constraints.b)[order]
        scaled = QpProblem(base.q, base.c, EqualityConstraints(a, b))
        # a second stream, so the draws above stay those of every earlier trial
        cols = np.random.default_rng([45, trial]).permutation(n)
        permuted = QpProblem(base.q[np.ix_(cols, cols)], base.c[cols],
                             EqualityConstraints(base.constraints.a[:, cols], base.constraints.b))
        routes = {"projector": lambda p: solve_projector(p).x,
                  "nullspace": lambda p: solve_nullspace(p).x}
        if q_class == "spd":
            routes["newton"] = newton_route
        if deficiency == 0:  # the oracle refuses duplicated rows
            routes["kkt"] = lambda p: solve_kkt(p).x
        for name, solve in routes.items():
            x = solve(base)
            bound = 1e-9 * (1 + np.max(np.abs(x)))
            gap = np.max(np.abs(solve(scaled) - x))
            assert gap <= bound, (trial, name, gap)
            gap = np.max(np.abs(solve(permuted) - x[cols]))  # permuting the variables permutes x
            assert gap <= bound, (trial, name, "permuted", gap)


def tiny_row_system(rng, n, m, zero_first_column, contradiction):
    """Row 0 has coefficient 1e-8, which puts about 1e8 into x0. The
    other m rows are O(1), and the last one repeats row 1 with its right-
    hand side moved by ``contradiction``."""
    rows = rng.uniform(-1, 1, (m, n))
    if zero_first_column:
        rows[:, 0] = 0.0
    b_rows = rows @ rng.uniform(-1, 1, n)
    a = np.vstack([np.eye(1, n) * 1e-8, rows, rows[1]])
    b = np.concatenate([[1.0], b_rows, [b_rows[1] + contradiction]])
    return EqualityConstraints(a, b)


def eliminations(constraints):
    n = constraints.n
    problem = QpProblem(np.eye(n), np.zeros(n), constraints)
    return (
        lambda: solve_projector(problem),
        lambda: solve_nullspace(problem),
        lambda: reduce_problem(sum_exp(dim=n), constraints),
    )


def test_a_tiny_row_does_not_hide_a_contradiction():
    # once scaled, row 0 has b = 1e14; rows 1 and 2 still contradict by 0.01
    exact = EqualityConstraints([[1e-14, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]],
                                [1.0, 1.0, 1.01])
    rng = np.random.default_rng(47)
    dense = tiny_row_system(rng, 200, 40, zero_first_column=True, contradiction=1e-6)
    for constraints in (exact, dense):
        for run in eliminations(constraints):
            with pytest.raises(InfeasibleConstraintsError):
                run()


def test_a_tiny_row_does_not_make_a_consistent_system_infeasible():
    rng = np.random.default_rng(48)
    for trial in range(10):
        n = int(rng.integers(10, 120))
        m = int(rng.integers(2, n - 2))
        constraints = tiny_row_system(rng, n, m, zero_first_column=trial % 2 == 0,
                                      contradiction=0.0)
        for run in eliminations(constraints):
            run()


def with_combination_row(problem, rng, noise=0.0):
    """``problem`` with one more row, a combination of its first five rows
    (perturbed by ``noise``), and the b that keeps it consistent."""
    cons = problem.constraints
    w = rng.uniform(-1, 1, 5)
    n = cons.a.shape[1]
    a = np.vstack([cons.a, w @ cons.a[:5] + noise * rng.standard_normal(n)])
    return QpProblem(problem.q, problem.c,
                     EqualityConstraints(a, np.append(cons.b, w @ cons.b[:5])))


def test_each_matrix_is_factorized_once_per_solve(factorizations):
    spd = generate(GeneratorSpec(n=30, m=12, seed=46))
    indefinite = generate(GeneratorSpec(n=30, m=12, seed=46, q_class="symmetric_indefinite"))
    expected = [
        (solve_projector, spd, ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf"]),
        (solve_projector, indefinite,
         ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf",
          "scipy.linalg.lapack.dsytrf"]),
        (solve_nullspace, spd, ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf"]),
        (solve_nullspace, indefinite,
         ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf",
          "scipy.linalg.lapack.dsytrf"]),
        # A singular indefinite reduced Hessian: Bunch-Kaufman's condition
        # estimate refuses it, and eigh decides.
        (solve_nullspace, _reduced_hessian_problem(46, 0.0, saddle=True),
         ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf",
          "scipy.linalg.lapack.dsytrf", "numpy.linalg.eigh"]),
        (solve_kkt, spd, ["scipy.linalg.lapack.dsytrf"]),
        (lambda p: build_nullspace(p.constraints), spd, ["scipy.linalg.lapack.dgeqp3"]),
        (lambda p: reduce_problem(quadratic(p.q, p.c), p.constraints), spd,
         ["scipy.linalg.lapack.dgeqp3"]),
        # Above the size crossover a full-rank A takes the unpivoted QR alone
        # and duplicated rows send A to the pivoted one; any other
        # rank-deficient A fails its rank estimate and is factored again,
        # pivoted: the one case in which A is factored twice.
        (solve_nullspace, generate(GeneratorSpec(n=160, m=64, seed=47)),
         ["scipy.linalg.lapack.dgeqrt", "scipy.linalg.lapack.dpotrf"]),
        (solve_nullspace, generate(GeneratorSpec(n=160, m=60, seed=47, rank_deficiency=5)),
         ["scipy.linalg.lapack.dgeqp3", "scipy.linalg.lapack.dpotrf"]),
        (solve_nullspace, with_combination_row(generate(GeneratorSpec(n=160, m=60, seed=47)),
                                               np.random.default_rng(47)),
         ["scipy.linalg.lapack.dgeqrt", "scipy.linalg.lapack.dgeqp3",
          "scipy.linalg.lapack.dpotrf"]),
    ]
    for solve, problem, names in expected:
        factorizations.clear()
        solve(problem)
        assert factorizations == names, (solve.__name__, names)


def test_each_constraint_factorization_applies_its_reflectors_once(reflector_applications):
    # x0 and N come out of one application of Q: dormqr after dgeqp3 (30:12,
    # duplicated rows, m > n), dgemqrt after dgeqrt (160:64), none at m = 0
    ormqr, gemqrt = "scipy.linalg.lapack.dormqr", "scipy.linalg.lapack.dgemqrt"
    rng = np.random.default_rng(29)
    pivoted = rng.uniform(-1, 1, (12, 30))
    rank7 = rng.uniform(-1, 1, (20, 7)) @ rng.uniform(-1, 1, (7, 12))
    for a, calls in [(pivoted, [ormqr]), (np.vstack([pivoted, pivoted[[2, 7]]]), [ormqr]),
                     (rank7, [ormqr]), (rng.uniform(-1, 1, (64, 160)), [gemqrt]),
                     (np.zeros((0, 30)), [])]:
        n = a.shape[1]
        problem = QpProblem(np.eye(n), np.ones(n), EqualityConstraints(a, a @ np.ones(n)))
        for route in (lambda p: build_nullspace(p.constraints), solve_projector, solve_nullspace,
                      lambda p: reduce_problem(quadratic(p.q, p.c), p.constraints)):
            reflector_applications.clear()
            route(problem)
            assert reflector_applications == calls, (a.shape, route)


def test_the_unpivoted_qr_makes_the_pivoted_qrs_decisions(monkeypatch, factorizations):
    # Above the size crossover a full-rank A is factored by dgeqrt alone,
    # duplicated rows go straight to dgeqp3, and a row that combines others
    # fails dgeqrt's rank estimate and goes to dgeqp3 after it.
    # Forcing dgeqp3 on every A must change no decision: rank, dropped rows,
    # the infeasibility verdict and the classification. N is another basis
    # of the same kernel, so x agrees to 1e-13 relative on SPD problems;
    # indefinite ones, worse conditioned, are compared by decision only.
    geqrt, geqp3 = "scipy.linalg.lapack.dgeqrt", "scipy.linalg.lapack.dgeqp3"

    def decide(problem):
        cons = problem.constraints
        factorizations.clear()
        try:
            f = build_nullspace(cons)
        except InfeasibleConstraintsError:
            return factorizations[:], "infeasible", None
        used = factorizations[:]
        sol = solve_nullspace(problem)
        return used, (f.rank, f.dropped.tolist(), sol.classification), sol.x

    def compare(problem, path, where):
        used, fast, x = decide(problem)
        assert used == path, where
        with monkeypatch.context() as forced:
            forced.setattr(linalg, "_QRT_MIN_COLS", np.inf)
            used, pivoted, x_pivoted = decide(problem)
        assert used == [geqp3], where
        assert fast == pivoted, where
        return fast, x, x_pivoted

    rng = np.random.default_rng(1717)
    for q_class in ("spd", "symmetric_indefinite"):
        for deficiency in (0, 4):
            for _ in range(3):
                n = int(rng.integers(150, 260))
                m = int(rng.integers(64, n - 8))
                spec = GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)), q_class=q_class,
                                     rank_deficiency=deficiency)
                problem = generate(spec)
                where = (q_class, deficiency, n, m)
                path = [geqp3] if deficiency else [geqrt]
                decided, x, x_pivoted = compare(problem, path, where)
                assert decided[0] == m, where
                if q_class == "spd":
                    assert np.max(np.abs(x - x_pivoted)) <= 1e-13 * np.max(np.abs(x_pivoted)), where
                if deficiency:
                    cons = problem.constraints
                    b = cons.b.copy()
                    b[-1] += 1e-3 * (1.0 + abs(b[-1]))  # a duplicated row, now contradicted
                    bad = QpProblem(problem.q, problem.c, EqualityConstraints(cons.a, b))
                    assert compare(bad, [geqp3], where)[0] == "infeasible", where
                    full = GeneratorSpec(n=n, m=m, seed=spec.seed, q_class=q_class)
                    combined = with_combination_row(generate(full), rng)
                    decided = compare(combined, [geqrt, geqp3], where)[0]
                    assert decided[0] == m and len(decided[1]) == 1, where
    # The combination perturbed at 1e-15: nearly rank-deficient, so the
    # estimate fails and dgeqp3 drops one row.
    near = with_combination_row(generate(GeneratorSpec(n=180, m=90, seed=1718)), rng, 1e-15)
    decided, _, _ = compare(near, [geqrt, geqp3], "combination")
    assert decided[0] == 90 and len(decided[1]) == 1


def test_projector_solves_the_nullspace_system_and_nothing_larger(monkeypatch):
    # D = N N^T has rank k = n - rank(A): the projector solves the k-by-k
    # system of the null-space form, so both return the same x bit for bit
    # and the projector factorizes no n-by-n matrix.
    shapes = []
    for name in ("cholesky", "bunch_kaufman_solve", "symmetric_solve"):
        def recorded(m, *args, _fn=getattr(qp, name), **kwargs):
            shapes.append(m.shape)
            return _fn(m, *args, **kwargs)

        monkeypatch.setattr(qp, name, recorded)
    rng = np.random.default_rng(49)
    labels = set()
    for q_class in (*_Q_CLASSES, "symmetric_indefinite"):  # indefinite twice: more saddles
        for deficiency in (0, 3):
            for _ in range(4):
                n = int(rng.integers(4, 40))
                m = int(rng.integers(1, n))
                problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)),
                                                 q_class=q_class, rank_deficiency=deficiency))
                cons = problem.constraints
                k = n - build_nullspace(cons).rank
                where = (q_class, deficiency, n, m)
                ref = solve_nullspace(problem)
                shapes.clear()
                sol = solve_projector(problem)
                assert sol.x.tobytes() == ref.x.tobytes(), where
                assert sol.classification == ref.classification, where
                assert shapes, where
                assert all(shape == (k, k) for shape in shapes), (where, shapes)
                labels.add(sol.classification)
    assert {"min", "saddle"} <= labels  # the Cholesky and the Bunch-Kaufman branch ran


def _reduced_hessian_problem(seed, smallest, n=40, m=10, saddle=False):
    """QP whose reduced Hessian N^T Q N has eigenvalues 1, ..., 1, ``smallest``,
    one of the ones made -1 with ``saddle``."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n))
    null = scipy.linalg.null_space(a)
    row = scipy.linalg.orth(a.T)
    lam = np.ones(n - m)
    lam[0] = smallest
    if saddle:
        lam[1] = -1.0
    q = (null * lam) @ null.T + row @ row.T
    return QpProblem(q, rng.uniform(-1, 1, n), EqualityConstraints(a, a @ rng.uniform(-1, 1, n)))


def test_minimum_needs_a_well_conditioned_cholesky(factorizations):
    # Both routes solve the same k-by-k system, k = n - m = 30: the
    # classification cut is EPS k max|eig|, and Cholesky, or Bunch-Kaufman
    # once Cholesky fails on an indefinite system, is accepted only when
    # rcond clears 10 k^2 EPS, 2e-12 here.
    eps = np.finfo(float).eps
    cases = [
        (0.5 * eps * 30, False, "non_unique", True),  # below both cuts: flat direction
        (1e-13, False, "min", True),  # above the cut, below the guard: eigh decides
        (1e-6, False, "min", False),  # clearly above the guard: Cholesky decides
        (0.5 * eps * 30, True, "non_unique", True),
        (1e-13, True, "saddle", True),
        (-1e-13, True, "saddle", True),
        (1e-6, True, "saddle", False),  # Bunch-Kaufman decides
    ]
    for seed in range(3):
        for smallest, saddle, label, needs_eigh in cases:
            problem = _reduced_hessian_problem(seed, smallest, saddle=saddle)
            for solve in (solve_projector, solve_nullspace):
                factorizations.clear()
                sol = solve(problem)
                where = (seed, smallest, saddle, solve.__name__)
                assert sol.classification == label, where
                assert ("numpy.linalg.eigh" in factorizations) == needs_eigh, where
                if saddle:
                    assert "scipy.linalg.lapack.dsytrf" in factorizations, where


def test_bunch_kaufman_makes_the_eigh_decisions(monkeypatch, factorizations):
    # An indefinite reduced Hessian that clears the condition guard is
    # solved by dsytrf instead of eigh. On the same N^T Q N, refusing that
    # branch (so eigh decides) must give the same classification, and x
    # within the forward error of two backward-stable solves, k kappa EPS.
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1818)
    took_dsytrf = 0
    for indefinite_pass in range(2):
        for deficiency in (0, 3):
            for tol in (None, 1e-6):  # None: the default cut
                tol_arg = () if tol is None else (tol,)
                for _ in range(6):
                    n = int(rng.integers(4, 50))
                    m = int(rng.integers(1, n))
                    problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)),
                                                     q_class="symmetric_indefinite",
                                                     rank_deficiency=deficiency))
                    where = (indefinite_pass, deficiency, tol, n, m)
                    for solve in (solve_projector, solve_nullspace):
                        factorizations.clear()
                        sol = solve(problem, *tol_arg)
                        took_dsytrf += "scipy.linalg.lapack.dsytrf" in factorizations
                        with monkeypatch.context() as refused:
                            refused.setattr(qp, "bunch_kaufman_solve", lambda *args: None)
                            ref = solve(problem, *tol_arg)
                        assert sol.classification == ref.classification, where
                        expr = build_nullspace(problem.constraints, *tol_arg)
                        aa = linalg.pull_back_quadratic(problem.q, problem.c, expr.x0,
                                                        expr.basis)[0]
                        w = np.abs(np.linalg.eigvalsh(aa))
                        k = aa.shape[0]
                        bound = k * (np.max(w) / np.min(w)) * eps * np.max(np.abs(ref.x - expr.x0))
                        assert np.max(np.abs(sol.x - ref.x)) <= bound, where
    assert took_dsytrf >= 80  # of 96 solves: most went through Bunch-Kaufman


def test_a_reduced_hessian_beyond_float_range_is_scaled_not_called_flat():
    # Every entry is finite, but the 1-norm of N^T Q N overflows. Scaling
    # the reduced system by a power of two keeps its solution: the saddle
    # point of the two free coordinates, 1.7 (x1 + 0.9 x2) = -1 and
    # 0.9 x1 = x2, not x0 = (0, 0, 1) called "non_unique". The oracle
    # balances its saddle matrix, so its D does not overflow either.
    q = 1.7e308 * np.array([[1.0, 0.9, 0.0], [0.9, -1.0, 0.0], [0.0, 0.0, 1.0]])
    problem = QpProblem(q, np.array([1e308, 0.0, 0.0]),
                        EqualityConstraints([[0.0, 0.0, 1.0]], [1.0]))
    x1 = -1.0 / (1.7 * 1.81)
    for solve in ALL_SOLVERS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem)
        assert sol.classification == "saddle", solve.__name__
        assert_allclose(sol.x, [x1, 0.9 * x1, 1.0], rtol=1e-14)
    # a reduced system that is not finite itself has no such rescue
    with pytest.raises(ComputationError, match="not finite"):
        qp._solve_reduced(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.ones(2))
    with pytest.raises(ComputationError, match="not finite"):
        linalg.symmetric_solve(np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]]), np.ones(2))


def _nearly_dependent_rows_problem(seed, n=10, m=4):
    """Full-rank A whose last row is its third plus 1e-8 noise, with SPD Q."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n))
    a[-1] = a[-2] + 1e-8 * rng.uniform(-1, 1, n)
    b = a @ rng.uniform(-1, 1, n)
    r = rng.uniform(-1, 1, (n, n))
    return QpProblem(r @ r.T + n * np.eye(n), rng.uniform(-1, 1, n), EqualityConstraints(a, b))


def test_projector_solves_nearly_dependent_full_rank_rows():
    # A H = A A^T has condition ~1e16 here, which once made the default
    # H = A^T be rejected; the projector never inverts A H, so it must agree
    # with the null-space solve.
    for seed in range(5):
        problem = _nearly_dependent_rows_problem(seed)
        ref = solve_nullspace(problem)
        sol = solve_projector(problem)
        gap = np.max(np.abs(sol.x - ref.x)) / (
            1.0 + max(np.max(np.abs(sol.x)), np.max(np.abs(ref.x)))
        )
        assert gap < 1e-8, seed
        assert sol.classification == ref.classification == "min"
        assert sol.constraint_residual < 1e-12


def _inertia_problems():
    """Seeded SPD, indefinite and Q = 0 problems; Q = 0 forces 2x2 pivots."""
    for seed in range(8):
        yield generate(GeneratorSpec(n=20, m=8, seed=seed))
        yield generate(GeneratorSpec(n=20, m=8, seed=seed, q_class="symmetric_indefinite"))
        # Q = 0 on a square A: nonsingular, every pivot a 2x2 block
        square = np.random.default_rng(seed).uniform(-1, 1, (6, 6))
        yield QpProblem(np.zeros((6, 6)), np.ones(6), EqualityConstraints(square, np.ones(6)))
        # Q = 0 with n > m: the reduced Hessian vanishes, so the system is singular
        zero_q = generate(GeneratorSpec(n=12, m=5, seed=seed))
        yield QpProblem(np.zeros((12, 12)), zero_q.c, zero_q.constraints)


def test_kkt_inertia_matches_eigenvalue_count(monkeypatch):
    pivots = []
    dsytrf = lapack.dsytrf

    def recorded(*args, **kwargs):
        out = dsytrf(*args, **kwargs)
        pivots.append(out[1])
        return out

    monkeypatch.setattr(lapack, "dsytrf", recorded)
    seen = set()
    for problem in _inertia_problems():
        n, m = problem.n, problem.constraints.m
        kkt = np.block([[problem.q, problem.constraints.a.T],
                        [problem.constraints.a, np.zeros((m, m))]])
        w = np.linalg.eigvalsh(kkt)
        scale = np.max(np.abs(w))
        if np.min(np.abs(w)) < 1e-12 * scale:
            with pytest.raises(OracleUnavailableError):
                solve_kkt(problem)
            seen.add("singular")
            continue
        assert np.min(np.abs(w)) > 1e-8 * scale  # far from the tolerance either way
        pos, neg = int(np.sum(w > 0)) - m, int(np.sum(w < 0)) - m
        expected = ("point" if n == m else "min" if neg == 0 else "max" if pos == 0
                    else "saddle")
        assert solve_kkt(problem).classification == expected
        seen.add(expected)
    assert seen == {"singular", "point", "min", "saddle"}
    assert any(np.any(ipiv < 0) for ipiv in pivots)  # 2x2 blocks were exercised


def test_kkt_refuses_a_non_finite_solution_without_a_warning():
    # The 1e-15 pivot clears the inertia cut, but x2 = -1e300 / 1e-15
    # overflows: the oracle must refuse before any arithmetic on inf.
    problem = QpProblem(np.diag([1.0, 1e-15, 1.0]), np.array([0.0, 1e300, 0.0]),
                        EqualityConstraints([[1.0, 0.0, 0.0]], [1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OracleUnavailableError, match="numerically singular"):
            solve_kkt(problem)


def test_kkt_refuses_a_solution_whose_residual_is_large(monkeypatch):
    # the inertia is right, but dsytrs's solution is moved off by 1e-3: the
    # residual gate refuses it rather than report a wrong x
    real = lapack.dsytrs
    monkeypatch.setattr(
        lapack, "dsytrs", lambda *args, **kwargs: (real(*args, **kwargs)[0] + 1e-3, 0)
    )
    problem = QpProblem(
        np.diag([2.0, 4.0, 6.0]), np.ones(3), EqualityConstraints([[1.0, 1.0, 1.0]], [3.0])
    )
    with pytest.raises(OracleUnavailableError, match="residual"):
        solve_kkt(problem)


def test_kkt_units_do_not_make_it_refuse_a_well_posed_problem():
    # Q at 1e8 or one row of (A, b) at 1e-8 puts the Schur-complement pivots
    # |A|^2 / |Q| below the inertia cut of the unbalanced saddle matrix. The
    # oracle balances it by powers of two: same x and label as the
    # eliminations, and the multipliers of the unscaled problem scaled back.
    for seed in range(20):
        for q_class in ("spd", "symmetric_indefinite"):
            base = generate(GeneratorSpec(n=12, m=4, seed=seed, q_class=q_class))
            ref = solve_kkt(base)
            a, b = base.constraints.a.copy(), base.constraints.b.copy()
            a[0] *= 1e-8
            b[0] *= 1e-8
            lam_row = ref.lagrange_multipliers.copy()
            lam_row[0] *= 1e8
            cases = [("Q 1e8", QpProblem(1e8 * base.q, 1e8 * base.c, base.constraints),
                      1e8 * ref.lagrange_multipliers),
                     ("row 1e-8", QpProblem(base.q, base.c, EqualityConstraints(a, b)), lam_row)]
            for case, problem, lam in cases:
                where = (seed, q_class, case)
                sol = solve_kkt(problem)
                elim = solve_nullspace(problem)
                assert sol.classification == elim.classification == ref.classification, where
                gap = np.max(np.abs(sol.x - elim.x))
                assert gap <= 1e-12 * (1 + np.max(np.abs(elim.x))), where
                gap = np.max(np.abs(sol.lagrange_multipliers - lam))
                assert gap <= 1e-9 * np.max(np.abs(lam)), where


def test_kkt_balances_rows_that_dominate_q():
    # Each block inside the band, but the rows of A far above max|Q|: the
    # Schur-complement pivots |A|^2 / |Q| lose accuracy unbalanced (x agreed
    # with the eliminations only to 1.3e-11, 3.9e-13 and 3.3e-13 relative at
    # these corners). Balanced, every corner agrees to 8.4e-15 or better.
    for q_exp, row_exp in [(-8.6, 7.4), (-4.0, 5.5), (-8.9, 0.0)]:
        for seed in range(40):
            base = generate(GeneratorSpec(n=40, m=20, seed=seed))
            cons = base.constraints
            rows = 2.0**row_exp / np.max(np.abs(cons.a), axis=1)
            problem = QpProblem(base.q * (2.0**q_exp / np.max(np.abs(base.q))), base.c,
                                EqualityConstraints(cons.a * rows[:, None], cons.b * rows))
            ref = solve_nullspace(problem).x
            gap = np.max(np.abs(solve_kkt(problem).x - ref)) / np.max(np.abs(ref))
            assert gap <= 1e-13, (q_exp, row_exp, seed, gap)
    # the mirror image, Q far above the rows inside the band, stays unbalanced
    ones = np.ones(3)
    s, r = qp._kkt_shifts(2.0**-8.6, np.full(3, 2.0**7.4), ones, ones)
    assert s == 8 and list(r) == [-8] * 3
    s, r = qp._kkt_shifts(2.0**7.4, np.full(3, 2.0**-8.6), ones, ones)
    assert s == 0 and not r.any()


def _caller_arrays(problem):
    return [problem.q, problem.c, problem.constraints.a, problem.constraints.b]


def _assert_unchanged(arrays, snapshot, where):
    for array, before in zip(arrays, snapshot):
        assert array.tobytes() == before.tobytes(), where


def test_no_solver_overwrites_an_array_its_caller_owns():
    # Indefinite Q makes both eliminations run dsytrf after a Cholesky
    # factorization that failed partway; dsytrf must still see N^T Q N, so
    # their x must match the KKT oracle's.
    for seed in range(4):
        for q_class in ("spd", "symmetric_indefinite"):
            problem = generate(GeneratorSpec(n=30, m=12, seed=seed, q_class=q_class))
            snapshot = [array.copy() for array in _caller_arrays(problem)]
            ref = solve_kkt(problem)
            _assert_unchanged(_caller_arrays(problem), snapshot, (seed, q_class, "kkt"))
            for solve in (solve_projector, solve_nullspace):
                sol = solve(problem)
                where = (seed, q_class, solve.__name__)
                _assert_unchanged(_caller_arrays(problem), snapshot, where)
                assert sol.classification == ref.classification, where
                gap = np.max(np.abs(sol.x - ref.x)) / (1.0 + np.max(np.abs(ref.x)))
                assert gap < 1e-8, where


def test_newton_leaves_an_oracles_stored_hessian_intact():
    # A custom oracle whose pulled-back Hessian is one stored F-ordered
    # array, returned on every call: a Newton step must factor a copy.
    rng = np.random.default_rng(5)
    n, m = 12, 4
    r = rng.uniform(-1, 1, (n, n))
    q, c = r @ r.T + n * np.eye(n), rng.uniform(-1, 1, n)
    a = rng.uniform(-1, 1, (m, n))
    cons = EqualityConstraints(a, a @ rng.uniform(-1, 1, n))
    stored = []

    def pullback(x0, basis):
        hess = np.asfortranarray(basis.T @ q @ basis)
        assert hess.flags.f_contiguous and not hess.flags.c_contiguous
        grad0 = basis.T @ (q @ x0 + c)
        stored.append((hess, hess.copy()))
        return ObjectiveOracle(
            basis.shape[1],
            lambda g: float(0.5 * g @ hess @ g + grad0 @ g),
            lambda g: hess @ g + grad0,
            lambda g: hess,
        )

    oracle = ObjectiveOracle(n, lambda x: float(0.5 * x @ q @ x + c @ x),
                             lambda x: q @ x + c, lambda x: q, pullback=pullback)
    snapshot = [array.copy() for array in (a, cons.b)]
    trace = newton_solve(reduce_problem(oracle, cons))
    assert trace.converged
    _assert_unchanged((a, cons.b), snapshot, "constraints")
    (hess, before), = stored
    assert hess.tobytes() == before.tobytes()


def _saddle_problems():
    """Seeded SPD, indefinite and m = 0 problems with a nonsingular saddle matrix."""
    for seed in range(6):
        for q_class in ("spd", "symmetric_indefinite"):
            problem = generate(GeneratorSpec(n=25, m=9, seed=seed, q_class=q_class))
            yield problem
            yield QpProblem(problem.q, problem.c,
                            EqualityConstraints(np.zeros((0, problem.n)), np.zeros(0)))


def test_kkt_matches_the_full_matrix_solve_bit_for_bit():
    eps = np.finfo(float).eps
    labels = set()
    for problem in _saddle_problems():
        n, m = problem.n, problem.constraints.m
        x, lam, kkt, resid = full_saddle_solve(problem)
        sol = solve_kkt(problem)
        assert sol.x.tobytes() == x.tobytes()
        assert sol.lagrange_multipliers.tobytes() == lam.tobytes()
        w = np.linalg.eigvalsh(kkt)
        pos, neg = int(np.sum(w > 0)) - m, int(np.sum(w < 0)) - m
        assert pos + neg == n - m
        expected = "min" if neg == 0 else "max" if pos == 0 else "saddle"
        assert sol.classification == expected
        labels.add(expected)
        # the reported residuals are the two blocks of K z - rhs, up to the
        # order in which the products are summed
        z = np.concatenate([x, lam])
        rhs = np.concatenate([-problem.c, problem.constraints.b])
        rounding = 8 * eps * (n + m) * (np.max(np.abs(kkt)) * np.max(np.abs(z))
                                        + np.max(np.abs(rhs)))
        assert abs(sol.stationarity_residual - np.max(np.abs(resid[:n]))) <= rounding
        assert abs(sol.constraint_residual - np.max(np.abs(resid[n:]), initial=0.0)) <= rounding
    assert labels == {"min", "saddle"}


def _dsytrf_blocks(problem):
    """``(ldu, ipiv)`` of dsytrf on the saddle matrix of ``problem`` as
    :func:`solve_kkt` factors it, from a recorded call."""
    calls = []
    dsytrf = lapack.dsytrf

    def recorded(*args, **kwargs):
        calls.append(dsytrf(*args, **kwargs))
        return calls[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lapack, "dsytrf", recorded)
        solve_kkt(problem)
    (ldu, ipiv, info), = calls
    assert info == 0
    return ldu, ipiv


def test_bunch_kaufman_eigs_are_the_eigenvalues_of_the_block_diagonal_factor():
    two_by_two = set()
    for n, m in [(25, 9), (200, 120)]:
        for q_class in _Q_CLASSES:
            problem = generate(GeneratorSpec(n=n, m=m, seed=7, q_class=q_class))
            ldu, ipiv = _dsytrf_blocks(problem)
            d = np.diag(ldu.diagonal())
            pairs = np.flatnonzero(ipiv < 0)[::2]
            d[pairs + 1, pairs] = d[pairs, pairs + 1] = ldu[pairs + 1, pairs]
            want = np.linalg.eigvalsh(d)
            got = np.sort(qp._bunch_kaufman_eigs(ldu, ipiv))
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (n, m, q_class)
            two_by_two.add(pairs.size > 0)
    assert two_by_two == {False, True}


def test_kkt_reads_no_entry_it_leaves_unwritten(monkeypatch):
    # the saddle buffer comes from np.empty: filled with NaN instead, every
    # entry that dsytrf(lower=1) or dsytrs could read would show
    problems = [generate(GeneratorSpec(n=n, m=m, seed=5, q_class=q_class))
                for n, m in [(25, 9), (200, 120)] for q_class in _Q_CLASSES]
    want = [solve_kkt(problem) for problem in problems]
    empty, filled = np.empty, []

    def nan_empty(*args, **kwargs):
        out = empty(*args, **kwargs)
        out.fill(np.nan)
        filled.append(out.shape)
        return out

    monkeypatch.setattr(np, "empty", nan_empty)
    for problem, ref in zip(problems, want):
        sol = solve_kkt(problem)
        assert (problem.n + problem.constraints.m,) * 2 in filled
        assert sol.x.tobytes() == ref.x.tobytes()
        assert sol.lagrange_multipliers.tobytes() == ref.lagrange_multipliers.tobytes()
        assert sol.stationarity_residual == ref.stationarity_residual
        assert sol.constraint_residual == ref.constraint_residual
        assert sol.classification == ref.classification
    assert {sol.classification for sol in want} == {"min", "saddle"}


@pytest.mark.parametrize("n, m", [(96, 48), (160, 80), (200, 120), (260, 120)])
def test_kkt_at_its_block_size_matches_the_queried_block_size(n, m):
    # dsytrf runs blocked from order 65 on: solve_kkt at _SYTRF_BLOCK and
    # the full-matrix solve at the workspace query's block size take the
    # same pivots, so x differs only in rounding, which grows with the
    # condition of the saddle matrix: at 200:120 indefinite (kappa = 2.9e4)
    # the two are 3.7e-12 apart, and 2.9e-12 and 7.7e-13 from the null-space x
    eps = np.finfo(float).eps
    for q_class in _Q_CLASSES:
        problem = generate(GeneratorSpec(n=n, m=m, seed=n + m, q_class=q_class))
        x, _, kkt, _ = full_saddle_solve(problem)
        sol = solve_kkt(problem)
        w = np.linalg.eigvalsh(kkt)
        pos, neg = int(np.sum(w > 0)) - m, int(np.sum(w < 0)) - m
        assert sol.classification == ("min" if neg == 0 else "max" if pos == 0 else "saddle")
        kappa = np.max(np.abs(w)) / np.min(np.abs(w))
        gap = np.max(np.abs(sol.x - x)) / np.max(np.abs(x))
        assert gap <= 8 * eps * kappa, (q_class, gap, kappa)
