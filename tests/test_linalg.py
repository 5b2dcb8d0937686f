import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqopt.errors import ComputationError, InfeasibleConstraintsError
from eqopt.expressions import EqualityConstraints
from eqopt.linalg import (
    ConstraintFactorization,
    as_matrix,
    as_vector,
    pull_back_quadratic,
    quadratic_data,
)
from eqopt.problems import GeneratorSpec, generate
from eqopt.qp import QpProblem, solve_nullspace, solve_projector


def kept_rows(f):
    """The equivalent full-row-rank system ``(A, b)`` a factorization keeps."""
    return f.a[f.selected], f.b[f.selected]


def null_basis(a):
    return ConstraintFactorization(a, np.zeros(np.shape(a)[0])).null_basis


def random_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return rng.uniform(-1, 1, (rows, cols))
    return rng.uniform(-1, 1, (rows, rank)) @ rng.uniform(-1, 1, (rank, cols))


# ---------------------------------------------------------------------------
# ConstraintFactorization: rank and redundant rows (rank-revealing QR)


def test_rrqr_duplicated_row_consistent():
    f = ConstraintFactorization([[1.0, 2.0], [2.0, 4.0]], [3.0, 6.0])
    a_kept, b_kept = kept_rows(f)
    assert f.rank == 1
    assert a_kept.shape == (1, 2)
    # the reduced row stays proportional to (1, 2) and keeps x = (3, 0) feasible
    assert_allclose(a_kept @ [3.0, 0.0], b_kept, atol=1e-12)


def test_rrqr_duplicated_row_contradiction():
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintFactorization([[1.0, 2.0], [2.0, 4.0]], [3.0, 7.0])


def test_rrqr_rank_matches_reference_oracle():
    rng = np.random.default_rng(201)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n + 6))
        rank = int(rng.integers(1, min(m, n) + 1))
        a = random_matrix(rng, m, rank, None) @ random_matrix(rng, rank, n, None)
        b = a @ rng.uniform(-1, 1, n)  # consistent by construction
        f = ConstraintFactorization(a, b)
        assert f.rank == np.linalg.matrix_rank(a)
        assert kept_rows(f)[0].shape == (f.rank, n)


def test_rrqr_kept_rows_are_equivalent():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        rank = int(rng.integers(1, n))
        m = rank + int(rng.integers(0, 5))
        a = random_matrix(rng, m, rank, None) @ random_matrix(rng, rank, n, None)
        b = a @ rng.uniform(-1, 1, n)
        f = ConstraintFactorization(a, b)
        a_kept, b_kept = kept_rows(f)
        # any solution of the reduced system solves the original one
        x = np.linalg.lstsq(a_kept, b_kept, rcond=None)[0]
        assert np.max(np.abs(a @ x - b)) < 1e-8 * (1 + np.max(np.abs(b)))
        # and the reduced matrix has full row rank
        assert np.linalg.matrix_rank(a_kept) == f.rank


def test_rrqr_full_rank_input_is_preserved_up_to_equivalence():
    rng = np.random.default_rng(203)
    a = rng.uniform(-1, 1, (4, 9))
    b = rng.uniform(-1, 1, 4)
    f = ConstraintFactorization(a, b)
    assert f.rank == 4
    # same solution set: row spaces and particular solutions agree
    x = np.linalg.lstsq(*kept_rows(f), rcond=None)[0]
    assert_allclose(a @ x, b, atol=1e-12)


def test_rrqr_reduction_is_idempotent():
    rng = np.random.default_rng(204)
    a = np.vstack([rng.uniform(-1, 1, (3, 8))] * 2)
    b = a @ rng.uniform(-1, 1, 8)
    once = ConstraintFactorization(a, b)
    twice = ConstraintFactorization(*kept_rows(once))
    assert once.rank == twice.rank == 3
    assert kept_rows(twice)[0].shape == kept_rows(once)[0].shape


def test_rrqr_zero_matrix():
    f = ConstraintFactorization(np.zeros((3, 4)), np.zeros(3))
    assert f.rank == 0
    assert kept_rows(f)[0].shape == (0, 4)
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintFactorization(np.zeros((3, 4)), [0.0, 1.0, 0.0])


def test_rrqr_empty_system():
    f = ConstraintFactorization(np.zeros((0, 5)), np.zeros(0))
    assert f.rank == 0
    assert kept_rows(f)[0].shape == (0, 5)


def test_rrqr_validation():
    with pytest.raises(ValueError):
        ConstraintFactorization(np.eye(2), [1.0, 2.0, 3.0])
    # eps >= 1 or NaN would call every pivot negligible and drop every row
    for eps in (0.0, np.nan, np.inf, 1.0):
        with pytest.raises(ValueError):
            ConstraintFactorization(np.eye(2), [1.0, 2.0], eps=eps)


# ---------------------------------------------------------------------------
# ConstraintFactorization: null-space basis


def test_null_basis_properties():
    rng = np.random.default_rng(301)
    for _ in range(40):
        n = int(rng.integers(2, 50))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1, 1, (m, n))
        nb = null_basis(a)
        assert nb.shape == (n, n - m)
        assert np.max(np.abs(nb.T @ nb - np.eye(n - m))) < 1e-12
        assert np.max(np.abs(a @ nb)) < 1e-12 * max(1.0, np.max(np.abs(a)))


def test_nullspace_known_plane():
    # ker of (1, 1) is spanned by (1, -1)/sqrt(2)
    nb = null_basis([[1.0, 1.0]])
    assert nb.shape == (2, 1)
    assert_allclose(np.abs(nb[:, 0]), np.full(2, np.sqrt(0.5)), atol=1e-15)
    assert abs(nb[0, 0] + nb[1, 0]) < 1e-15


def test_nullspace_square_full_rank_is_empty():
    nb = null_basis(np.eye(4))
    assert nb.shape == (4, 0)


def test_nullspace_no_constraints_is_identity():
    assert_allclose(null_basis(np.zeros((0, 3))), np.eye(3))


def test_nullspace_rejects_rank_deficient():
    # rank-deficient rows are not an error: the basis has n - rank columns
    for a in ([[1.0, 2.0], [2.0, 4.0]], np.ones((3, 2))):  # m > n: never full row rank
        m, n = np.shape(a)
        f = ConstraintFactorization(a, np.zeros(m))
        assert f.rank < m
        assert f.null_basis.shape == (n, n - f.rank)


# ---------------------------------------------------------------------------
# ConstraintFactorization: all parts together


def test_constraint_factorization_parts():
    rng = np.random.default_rng(401)
    n, m = 12, 5
    a = rng.uniform(-1, 1, (m, n))
    # two redundant rows: row 1 in other units, and a combination of rows 0 and 2
    a = np.vstack([a, 1e6 * a[1], a[0] - 3.0 * a[2]])
    b = a @ rng.uniform(-1, 1, n)
    f = ConstraintFactorization(a, b)
    assert f.rank == m
    assert sorted([*f.selected, *f.dropped]) == list(range(m + 2))
    assert np.linalg.matrix_rank(a[f.selected]) == m
    assert np.max(np.abs(a @ f.x0 - b) / np.max(np.abs(a), axis=1)) < 1e-12
    # x0 is the minimum-norm solution: it lies in the row space
    nb = f.null_basis
    assert nb.shape == (n, n - m)
    assert np.max(np.abs(nb.T @ f.x0)) < 1e-12
    assert np.max(np.abs(nb.T @ nb - np.eye(n - m))) < 1e-12
    assert np.max(np.abs(f.a @ nb)) < 1e-12
    # the same redundant row one part in a million off is a contradiction
    b_bad = b.copy()
    b_bad[m] *= 1.0 + 1e-6
    with pytest.raises(InfeasibleConstraintsError):
        ConstraintFactorization(a, b_bad)

    # the basis formed from the reflectors spans the null space of an explicit Q:
    # m > n (rank 7 of 12), p = 0 (no rows, all-zero rows) and p = n
    rank7 = rng.uniform(-1, 1, (20, 7)) @ rng.uniform(-1, 1, (7, n))
    for a, p in [(a, m), (rank7, 7), (np.zeros((0, n)), 0), (np.zeros((3, n)), 0),
                 (rng.uniform(-1, 1, (n, n)), n)]:
        f = ConstraintFactorization(a, a @ np.ones(n))
        assert f.rank == p
        nb = f.null_basis
        assert nb.shape == (n, n - p)
        assert np.max(np.abs(nb.T @ nb - np.eye(n - p)), initial=0.0) < 1e-12
        ref = scipy.linalg.qr(f.a.T, pivoting=True)[0] if a.shape[0] else np.eye(n)
        assert np.max(np.abs(nb @ nb.T - ref[:, p:] @ ref[:, p:].T)) < 1e-12
        assert np.max(np.abs(a @ f.x0 - a @ np.ones(n)), initial=0.0) < 1e-12
        assert np.max(np.abs(nb.T @ f.x0), initial=0.0) < 1e-12


# ---------------------------------------------------------------------------
# input validation helpers


def test_as_matrix_and_as_vector():
    assert as_matrix([[1, 2]]).dtype == np.float64
    assert as_vector([1, 2]).dtype == np.float64
    with pytest.raises(ValueError, match="2-D"):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError, match="1-D"):
        as_vector([[1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([np.nan])


def test_a_solution_that_overflows_is_a_computation_error():
    with np.errstate(over="ignore", invalid="ignore"):
        # finite data whose minimum-norm point x0 = (1e310, 0, 0) overflows
        with pytest.raises(ComputationError, match="overflows float range"):
            ConstraintFactorization([[1e-300, 0.0, 0.0]], [1e10])
        # x0 = (1, 1e300, 0) is finite, but Q x0 and so the solution overflow
        problem = QpProblem(
            q=1e300 * np.eye(3),
            c=np.full(3, 1e300),
            constraints=EqualityConstraints([[1e-300, 1.0, 0.0]], [1e300]),
        )
        for solve in (solve_projector, solve_nullspace):
            with pytest.raises(ComputationError, match="overflows float range"):
                solve(problem)


# ---------------------------------------------------------------------------
# quadratic data


def test_symmetrizing_halves_first():
    # halving first gives (Q + Q^T) / 2 bit for bit on normal floats ...
    rng = np.random.default_rng(501)
    for seed in range(20):
        n = int(rng.integers(2, 30))
        problem = generate(
            GeneratorSpec(n=n, m=int(rng.integers(0, n)), seed=seed, q_class="asymmetric")
        )
        raw = np.random.default_rng(seed).uniform(-1, 1, (n, n))  # generate's first draw
        assert np.array_equal(problem.q, 0.5 * (raw + raw.T))
        f = ConstraintFactorization(problem.constraints.a, problem.constraints.b)
        qb = f.null_basis.T @ raw @ f.null_basis
        aa = pull_back_quadratic(raw, problem.c, f.x0, f.null_basis)[0]
        assert np.array_equal(aa, 0.5 * (qb + qb.T))
    # ... and keeps finite entries near the float maximum finite
    big = np.full((2, 2), 1.5e308)
    assert np.array_equal(quadratic_data(big)[0], big)
    assert np.array_equal(pull_back_quadratic(big, np.zeros(2), np.zeros(2), np.eye(2))[0], big)
