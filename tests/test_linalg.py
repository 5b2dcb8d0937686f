import ast
import math
import os
import subprocess
import sys
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

import eqopt
from eqopt.errors import ComputationError, InfeasibleConstraintsError
from eqopt.expressions import EqualityConstraints, build_nullspace
from eqopt.linalg import (
    EPS,
    _apply_q,
    _rank_revealing_qr,
    _upper_solve,
    as_matrix,
    as_vector,
    cholesky,
    cholesky_solve,
    is_real,
    lapack,
    overflow_checked,
    pull_back_quadratic,
    quadratic_data,
    solve_reduced,
    symmetric_part,
)
from eqopt.problems import GeneratorSpec, generate
from eqopt.qp import QpProblem, solve_nullspace, solve_projector
from helpers import package_modules


def factored(a, b):
    """``(A, b)`` as checked constraints, and their null-space expression."""
    cons = EqualityConstraints(a, b)
    return cons, build_nullspace(cons)


def kept_rows(cons, expr):
    """The equivalent full-row-rank system ``(A, b)`` an expression keeps."""
    return cons.a[expr.selected], cons.b[expr.selected]


def null_basis(a):
    return build_nullspace(EqualityConstraints(a, np.zeros(np.shape(a)[0]))).basis


def row_scaled(a):
    """``a`` with each nonzero row divided by its largest magnitude, the
    system whose ``A^T`` build_nullspace factors."""
    scale = np.max(np.abs(a), axis=1, initial=0.0)
    scale[scale == 0.0] = 1.0
    return a / scale[:, None]


def random_matrix(rng, rows, cols, rank=None):
    if rank is None:
        return rng.uniform(-1, 1, (rows, cols))
    return rng.uniform(-1, 1, (rows, rank)) @ rng.uniform(-1, 1, (rank, cols))


# ---------------------------------------------------------------------------
# build_nullspace: rank and redundant rows (rank-revealing QR)


def test_rrqr_duplicated_row_consistent():
    cons, f = factored([[1.0, 2.0], [2.0, 4.0]], [3.0, 6.0])
    a_kept, b_kept = kept_rows(cons, f)
    assert f.rank == 1
    assert a_kept.shape == (1, 2)
    # the reduced row stays proportional to (1, 2) and keeps x = (3, 0) feasible
    assert_allclose(a_kept @ [3.0, 0.0], b_kept, atol=1e-12)


def test_rrqr_duplicated_row_contradiction():
    with pytest.raises(InfeasibleConstraintsError):
        build_nullspace(EqualityConstraints([[1.0, 2.0], [2.0, 4.0]], [3.0, 7.0]))


def test_repeated_and_zero_rows_skip_the_unpivoted_qr(factorizations):
    # Above the size crossover a zero row, or a row repeated up to sign and
    # scale, sends A straight to the pivoted QR, which drops one row; a row
    # a part in a million away from a repeat leaves A of full rank, and the
    # unpivoted QR alone factors it.
    geqrt, geqp3 = "scipy.linalg.lapack.dgeqrt", "scipy.linalg.lapack.dgeqp3"
    rng = np.random.default_rng(203)
    a = rng.uniform(-1, 1, (60, 160))
    b = a @ rng.uniform(-1, 1, 160)
    near = a[17] + 1e-6 * rng.standard_normal(160)
    for row, rhs, path, rank in [(-3.0 * a[17], -3.0 * b[17], [geqp3], 60),
                                 (np.zeros(160), 0.0, [geqp3], 60),
                                 (near, b[17], [geqrt], 61)]:
        factorizations.clear()
        f = build_nullspace(EqualityConstraints(np.vstack([a, row]), np.append(b, rhs)))
        assert (factorizations, f.rank) == (path, rank)


def test_rrqr_rank_matches_reference_oracle():
    rng = np.random.default_rng(201)
    for _ in range(40):
        n = int(rng.integers(2, 40))
        m = int(rng.integers(1, n + 6))
        rank = int(rng.integers(1, min(m, n) + 1))
        a = random_matrix(rng, m, rank, None) @ random_matrix(rng, rank, n, None)
        b = a @ rng.uniform(-1, 1, n)  # consistent by construction
        cons, f = factored(a, b)
        assert f.rank == np.linalg.matrix_rank(a)
        assert kept_rows(cons, f)[0].shape == (f.rank, n)


def test_rrqr_kept_rows_are_equivalent():
    rng = np.random.default_rng(202)
    for _ in range(30):
        n = int(rng.integers(2, 30))
        rank = int(rng.integers(1, n))
        m = rank + int(rng.integers(0, 5))
        a = random_matrix(rng, m, rank, None) @ random_matrix(rng, rank, n, None)
        b = a @ rng.uniform(-1, 1, n)
        cons, f = factored(a, b)
        a_kept, b_kept = kept_rows(cons, f)
        # any solution of the reduced system solves the original one
        x = np.linalg.lstsq(a_kept, b_kept, rcond=None)[0]
        assert np.max(np.abs(a @ x - b)) < 1e-8 * (1 + np.max(np.abs(b)))
        # and the reduced matrix has full row rank
        assert np.linalg.matrix_rank(a_kept) == f.rank


def test_rrqr_full_rank_input_is_preserved_up_to_equivalence():
    rng = np.random.default_rng(203)
    a = rng.uniform(-1, 1, (4, 9))
    b = rng.uniform(-1, 1, 4)
    cons, f = factored(a, b)
    assert f.rank == 4
    # same solution set: row spaces and particular solutions agree
    x = np.linalg.lstsq(*kept_rows(cons, f), rcond=None)[0]
    assert_allclose(a @ x, b, atol=1e-12)


def test_rrqr_reduction_is_idempotent():
    rng = np.random.default_rng(204)
    a = np.vstack([rng.uniform(-1, 1, (3, 8))] * 2)
    b = a @ rng.uniform(-1, 1, 8)
    cons, once = factored(a, b)
    kept, twice = factored(*kept_rows(cons, once))
    assert once.rank == twice.rank == 3
    assert kept_rows(kept, twice)[0].shape == kept_rows(cons, once)[0].shape


def test_rrqr_zero_matrix():
    cons, f = factored(np.zeros((3, 4)), np.zeros(3))
    assert f.rank == 0
    assert kept_rows(cons, f)[0].shape == (0, 4)
    with pytest.raises(InfeasibleConstraintsError):
        build_nullspace(EqualityConstraints(np.zeros((3, 4)), [0.0, 1.0, 0.0]))


def test_rrqr_empty_system():
    cons, f = factored(np.zeros((0, 5)), np.zeros(0))
    assert f.rank == 0
    assert kept_rows(cons, f)[0].shape == (0, 5)


def test_rrqr_validation():
    with pytest.raises(ValueError):
        EqualityConstraints(np.eye(2), [1.0, 2.0, 3.0])
    # eps >= 1 or NaN would call every pivot negligible and drop every row
    for eps in (0.0, np.nan, np.inf, 1.0):
        with pytest.raises(ValueError):
            build_nullspace(EqualityConstraints(np.eye(2), [1.0, 2.0]), eps=eps)


# ---------------------------------------------------------------------------
# build_nullspace: null-space basis


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
        f = build_nullspace(EqualityConstraints(a, np.zeros(m)))
        assert f.rank < m
        assert f.basis.shape == (n, n - f.rank)


# ---------------------------------------------------------------------------
# build_nullspace: all parts together


def test_constraint_factorization_parts():
    rng = np.random.default_rng(401)
    n, m = 12, 5
    a = rng.uniform(-1, 1, (m, n))
    # two redundant rows: row 1 in other units, and a combination of rows 0 and 2
    a = np.vstack([a, 1e6 * a[1], a[0] - 3.0 * a[2]])
    b = a @ rng.uniform(-1, 1, n)
    f = build_nullspace(EqualityConstraints(a, b))
    assert f.rank == m
    assert sorted([*f.selected, *f.dropped]) == list(range(m + 2))
    assert np.linalg.matrix_rank(a[f.selected]) == m
    assert np.max(np.abs(a @ f.x0 - b) / np.max(np.abs(a), axis=1)) < 1e-12
    # x0 is the minimum-norm solution: it lies in the row space
    nb = f.basis
    assert nb.shape == (n, n - m)
    assert np.max(np.abs(nb.T @ f.x0)) < 1e-12
    assert np.max(np.abs(nb.T @ nb - np.eye(n - m))) < 1e-12
    assert np.max(np.abs(row_scaled(a) @ nb)) < 1e-12
    # the same redundant row one part in a million off is a contradiction
    b_bad = b.copy()
    b_bad[m] *= 1.0 + 1e-6
    with pytest.raises(InfeasibleConstraintsError):
        build_nullspace(EqualityConstraints(a, b_bad))

    # the basis formed from the reflectors spans the null space of an explicit Q:
    # m > n (rank 7 of 12), p = 0 (no rows, all-zero rows) and p = n; and,
    # above the size crossover, from the unpivoted QR's block reflectors
    rank7 = rng.uniform(-1, 1, (20, 7)) @ rng.uniform(-1, 1, (7, n))
    for a, p in [(a, m), (rank7, 7), (np.zeros((0, n)), 0), (np.zeros((3, n)), 0),
                 (rng.uniform(-1, 1, (n, n)), n), (rng.uniform(-1, 1, (64, 160)), 64),
                 (rng.uniform(-1, 1, (160, 160)), 160)]:
        n = a.shape[1]
        f = build_nullspace(EqualityConstraints(a, a @ np.ones(n)))
        assert f.rank == p
        nb = f.basis
        assert nb.shape == (n, n - p)
        assert np.max(np.abs(nb.T @ nb - np.eye(n - p)), initial=0.0) < 1e-12
        ref = scipy.linalg.qr(row_scaled(a).T, pivoting=True)[0] if a.shape[0] else np.eye(n)
        assert np.max(np.abs(nb @ nb.T - ref[:, p:] @ ref[:, p:].T)) < 1e-12
        assert np.max(np.abs(a @ f.x0 - a @ np.ones(n)), initial=0.0) < 1e-12
        assert np.max(np.abs(nb.T @ f.x0), initial=0.0) < 1e-12


def test_triangular_solves_match_solve_triangular_and_type_their_failure():
    rng = np.random.default_rng(402)
    qr = np.asfortranarray(np.triu(rng.uniform(-1, 1, (12, 9))) + 3.0 * np.eye(12, 9))
    r11, r12 = qr[:7, :7], qr[:7, 7:]  # strided slices, as the factorization takes them
    rhs = rng.uniform(-1, 1, (7, 1))
    assert np.array_equal(
        _upper_solve(r11, rhs, trans=1), scipy.linalg.solve_triangular(r11, rhs, trans="T")
    )
    assert np.array_equal(_upper_solve(r11, r12), scipy.linalg.solve_triangular(r11, r12))
    assert _upper_solve(r11[:0, :0], r12[:0]).shape == (0, 2)
    singular = r11.copy()
    singular[3, 3] = 0.0
    with pytest.raises(ComputationError, match="dtrtrs info=4"):
        _upper_solve(singular, rhs)


_SPD = np.array([[4.0, 1.0], [1.0, 3.0]])
_INDEFINITE = np.array([[2.0, 1.0], [1.0, -3.0]])
_SINGULAR = np.array([[1.0, 1.0], [1.0, 1.0]])  # both factorizations refused: eigh
_SMALL_A = np.random.default_rng(403).uniform(-1, 1, (2, 4))  # dgeqp3, then dormqr
_LARGE_A = np.random.default_rng(404).uniform(-1, 1, (40, 160))  # dgeqrt, dtrcon, dgemqrt


# routine -> a call that reaches it
_CALLS_INTO = {
    "dpotrf": lambda: cholesky(_SPD),
    "dpotrs": lambda: cholesky_solve(_SPD, np.ones(2)),
    "dsytrf": lambda: solve_reduced(_INDEFINITE, np.ones(2), EPS),
    "dsytrs": lambda: solve_reduced(_INDEFINITE, np.ones(2), EPS),
    "dgeqp3": lambda: build_nullspace(EqualityConstraints(_SMALL_A, np.ones(2))),
    "dormqr": lambda: build_nullspace(EqualityConstraints(_SMALL_A, np.ones(2))),
    "dgeqrt": lambda: build_nullspace(EqualityConstraints(_LARGE_A, np.ones(40))),
    "dtrcon": lambda: build_nullspace(EqualityConstraints(_LARGE_A, np.ones(40))),
    "dgemqrt": lambda: build_nullspace(EqualityConstraints(_LARGE_A, np.ones(40))),
    "eigh": lambda: solve_reduced(_SINGULAR, np.ones(2), EPS),
}


@pytest.mark.parametrize("routine", list(_CALLS_INTO))
def test_a_failing_routine_is_a_computation_error_naming_it(monkeypatch, routine):
    # LAPACK rejects an argument (info = -1) or eigh does not converge
    module = np.linalg if routine == "eigh" else lapack
    real = getattr(module, routine)

    def failing(*args, **kwargs):
        if module is np.linalg:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return (*real(*args, **kwargs)[:-1], -1)  # the routine's results, info last

    monkeypatch.setattr(module, routine, failing)
    with pytest.raises(ComputationError, match=rf"\b{routine}\b"):
        _CALLS_INTO[routine]()


def _indefinite_matrices(rng):
    """Seeded symmetric indefinite matrices: a zero diagonal, a small
    positive one (2x2 pivots whose diagonal entries are both positive) and
    saddle-point matrices ``[[Q, A^T], [A, 0]]``."""
    for _ in range(10):
        k = int(rng.integers(2, 40))
        r = rng.uniform(-1, 1, (k, k))
        sym = r + r.T
        yield sym - np.diag(np.diag(sym))
        yield sym - np.diag(np.diag(sym)) + 0.1 * np.eye(k)
        n, m = int(rng.integers(2, 20)), int(rng.integers(1, 10))
        q = rng.uniform(-1, 1, (n, n))
        a = rng.uniform(-1, 1, (m, n))
        yield np.block([[q + q.T, a.T], [a, np.zeros((m, m))]])


def test_bunch_kaufman_counts_the_eigenvalue_signs(monkeypatch):
    # The inertia read off D equals the eigenvalue sign counts; a 2x2 block
    # read as two 1x1 pivots would count its two diagonal entries instead.
    # Every 2x2 block is counted as one eigenvalue of each sign, so each one
    # dsytrf takes must have a negative determinant. A Bunch-Kaufman solve
    # is accepted when its dsytrs runs; else the condition guard sent the
    # system to eigh.
    factors, solves = [], []
    dsytrf, dsytrs = lapack.dsytrf, lapack.dsytrs

    def recorded(*args, **kwargs):
        out = dsytrf(*args, **kwargs)
        factors.append(out[:2])
        return out

    def solved(*args, **kwargs):
        solves.append(args)
        return dsytrs(*args, **kwargs)

    monkeypatch.setattr(lapack, "dsytrf", recorded)
    monkeypatch.setattr(lapack, "dsytrs", solved)
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1819)
    accepted = 0
    for m in _indefinite_matrices(rng):
        k = m.shape[0]
        before = m.copy()
        rhs = rng.uniform(-1, 1, k)
        solves.clear()
        y, pos, neg = solve_reduced(m, rhs, eps)
        assert m.tobytes() == before.tobytes()
        w = np.linalg.eigvalsh(m)
        if not solves:
            assert np.min(np.abs(w)) < 1e-6 * np.max(np.abs(w))  # refused only when ill-conditioned
            continue
        accepted += 1
        assert (pos, neg) == (int(np.sum(w > 0)), int(np.sum(w < 0)))
        kappa = np.max(np.abs(w)) / np.min(np.abs(w))
        assert_allclose(m @ y, rhs, atol=100 * k * kappa * eps * np.max(np.abs(rhs)))
    assert accepted >= 25
    blocks = 0
    for ldu, ipiv in factors:
        for i in np.flatnonzero(ipiv < 0)[::2]:
            a, c, e = ldu[i, i], ldu[i + 1, i], ldu[i + 1, i + 1]
            assert a * e - c * c < 0.0, (a, c, e)
            blocks += 1
    assert blocks >= 25  # 2x2 blocks were exercised


def _with_eigenvalues(rng, w):
    """Symmetric matrix ``V diag(w) V^T`` with a seeded orthogonal V; returns
    the matrix and V."""
    v, _ = np.linalg.qr(rng.uniform(-1, 1, (w.size, w.size)))
    m = (v * w) @ v.T
    return 0.5 * (m + m.T), v


def test_solve_reduced_counts_the_eigenvalues_it_keeps(factorizations):
    # (pos, neg) are the sign counts of the eigenvalues outside the cut
    # tol k max|w|, the ones the solve inverts. With tol = 1e-6 one
    # eigenvalue sits at twice the cut and one at half of it, far beyond
    # rounding from it either way, and the condition guard sends the
    # system to eigh; at the default cut it is well conditioned, and a
    # factorization counts it.
    rng = np.random.default_rng(1919)
    for trial in range(40):
        k = int(rng.integers(4, 30))
        tol = 1e-6 if trial % 2 else None  # None: the default cut
        w = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 10.0, k)
        if tol:
            w[0] = 10.0 * np.sign(w[0])
            cut = tol * k * 10.0
            w[1:4] = np.sign(w[1:4]) * [2.0 * cut, 0.5 * cut, 0.0]
        m, _ = _with_eigenvalues(rng, w)
        factorizations.clear()
        _, pos, neg = solve_reduced(m, rng.uniform(-1, 1, k), tol or EPS)
        assert ("numpy.linalg.eigh" in factorizations) == bool(tol), trial
        e = np.linalg.eigvalsh(m)
        cut = (tol or np.finfo(float).eps) * k * np.max(np.abs(e))
        assert (pos, neg) == (int(np.sum(e > cut)), int(np.sum(e < -cut))), trial
        kept = np.abs(w) > (tol or 0.0) * k * 10.0
        assert (pos, neg) == (int(np.sum(w[kept] > 0)), int(np.sum(w[kept] < 0))), trial
    # the zero matrix: nothing is kept, and x = 0
    x, pos, neg = solve_reduced(np.zeros((3, 3)), np.ones(3), EPS)
    assert (pos, neg) == (0, 0)
    assert not x.any()
    # finite entries whose eigenvalues, +-1.7e308 sqrt(2), overflow: the
    # system is scaled by 2^-2 first, and its inertia counted there (the
    # 1-norm overflows, as a solve's error state lets it)
    with np.errstate(over="ignore"):
        _, pos, neg = solve_reduced(np.array([[1.7e308, 1.7e308], [1.7e308, -1.7e308]]),
                                    np.ones(2), EPS)
    assert (pos, neg) == (1, 1)


def test_solve_reduced_is_the_minimum_norm_solution(factorizations):
    # x has no component along the dropped eigenvectors and solves the
    # kept part of the system, both within rounding
    eps = np.finfo(float).eps
    rng = np.random.default_rng(1920)
    for trial in range(20):
        k = int(rng.integers(2, 30))
        w = rng.choice([-1.0, 1.0], k) * rng.uniform(1.0, 10.0, k)
        dropped = np.arange(k) < int(rng.integers(1, k))
        w[dropped] *= 1e-20 if trial % 2 else 0.0  # far below the cut
        m, v = _with_eigenvalues(rng, w)
        rhs = rng.uniform(-1, 1, k)
        factorizations.clear()
        x, pos, neg = solve_reduced(m, rhs, EPS)
        assert "numpy.linalg.eigh" in factorizations, trial
        assert pos + neg == k - np.sum(dropped), trial
        rounding = 100 * k * eps * 10.0 * np.max(np.abs(x))
        assert np.max(np.abs(v[:, dropped].T @ x)) <= rounding, trial
        assert np.max(np.abs(v[:, ~dropped].T @ (m @ x - rhs))) <= 10.0 * rounding, trial


def test_no_kernel_writes_into_its_input(factorizations):
    # Each kernel factors a copy that its LAPACK wrapper makes: C- and
    # F-ordered inputs, including ones a factorization fails on partway,
    # stay byte for byte what they were. The three matrices take the
    # three branches of solve_reduced: Cholesky, Bunch-Kaufman and eigh.
    last = {"spd": "scipy.linalg.lapack.dpotrf", "indefinite": "scipy.linalg.lapack.dsytrf",
            "singular": "numpy.linalg.eigh"}
    rng = np.random.default_rng(1921)
    k = 12
    r = rng.uniform(-1, 1, (k, k))
    spd = r @ r.T + k * np.eye(k)
    indefinite = r + r.T
    singular = r[:, :4] @ r[:, :4].T - r[:, 4:6] @ r[:, 4:6].T
    for name, matrix in (("spd", spd), ("indefinite", indefinite), ("singular", singular)):
        for order in ("C", "F"):
            m = np.array(matrix, order=order)
            rhs = rng.uniform(-1, 1, k)
            calls = {
                "cholesky": lambda: cholesky(m),
                "solve_reduced": lambda: solve_reduced(m, rhs, EPS),
            }
            for kernel, call in calls.items():
                before = m.copy(order="A"), rhs.copy()
                factorizations.clear()
                call()
                where = (name, order, kernel)
                assert kernel == "cholesky" or factorizations[-1] == last[name], where
                assert m.flags.f_contiguous == (order == "F"), where
                assert m.tobytes(order="A") == before[0].tobytes(order="A"), where
                assert rhs.tobytes() == before[1].tobytes(), where


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
    with pytest.raises(ValueError, match="A contains non-finite"):
        EqualityConstraints([[1.0, np.nan]], [1.0])
    # the number rule of a problem file: no entry is read as a number that
    # is not one, and an imaginary part is not dropped
    for entries, refusal in (
        (np.array([[1 + 5j, 1.0]]), r"numpy dtype complex128"),
        ([[1 + 5j, 1.0]], r"numpy dtype complex128"),
        ([[True, 1.0]], r"\(a boolean\)"),
        ([[np.True_, 2.0]], r"\(a boolean\)"),
        (np.array([[True, False]]), r"numpy dtype bool"),
        ([["1.5", 1.0]], r"numpy dtype <U"),
        ([[None, 1.0]], r"numpy dtype object"),
        ([[1.0], [1.0, 2.0]], r"not a rectangular numeric array"),
        ([[10**400, 1.0]], r"integer beyond the float64 range"),
    ):
        with pytest.raises(ValueError, match=f"^A (is|has|holds) .*{refusal}"):
            EqualityConstraints(entries, [1.0])
    with pytest.raises(ValueError, match=r"^b has non-numeric entries \(a boolean\)$"):
        as_vector([0.0, True], "b")
    # an int ndarray is converted, a float64 one taken as it is
    held = np.array([[1.0, 2.0]])
    assert as_matrix(held) is held
    assert as_vector(np.array([1, 2], dtype=np.int32)).tolist() == [1.0, 2.0]
    assert as_vector([10**20, 1]).tolist() == [1e20, 1.0]


def test_is_real_is_what_converts_to_a_float64():
    reals = [0, np.int64(3), 1.5, np.float32(2.0), math.inf, -math.inf, math.nan]
    others = [True, np.True_, "1.0", None, [1.0], np.array([1.0]), 10**400, -(10**400)]
    if np.finfo(np.longdouble).max > np.finfo(np.float64).max:
        # float() turns a longdouble beyond the float64 range into inf silently
        reals += [np.longdouble("1.5"), np.longdouble("inf"), np.longdouble("nan")]
        others += [np.longdouble("1e400"), np.longdouble("-1e400")]
    assert [is_real(x) for x in reals] == [True] * len(reals)
    assert [is_real(x) for x in others] == [False] * len(others)


def test_a_solution_that_overflows_is_a_computation_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused by the checks, without a numpy warning
        # finite data whose minimum-norm point x0 = (1e310, 0, 0) overflows
        with pytest.raises(ComputationError, match="overflows float range"):
            build_nullspace(EqualityConstraints([[1e-300, 0.0, 0.0]], [1e10]))
        # x0 = (1, 1e300, 0) is finite, but Q x0 and so the solution overflow
        problem = QpProblem(
            q=1e300 * np.eye(3),
            c=np.full(3, 1e300),
            constraints=EqualityConstraints([[1e-300, 1.0, 0.0]], [1e300]),
        )
        for solve in (solve_projector, solve_nullspace):
            with pytest.raises(ComputationError, match="overflows float range"):
                solve(problem)


def test_overflow_checked_calls_nest_and_restore_the_callers_error_state():
    # each decorated call enters its own error state, so the nested calls
    # of a solve (the factorization inside an elimination, the residual
    # after it) hand the caller back exactly the state it had
    @overflow_checked
    def inner():
        return np.geterr()

    @overflow_checked
    def outer():
        return inner(), np.geterr()

    problem = QpProblem(
        q=np.eye(3), c=np.ones(3), constraints=EqualityConstraints([[1.0, 1.0, 0.0]], [1.0])
    )
    with np.errstate(all="raise"):
        before = np.geterr()
        seen, after_inner = outer()
        assert seen["over"] == seen["invalid"] == after_inner["over"] == "ignore"
        assert np.geterr() == before
        for solve in (solve_projector, solve_nullspace):
            solve(problem)
            assert np.geterr() == before, solve.__name__


# ---------------------------------------------------------------------------
# quadratic data


def test_symmetrizing_halves_first():
    # halving first gives (Q + Q^T) / 2 bit for bit on normal floats ...
    rng = np.random.default_rng(501)
    for seed in range(20):
        n = int(rng.integers(2, 30))
        problem = generate(
            GeneratorSpec(n=n, m=int(rng.integers(0, n)), seed=seed, q_class="symmetric_indefinite")
        )
        raw = np.random.default_rng(seed).uniform(-1, 1, (n, n))  # generate's first draw
        assert np.array_equal(problem.q, 0.5 * (raw + raw.T))
        f = build_nullspace(problem.constraints)
        qb = f.basis.T @ raw @ f.basis
        aa = pull_back_quadratic(raw, problem.c, f.x0, f.basis)[0]
        assert np.array_equal(aa, 0.5 * (qb + qb.T))
    # ... and keeps finite entries near the float maximum finite
    big = np.full((2, 2), 1.5e308)
    assert np.array_equal(symmetric_part(big), big)
    assert np.array_equal(quadratic_data(big)[0], big)
    assert np.array_equal(pull_back_quadratic(big, np.zeros(2), np.zeros(2), np.eye(2))[0], big)


def test_quadratic_data_keeps_a_q_equal_to_its_symmetric_part():
    # it returned a read-only symmetrized copy of every Q
    q = np.array([[2.0, 1.0], [1.0, 3.0]])
    held = quadratic_data(q)[0]
    assert held is q and held.flags.writeable
    # a Q whose symmetric part differs in any bit comes back as that part, in
    # a new writeable array: an asymmetric Q, an odd subnormal that halves to
    # 0, and a -0.0 opposite a +0.0, which == alone would call symmetric
    for q in (
        np.array([[2.0, 1.0], [0.0, 3.0]]),
        np.array([[2.0, 5e-324], [5e-324, -5e-324]]),
        np.array([[1.0, -0.0], [0.0, 1.0]]),
        np.array([[1.0, 0.0], [-0.0, 1.0]]).T,  # the same as a transposed view
    ):
        held = quadratic_data(q)[0]
        assert held is not q and held.flags.writeable
        assert held.tobytes() == symmetric_part(q).tobytes()
    assert not np.signbit(held).any()  # the -0.0 is gone


# ---------------------------------------------------------------------------
# how LAPACK is reached


def _dotted(node):
    """``a.b.c`` for a Name or a chain of Attributes on one, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _tests_for_bool(node):
    """Whether ``node`` is ``isinstance(x, bool)``, bool also in a tuple."""
    if not (isinstance(node, ast.Call) and _dotted(node.func) == "isinstance"):
        return False
    kinds = node.args[-1].elts if isinstance(node.args[-1], ast.Tuple) else node.args[-1:]
    return any(_dotted(kind) == "bool" for kind in kinds)


def test_only_linalg_states_what_a_number_is():
    # one number rule for every input and no exception to it: no other
    # module imports numbers, converts an array or tests for a bool itself
    offenders = []
    for path, tree in package_modules():
        if path.name == "linalg.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or "", *(f"{node.module}.{a.name}" for a in node.names)]
            elif isinstance(node, ast.Call):
                names = [_dotted(node.func) or ""]
            else:
                continue
            if _tests_for_bool(node) or any(
                    n.split(".")[0] == "numbers" or n in ("np.asarray", "numpy.asarray")
                    for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_no_module_imports_scipy_linalg():
    # importing the scipy.linalg package doubles the cold start of
    # `eqopt solve`; every LAPACK routine is reached through linalg.lapack
    offenders = []
    for path, tree in package_modules():
        for node in ast.walk(tree):
            names = []
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            elif isinstance(node, ast.Attribute):
                names = [_dotted(node) or ""]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = [node.value]
            # the extension module itself is named where linalg loads it
            if any(n.split(".")[:2] == ["scipy", "linalg"] and n != lapack.__name__
                   for n in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_every_dsytrf_call_takes_its_block_size_from_one_constant():
    # dsytrf's block size is stated once, as linalg._SYTRF_BLOCK: no module
    # queries the workspace, and every call passes an lwork that names it
    offenders, callers = [], set()
    for path, tree in package_modules():
        for node in ast.walk(tree):
            if "dsytrf_lwork" in (getattr(node, "attr", None), getattr(node, "id", None),
                                  getattr(node, "value", None)):
                offenders.append(f"{path.name}:{node.lineno} names dsytrf_lwork")
            if isinstance(node, ast.Call) and (_dotted(node.func) or "").endswith("dsytrf"):
                callers.add(path.name)
                lwork = [kw.value for kw in node.keywords if kw.arg == "lwork"]
                if not any(getattr(n, "id", None) == "_SYTRF_BLOCK"
                           for value in lwork for n in ast.walk(value)):
                    offenders.append(f"{path.name}:{node.lineno} sizes dsytrf otherwise")
    assert offenders == []
    assert {"linalg.py", "qp.py"} <= callers


def test_no_module_queries_a_lapack_workspace():
    # every workspace is stated in linalg (its docstring's Block sizes): a
    # query, lwork=-1 by keyword or in a call on lapack, is a second call
    # into LAPACK that computes nothing
    def is_minus_one(node):
        try:
            return ast.literal_eval(node) == -1
        except ValueError:
            return False

    offenders = []
    for path, tree in package_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            on_lapack = (_dotted(node.func) or "").startswith("lapack.")
            values = [kw.value for kw in node.keywords if on_lapack or kw.arg == "lwork"]
            if any(map(is_minus_one, values + (node.args if on_lapack else []))):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_the_stated_qr_workspaces_cover_the_queries(monkeypatch):
    # _rank_revealing_qr and _apply_q pass dgeqp3 and dormqr the workspaces
    # the module docstring states; one below the query's would make them
    # shrink their blocks, and so round otherwise than at the queried size.
    # Every shape takes dgeqp3, also above the size crossover.
    real = {name: getattr(lapack, name) for name in ("dgeqp3", "dormqr")}
    passed = {}
    monkeypatch.setattr(eqopt.linalg, "_QRT_MIN_COLS", np.inf)

    def recording(*args, _name, **kwargs):
        passed[_name] = kwargs["lwork"]
        return real[_name](*args, **kwargs)

    for name in real:
        monkeypatch.setattr(lapack, name, partial(recording, _name=name))
    rng = np.random.default_rng(37)
    for n in (1, 2, 3, 5, 8, 17, 31, 32, 33, 60, 64, 65, 100, 129, 160):
        for m in sorted({*range(1, n + 6, max(1, n // 6)), n - 1, n, n + 1, n + 5} - {0}):
            at = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, m)))
            query = real["dgeqp3"](at, lwork=-1)[3][0]
            qr, _, tau, _, _ = _rank_revealing_qr(at.T, EPS)
            assert passed["dgeqp3"] >= query, (n, m)
            v = qr[:, : min(m, n)]
            for cols in sorted({1, 2, n // 2 + 1, n}):
                c = np.asfortranarray(rng.uniform(-1.0, 1.0, (n, cols)))
                query = real["dormqr"]("L", "N", v, tau, c, lwork=-1)[1][0]
                _apply_q(v, None, tau, c)
                assert passed["dormqr"] >= query, (n, m, cols)


def _run_python(script):
    src = str(Path(eqopt.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                           text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    return child.stdout


def test_importing_eqopt_imports_neither_scipy_nor_scipy_linalg():
    out = _run_python("import sys, eqopt, eqopt.cli\n"
                      "print(sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))")
    assert out.strip() == "[]"


_IMPORTS = {
    "eqopt first": "import eqopt\nimport scipy.linalg\n",
    "scipy.linalg first": "import scipy.linalg\nimport eqopt\n",
    # scipy's directory not found: eqopt imports the extension the usual way
    "extension not found": "import importlib.util\n"
                           "importlib.util.find_spec = lambda *args: None\nimport eqopt\n",
}


@pytest.mark.parametrize("imports", list(_IMPORTS))
def test_eqopt_and_scipy_linalg_share_one_lapack(imports):
    # scipy.linalg.lapack re-exports the routines of the extension module
    # that eqopt loaded, or eqopt takes the one scipy loaded: LAPACK is
    # initialized once, and both call the same functions
    out = _run_python(
        _IMPORTS[imports]
        + "import sys, numpy as np, eqopt.linalg, scipy.linalg.lapack\n"
        "handle = eqopt.linalg.lapack\n"
        "assert handle is sys.modules['scipy.linalg._flapack'], handle\n"
        "assert scipy.linalg.lapack.dgeqp3 is handle.dgeqp3\n"
        "a = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])\n"
        "expr = eqopt.build_nullspace(eqopt.EqualityConstraints(a, [1.0, 2.0]))\n"
        "assert expr.rank == 1 and scipy.linalg.qr(a)[1].shape == (2, 3)\n"
        "print('shared')"
    )
    assert out.strip() == "shared"
