import inspect
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from eqopt import nlp
from eqopt.errors import (
    ComputationError,
    DivergenceError,
    InfeasibleStartError,
    LineSearchError,
    NonConvexError,
)
from eqopt.expressions import EqualityConstraints
from eqopt.nlp import (
    ConvergenceConstants,
    NewtonConfig,
    ObjectiveOracle,
    ReducedObjective,
    estimate_convergence_constants,
    iteration_bound,
    newton_solve,
    reduce_problem,
    sqp_iterate,
    suboptimality_bound,
)
from eqopt.objectives import log_sum_exp, neg_log_barrier_quadratic, quadratic, sum_exp
from eqopt.problems import GeneratorSpec, generate
from eqopt.qp import solve_kkt, solve_nullspace, solve_projector
from helpers import chain_rule_oracle, fd_gradient, fd_hessian


def lse_reduced(seed, n=10, m=3):
    rng = np.random.default_rng(seed)
    oracle = log_sum_exp(rng.uniform(-1, 1, (4 * n, n)))
    cons = EqualityConstraints(rng.uniform(-1, 1, (m, n)), rng.uniform(-0.3, 0.3, m))
    return reduce_problem(oracle, cons), rng


def quadratic_reduced(seed, n=12, m=4):
    problem = generate(GeneratorSpec(n=n, m=m, seed=seed))
    oracle = quadratic(problem.q, problem.c)
    return reduce_problem(oracle, problem.constraints), problem


# ---------------------------------------------------------------------------
# oracles and reduction


def test_objective_oracle_fd_hessian_fallback():
    value = lambda x: float(x[0] ** 3 + 2 * x[0] * x[1] + x[1] ** 2)
    gradient = lambda x: np.array([3 * x[0] ** 2 + 2 * x[1], 2 * x[0] + 2 * x[1]])
    oracle = ObjectiveOracle(2, value, gradient)  # no analytic Hessian given
    x = np.array([0.7, -0.4])
    expected = np.array([[4.2, 2.0], [2.0, 2.0]])
    assert_allclose(oracle.hessian(x), expected, rtol=1e-6, atol=1e-6)
    with pytest.raises(ValueError, match="dim must be at least 1"):
        ObjectiveOracle(0, value, gradient)
    # an integer: int() read 2.5 as 2, True as 1 and "3" as 3
    for not_an_integer in (2.5, True, "3"):
        with pytest.raises(ValueError, match="^dim must be an integer, got "):
            ObjectiveOracle(not_an_integer, value, gradient)


def test_reduced_objective_chain_rule():
    reduced, rng = lse_reduced(1)
    g = rng.uniform(-1, 1, reduced.free_dim)
    grad = reduced.oracle.gradient(g)
    assert_allclose(grad, fd_gradient(reduced.oracle.value, g), rtol=1e-5, atol=1e-7)
    assert_allclose(
        reduced.oracle.hessian(g), fd_hessian(reduced.oracle.gradient, g), rtol=1e-4, atol=1e-6
    )


def test_reduce_problem_validation():
    oracle = sum_exp(dim=3)
    with pytest.raises(ValueError):
        reduce_problem(oracle, EqualityConstraints([[1.0, 0.0]], [1.0]))
    # a single feasible point leaves nothing to restrict, and nothing to optimize
    point = reduce_problem(sum_exp(dim=2), EqualityConstraints(np.eye(2), [0.0, 0.0]))
    assert point.free_dim == 0 and point.oracle is None
    for run in (newton_solve, sqp_iterate, lambda r: estimate_convergence_constants(r, [[]])):
        with pytest.raises(ValueError, match="the feasible set is a single point"):
            run(point)


def test_reduced_objective_refuses_an_oracle_of_the_wrong_dimension():
    # the full-space oracle in place of the restricted one fails here, not in numpy
    oracle = sum_exp(dim=3)
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0, 0.0]], [1.0]))
    assert reduced.oracle.dim == reduced.free_dim == 2
    with pytest.raises(ValueError, match="oracle dimension 3 != free_dim 2"):
        ReducedObjective(reduced.expr, oracle)


# ---------------------------------------------------------------------------
# the Newton step and the line search


def test_newton_decrement_against_direct_solve():
    reduced, rng = lse_reduced(2)
    g = rng.uniform(-1, 1, reduced.free_dim)
    _, step, dec_sq = nlp._newton_step(reduced.oracle, g, iteration=0)
    lam = math.sqrt(dec_sq)
    e = reduced.oracle.gradient(g)
    f = reduced.oracle.hessian(g)
    assert_allclose(step, np.linalg.solve(f, -e), rtol=1e-9, atol=1e-12)
    assert_allclose(lam, math.sqrt(e @ np.linalg.solve(f, e)), rtol=1e-9)


def test_newton_decrement_requires_convexity():
    oracle = ObjectiveOracle(
        2,
        value=lambda x: -float(x @ x),
        gradient=lambda x: -2 * x,
        hessian=lambda x: -2 * np.eye(2),
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0]], [0.0]))
    with pytest.raises(NonConvexError):
        nlp._newton_step(reduced.oracle, np.ones(1), iteration=0)


def test_line_search_matches_brute_force_scan():
    reduced, rng = lse_reduced(3)
    alpha, beta = 0.3, 0.7
    oracle, config = reduced.oracle, NewtonConfig(alpha=alpha, beta=beta)
    for _ in range(10):
        g = rng.uniform(-1, 1, reduced.free_dim)
        _, step, _ = nlp._newton_step(oracle, g, iteration=0)
        h0 = reduced.oracle.value(g)
        slope = float(reduced.oracle.gradient(g) @ step)
        t = nlp._armijo(oracle, g, step, h0, slope, config)[0]
        # smallest power of beta satisfying the decrease condition
        expected = 1.0
        while reduced.oracle.value(g + expected * step) > h0 + alpha * expected * slope:
            expected *= beta
        assert t == expected


def test_line_search_parameter_validation():
    # refused when the config is built, before any line search runs
    reduced, _ = lse_reduced(5)
    with pytest.raises(ValueError, match="alpha must lie in"):
        newton_solve(reduced, NewtonConfig(alpha=0.5))
    with pytest.raises(ValueError, match="beta must lie in"):
        newton_solve(reduced, NewtonConfig(beta=1.0))


def test_line_search_underflow_raises():
    # objective is finite at the starting point but nan at every trial
    # point, so no step length can ever pass the decrease test
    calls = {"n": 0}

    def value(x):
        calls["n"] += 1
        return 1.0 if calls["n"] == 1 else float("nan")

    oracle = ObjectiveOracle(
        2,
        value=value,
        gradient=lambda x: np.array([1.0, 1.0]),
        hessian=lambda x: np.eye(2),
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 0.0]], [0.0]))
    with pytest.raises(LineSearchError):
        newton_solve(reduced)


# ---------------------------------------------------------------------------
# newton_solve


def test_newton_quadratic_single_pure_step():
    for seed in range(5):
        reduced, problem = quadratic_reduced(seed)
        trace = newton_solve(reduced)
        assert trace.converged
        assert len(trace.iterations) == 1
        assert trace.iterations[0].step_size == 1.0
        assert trace.iterations[0].phase == "pure"
        assert np.max(np.abs(trace.final_x - solve_nullspace(problem).x)) < 1e-10


def test_newton_monotone_descent_and_termination():
    reduced, rng = lse_reduced(6)
    g0 = rng.uniform(-1.5, 1.5, reduced.free_dim)
    config = NewtonConfig(epsilon=1e-11, max_iter=100, g0=g0)
    trace = newton_solve(reduced, config)
    assert trace.converged
    hs = trace.h_values()
    assert all(hs[i + 1] <= hs[i] + 1e-12 for i in range(len(hs) - 1))
    assert trace.final_decrement_sq / 2 <= config.epsilon
    # iteration records carry the pre-step state
    assert trace.iterations[0].h_value == hs[0]
    assert trace.iterations[0].g.shape == (reduced.free_dim,)


def test_newton_max_iter_returns_unconverged_trace():
    reduced, rng = lse_reduced(7)
    g0 = rng.uniform(-1.5, 1.5, reduced.free_dim)
    trace = newton_solve(reduced, NewtonConfig(max_iter=1, g0=g0))
    assert not trace.converged
    assert len(trace.iterations) == 1
    assert np.isfinite(trace.final_h)


def test_newton_nonconvex_raises_with_iterate():
    oracle = ObjectiveOracle(
        3,
        value=lambda x: -float(x @ x),
        gradient=lambda x: -2 * x,
        hessian=lambda x: -2 * np.eye(3),
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0, 0.0]], [1.0]))
    with pytest.raises(NonConvexError) as info:
        newton_solve(reduced)
    assert info.value.iteration == 0
    assert info.value.g.shape == (2,) and not info.value.g.flags.writeable


def test_newton_config_validation():
    with pytest.raises(ValueError):
        NewtonConfig(alpha=0.5)
    with pytest.raises(ValueError):
        NewtonConfig(alpha=0.0)
    with pytest.raises(ValueError):
        NewtonConfig(beta=0.0)
    for epsilon in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            NewtonConfig(epsilon=epsilon)
    with pytest.raises(ValueError):
        NewtonConfig(max_iter=0)
    # real numbers, not bools (True was read as 1.0) nor strings (a bare TypeError)
    for setting, refusal in (
        ({"epsilon": True}, "epsilon must be finite and positive"),
        ({"epsilon": "1e-8"}, "epsilon must be finite and positive"),
        ({"alpha": "0.3"}, r"alpha must lie in \(0, 1/2\)"),
        ({"beta": np.True_}, r"beta must lie in \(0, 1\)"),
        # Python compares an int beyond the float64 range with inf exactly
        ({"epsilon": 10**400}, "epsilon must be finite and positive"),
    ):
        with pytest.raises(ValueError, match=refusal):
            NewtonConfig(**setting)
    # a wider float beyond the float64 range: float() made it inf silently
    # and NewtonConfig held epsilon 1e+400
    if np.finfo(np.longdouble).max > np.finfo(np.float64).max:
        for epsilon in (np.longdouble("1e400"), np.longdouble("-1e400")):
            with pytest.raises(ValueError, match="epsilon must be finite and positive"):
                NewtonConfig(epsilon=epsilon)
    assert NewtonConfig(alpha=np.float64(0.3), epsilon=1).epsilon == 1
    # a step count, not a float (2.5 would run 3 steps) nor a bool (True 1)
    for not_an_integer in (2.5, 3.0, True, np.True_):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            NewtonConfig(max_iter=not_an_integer)
    assert NewtonConfig(max_iter=np.int64(2)).max_iter == 2
    with pytest.raises(ValueError):
        newton_solve(lse_reduced(8)[0], NewtonConfig(g0=np.zeros(99)))


def test_no_public_nlp_callable_but_newton_config_takes_a_newton_setting():
    # every Newton setting enters through NewtonConfig, and only there
    settings = {"alpha", "beta", "epsilon", "tol_g", "max_iter", "g0"}
    own = [
        obj
        for name, obj in vars(nlp).items()
        if not name.startswith("_") and getattr(obj, "__module__", None) == nlp.__name__
    ]
    methods = [
        attr
        for cls in own
        if isinstance(cls, type)
        for name, attr in vars(cls).items()
        if not name.startswith("_") and callable(attr)
    ]
    assert nlp.sqp_iterate in own and nlp.ObjectiveOracle.restrict in methods
    for obj in own + methods:
        if obj is not NewtonConfig:
            taken = settings & set(inspect.signature(obj).parameters)
            assert not taken, (obj.__qualname__, taken)


# ---------------------------------------------------------------------------
# sqp_iterate


def test_sqp_quadratic_converges_in_one_step():
    reduced, problem = quadratic_reduced(21)
    trace = sqp_iterate(reduced)
    assert trace.converged
    assert len(trace.iterations) <= 2
    assert np.max(np.abs(trace.final_x - solve_nullspace(problem).x)) < 1e-9
    assert all(it.step_size == 1.0 for it in trace.iterations)


def test_sqp_divergence_detected():
    # h(g) = sqrt(1 + g^2) along the free direction: the pure Newton map is
    # g -> -g^3, which blows up from |g0| > 1
    oracle = ObjectiveOracle(
        2,
        value=lambda x: float(np.sum(np.sqrt(1 + x**2))),
        gradient=lambda x: x / np.sqrt(1 + x**2),
        hessian=lambda x: np.diag((1 + x**2) ** -1.5),
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 0.0]], [0.0]))
    with pytest.raises(DivergenceError) as info:
        sqp_iterate(reduced, NewtonConfig(g0=[1.5]))
    assert info.value.trace is not None
    assert len(info.value.trace.iterations) >= 3
    # the damped loop handles the same start
    damped = newton_solve(reduced, NewtonConfig(g0=np.array([1.5])))
    assert damped.converged
    assert np.max(np.abs(damped.final_x)) < 1e-4


def test_sqp_converges_near_solution_where_damped_not_needed():
    reduced, rng = lse_reduced(22)
    warm = newton_solve(reduced).final_g
    trace = sqp_iterate(reduced, NewtonConfig(g0=warm + 1e-3 * rng.uniform(-1, 1, warm.size)))
    assert trace.converged
    assert len(trace.iterations) <= 5


def test_sqp_validation():
    reduced, _ = lse_reduced(23)
    for tol_g in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite and positive"):
            sqp_iterate(reduced, NewtonConfig(epsilon=tol_g))
    with pytest.raises(ValueError):
        sqp_iterate(reduced, NewtonConfig(max_iter=0))
    with pytest.raises(ValueError, match="g0 has length 99"):
        sqp_iterate(reduced, NewtonConfig(g0=np.zeros(99)))


# ---------------------------------------------------------------------------
# certificates


def test_suboptimality_bound_formula():
    constants = ConvergenceConstants(m_strong=4.0, m_upper=5.0, lipschitz=1.0)
    assert suboptimality_bound(2.0, constants) == 0.5
    with pytest.raises(ValueError):
        suboptimality_bound(-1.0, constants)


def test_suboptimality_bound_dominates_quadratic_gap():
    rng = np.random.default_rng(31)
    for seed in range(10):
        reduced, problem = quadratic_reduced(seed, n=15, m=5)
        h_star = solve_nullspace(problem).objective
        oracle = reduced.oracle
        m_exact = float(np.linalg.eigvalsh(oracle.hessian(np.zeros(reduced.free_dim)))[0])
        constants = ConvergenceConstants(m_strong=m_exact, m_upper=m_exact * 1e6, lipschitz=1.0)
        for _ in range(20):
            g = rng.uniform(-3, 3, reduced.free_dim)
            gap = oracle.value(g) - h_star
            bound = suboptimality_bound(float(np.linalg.norm(oracle.gradient(g))), constants)
            assert gap <= bound + 1e-9 * (1 + abs(bound))


def test_iteration_bound_worked_example():
    # alpha=1/4, beta=1/2, m=M=K=1, initial gap 1:
    # eta = min(1, 3/2) * 1 = 1, gamma = 1/4 * 1/2 * 1 = 1/8, cap = 6 + 8 = 14
    constants = ConvergenceConstants(m_strong=1.0, m_upper=1.0, lipschitz=1.0)
    bound = iteration_bound(constants, NewtonConfig(alpha=0.25, beta=0.5), 1.0)
    assert bound.eta == 1.0
    assert bound.gamma == 0.125
    assert bound.d_max == 14.0
    assert bound.contraction == 0.5


def test_iteration_bound_zero_gap_gives_floor():
    constants = ConvergenceConstants(m_strong=1.0, m_upper=2.0, lipschitz=3.0)
    bound = iteration_bound(constants, NewtonConfig(), 0.0)
    assert bound.d_max == 6.0


def test_iteration_bound_monotone_in_gap_and_lipschitz():
    config = NewtonConfig()
    loose = iteration_bound(
        ConvergenceConstants(m_strong=1.0, m_upper=2.0, lipschitz=1.0), config, 1.0
    )
    tighter_l = iteration_bound(
        ConvergenceConstants(m_strong=1.0, m_upper=2.0, lipschitz=4.0), config, 1.0
    )
    bigger_gap = iteration_bound(
        ConvergenceConstants(m_strong=1.0, m_upper=2.0, lipschitz=1.0), config, 5.0
    )
    assert tighter_l.d_max > loose.d_max  # harder problem, larger cap
    assert bigger_gap.d_max > loose.d_max
    assert tighter_l.eta < loose.eta


def test_constants_validation():
    with pytest.raises(ValueError):
        ConvergenceConstants(m_strong=0.0, m_upper=1.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        ConvergenceConstants(m_strong=2.0, m_upper=1.0, lipschitz=1.0)
    with pytest.raises(ValueError):
        ConvergenceConstants(m_strong=1.0, m_upper=1.0, lipschitz=0.0)
    with pytest.raises(ValueError):
        iteration_bound(
            ConvergenceConstants(m_strong=1.0, m_upper=1.0, lipschitz=1.0),
            NewtonConfig(),
            -1.0,
        )
    # every constant must be finite: an infinite one used to reach
    # iteration_bound and raise a bare ZeroDivisionError there
    finite = dict(m_strong=1.0, m_upper=2.0, lipschitz=1.0)
    for name in finite:
        for bad in (math.inf, math.nan, 10**400):  # 10**400 < inf holds in Python
            with pytest.raises(ValueError, match=name):
                ConvergenceConstants(**{**finite, name: bad})
    # a bool is not a constant, and a string is not a number (True was read as 1.0)
    with pytest.raises(ValueError, match="m_strong must be a finite number, got True"):
        ConvergenceConstants(True, True, True)
    with pytest.raises(ValueError, match="lipschitz must be a finite number, got '1'"):
        ConvergenceConstants(1.0, 2.0, "1")
    # a NaN or infinite gap or gradient norm would return a NaN or infinite bound
    constants = ConvergenceConstants(**finite)
    for bad in (math.nan, math.inf, True, "1.0"):
        with pytest.raises(ValueError, match="h0_minus_hstar"):
            iteration_bound(constants, NewtonConfig(), bad)
        with pytest.raises(ValueError, match="grad_norm"):
            suboptimality_bound(bad, constants)


def test_iteration_bound_refuses_constants_that_leave_float_range():
    # finite constants whose certificate underflows (eta, gamma = 0) or
    # overflows (m^2 = inf) used to end in a bare ZeroDivisionError at d_max
    for constants in (
        ConvergenceConstants(m_strong=1e-200, m_upper=1.0, lipschitz=1.0),
        ConvergenceConstants(1e200, 1e200, lipschitz=1.0),
    ):
        with pytest.raises(ValueError, match="m_strong, m_upper and lipschitz"):
            iteration_bound(constants, NewtonConfig(), 1.0)
    # a finite gradient norm whose square overflows used to raise a bare OverflowError
    with pytest.raises(ValueError, match="suboptimality bound"):
        suboptimality_bound(1e200, ConvergenceConstants(1.0, 1.0, 1.0))


def test_estimated_constants_on_quadratic_match_spectrum():
    reduced, _ = quadratic_reduced(33)
    b = reduced.oracle.hessian(np.zeros(reduced.free_dim))
    w = np.linalg.eigvalsh(b)
    rng = np.random.default_rng(34)
    samples = [rng.uniform(-1, 1, reduced.free_dim) for _ in range(5)]
    constants = estimate_convergence_constants(reduced, samples)
    assert_allclose(constants.m_strong, w[0], rtol=1e-9)
    assert_allclose(constants.m_upper, w[-1], rtol=1e-9)
    assert constants.lipschitz <= 1e-8  # constant Hessian


def test_estimated_lipschitz_is_the_reduced_difference_quotient():
    # sum_exp on x1 + x2 = c: N = +-(1, -1)/sqrt(2) and x0 = (c/2, c/2), so
    # h(g) = 2 e^(c/2) cosh(g/sqrt(2)) and F(g) = e^(c/2) cosh(g/sqrt(2))
    c, g1, g2 = 0.6, -0.5, 1.5
    reduced = reduce_problem(sum_exp(dim=2), EqualityConstraints([[1.0, 1.0]], [c]))
    hess = lambda g: math.exp(c / 2) * math.cosh(g / math.sqrt(2))
    constants = estimate_convergence_constants(reduced, [np.array([g1]), np.array([g2])])
    assert_allclose(constants.lipschitz, (hess(g2) - hess(g1)) / (g2 - g1), rtol=1e-12)
    # a repeated sample is no pair to divide by; no sample is an error
    repeated = [np.array([g1]), np.array([g2]), np.array([g1])]
    assert estimate_convergence_constants(reduced, repeated) == constants
    with pytest.raises(ValueError, match="at least one sample point"):
        estimate_convergence_constants(reduced, [])
    # each sample is checked once, under its own name and with its length
    with pytest.raises(ValueError, match="point has length 2, expected 1"):
        estimate_convergence_constants(reduced, [np.zeros(1), np.zeros(2)])
    assert_allclose(constants.m_strong, hess(g1), rtol=1e-12)
    assert_allclose(constants.m_upper, hess(g2), rtol=1e-12)
    # tighter than the full-space quotient of diag(e^x1, e^x2) at the same
    # points (||x2 - x1|| = |g2 - g1|), which the estimate used to return
    full = max(
        abs(math.exp(c / 2 + s * g2 / math.sqrt(2)) - math.exp(c / 2 + s * g1 / math.sqrt(2)))
        for s in (1.0, -1.0)
    ) / (g2 - g1)
    assert constants.lipschitz < full / 3.0


def test_termination_implies_true_gap_for_quadratics():
    rng = np.random.default_rng(35)
    for seed in range(10):
        reduced, problem = quadratic_reduced(seed, n=10, m=3)
        epsilon = 10.0 ** rng.uniform(-12, -6)
        trace = newton_solve(reduced, NewtonConfig(epsilon=epsilon))
        assert trace.converged
        gap = trace.final_h - solve_nullspace(problem).objective
        assert gap <= epsilon + 1e-12


def reference_damped_newton(reduced, config):
    """Damped Newton that evaluates h afresh at every iterate.

    Same arithmetic as newton_solve; returns the (g, h, t) of each step
    and the final (g, h).
    """
    oracle, g = reduced.oracle, np.zeros(reduced.free_dim)
    steps = []
    while True:
        e = oracle.gradient(g)
        step = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(oracle.hessian(g), lower=True), e)
        dec_sq = max(float(-(e @ step)), 0.0)
        h = oracle.value(g)
        if dec_sq / 2.0 <= config.epsilon:
            return steps, (g, h)
        t = 1.0
        while not oracle.value(g + t * step) <= h + config.alpha * t * -dec_sq:
            t *= config.beta
        steps.append((g, h, t))
        g = g + t * step


def test_newton_reuses_the_accepted_line_search_value():
    rng = np.random.default_rng(1)
    lse = log_sum_exp(20.0 * rng.uniform(-1, 1, (120, 30)))
    cons = EqualityConstraints(rng.uniform(-1, 1, (10, 30)), rng.uniform(-0.3, 0.3, 10))
    calls = []

    def value(x):
        calls.append(1)
        return lse.value(x)

    reduced = reduce_problem(ObjectiveOracle(30, value, lse.gradient, lse.hessian), cons)
    config = NewtonConfig()
    trace = newton_solve(reduced, config)
    assert trace.converged and len(trace.iterations) == 6
    trials = sum(round(math.log2(1.0 / it.step_size)) + 1 for it in trace.iterations)
    assert len(calls) == 1 + trials == 12  # the start, then line-search trials only

    calls.clear()
    steps, (g_final, h_final) = reference_damped_newton(reduced, config)
    assert len(calls) == 18  # 7 iterates + 11 trials
    assert len(steps) == len(trace.iterations)
    for it, (g, h, t) in zip(trace.iterations, steps):
        assert np.array_equal(it.g, g)
        assert it.h_value == h
        assert it.step_size == t
    assert np.array_equal(trace.final_g, g_final)
    assert trace.final_h == h_final


def reference_pure_newton(reduced, tol_g, max_iter):
    """Full-step Newton that evaluates h afresh at every iterate.

    Same arithmetic and stop rule as sqp_iterate: stop at an iterate whose
    gradient norm is below tol_g or that a step shorter than tol_g reached.
    Returns the (g, h, t) of each step, the final (g, h) and whether it
    stopped by that rule rather than by max_iter.
    """
    oracle, g = reduced.oracle, np.zeros(reduced.free_dim)
    steps = []
    arrived = False
    while True:
        e = oracle.gradient(g)
        step = -scipy.linalg.cho_solve(scipy.linalg.cho_factor(oracle.hessian(g), lower=True), e)
        h = oracle.value(g)
        if arrived or float(np.linalg.norm(e)) < tol_g:
            return steps, (g, h), True
        if len(steps) >= max_iter:
            return steps, (g, h), False
        steps.append((g, h, 1.0))
        arrived = float(np.linalg.norm(step)) < tol_g
        g = g + step


def test_sqp_matches_a_reference_pure_newton_loop():
    rng = np.random.default_rng(27)
    steep = reduce_problem(
        log_sum_exp(3.0 * rng.uniform(-1, 1, (40, 10))),
        EqualityConstraints(rng.uniform(-1, 1, (3, 10)), rng.uniform(-0.3, 0.3, 3)),
    )
    base = generate(GeneratorSpec(n=12, m=4, seed=0))
    stiff = reduce_problem(  # entries of c, A and b scaled by 1e4, of Q by 1e8
        quadratic(1e8 * base.q, 1e4 * base.c),
        EqualityConstraints(1e4 * base.constraints.a, 1e4 * base.constraints.b),
    )
    cases = [
        (lse_reduced(22)[0], 1e-10, 100),
        (lse_reduced(22)[0], 1e-4, 100),
        (lse_reduced(22)[0], 1e-10, 3),  # stopped by max_iter
        (steep, 1e-10, 100),  # Armijo would shorten one of its full steps
        # stopped by a step shorter than tol_g, the gradient still above it
        (stiff, 1e-10, 100),
    ]
    for reduced, tol_g, max_iter in cases:
        trace = sqp_iterate(reduced, NewtonConfig(epsilon=tol_g, max_iter=max_iter))
        steps, (g_final, h_final), converged = reference_pure_newton(reduced, tol_g, max_iter)
        assert trace.converged == converged
        assert len(steps) == len(trace.iterations) >= 2
        for it, (g, h, t) in zip(trace.iterations, steps):
            assert np.array_equal(it.g, g)
            assert it.h_value == h
            assert it.step_size == t
            assert it.phase == "pure"
        assert np.array_equal(trace.final_g, g_final)
        assert trace.final_h == h_final
    # converged with the gradient above tol_g: only the short step stopped it
    assert trace.converged and trace.final_grad_norm > 1e-10 and reduced is stiff


def test_nan_hessian_is_a_computation_error():
    oracle = ObjectiveOracle(
        3,
        lambda x: float(x @ x),
        lambda x: 2.0 * x,
        lambda x: np.full((3, 3), np.nan),
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0, 1.0]], [1.0]))
    for run in (newton_solve, sqp_iterate):
        with pytest.raises(ComputationError, match="iteration 0"):
            run(reduced)
    # sampling the constants names the sample; exp(1000) overflows at x0 = (1000, 1000, 1000)
    overflowing = reduce_problem(sum_exp(dim=3), EqualityConstraints([[1.0, 1.0, 1.0]], [3000.0]))
    for red in (reduced, overflowing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # refused by the check, without a numpy warning
            with pytest.raises(ComputationError, match="sample 0"):
                estimate_convergence_constants(red, [np.zeros(2)])


def test_the_newton_loop_checks_no_iterate_it_computed(monkeypatch):
    # only a g from outside is checked; the loop's own iterates go to the
    # restricted oracle as they are
    checked = []
    real = nlp.as_vector

    def counted(v, *args):
        checked.append(args)
        return real(v, *args)

    monkeypatch.setattr(nlp, "as_vector", counted)
    reduced = lse_reduced(24)[0]
    for run in (newton_solve, sqp_iterate):
        trace = run(reduced)
        assert trace.converged and len(trace.iterations) >= 2
    assert checked == []
    # g0 is checked once, when the config is built; the loop checks only its length
    newton_solve(reduced, NewtonConfig(g0=np.zeros(reduced.free_dim)))
    assert checked == [("g0",)]


def test_a_qp_solve_checks_no_input_again(input_checks):
    # QpProblem and EqualityConstraints checked Q, c, A and b when they were
    # built, and a solve does not check its own x, which it found finite,
    # again for the objective and residual
    problem = generate(GeneratorSpec(n=12, m=4, seed=25))
    for solve in (solve_projector, solve_nullspace, solve_kkt):
        input_checks.clear()
        solve(problem)
        assert input_checks == [], solve.__name__


def test_a_newton_step_that_overflows_is_a_computation_error():
    # h(g) = 1e-320 g^2 / 2 + g: every value is finite, the step -1e320 is not
    oracle = quadratic(np.diag([1e-320, 1e-320]), [1.0, 0.0])
    reduced = reduce_problem(oracle, EqualityConstraints([[0.0, 1.0]], [0.0]))
    for run in (newton_solve, sqp_iterate):
        with pytest.raises(ComputationError, match="Newton step overflows .* iteration 0"):
            run(reduced)


@pytest.mark.parametrize("hessian", ["analytic", "differenced"])
def test_a_hessian_near_the_float_maximum_keeps_its_reduction_finite(hessian):
    # f = 0.75e308 |x|^2 + 1e150 x1 on x1 + x2 = 0: the reduced Hessian is
    # 1.5e308, finite when symmetrized by halving first, not by 0.5 (F + F^T)
    c = np.array([1e150, 0.0])
    oracle = ObjectiveOracle(
        2,
        lambda x: float((0.75e308 * x) @ x + c @ x),
        lambda x: 1.5e308 * x + c,
        (lambda x: np.diag([1.5e308, 1.5e308])) if hessian == "analytic" else None,
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0]], [0.0]))
    assert_allclose(reduced.oracle.hessian(np.zeros(1)), [[1.5e308]], rtol=1e-9)
    trace = newton_solve(reduced)
    assert trace.converged
    t = 1e150 / 1.5e308 / 2.0
    assert_allclose(trace.final_x, [-t, t], rtol=1e-12)


def test_sampled_constants_refuse_an_indefinite_reduced_hessian():
    oracle = quadratic(np.diag([1.0, -1.0, 2.0]))
    reduced = reduce_problem(oracle, EqualityConstraints([[0.0, 0.0, 1.0]], [1.0]))
    with pytest.raises(NonConvexError, match="not uniformly positive definite"):
        estimate_convergence_constants(reduced, [np.zeros(2)])


def test_start_outside_the_barrier_domain_is_refused():
    # the minimum-norm point of x1 + x2 = 2 is (1, 1), which violates x1 < 0.5
    oracle = neg_log_barrier_quadratic(np.eye(2), barrier_a=[[1.0, 0.0]], barrier_b=[0.5])
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0]], [2.0]))
    for run in (newton_solve, sqp_iterate):
        with pytest.raises(InfeasibleStartError, match="start point"):
            run(reduced)
    # a start strictly inside the domain solves
    g0 = reduced.expr.basis.T @ (np.array([0.0, 2.0]) - reduced.expr.x0)  # x = (0, 2)
    assert abs(reduced.expr.embed(g0)[0]) < 1e-12
    trace = newton_solve(reduced, NewtonConfig(g0=g0))
    assert trace.converged and trace.final_x[0] < 0.5


def test_a_start_value_that_overflows_is_a_computation_error():
    # x0 = (0, 1e300, 0): Q x0 overflows, and with it the constant
    # 1/2 x0^T Q x0 + c^T x0 that the pull-back forms
    oracle = quadratic(1e300 * np.eye(3), np.full(3, 1e300))
    with pytest.raises(ComputationError, match="quadratic part overflows float range at x0"):
        reduce_problem(oracle, EqualityConstraints([[1e-300, 1.0, 0.0]], [1e300]))
    overflowing = [
        # the constant is 0, but N^T (Q x0 + c) = inf and h(0) = inf * 0
        reduce_problem(
            quadratic([[0.0, 1.7e308], [1.7e308, 0.0]], [0.0, 1.7e308]),
            EqualityConstraints([[1.0, 0.0]], [1.0]),
        ),
        # sum_exp has no domain; at the start (400, 400), exp(3 * 400) overflows
        reduce_problem(sum_exp(rates=[1.0, 3.0]), EqualityConstraints([[1.0, 1.0]], [800.0])),
    ]
    for reduced in overflowing:
        for run in (newton_solve, sqp_iterate):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ComputationError, match="overflows float range at the start"):
                    run(reduced)
    # -inf is an overflow too; only +inf means outside the domain
    unbounded = ObjectiveOracle(
        3, lambda x: -math.inf, lambda x: 2.0 * x, lambda x: 2.0 * np.eye(3)
    )
    reduced = reduce_problem(unbounded, EqualityConstraints([[1.0, 1.0, 1.0]], [1.0]))
    for run in (newton_solve, sqp_iterate):
        with pytest.raises(ComputationError, match="-inf at the start point"):
            run(reduced)


def test_sqp_step_out_of_the_barrier_domain_is_divergence():
    # from x = (0, 0) on x1 + x2 = 0 the full Newton step of the mu = 1e-3
    # barrier lands beyond x1 < 1, where the barrier is infinite
    oracle = neg_log_barrier_quadratic(
        np.eye(2), c=[-10.0, 0.0], barrier_a=[[1.0, 0.0]], barrier_b=[1.0], mu=1e-3
    )
    reduced = reduce_problem(oracle, EqualityConstraints([[1.0, 1.0]], [0.0]))
    with pytest.raises(DivergenceError, match="domain") as info:
        sqp_iterate(reduced)
    trace = info.value.trace
    assert math.isfinite(trace.final_h) and trace.final_x[0] < 1.0
    assert trace.h_values() == [it.h_value for it in trace.iterations] + [trace.final_h]
    # the damped loop stays inside and converges
    damped = newton_solve(reduced)
    assert damped.converged and damped.final_x[0] < 1.0


def newton_shaped_inputs(seed, n=30, m=8):
    """Constraints and the three registry objectives of one Newton instance.

    Row 0 of A fixes sum(x), which bounds sum_exp; the log-sum-exp rows
    come in +/- pairs; the barrier rows leave the start g = 0 inside. The
    steep log-sum-exp makes damped Newton backtrack in its first steps.
    """
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, (m, n))
    a[0] = 1.0
    b = rng.uniform(-1, 1, m)
    cons = EqualityConstraints(a, b)
    half = rng.uniform(-1, 1, (2 * n, n))
    r = rng.uniform(-1, 1, (n, n))
    barrier_a = rng.uniform(-1, 1, (2 * n, n))
    x_start = np.linalg.lstsq(a, b, rcond=None)[0]
    objectives = {
        "log_sum_exp": log_sum_exp(np.vstack([half, -half])),
        "steep_log_sum_exp": log_sum_exp(10.0 * np.vstack([half, -half])),
        "sum_exp": sum_exp(rates=rng.uniform(0.5, 1.5, n)),
        "barrier": neg_log_barrier_quadratic(
            r.T @ r / n + np.eye(n),
            rng.uniform(-1, 1, n),
            barrier_a,
            barrier_a @ x_start + rng.uniform(0.5, 1.5, 2 * n),
        ),
    }
    return cons, objectives


def test_pulled_back_newton_traces_match_the_chain_rule_path():
    runs = {
        "log_sum_exp": [newton_solve],
        "steep_log_sum_exp": [newton_solve],
        "sum_exp": [newton_solve, sqp_iterate],
        "barrier": [newton_solve],
    }
    for seed in range(3):
        cons, objectives = newton_shaped_inputs(seed)
        for name, oracle in objectives.items():
            for run in runs[name]:
                fast = run(reduce_problem(oracle, cons))
                slow = run(reduce_problem(chain_rule_oracle(oracle), cons))
                label = (seed, name, run.__name__)
                assert fast.converged and slow.converged, label
                assert len(fast.iterations) == len(slow.iterations) >= 2, label
                assert [it.step_size for it in fast.iterations] == [
                    it.step_size for it in slow.iterations
                ], label
                fast_g = [it.g for it in fast.iterations] + [fast.final_g]
                slow_g = [it.g for it in slow.iterations] + [slow.final_g]
                for g, ref in zip(fast_g, slow_g):
                    assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref))), label
                assert abs(fast.final_h - slow.final_h) <= 1e-12 * max(1.0, abs(slow.final_h)), label
                if name == "steep_log_sum_exp":
                    assert fast.iterations[0].step_size < 1.0, label


def trace_bits(trace):
    """Every number a trace records, one bytes string per iterate and one
    for the end: equal lists are equal bit for bit."""
    rows = [
        (it.g, it.x, it.h_value, it.grad_norm, it.decrement_sq, it.step_size)
        for it in trace.iterations
    ]
    rows.append((
        trace.final_g, trace.final_x, trace.final_h, trace.final_grad_norm,
        trace.final_decrement_sq, float(trace.converged),
    ))
    return [b"".join(np.asarray(v, dtype=np.float64).tobytes() for v in row) for row in rows]


def test_newton_traces_are_those_of_the_two_separate_callbacks():
    # derivatives forms z, phi'(z) and C^T phi'(z) once for the gradient and
    # the Hessian; whole runs must take the steps, bit for bit, of runs that
    # evaluate every iterate through the two callbacks, failures included
    def outcome(run, reduced):
        try:
            trace = run(reduced)
        except DivergenceError as exc:
            return "DivergenceError", str(exc), trace_bits(exc.trace)
        except NonConvexError as exc:
            return "NonConvexError", str(exc), exc.g.tobytes()
        assert len(trace.iterations) >= 1
        return "returned", trace_bits(trace)

    kinds = []
    for seed in range(3):
        cons, objectives = newton_shaped_inputs(seed)
        n = cons.n
        rng = np.random.default_rng([seed, 36])
        objectives["shifted_log_sum_exp"] = log_sum_exp(
            3.0 * rng.uniform(-1, 1, (4 * n, n)), rng.uniform(-2, 2, 4 * n)
        )
        r = rng.uniform(-1, 1, (n, n))
        objectives["quadratic"] = quadratic(r.T @ r / n + np.eye(n), rng.uniform(-1, 1, n))
        for name, oracle in objectives.items():
            for run in (newton_solve, sqp_iterate):
                separate = reduce_problem(oracle, cons)
                callbacks = separate.oracle
                callbacks.derivatives = lambda g, f=callbacks: (f.gradient(g), f.hessian(g))
                shared = outcome(run, reduce_problem(oracle, cons))
                assert shared == outcome(run, separate), (seed, name, run.__name__)
                kinds.append(shared[0])
    assert kinds.count("returned") >= 30 and len(kinds) == 36


def test_the_loop_norm_is_numpys_norm_bit_for_bit_where_that_is_finite():
    rng = np.random.default_rng(36)
    subnormal = np.finfo(np.float64).smallest_normal / 4.0
    for length in (0, 1, 70, 400):
        base = rng.uniform(-1, 1, length)
        mixed = base.copy()
        mixed[::3] *= 1e150
        mixed[1::3] *= subnormal
        for v in (base, 1e150 * base, subnormal * base, 1e-3 * base, mixed):
            assert math.isfinite(float(np.linalg.norm(v)))
            assert nlp._norm(v).hex() == float(np.linalg.norm(v)).hex(), length
    # where the sum of squares overflows, the rescued norm is finite
    with np.errstate(over="ignore"):  # the Newton loop's error state
        assert np.linalg.norm(np.array([1e200, 1e200])) == math.inf
        rescued = nlp._norm(np.array([1e200, 1e200]))
        spread = nlp._norm(np.array([1e300, -3e299, 1e-300, 0.0]))
        beyond = nlp._norm(np.array([1.7e308, 1.7e308]))
    assert math.isclose(rescued, math.sqrt(2.0) * 1e200, rel_tol=4e-16)
    assert math.isclose(spread, math.hypot(1e300, 3e299), rel_tol=4e-16)
    assert beyond == math.inf  # beyond float range


def test_a_newton_step_factorizes_once_and_never_forms_the_full_hessian(factorizations):
    cons, objectives = newton_shaped_inputs(3)
    del objectives["steep_log_sum_exp"]  # log_sum_exp again, too steep for pure Newton
    objectives["quadratic"] = quadratic(np.eye(30), np.linspace(-1.0, 1.0, 30))

    def refuse(x):
        raise AssertionError("the full-space Hessian was formed")

    def separately(g):
        raise AssertionError("an iterate was evaluated twice, not through derivatives")

    for name, oracle in objectives.items():
        oracle.hessian = refuse
        for run in (newton_solve, sqp_iterate):
            reduced = reduce_problem(oracle, cons)
            reduced.oracle.gradient = reduced.oracle.hessian = separately
            factorizations.clear()
            trace = run(reduced)
            assert trace.converged, (name, run.__name__)
            assert factorizations == ["scipy.linalg.lapack.dpotrf"] * (len(trace.iterations) + 1)


def test_estimated_constants_stay_in_the_reduced_space(factorizations):
    cons, objectives = newton_shaped_inputs(4)
    objectives["quadratic"] = quadratic(np.eye(30), np.linspace(-1.0, 1.0, 30))

    def refuse(*args):
        raise AssertionError("the estimate left the reduced space")

    rng = np.random.default_rng(37)
    for name, oracle in objectives.items():
        oracle.hessian = refuse
        reduced = reduce_problem(oracle, cons)
        # the restricted oracle is built; the basis it was built from is not
        # read again (poisoned past the frozen expression)
        object.__setattr__(reduced.expr, "basis", np.full_like(reduced.expr.basis, np.nan))
        formed = []
        restricted_hessian = reduced.oracle.hessian

        def counted(g, _hessian=restricted_hessian, _formed=formed):
            out = _hessian(g)
            _formed.append(out.shape)
            return out

        reduced.oracle.hessian = counted
        samples = [0.01 * rng.uniform(-1, 1, reduced.free_dim) for _ in range(4)]
        factorizations.clear()
        constants = estimate_convergence_constants(reduced, samples)
        k = reduced.free_dim
        assert formed == [(k, k)] * len(samples), name
        assert factorizations == ["numpy.linalg.eigvalsh"] * len(samples), name
        assert constants.lipschitz > 0.0, name


def test_custom_oracles_take_the_default_derivatives_path():
    # without a pull-back, derivatives calls the gradient and then the
    # Hessian, and each Newton iterate evaluates the oracle once
    rng = np.random.default_rng(39)
    n, m = 8, 3
    lse = log_sum_exp(rng.uniform(-1, 1, (3 * n, n)))
    cons = EqualityConstraints(rng.uniform(-1, 1, (m, n)), rng.uniform(-0.3, 0.3, m))
    calls = []

    def counted(name, fn):
        def call(x):
            calls.append(name)
            return fn(x)

        return call

    gradient = counted("gradient", lse.gradient)
    for hessian, per_point in (
        (counted("hessian", lse.hessian), ["gradient", "hessian"]),  # chain rule
        (None, ["gradient"] * (2 * (n - m) + 1)),  # differenced in the free coordinates
    ):
        reduced = reduce_problem(ObjectiveOracle(n, lse.value, gradient, hessian), cons)
        g = 0.1 * rng.uniform(-1, 1, reduced.free_dim)
        calls.clear()
        grad, hess = reduced.oracle.derivatives(g)
        assert calls == per_point
        assert np.array_equal(grad, reduced.oracle.gradient(g))
        assert np.array_equal(hess, reduced.oracle.hessian(g))
        calls.clear()
        trace = newton_solve(reduced)
        assert trace.converged
        assert calls == per_point * (len(trace.iterations) + 1)


def test_a_hessian_free_oracle_is_differenced_in_the_free_coordinates():
    # a custom oracle without a Hessian: each Newton step makes one gradient
    # call plus 2k for the differenced k x k reduced Hessian, not 2n
    rng = np.random.default_rng(36)
    n, m = 100, 30
    lse = log_sum_exp(rng.uniform(-1, 1, (4 * n, n)))
    calls = []

    def gradient(x):
        calls.append(x.shape)
        return lse.gradient(x)

    cons = EqualityConstraints(rng.uniform(-1, 1, (m, n)), rng.uniform(-0.3, 0.3, m))
    reduced = reduce_problem(ObjectiveOracle(n, lse.value, gradient), cons)
    k = reduced.free_dim
    trace = newton_solve(reduced)
    assert trace.converged and k == n - m
    assert len(calls) == (len(trace.iterations) + 1) * (2 * k + 1)
    # the analytic pull-back takes the same steps to the same minimum
    exact = newton_solve(reduce_problem(lse, cons))
    assert len(trace.iterations) == len(exact.iterations)
    assert abs(trace.final_h - exact.final_h) <= 1e-9 * max(1.0, abs(exact.final_h))
