"""Acceptance gate: ten end-to-end checks at pinned tolerances.

Each test prints a ``PASS criterion k`` line on success (run with
``pytest tests/test_acceptance.py -v -s`` to see them); a failing
criterion shows up as an ordinary pytest failure. All randomness is
seeded, so the gate is deterministic.
"""

import json
import time

import numpy as np

from helpers import fd_gradient, fd_hessian

from eqopt import cli, objectives
from eqopt.expressions import EqualityConstraints, build_projector
from eqopt.nlp import (
    NewtonConfig,
    estimate_convergence_constants,
    iteration_bound,
    newton_solve,
    reduce_problem,
    suboptimality_bound,
)
from eqopt.objectives import objective_names, objective_registry
from eqopt.problems import GeneratorSpec, generate
from eqopt.selfcheck import _random_lse_instance, _random_sum_exp_instance, _rel_gap
from eqopt.qp import solve_kkt, solve_nullspace, solve_projector

ALL_QP_SOLVERS = (solve_projector, solve_nullspace, solve_kkt)


def test_criterion_01_feasibility_1000_random_qps():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(2, 201))
        m = int(rng.integers(1, n))
        q_class = "spd" if trial % 2 == 0 else "symmetric_indefinite"
        problem = generate(
            GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)), q_class=q_class)
        )
        allowed = 1e-9 * (1.0 + float(np.max(np.abs(problem.constraints.b))))
        for solver in ALL_QP_SOLVERS:
            sol = solver(problem)
            assert sol.constraint_residual <= allowed, (
                f"trial {trial} ({q_class}, n={n}, m={m}): {sol.method} residual "
                f"{sol.constraint_residual:.3e} > {allowed:.3e}"
            )
            worst = max(worst, sol.constraint_residual / allowed)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f} s, budget is 60 s"
    print(
        f"PASS criterion 1: 1000 QPs x 3 methods feasible "
        f"(worst residual {worst:.2e} of allowance, {elapsed:.1f} s)"
    )


def test_criterion_02_method_equivalence_500_spd():
    rng = np.random.default_rng(1002)
    worst_x, worst_f = 0.0, 0.0
    for trial in range(500):
        n = int(rng.integers(2, 81))
        m = int(rng.integers(1, n))
        problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        sols = [solver(problem) for solver in ALL_QP_SOLVERS]
        for i in range(3):
            for j in range(i + 1, 3):
                x_gap = _rel_gap(sols[i].x, sols[j].x)
                f_gap = abs(sols[i].objective - sols[j].objective) / (
                    1.0 + abs(sols[j].objective)
                )
                assert x_gap <= 1e-8, (
                    f"trial {trial}: {sols[i].method} vs {sols[j].method} "
                    f"x gap {x_gap:.3e}"
                )
                assert f_gap <= 1e-10, (
                    f"trial {trial}: {sols[i].method} vs {sols[j].method} "
                    f"objective gap {f_gap:.3e}"
                )
                worst_x, worst_f = max(worst_x, x_gap), max(worst_f, f_gap)
    print(
        f"PASS criterion 2: 500 SPD instances, three methods agree "
        f"(worst x gap {worst_x:.2e}, objective gap {worst_f:.2e})"
    )


def test_criterion_03_duplicated_rows_leave_solution_unchanged():
    rng = np.random.default_rng(1003)
    for trial in range(40):
        n = int(rng.integers(3, 41))
        m = int(rng.integers(1, min(n - 1, 12) + 1))
        seed = int(rng.integers(2**63))
        base = generate(GeneratorSpec(n=n, m=m, seed=seed))
        refs = {
            "projector": solve_projector(base).x,
            "nullspace": solve_nullspace(base).x,
        }
        for k in (1, 2, 4):
            padded = generate(GeneratorSpec(n=n, m=m, seed=seed, rank_deficiency=k))
            for name, solver in (
                ("projector", solve_projector),
                ("nullspace", solve_nullspace),
            ):
                gap = float(np.max(np.abs(solver(padded).x - refs[name])))
                allowed = 1e-9 * (1.0 + float(np.max(np.abs(refs[name]))))
                assert gap <= allowed, (
                    f"trial {trial}, k={k}, {name}: gap {gap:.3e} > {allowed:.3e}"
                )
    print("PASS criterion 3: k in {1,2,4} duplicated rows, solutions unchanged")


def test_criterion_04_projector_algebra_200_matrices():
    rng = np.random.default_rng(1004)
    for trial in range(200):
        n = int(rng.integers(2, 61))
        m = int(rng.integers(1, n))
        a = rng.uniform(-1, 1, (m, n))
        b = rng.uniform(-1, 1, m)
        expr = build_projector(EqualityConstraints(a, b))
        ad = float(np.max(np.abs(a @ expr.basis)))
        idem = float(np.max(np.abs(expr.basis @ expr.basis - expr.basis)))
        a_scale = float(np.max(np.abs(a)))
        assert ad <= 1e-10 * a_scale, f"trial {trial}: |AD| {ad:.3e}"
        assert idem <= 1e-10, f"trial {trial}: |D^2 - D| {idem:.3e}"
    print("PASS criterion 4: 200 projectors annihilated by A and idempotent")


def test_criterion_05_newton_single_full_step_on_quadratics():
    rng = np.random.default_rng(1005)
    for trial in range(100):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, n))
        problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        reduced = reduce_problem(
            objectives.quadratic(problem.q, problem.c), problem.constraints
        )
        trace = newton_solve(reduced)
        assert trace.converged
        assert len(trace.iterations) == 1, (
            f"trial {trial}: {len(trace.iterations)} iterations"
        )
        step = trace.iterations[0]
        assert step.step_size == 1.0 and step.phase == "pure"
        ref = solve_nullspace(problem).x
        gap = float(np.max(np.abs(trace.final_x - ref)))
        allowed = 1e-10 * (1.0 + float(np.max(np.abs(ref))))
        assert gap <= allowed, f"trial {trial}: gap {gap:.3e} > {allowed:.3e}"
    print("PASS criterion 5: quadratics solved in one full Newton step")


def test_criterion_06_quadratic_convergence_with_sampled_constants():
    rng = np.random.default_rng(1006)
    damped_seen = 0
    for trial in range(50):
        n = int(rng.integers(4, 31))
        m = int(rng.integers(1, min(n - 1, 10) + 1))
        family = _random_lse_instance if trial % 2 == 0 else _random_sum_exp_instance
        oracle, constraints = family(rng, n, m)
        reduced = reduce_problem(oracle, constraints)
        config = NewtonConfig(max_iter=200, g0=rng.uniform(-1.5, 1.5, reduced.free_dim))
        trace = newton_solve(reduced, config)
        assert trace.converged and trace.iterations, f"trial {trial} did not converge"
        damped_seen += any(it.phase == "damped" for it in trace.iterations)

        samples = [it.g for it in trace.iterations] + [trace.final_g]
        constants = estimate_convergence_constants(reduced, samples)
        bound = iteration_bound(
            constants, config, trace.iterations[0].h_value - trace.final_h
        )
        assert len(trace.iterations) <= bound.d_max, (
            f"trial {trial}: {len(trace.iterations)} iterations > "
            f"bound {bound.d_max:.2f}"
        )
        cs = [bound.contraction * v for v in trace.grad_norms()[-3:]]
        for i in range(len(cs) - 1):
            assert cs[i + 1] <= 2.0 * cs[i] ** 2, (
                f"trial {trial}: tail {cs} breaks c_next <= 2 c^2 at {i}"
            )
    assert damped_seen > 0, "instance family never exercised the damped phase"
    print(
        f"PASS criterion 6: 50 seeds, quadratic tail contraction and iteration "
        f"bound hold ({damped_seen} runs entered the damped phase)"
    )


def test_criterion_07_suboptimality_bound_dominates_gap():
    rng = np.random.default_rng(1007)
    for trial in range(5):
        n = int(rng.integers(2, 41))
        m = int(rng.integers(1, n))
        problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        reduced = reduce_problem(
            objectives.quadratic(problem.q, problem.c), problem.constraints
        )
        # the reduced Hessian of a quadratic is constant, so sampling one
        # point gives the exact strong-convexity constant
        constants = estimate_convergence_constants(
            reduced, [np.zeros(reduced.free_dim)]
        )
        w = np.linalg.eigvalsh(reduced.oracle.hessian(np.zeros(reduced.free_dim)))
        assert abs(constants.m_strong - float(w[0])) <= 1e-12 * abs(float(w[0]))
        h_star = solve_nullspace(problem).objective
        for _ in range(100):
            g = rng.uniform(-3, 3, reduced.free_dim)
            gap = reduced.oracle.value(g) - h_star
            bound = suboptimality_bound(
                float(np.linalg.norm(reduced.oracle.gradient(g))), constants
            )
            assert gap <= bound + 1e-9 * (1.0 + abs(bound)), (
                f"trial {trial}: gap {gap:.6e} exceeds bound {bound:.6e}"
            )
    print("PASS criterion 7: gradient certificate dominates true gap at 500 points")


def test_criterion_08_termination_implies_gap_within_epsilon():
    rng = np.random.default_rng(1008)
    for trial in range(50):
        n = int(rng.integers(2, 31))
        m = int(rng.integers(1, n))
        problem = generate(GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63))))
        reduced = reduce_problem(
            objectives.quadratic(problem.q, problem.c), problem.constraints
        )
        epsilon = float(10.0 ** rng.uniform(-12, -6))
        trace = newton_solve(reduced, NewtonConfig(epsilon=epsilon))
        assert trace.converged
        gap = trace.final_h - solve_nullspace(problem).objective
        assert gap <= epsilon + 1e-12, (
            f"trial {trial}: gap {gap:.3e} > epsilon {epsilon:.3e} + 1e-12"
        )
    print("PASS criterion 8: decrement-based exit bounds the true gap by epsilon")


def test_criterion_09_nullspace_faster_than_projector(tmp_path):
    report_path = tmp_path / "bench.json"
    code = cli.main(
        [
            "bench",
            "--sizes",
            "80:16",
            "--trials",
            "1000",
            "--seed",
            "0",
            "--methods",
            "projector,nullspace",
            "--output",
            str(report_path),
        ]
    )
    assert code == 0
    rows = json.loads(report_path.read_text())["rows"]
    means = {row["method"]: row["meanTimeMs"] for row in rows}
    assert means["nullspace"] < means["projector"], (
        f"nullspace {means['nullspace']:.4f} ms is not faster than "
        f"projector {means['projector']:.4f} ms"
    )
    print(
        f"PASS criterion 9: at n=80, m=16 over 1000 trials, nullspace "
        f"{means['nullspace']:.4f} ms < projector {means['projector']:.4f} ms"
    )


def test_criterion_10_registry_derivatives_match_finite_differences():
    rng = np.random.default_rng(1010)
    assert sorted(objective_names()) == [
        "log_sum_exp",
        "neg_log_barrier_quadratic",
        "quadratic",
        "sum_exp",
    ]
    raw = rng.uniform(-1, 1, (5, 5))
    instances = {
        "quadratic": ({"q": (raw + raw.T).tolist(), "c": rng.uniform(-1, 1, 5).tolist()}, 2.0),
        "sum_exp": ({"dim": 5, "rates": rng.uniform(0.2, 1.5, 5).tolist()}, 1.0),
        "log_sum_exp": ({"a": rng.uniform(-1, 1, (12, 5)).tolist()}, 2.0),
        "neg_log_barrier_quadratic": (
            {
                "q": (np.eye(4) + 0.1 * np.ones((4, 4))).tolist(),
                "barrier_a": rng.uniform(-1, 1, (6, 4)).tolist(),
                "barrier_b": (2.0 + rng.uniform(0, 1, 6)).tolist(),
            },
            0.1,  # stay well inside the barrier domain
        ),
    }
    for name in objective_names():
        params, radius = instances[name]
        oracle = objective_registry(name, params)
        for point in range(50):
            x = rng.uniform(-radius, radius, oracle.dim)
            grad = oracle.gradient(x)
            grad_err = float(np.max(np.abs(fd_gradient(oracle.value, x) - grad)))
            assert grad_err <= 1e-5 * (1.0 + float(np.max(np.abs(grad)))), (
                f"{name} point {point}: gradient error {grad_err:.3e}"
            )
            hess = oracle.hessian(x)
            hess_err = float(np.max(np.abs(fd_hessian(oracle.gradient, x) - hess)))
            assert hess_err <= 1e-4 * (1.0 + float(np.max(np.abs(hess)))), (
                f"{name} point {point}: hessian error {hess_err:.3e}"
            )
    print("PASS criterion 10: four registry objectives pass derivative checks")
