"""Seeded self-check suites behind ``eqopt check``.

Each check is written as a trial function ``trial(rng)``: it draws one
instance from ``rng`` and returns None when it passes, otherwise a
JSON-ready dict describing the failure. :func:`_seeded` turns it into the
check ``fn(seed, trials) -> (trials_passed, counterexample)``, which runs
the trials on the stream ``(seed, salt)`` and stops at the first
counterexample. :data:`_SUITES` is the one place the suites are named: the
``invariants`` (linear-algebra and expression identities), ``oracle``
(agreement of the three QP routes, and of Newton on the reduced objective
with Newton in KKT form, whose steps :func:`~eqopt.qp.solve_kkt` solves,
so this module calls no LAPACK routine itself) and ``convergence``
(Newton certificates) suites.
The invariants ``rrqr_rank`` and ``null_basis`` read the expression that
:func:`~eqopt.expressions.build_nullspace` returns: its rank against
numpy's, its x0 against the minimum-norm solution of the caller's rows
``A[selected] x = b[selected]``, its verdict on a perturbed b, and its N.
A check that picks a method by name (``redundant_rows``, which compares
both eliminations and both Newton methods) calls
:func:`~eqopt.problems.solve`, and Newton on a QP runs on its
:attr:`~eqopt.qp.QpProblem.oracle`, so the checks exercise the dispatch
``eqopt solve`` uses; the checks that compare routes call them directly.
"""

from dataclasses import replace

import numpy as np

from . import objectives
from .errors import EqoptError, InfeasibleConstraintsError
from .errors import OracleUnavailableError
from .expressions import EqualityConstraints, build_nullspace, build_projector
from .linalg import _QRT_BLOCK, _QRT_MIN_COLS
from .nlp import (
    NewtonConfig,
    estimate_convergence_constants,
    iteration_bound,
    newton_solve,
    reduce_problem,
    sqp_iterate,
    suboptimality_bound,
)
from .problems import GeneratorSpec, generate, solve
from .qp import QpProblem, solve_kkt, solve_nullspace, solve_projector


def _rel_gap(x, y):
    scale = 1.0 + max(float(np.max(np.abs(x))), float(np.max(np.abs(y))))
    return float(np.max(np.abs(x - y))) / scale


def _seeded(salt, crossover=None):
    """Decorator: the check ``fn(seed, trials)`` that runs ``trial(rng)``
    once per trial on the stream ``(seed, salt)``.

    With ``crossover``, every tenth trial that passed also runs
    ``crossover(rng, n, m, rank)`` on an instance on which
    build_nullspace tries its unpivoted QR first, drawn from its own
    stream ``(seed, 100 + salt)`` so the other trials' draws do not move.
    """

    def wrap(trial):
        def check(seed, trials):
            rng = np.random.default_rng([seed, salt])
            big = np.random.default_rng([seed, 100 + salt])  # the crossover stream
            for t in range(trials):
                cx = trial(rng)
                if cx is None and crossover is not None and t % 10 == 9:
                    # alternately full-rank and rank-deficient, ten trials each
                    n = int(big.integers(_QRT_MIN_COLS, 2 * _QRT_MIN_COLS))
                    m = int(big.integers(_QRT_BLOCK, n))
                    r = m if t // 10 % 2 == 0 else m - int(big.integers(1, 8))
                    cx = crossover(big, n, m, r)
                if cx is not None:
                    return t, cx
            return trials, None

        return check

    return wrap


def _low_rank(rng, n, m, r):
    return rng.uniform(-1, 1, (m, r)) @ rng.uniform(-1, 1, (r, n))


def _random_spec(rng, n_lo, n_hi, **kwargs):
    """A generated QP's recipe with ``n_lo <= n < n_hi`` and ``1 <= m < n``."""
    n = int(rng.integers(n_lo, n_hi))
    m = int(rng.integers(1, n))
    return GeneratorSpec(n=n, m=m, seed=int(rng.integers(2**63)), **kwargs)


def _reduced_qp(rng, n_hi):
    """``(spec, problem, reduced)``: a random SPD QP with ``2 <= n < n_hi``
    and its reduced objective."""
    spec = _random_spec(rng, 2, n_hi)
    problem = generate(spec)
    return spec, problem, reduce_problem(problem.oracle, problem.constraints)


def _rrqr_rank_trial(rng, n, m, r):
    a = _low_rank(rng, n, m, r)
    x_true = rng.uniform(-1, 1, n)
    b = a @ x_true
    f = build_nullspace(EqualityConstraints(a, b))
    rank_oracle = int(np.linalg.matrix_rank(a))
    x_min = np.linalg.lstsq(a[f.selected], b[f.selected], rcond=None)[0]
    resid = float(np.max(np.abs(a @ x_min - b)))
    # x0 is the minimum-norm solution x_min of the caller's kept rows: over
    # 11,000 trials of this check (seeds 0-199, crossover instances
    # included) they differed by at most 4.2e-12, so 1e-9 leaves a margin
    # of over 200
    x0_gap = _rel_gap(f.x0, x_min)
    if f.rank != rank_oracle or resid > 1e-8 * (1.0 + float(np.max(np.abs(b)))) or x0_gap > 1e-9:
        return {
            "n": n,
            "m": m,
            "expectedRank": rank_oracle,
            "reportedRank": f.rank,
            "residual": resid,
            "x0Disagreement": x0_gap,
        }
    if f.rank < m:
        # perturb one right-hand side entry; the reducer's verdict must
        # match the augmented-rank oracle's
        b_bad = b.copy()
        b_bad[int(rng.integers(0, m))] += 1.0
        truly_bad = int(np.linalg.matrix_rank(np.column_stack([a, b_bad]))) > rank_oracle
        try:
            build_nullspace(EqualityConstraints(a, b_bad))
            flagged = False
        except InfeasibleConstraintsError:
            flagged = True
        if flagged != truly_bad:
            return {"n": n, "m": m, "flaggedInfeasible": flagged, "trulyInfeasible": truly_bad}
    return None


@_seeded(2, crossover=_rrqr_rank_trial)
def _check_rrqr_rank(rng):
    n = int(rng.integers(2, 40))
    m = int(rng.integers(1, n + 5))
    r = int(rng.integers(1, min(m, n) + 1))
    return _rrqr_rank_trial(rng, n, m, r)


def _null_basis_trial(a, rank):
    m, n = a.shape
    nb = build_nullspace(EqualityConstraints(a, np.zeros(m))).basis
    if nb.shape != (n, n - rank):  # before the defects, which need this shape
        return {"n": n, "m": m, "rank": rank, "shape": list(nb.shape)}
    gram = float(np.max(np.abs(nb.T @ nb - np.eye(n - rank))))
    ann = float(np.max(np.abs(a @ nb), initial=0.0))
    if gram > 1e-12 or ann > 1e-12 * max(1.0, float(np.max(np.abs(a)))):
        return {"n": n, "m": m, "rank": rank, "gramDefect": gram, "annihilationDefect": ann}
    return None


@_seeded(3, crossover=lambda rng, n, m, r: _null_basis_trial(_low_rank(rng, n, m, r), r))
def _check_null_basis(rng):
    n = int(rng.integers(2, 60))
    m = int(rng.integers(1, n))
    return _null_basis_trial(rng.uniform(-1, 1, (m, n)), m)


@_seeded(4)
def _check_projector_algebra(rng):
    n = int(rng.integers(2, 50))
    m = int(rng.integers(1, n))
    a = rng.uniform(-1, 1, (m, n))
    b = rng.uniform(-1, 1, m)
    expr = build_projector(EqualityConstraints(a, b))
    a_scale = float(np.max(np.abs(a)))
    ad = float(np.max(np.abs(a @ expr.basis)))
    idem = float(np.max(np.abs(expr.basis @ expr.basis - expr.basis)))
    feas = float(np.max(np.abs(a @ expr.x0 - b)))
    if ad > 1e-10 * a_scale or idem > 1e-10 or feas > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
        return {"n": n, "m": m, "AD": ad, "idempotencyDefect": idem, "x0Residual": feas}
    return None


@_seeded(5)
def _check_embed_feasibility(rng):
    n = int(rng.integers(2, 50))
    m = int(rng.integers(1, n))
    a = rng.uniform(-1, 1, (m, n))
    b = rng.uniform(-1, 1, m)
    if rng.random() < 0.5:
        # redundant rows: both expressions drop them themselves
        pick = rng.integers(0, m, size=int(rng.integers(1, 4)))
        a = np.vstack([a, a[pick]])
        b = np.concatenate([b, b[pick]])
    original = EqualityConstraints(a, b)
    for kind, expr in (
        ("projector", build_projector(original)),
        ("nullspace", build_nullspace(original)),
    ):
        g = rng.uniform(-2, 2, expr.free_dim)
        resid = original.residual(expr.embed(g))
        if resid > 1e-9 * (1.0 + float(np.max(np.abs(b)))):
            return {"n": n, "m": int(a.shape[0]), "kind": kind, "residual": resid}
    return None


@_seeded(6)
def _check_spd_agreement(rng):
    spec = _random_spec(rng, 2, 60)
    problem = generate(spec)
    sols = [solve_projector(problem), solve_nullspace(problem), solve_kkt(problem)]
    xs = [s.x for s in sols]
    x_gap = max(
        _rel_gap(xs[i], xs[j]) for i in range(3) for j in range(i + 1, 3)
    )
    f_kkt = sols[2].objective
    f_gap = max(abs(s.objective - f_kkt) for s in sols) / (1.0 + abs(f_kkt))
    stat = max(s.stationarity_residual for s in sols)
    c_scale = 1.0 + float(np.max(np.abs(problem.c)))
    if x_gap > 1e-8 or f_gap > 1e-10 or stat > 1e-8 * c_scale:
        return {
            "n": spec.n,
            "m": spec.m,
            "xDisagreement": x_gap,
            "objectiveDisagreement": f_gap,
            "stationarity": stat,
        }
    return None


@_seeded(7)
def _check_indefinite_agreement(rng):
    spec = _random_spec(rng, 3, 40, q_class="symmetric_indefinite")
    problem = generate(spec)
    try:
        ref = solve_kkt(problem)
    except OracleUnavailableError:
        return None  # legitimately singular reduced Hessian; nothing to compare
    for sol in (solve_projector(problem), solve_nullspace(problem)):
        if _rel_gap(sol.x, ref.x) > 1e-8 or sol.classification != ref.classification:
            return {
                "n": spec.n,
                "m": spec.m,
                "method": sol.method,
                "xDisagreement": _rel_gap(sol.x, ref.x),
                "classification": sol.classification,
                "oracleClassification": ref.classification,
            }
    return None


@_seeded(8)
def _check_redundant_rows(rng):
    spec = _random_spec(rng, 3, 40)
    base = generate(spec)
    refs = {name: solve(base, name).x for name in ("projector", "nullspace", "newton", "sqp")}
    for k in (1, 2, 4):
        padded = generate(replace(spec, rank_deficiency=k))
        for name, ref in refs.items():
            gap = float(np.max(np.abs(solve(padded, name).x - ref)))
            if gap > 1e-9 * (1.0 + float(np.max(np.abs(ref)))):
                return {"n": spec.n, "m": spec.m, "extraRows": k, "method": name, "gap": gap}
    return None


def _kkt_newton(oracle, a, x, config):
    """Damped Newton on ``min f(x)`` s.t. ``A x = b`` in KKT form, from the
    feasible ``x`` (Boyd & Vandenberghe, *Convex Optimization*, §10.2).

    Each step's model, ``min 1/2 dx^T (hess f) dx + grad f^T dx`` s.t.
    ``A dx = 0``, is a QP, and :func:`~eqopt.qp.solve_kkt` solves it from
    the full-space oracle's own ``gradient`` and ``hessian``: its saddle
    system ``[[hess f, A^T], [A, 0]] [dx; w] = [-grad f; 0]``. The step
    then takes ``lambda^2 = dx^T (hess f) dx`` and applies
    :func:`~eqopt.nlp.newton_solve`'s Armijo rule and stop with ``config``.
    It calls neither ``pullback`` nor ``restrict`` and builds no null-space
    basis, so it shares with ``newton_solve`` only the objective's
    callbacks and the start. Returns ``(steps, x, lambda^2)``:
    ``(x, lambda^2)`` at the start of each step taken, then the last
    iterate and its decrement.
    """
    tangent = EqualityConstraints(a, np.zeros(a.shape[0]))
    h = float(oracle.value(x))
    steps = []
    while True:
        hess = oracle.hessian(x)
        dx = solve_kkt(QpProblem(hess, oracle.gradient(x), tangent)).x
        dec_sq = float(dx @ hess @ dx)
        if dec_sq / 2.0 <= config.epsilon or len(steps) >= config.max_iter:
            return steps, x, dec_sq
        steps.append((x, dec_sq))
        t = 1.0
        h_t = float(oracle.value(x + t * dx))
        while not h_t <= h - config.alpha * t * dec_sq:  # nan and inf shrink t
            t *= config.beta
            h_t = float(oracle.value(x + t * dx))
        x, h = x + t * dx, h_t


def _registry_objectives(rng, x_min):
    """The four registry objectives on R^n, each with a minimum on a set
    ``A x = b`` whose row 0 is all ones (for sum_exp): the log-sum-exp
    shifted, and the barrier's domain around the feasible point ``x_min``."""
    n = x_min.shape[0]
    r = rng.uniform(-1, 1, (n, n))
    q = r.T @ r / n + np.eye(n)
    c = rng.uniform(-1, 1, n)
    half = rng.uniform(-1, 1, (2 * n, n))  # +/- pairs keep log-sum-exp bounded below
    barrier_a = rng.uniform(-1, 1, (2 * n, n))
    barrier_b = barrier_a @ x_min + rng.uniform(0.5, 1.5, 2 * n)
    return {
        "quadratic": objectives.quadratic(q, c),
        "sum_exp": objectives.sum_exp(rates=rng.uniform(0.5, 1.5, n)),
        "log_sum_exp": objectives.log_sum_exp(np.vstack([half, -half]), rng.uniform(-1, 1, 4 * n)),
        "neg_log_barrier_quadratic": objectives.neg_log_barrier_quadratic(
            q, c, barrier_a, barrier_b, mu=float(rng.uniform(0.1, 2.0))
        ),
    }


@_seeded(15)
def _check_newton_agreement(rng):
    """``newton_solve`` on the reduced objective against :func:`_kkt_newton`
    from the same x0, for each registry objective on one full-rank A (the
    saddle matrix is singular otherwise): by §10.2.3 the two take the same
    steps. They must agree on the number of steps, on every iterate's x
    within 1e-8 (:func:`_rel_gap`) and on every squared decrement d within
    ``1e-7 (1e-8 + d)``. Over 10,000 trials (seeds 0-199, 40,000 solves)
    the counts always agreed, x to 1.1e-10 and d to 6.9e-10 of that scale.
    b is drawn as ``A x`` with ``|x_i| <= 1``: a b drawn on its own put
    sum_exp's optimum where its Hessian spans e^+-50, and there the KKT
    form itself lost every digit of its decrement. The start x0 must first
    be the minimum-norm solution within 1e-9, as in ``rrqr_rank`` (2.5e-14
    over the same trials), since the barrier's domain is drawn around it.

    The two share the objective's callbacks, so this checks the elimination
    and the pull-back, not the derivatives, which the finite-difference
    tests of the objectives cover.
    """
    n = int(rng.integers(3, 30))
    m = int(rng.integers(1, min(n - 1, 10) + 1))
    a = rng.uniform(-1, 1, (m, n))
    a[0, :] = 1.0  # fixing sum(x) bounds every null-space ray of sum_exp
    b = a @ rng.uniform(-1, 1, n)
    constraints = EqualityConstraints(a, b)
    config = NewtonConfig()
    x_min = np.linalg.lstsq(a, b, rcond=None)[0]
    for name, oracle in _registry_objectives(rng, x_min).items():
        where = {"n": n, "m": m, "objective": name}
        reduced = reduce_problem(oracle, constraints)
        if _rel_gap(reduced.expr.x0, x_min) > 1e-9:
            return {**where, "x0Disagreement": _rel_gap(reduced.expr.x0, x_min)}
        ref_steps, ref_x, ref_dec = _kkt_newton(oracle, a, reduced.expr.x0, config)
        try:
            trace = newton_solve(reduced, config)
        except EqoptError as exc:  # at a start the KKT form accepts
            return {**where, "error": f"{type(exc).__name__}: {exc}"}
        pairs = [(it.x, it.decrement_sq, x, d) for it, (x, d) in zip(trace.iterations, ref_steps)]
        pairs.append((trace.final_x, trace.final_decrement_sq, ref_x, ref_dec))
        x_gap = max(_rel_gap(x, x_ref) for x, _, x_ref, _ in pairs)
        dec_gap = max(abs(d - d_ref) / (1e-8 + d_ref) for _, d, _, d_ref in pairs)
        if len(trace.iterations) != len(ref_steps) or x_gap > 1e-8 or dec_gap > 1e-7:
            return {
                **where,
                "iterations": len(trace.iterations),
                "kktIterations": len(ref_steps),
                "xDisagreement": x_gap,
                "decrementDisagreement": dec_gap,
            }
    return None


@_seeded(9)
def _check_quadratic_one_step(rng):
    spec, problem, reduced = _reduced_qp(rng, 30)
    trace = newton_solve(reduced)
    if not trace.iterations:
        return None  # started at the optimum
    ref = solve_nullspace(problem).x
    gap = float(np.max(np.abs(trace.final_x - ref)))
    ok = (
        trace.converged
        and len(trace.iterations) == 1
        and trace.iterations[0].step_size == 1.0
        and gap <= 1e-10 * (1.0 + float(np.max(np.abs(ref))))
    )
    if not ok:
        return {
            "n": spec.n,
            "m": spec.m,
            "iterations": len(trace.iterations),
            "converged": trace.converged,
            "gap": gap,
        }
    return None


@_seeded(10)
def _check_sqp_quadratic(rng):
    spec, problem, reduced = _reduced_qp(rng, 30)
    trace = sqp_iterate(reduced)
    ref = solve_nullspace(problem).x
    gap = float(np.max(np.abs(trace.final_x - ref)))
    if not trace.converged or len(trace.iterations) > 2 or gap > 1e-9 * (1.0 + float(np.max(np.abs(ref)))):
        return {"n": spec.n, "m": spec.m, "iterations": len(trace.iterations), "gap": gap}
    return None


def _random_lse_instance(rng, n, m):
    # 4n rows and a small right-hand side keep the optimum where many
    # softmax terms are active, i.e. the reduced Hessian stays uniformly
    # positive definite on the relevant sublevel set
    k = 4 * n
    oracle = objectives.log_sum_exp(rng.uniform(-1, 1, (k, n)))
    a = rng.uniform(-1, 1, (m, n))
    b = rng.uniform(-0.3, 0.3, m)
    return oracle, EqualityConstraints(a, b)


def _random_sum_exp_instance(rng, n, m):
    oracle = objectives.sum_exp(dim=n)
    a = rng.uniform(-1, 1, (m, n))
    a[0, :] = 1.0  # fixing sum(x) bounds every null-space ray, so a minimum exists
    b = rng.uniform(-1, 1, m)
    b[0] = rng.uniform(-0.3, 0.3) * n
    return oracle, EqualityConstraints(a, b)


@_seeded(11)
def _check_newton_descent(rng):
    n = int(rng.integers(4, 30))
    m = int(rng.integers(1, min(n - 1, 10) + 1))
    reduced = reduce_problem(*_random_lse_instance(rng, n, m))
    g0 = rng.uniform(-1.5, 1.5, reduced.free_dim)
    trace = newton_solve(reduced, NewtonConfig(max_iter=200, g0=g0))
    hs = trace.h_values()
    slack = 1e-12 * (1.0 + abs(hs[0]))
    monotone = all(hs[i + 1] <= hs[i] + slack for i in range(len(hs) - 1))
    if not trace.converged or not monotone:
        return {
            "n": n,
            "m": m,
            "converged": trace.converged,
            "hValues": hs,
        }
    return None


@_seeded(12)
def _check_contraction_bound(rng):
    n = int(rng.integers(4, 30))
    m = int(rng.integers(1, min(n - 1, 10) + 1))
    instance = _random_lse_instance if rng.random() < 0.5 else _random_sum_exp_instance
    reduced = reduce_problem(*instance(rng, n, m))
    config = NewtonConfig(max_iter=200, g0=rng.uniform(-1.5, 1.5, reduced.free_dim))
    trace = newton_solve(reduced, config)
    hs = trace.h_values()
    # a final value above the start fails here: iteration_bound refuses a negative gap
    if not trace.converged or not trace.iterations or not hs[-1] <= hs[0]:
        return {"n": n, "m": m, "converged": trace.converged, "hValues": hs}
    samples = [it.g for it in trace.iterations] + [trace.final_g]
    constants = estimate_convergence_constants(reduced, samples)
    bound = iteration_bound(constants, config, hs[0] - hs[-1])
    norms = trace.grad_norms()
    cs = [bound.contraction * v for v in norms[-3:]]
    tail_ok = all(cs[i + 1] <= 2.0 * cs[i] ** 2 for i in range(len(cs) - 1))
    if len(trace.iterations) > bound.d_max or not tail_ok:
        return {
            "n": n,
            "m": m,
            "iterations": len(trace.iterations),
            "dMax": bound.d_max,
            "tail": cs,
        }
    return None


@_seeded(13)
def _check_suboptimality(rng):
    spec, problem, reduced = _reduced_qp(rng, 40)
    h_star = solve_nullspace(problem).objective
    constants = estimate_convergence_constants(reduced, [np.zeros(reduced.free_dim)])
    for _ in range(10):
        g = rng.uniform(-3, 3, reduced.free_dim)
        gap = reduced.oracle.value(g) - h_star
        bound = suboptimality_bound(float(np.linalg.norm(reduced.oracle.gradient(g))), constants)
        if gap > bound + 1e-9 * (1.0 + abs(bound)):
            return {"n": spec.n, "m": spec.m, "gap": gap, "bound": bound}
    return None


@_seeded(14)
def _check_termination_gap(rng):
    spec, problem, reduced = _reduced_qp(rng, 30)
    epsilon = 10.0 ** rng.uniform(-12, -6)
    trace = newton_solve(reduced, NewtonConfig(epsilon=epsilon))
    if not trace.converged:
        return {"n": spec.n, "m": spec.m, "epsilon": epsilon, "converged": False}
    gap = trace.final_h - solve_nullspace(problem).objective
    if gap > epsilon + 1e-12:
        return {"n": spec.n, "m": spec.m, "epsilon": epsilon, "gap": gap}
    return None


# The one place the suites and their checks are named; ``eqopt check``
# takes its --suite choices and its "all" order from here.
_SUITES = {
    "invariants": [
        ("rrqr_rank", _check_rrqr_rank),
        ("null_basis", _check_null_basis),
        ("projector_algebra", _check_projector_algebra),
        ("embed_feasibility", _check_embed_feasibility),
    ],
    "oracle": [
        ("spd_agreement", _check_spd_agreement),
        ("indefinite_agreement", _check_indefinite_agreement),
        ("redundant_rows", _check_redundant_rows),
        ("newton_agreement", _check_newton_agreement),
    ],
    "convergence": [
        ("quadratic_one_step", _check_quadratic_one_step),
        ("sqp_quadratic", _check_sqp_quadratic),
        ("newton_descent", _check_newton_descent),
        ("contraction_bound", _check_contraction_bound),
        ("suboptimality", _check_suboptimality),
        ("termination_gap", _check_termination_gap),
    ],
}
