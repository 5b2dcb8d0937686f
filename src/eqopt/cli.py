"""Command-line front end.

``eqopt solve`` solves a problem file with any of the five methods,
``eqopt bench`` runs seeded Monte Carlo timing benchmarks (table on
stdout, JSON report on disk), ``eqopt check`` runs the seeded self-check
suites that :data:`eqopt.selfcheck._SUITES` names.

``solve`` and ``bench`` reach every method through
:func:`eqopt.problems.solve`, and take their method choices from its
tables; this module builds the documents and notes and maps errors to
exit codes. Every answer is written by one function, ``_solution_doc``;
a Newton answer adds its trace's ``converged``, ``iterations``,
``gradNorm`` and ``decrementSq``, and one out of iterations exits 3 (in
``bench``, a ``non_converged`` failure). ``solve`` builds one
:class:`~eqopt.nlp.NewtonConfig` from
``--alpha``, ``--beta`` and ``--max-iter`` under every method, so an
invalid value exits 4 even where it goes unused; ``--tol`` joins it only
under ``newton`` and ``sqp`` and is the cutoff ``eps`` otherwise. The
Newton trace is written before the solution, as ``bench`` writes its
report before its table, so a path that cannot be written prints nothing.
A warning about the problem file (an asymmetric Q) is printed as one
``warning:`` line, under any warning filter.

Exit codes: 0 success, 1 self-check violation, 2 infeasible constraints,
3 non-convergence or numerical failure, 4 input error, 5 start point
outside the objective's domain. The code and the ``eqopt bench`` failure
kind of each error a solve raises are stated once, in :data:`_FAILURES`;
every other error :func:`main` catches is an input error.
"""

import argparse
import contextlib
import ctypes
import os
import platform
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from . import selfcheck
from .errors import (
    ComputationError,
    DivergenceError,
    InfeasibleConstraintsError,
    InfeasibleStartError,
    LineSearchError,
    NonConvexError,
    OracleUnavailableError,
    ProblemFormatError,
    UnknownObjectiveError,
)
from .nlp import NewtonConfig
from .problems import _NEWTON_SOLVERS, _Q_CLASSES, _QP_SOLVERS, GeneratorSpec, generate, load
from .problems import solve, write_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INFEASIBLE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_INPUT = 4
EXIT_INFEASIBLE_START = 5

DEFAULT_SIZES = "10:2,10:4,10:8,20:4,20:8,20:16,40:8,40:16,40:32,80:16,80:32,80:64"
_METHODS = (*_QP_SOLVERS, *_NEWTON_SOLVERS)

# The failure contract, stated once: each error a solve raises, with the
# exit code ``eqopt solve`` returns for it and the kind ``eqopt bench``
# counts it under. No QP method raises InfeasibleStartError.
_FAILURES = {
    InfeasibleConstraintsError: (EXIT_INFEASIBLE, "infeasible"),
    InfeasibleStartError: (EXIT_INFEASIBLE_START, "infeasible_start"),
    NonConvexError: (EXIT_NO_CONVERGENCE, "non_convex"),
    DivergenceError: (EXIT_NO_CONVERGENCE, "non_converged"),
    LineSearchError: (EXIT_NO_CONVERGENCE, "non_converged"),
    OracleUnavailableError: (EXIT_NO_CONVERGENCE, "ill_conditioned"),
    ComputationError: (EXIT_NO_CONVERGENCE, "ill_conditioned"),
}


def _failure(exc):
    """``exc``'s (exit code, bench kind), matched as ``except`` matches: by
    ``isinstance``, in table order; any other error is an input error."""
    pairs = (pair for error, pair in _FAILURES.items() if isinstance(exc, error))
    return next(pairs, (EXIT_INPUT, None))


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; 2 means infeasible here, so remap to 4."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser():
    parser = _Parser(prog="eqopt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_solve = sub.add_parser("solve", help="solve a problem file")
    p_solve.add_argument("--input", required=True, help="problem file (JSON)")
    p_solve.add_argument(
        "--method",
        default="nullspace",
        choices=list(_METHODS),
    )
    p_solve.add_argument(
        "--tol",
        type=float,
        default=None,
        help="rank and minimum-norm cutoff for projector and nullspace "
        "(0 < tol < 1); termination tolerance for newton (epsilon on half "
        "the squared decrement) and sqp (step/gradient norm); the kkt oracle "
        "takes no tolerance and ignores it",
    )
    p_solve.add_argument(
        "--alpha", type=float, default=NewtonConfig.alpha, help="Armijo slope fraction"
    )
    p_solve.add_argument(
        "--beta", type=float, default=NewtonConfig.beta, help="backtracking shrink factor"
    )
    p_solve.add_argument("--max-iter", type=int, default=NewtonConfig.max_iter)
    p_solve.add_argument("--trace", default=None, help="write the full Newton trace here")
    p_solve.add_argument("--output", default=None, help="write the solution here (default stdout)")
    p_solve.set_defaults(func=cmd_solve)

    p_bench = sub.add_parser("bench", help="seeded Monte Carlo timing benchmark")
    p_bench.add_argument("--sizes", default=DEFAULT_SIZES, help='comma list of "n:m" pairs')
    p_bench.add_argument("--trials", type=int, default=10000)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--methods",
        default=",".join(_QP_SOLVERS),
        help=f"comma list out of {','.join(_METHODS)} (default %(default)s)",
    )
    p_bench.add_argument(
        "--q-class",
        default="spd",
        choices=_Q_CLASSES,
        dest="q_class",
    )
    p_bench.add_argument("--output", default="bench_report.json")
    p_bench.set_defaults(func=cmd_bench)

    p_check = sub.add_parser("check", help="run the self-check suites")
    p_check.add_argument(
        "--suite",
        default="all",
        choices=[*selfcheck._SUITES, "all"],
    )
    p_check.add_argument("--trials", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument(
        "--counterexample",
        default="counterexample.json",
        help="where to serialize the first failing case",
    )
    p_check.set_defaults(func=cmd_check)
    return parser


# ---------------------------------------------------------------------------
# solve


def _solution_doc(sol):
    doc = {
        "formatVersion": 1,
        "method": sol.method,
        "x": sol.x,
        "objective": sol.objective,
        "constraintResidual": sol.constraint_residual,
        "stationarityResidual": sol.stationarity_residual,
        "classification": sol.classification,
        "degenerate": sol.degenerate,
        "lagrangeMultipliers": sol.lagrange_multipliers,
    }
    if sol.trace is not None:
        doc["converged"] = sol.trace.converged
        doc["iterations"] = len(sol.trace.iterations)
        doc["gradNorm"] = sol.trace.final_grad_norm
        doc["decrementSq"] = sol.trace.final_decrement_sq
    return doc


def _trace_doc(trace, method):
    return {
        "formatVersion": 1,
        "method": method,
        "converged": trace.converged,
        "finalG": trace.final_g,
        "finalX": trace.final_x,
        "finalH": trace.final_h,
        "finalGradNorm": trace.final_grad_norm,
        "finalDecrementSq": trace.final_decrement_sq,
        "iterations": [
            {
                "g": it.g,
                "x": it.x,
                "hValue": it.h_value,
                "gradNorm": it.grad_norm,
                "decrementSq": it.decrement_sq,
                "stepSize": it.step_size,
                "phase": it.phase,
            }
            for it in trace.iterations
        ],
    }


def cmd_solve(args):
    # load's warning is about the user's file: one line, no source location, under any filter
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        problem = load(args.input)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    newton = args.method in _NEWTON_SOLVERS
    # checked under every method, before the constraints are factored; --tol
    # is Newton's epsilon under newton/sqp and the elimination cutoff eps otherwise
    epsilon = {"epsilon": args.tol} if newton and args.tol is not None else {}
    config = NewtonConfig(alpha=args.alpha, beta=args.beta, max_iter=args.max_iter, **epsilon)
    if not newton and args.trace is not None:
        print("note: --trace is only produced by newton/sqp; ignoring", file=sys.stderr)
    if args.method == "kkt" and args.tol is not None:
        print("note: the kkt oracle takes no tolerance; ignoring --tol", file=sys.stderr)
    eps = {"eps": args.tol} if not newton and args.tol is not None else {}
    sol = solve(problem, args.method, config=config, **eps)
    if newton and args.trace is not None:  # first, so an unwritable path prints no solution
        write_json(_trace_doc(sol.trace, args.method), args.trace)
    write_json(_solution_doc(sol), args.output)
    if newton and not sol.trace.converged:
        print(
            f"error: {args.method} did not converge within {args.max_iter} iterations",
            file=sys.stderr,
        )
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def _parse_sizes(text):
    sizes = []
    for token in text.split(","):
        token = token.strip()
        parts = token.split(":")
        if len(parts) != 2:
            raise ValueError(f"size {token!r} does not match 'n:m'")
        try:
            n, m = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"size {token!r} does not contain two integers") from None
        sizes.append((n, m))
    return sizes


def _parse_methods(text):
    """Method names in first-seen order, each once."""
    methods = list(dict.fromkeys(tok.strip() for tok in text.split(",") if tok.strip()))
    for name in methods:
        if name not in _METHODS:
            raise ValueError(f"unknown method {name!r}; choose from {','.join(_METHODS)}")
    if not methods:
        raise ValueError("no methods given")
    return methods


_OPENBLAS_THREAD_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _blas_threads():
    """Thread count in force in each OpenBLAS loaded in this process, by
    library file name, read back through its ``*_get_num_threads`` symbol;
    ``"unavailable"`` (with the reason) where that fails."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError as exc:
        return f"unavailable: {exc}"
    if not paths:
        return "unavailable: no OpenBLAS loaded"
    counts = {}
    for path in paths:
        name = os.path.basename(path)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            counts[name] = f"unavailable: {exc}"
            continue
        getter = next((getattr(lib, s) for s in _OPENBLAS_THREAD_GETTERS if hasattr(lib, s)), None)
        if getter is None:
            counts[name] = "unavailable: no *_get_num_threads symbol"
            continue
        getter.argtypes = []
        getter.restype = ctypes.c_int
        counts[name] = getter()
    return counts


def _environment():
    """What the timings depend on besides the code: versions, CPUs and the
    BLAS thread settings (thread count alone moves them severalfold), both
    as the environment asks for them and as each OpenBLAS reports them."""
    import scipy  # here only: a solve reaches LAPACK without importing scipy

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpuCount": os.cpu_count(),
        "blasThreads": _blas_threads(),
    }
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = os.environ.get(name)
    return env


def cmd_bench(args):
    if args.trials < 0:
        raise ValueError("--trials must be nonnegative")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    sizes = _parse_sizes(args.sizes)
    # GeneratorSpec refuses a bad size here, before any solve and any report
    specs = {(n, m): GeneratorSpec(n=n, m=m, q_class=args.q_class) for n, m in sizes}
    methods = _parse_methods(args.methods)
    master = np.random.default_rng(args.seed)
    header = (
        f"{'n':>5} {'m':>5}  {'method':<10} {'trials':>7} {'solved':>7} "
        f"{'mean-ms':>10} {'median-ms':>10} {'ratio':>7} {'max-resid':>10} {'disagree':>10}"
        "  failures"
    )
    lines = [header, "-" * len(header)]
    rows = []
    # without trials there is nothing to measure, warm-ups included
    for (n, m), spec in sorted(specs.items()) if args.trials > 0 else ():
        times = {name: [] for name in methods}
        max_resid = dict.fromkeys(methods, 0.0)
        failures = {name: {} for name in methods}
        max_disagree = 0.0
        # one untimed warmup per size so first-call overhead stays out of means
        warm = generate(replace(spec, seed=int(master.integers(2**63))))
        for name in methods:
            with contextlib.suppress(*_FAILURES):
                solve(warm, name)
        for _ in range(args.trials):
            seed_t = int(master.integers(2**63))
            problem = generate(replace(spec, seed=seed_t))
            xs = []
            for name in methods:
                t0 = time.perf_counter()
                try:
                    sol = solve(problem, name)
                    # a Newton run out of iterations fails as one that diverged
                    kind = None if sol.trace is None or sol.trace.converged else "non_converged"
                except tuple(_FAILURES) as exc:
                    kind = _failure(exc)[1]
                if kind is not None:
                    failures[name][kind] = failures[name].get(kind, 0) + 1
                    continue
                times[name].append(time.perf_counter() - t0)
                max_resid[name] = max(max_resid[name], sol.constraint_residual)
                xs.append(sol.x)
            for i in range(len(xs)):
                for j in range(i + 1, len(xs)):
                    max_disagree = max(max_disagree, selfcheck._rel_gap(xs[i], xs[j]))
        means = {name: 1000.0 * float(np.mean(t)) for name, t in times.items() if t}
        base = min(means.values(), default=None)
        for name in sorted(methods):
            row = {
                "n": n,
                "m": m,
                "method": name,
                "trials": args.trials,
                "solved": len(times[name]),
                "meanTimeMs": means.get(name),
                "medianTimeMs": 1000.0 * float(np.median(times[name])) if times[name] else None,
                "maxConstraintResidual": max_resid[name],
                "maxCrossMethodDisagreement": max_disagree,
                "failures": dict(sorted(failures[name].items())),
            }
            rows.append(row)
            mean_s, median_s = (
                f"{t:10.4f}" if t is not None else f"{'-':>10}"
                for t in (row["meanTimeMs"], row["medianTimeMs"])
            )
            ratio_s = f"{means[name] / base:7.2f}" if name in means and base else f"{'-':>7}"
            fail_s = ",".join(f"{k}:{v}" for k, v in row["failures"].items()) or "-"
            lines.append(
                f"{n:>5} {m:>5}  {name:<10} {args.trials:>7} {row['solved']:>7} {mean_s} "
                f"{median_s} {ratio_s} {max_resid[name]:>10.2e} {max_disagree:>10.2e}  {fail_s}"
            )

    report = {
        "formatVersion": 1,
        "seed": args.seed,
        "trials": args.trials,
        "qClass": args.q_class,
        "methods": methods,
        "environment": _environment(),
        "rows": rows,
    }
    write_json(report, args.output)
    print("\n".join(lines))
    print(f"report written to {args.output}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check


def cmd_check(args):
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.seed < 0:
        raise ValueError("--seed must be nonnegative")
    suites = list(selfcheck._SUITES) if args.suite == "all" else [args.suite]
    any_failed = False
    first_cx = None
    for suite in suites:
        for name, fn in selfcheck._SUITES[suite]:
            passed, cx = fn(args.seed, args.trials)
            if cx is None:
                print(f"PASS {suite}/{name} ({passed}/{args.trials})")
            else:
                any_failed = True
                print(f"FAIL {suite}/{name} (failed at trial {passed} of {args.trials})")
                if first_cx is None:
                    first_cx = {
                        "formatVersion": 1,
                        "suite": suite,
                        "check": name,
                        "seed": args.seed,
                        "trial": passed,
                        "details": cx,
                    }
    if first_cx is not None:
        write_json(first_cx, args.counterexample)
        print(f"first counterexample written to {args.counterexample}", file=sys.stderr)
    return EXIT_CHECK_FAILED if any_failed else EXIT_OK


# ---------------------------------------------------------------------------


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (*_FAILURES, ProblemFormatError, UnknownObjectiveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _failure(exc)[0]


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
