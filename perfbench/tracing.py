"""Spans around calls into eqopt's layers, recorded from outside the package.

The traced run replaces module attributes with timing wrappers: the public
functions of each eqopt module, the dense numpy/scipy factorizations they
call (the ``kernel`` pseudo-layer), and the objective callbacks the
benchmark builds. Spans stay in memory; per-layer metrics are computed
from them once the run ends.
"""

import functools
import importlib
import math
import sys
from collections import Counter, defaultdict
from time import perf_counter
from typing import NamedTuple

import numpy as np

# (module, attribute) of each public function wrapped, named "<layer>.<function>".
LIBRARY_FUNCTIONS = [
    ("eqopt.linalg", "rrqr_reduce"),
    ("eqopt.linalg", "nullspace_basis"),
    ("eqopt.linalg", "pseudo_inverse"),
    ("eqopt.expressions", "build_projector"),
    ("eqopt.expressions", "build_nullspace"),
    ("eqopt.qp", "solve_projector"),
    ("eqopt.qp", "solve_nullspace"),
    ("eqopt.qp", "solve_kkt"),
    ("eqopt.nlp", "reduce_problem"),
    ("eqopt.nlp", "newton_solve"),
    ("eqopt.nlp", "sqp_iterate"),
    ("eqopt.problems", "load"),
]

NLP_SOLVES = ("nlp.newton_solve", "nlp.sqp_iterate")
ORACLE_CALLBACKS = ("value", "gradient", "hessian")


def _arg(args, kwargs, index, name, default):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _shape(args, kwargs, index=0, name="a"):
    value = _arg(args, kwargs, index, name, None)
    shape = getattr(value, "shape", None)
    return shape if shape is not None else np.shape(value)


def _dims(args, kwargs):
    shape = _shape(args, kwargs)
    return shape[-2], shape[-1]


def _reflections(rows, cols, k):
    """Flops of k Householder reflections: 4 sum_{j<k} (rows - j)(cols - j)."""
    return 4.0 * (k * rows * cols - (rows + cols) * k * (k - 1) / 2 + (k - 1) * k * (2 * k - 1) / 6)


# Textbook flop counts (Golub & Van Loan) from the argument shapes; a
# *computed* figure, not a hardware counter.
def _flops_svd(args, kwargs, _result):
    big, small = sorted(_dims(args, kwargs), reverse=True)
    if not _arg(args, kwargs, 2, "compute_uv", True):
        return 4.0 * big * small**2 - 4.0 * small**3 / 3.0
    if _arg(args, kwargs, 1, "full_matrices", True):
        return 4.0 * big**2 * small + 8.0 * big * small**2 + 9.0 * small**3
    return 14.0 * big * small**2 + 8.0 * small**3


def _flops_svdvals(args, kwargs, _result):
    big, small = sorted(_dims(args, kwargs), reverse=True)
    return 4.0 * big * small**2 - 4.0 * small**3 / 3.0


def _flops_qr(args, kwargs, _result):
    rows, cols = _dims(args, kwargs)
    k = min(rows, cols)
    mode = _arg(args, kwargs, 3, "mode", "full")
    flops = _reflections(rows, cols, k)
    if mode == "full":
        flops += _reflections(rows, rows, k)
    elif mode == "economic":
        flops += _reflections(rows, k, k)
    return flops


def _flops_cube(factor):
    def flops(args, kwargs, _result):
        n = _dims(args, kwargs)[0]
        return factor * n**3

    return flops


def _flops_eigh(args, kwargs, _result):
    n = _dims(args, kwargs)[0]
    return 4.0 * n**3 / 3.0 if kwargs.get("eigvals_only") else 9.0 * n**3


def _flops_solve(args, kwargs, _result):
    n = _dims(args, kwargs)[0]
    rhs = _shape(args, kwargs, 1, "b")
    nrhs = rhs[1] if len(rhs) > 1 else 1
    symmetric = kwargs.get("assume_a") in ("sym", "her", "pos", "symmetric", "hermitian")
    factor = 1.0 / 3.0 if symmetric else 2.0 / 3.0
    return factor * n**3 + 2.0 * n**2 * nrhs


# (module, attribute, flop count) of each dense factorization.
KERNEL_FUNCTIONS = [
    ("numpy.linalg", "svd", _flops_svd),
    ("numpy.linalg", "eigh", _flops_cube(9.0)),
    ("numpy.linalg", "eigvalsh", _flops_cube(4.0 / 3.0)),
    ("scipy.linalg", "svdvals", _flops_svdvals),
    ("scipy.linalg", "qr", _flops_qr),
    ("scipy.linalg", "cho_factor", _flops_cube(1.0 / 3.0)),
    ("scipy.linalg", "eigh", _flops_eigh),
    ("scipy.linalg", "eigvalsh", _flops_cube(4.0 / 3.0)),
    ("scipy.linalg", "lu_factor", _flops_cube(2.0 / 3.0)),
    ("scipy.linalg", "ldl", _flops_cube(1.0 / 3.0)),
    ("scipy.linalg", "solve", _flops_solve),
]


def _rows_dropped(args, kwargs, result):
    if result is None:
        return 0.0
    return float(np.shape(_arg(args, kwargs, 0, "a", None))[0] - result.rank)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    op: int  # operation id
    note: float  # computed flops for kernels, rows dropped for rrqr_reduce


class Recorder:
    """Collects spans; ``op`` is the id stamped on every span recorded next."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = -1

    def wrap(self, name, fn, note=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:  # outside any operation
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                value = note(args, kwargs, result) if note is not None else 0.0
                spans[index] = Span(name, start, end, parent, self.op, value)

        return traced


class Patches:
    """Module attributes swapped for traced wrappers; ``enable``/``disable`` toggle them."""

    def __init__(self):
        self.entries = []  # (namespace, attribute, original, wrapper)
        self.skipped = []

    def enable(self):
        for namespace, attr, _, wrapper in self.entries:
            setattr(namespace, attr, wrapper)

    def disable(self):
        for namespace, attr, original, _ in self.entries:
            setattr(namespace, attr, original)


def _package_modules():
    return [mod for name, mod in sys.modules.items() if name == "eqopt" or name.startswith("eqopt.")]


def install(recorder):
    """Prepare wrappers for every library and kernel function that exists.

    A function is replaced wherever eqopt holds a reference to it, so a
    ``from .linalg import rrqr_reduce`` in another module is traced too.
    Names that no longer exist are listed in ``skipped`` rather than failing.
    """
    patches = Patches()
    targets = [
        (module, attr, f"{module.split('.')[-1]}.{attr}",
         _rows_dropped if attr == "rrqr_reduce" else None)
        for module, attr in LIBRARY_FUNCTIONS
    ]
    targets += [
        (module, attr, f"kernel.{module}.{attr}", flops)
        for module, attr, flops in KERNEL_FUNCTIONS
    ]
    namespaces = _package_modules()
    for module, attr, name, note in targets:
        try:
            owner = importlib.import_module(module)
        except ImportError:
            patches.skipped.append(name)
            continue
        original = getattr(owner, attr, None)
        if not callable(original):
            patches.skipped.append(name)
            continue
        wrapper = recorder.wrap(name, original, note)
        for namespace in {id(ns): ns for ns in [owner, *namespaces]}.values():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    patches.entries.append((namespace, key, original, wrapper))
    return patches


def wrap_oracles(recorder, oracles, patches):
    """Add the benchmark's objective callbacks to ``patches``."""
    for oracle in oracles:
        for attr in ORACLE_CALLBACKS:
            original = getattr(oracle, attr)
            wrapper = recorder.wrap(f"objectives.{attr}", original)
            patches.entries.append((oracle, attr, original, wrapper))


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans):
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return [
        span.end - span.start - covered(children.get(i, ()), span.start, span.end)
        for i, span in enumerate(spans)
    ]


def armijo_trials(trace, beta):
    """Line-search trials of a damped Newton run, from its accepted step sizes.

    A step ``t = beta^k`` was accepted on trial ``k + 1``.
    """
    return sum(round(math.log(it.step_size) / math.log(beta)) + 1 for it in trace.iterations)


def layer_metrics(spans, ops, methods):
    """Per-layer metrics, each averaged per operation.

    ``ops`` maps an operation id to ``(method, iterations, armijo trials)``.
    Kernel and nlp figures are also split per method and then averaged over
    that method's operations; layers a workload never calls read 0.
    """
    per_method = Counter(method for method, _, _ in ops.values())
    total_ops = max(len(ops), 1)
    selfs = self_times(spans)
    sums = defaultdict(float)
    oracle_time = defaultdict(float)  # solve span index -> time in its callbacks
    for span, self_s in zip(spans, selfs):
        method = ops[span.op][0]
        duration_ms = 1e3 * (span.end - span.start)
        if span.name.startswith("kernel."):
            for key in ("kernel", f"kernel.{method}"):
                sums[f"{key}.factorizations"] += 1
                sums[f"{key}.ms"] += duration_ms
                sums[f"{key}.flop_computed"] += round(span.note)  # whole, so sums are exact
            continue
        sums[f"{span.name}.calls"] += 1
        sums[f"{span.name}.ms"] += duration_ms
        sums[f"{span.name}.self_ms"] += 1e3 * self_s
        if span.name == "linalg.rrqr_reduce":
            sums["linalg.rows_dropped"] += span.note
        if span.name.startswith("objectives."):
            ancestor = span.parent
            while ancestor >= 0 and spans[ancestor].name not in NLP_SOLVES:
                ancestor = spans[ancestor].parent
            if ancestor >= 0:
                oracle_time[ancestor] += duration_ms
    for index, span in enumerate(spans):
        if span.name in NLP_SOLVES:
            method = ops[span.op][0]
            own = 1e3 * (span.end - span.start) - oracle_time[index]
            sums["nlp.self_ms"] += own
            sums[f"nlp.{method}.self_ms"] += own
    for method, iterations, trials in ops.values():
        if iterations is not None:
            sums["nlp.iterations"] += iterations
            sums[f"nlp.{method}.iterations"] += iterations
        if trials is not None:
            sums["nlp.armijo_accepted"] += iterations
            sums["nlp.armijo_trials"] += trials

    nlp_ops = sum(per_method[m] for m in ("newton", "sqp"))
    out = {}

    def avg(key, count=total_ops):
        return sums[key] / count if count else 0.0

    for name in (
        "linalg.rrqr_reduce.ms", "linalg.rrqr_reduce.calls", "linalg.rows_dropped",
        "linalg.nullspace_basis.ms", "linalg.nullspace_basis.calls",
        "linalg.pseudo_inverse.ms", "linalg.pseudo_inverse.calls",
        "expressions.build_projector.self_ms", "expressions.build_projector.calls",
        "expressions.build_nullspace.self_ms", "expressions.build_nullspace.calls",
        "qp.solve_projector.self_ms", "qp.solve_nullspace.self_ms", "qp.solve_kkt.self_ms",
        "kernel.factorizations", "kernel.ms", "kernel.flop_computed",
        "nlp.reduce_problem.ms",
        "objectives.value.calls", "objectives.gradient.calls", "objectives.hessian.calls",
        "objectives.value.ms", "objectives.gradient.ms", "objectives.hessian.ms",
        "problems.load.ms",
    ):
        out[name] = avg(name)
    for method in methods:
        for what in ("factorizations", "ms", "flop_computed"):
            key = f"kernel.{method}.{what}"
            out[key] = avg(key, per_method[method])
    out["nlp.iterations"] = avg("nlp.iterations", nlp_ops)
    out["nlp.self_ms"] = avg("nlp.self_ms", nlp_ops)
    for method in ("newton", "sqp"):
        for what in ("iterations", "self_ms"):
            key = f"nlp.{method}.{what}"
            out[key] = avg(key, per_method[method])
    trials = sums["nlp.armijo_trials"]
    out["nlp.armijo_accept_ratio"] = sums["nlp.armijo_accepted"] / trials if trials else 0.0
    return out
