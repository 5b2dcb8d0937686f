"""eqopt benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload qp_dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; eqopt is imported from its ``src``. With
``--trace 0`` the run measures the end-to-end metrics of BENCHMARK.json
(cold-start set-up, per-instance solve latency, throughput, peak memory);
with ``--trace 1`` it alternates untraced and traced passes over the same
instances and reports the per-layer metrics plus the tracing overhead.
Every operation goes through the correctness gate in workloads.py.

Times are reported at a fixed reference speed. On a shared virtual machine
(2 vCPUs, Intel Xeon at 2.1 GHz) the same code ran up to half again slower
from one minute to the next, because other tenants share its cores. So
after every instance the run times a reference computation (workloads.py)
that does the same kind of work without eqopt, and scales each instance's
times by ``REFERENCE_MS / <reference time around it>``; cold starts are
scaled the same way by a bare ``import numpy, scipy.linalg`` interpreter
start run just before each. The unscaled figures are kept in the report.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full report
(environment stamp, per-method percentiles with sample counts, failures
by kind, unscaled times) and, for traced runs, the spans are written
under ``.perfbench/``.
"""

import os

# BLAS reads these when it is loaded, so they are set before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

# Instances generated per run and cycled by the closed loop; also one pass of
# the traced run. Percentiles are taken over instances of each instance's
# median time, so 100 leaves ten instances beyond the 90th percentile.
POOL_SIZE = 100
WARMUP_INSTANCES = 2
COLD_STARTS = 5  # timed, after one untimed start that fills bytecode caches
CHILD_TIMEOUT_S = 60
BARE_START = [sys.executable, "-c", "import numpy, scipy.linalg"]

# The reference speed: medians of each reference computation and of a bare
# interpreter start on a 2-vCPU Intel Xeon at 2.1 GHz (Python 3.11, numpy
# 2.4, scipy 1.17, OpenBLAS 0.3.31 on one thread).
REFERENCE_MS = {"qp_dense": 6.0, "qp_degenerate": 4.3, "nlp_newton": 1.9}
BARE_START_S = 0.42
ROLLING = 1  # reference samples on each side of an instance


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else float("nan")


def blas_threads():
    """Thread count reported by each OpenBLAS loaded in this process."""
    import ctypes

    counts = {}
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts[Path(path).name] = fn()
                break
    return counts


def environment():
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        threads = blas_threads()
    except OSError as exc:
        threads = f"unavailable: {exc}"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


class Tally:
    """Every instance's operation times and failures, and failures by kind."""

    def __init__(self):
        self.records = []  # (pool index, ops, {label: seconds}, {label: failure kind})
        self.attempted = 0
        self.failures = Counter()

    def fail(self, method, kind):
        self.failures[f"{method}:{kind}"] += 1

    def add(self, index, outcome, ops):
        times, failures = outcome
        self.records.append((index, ops, times, failures))
        self.attempted += len(ops)
        for op in ops:
            if op.label in failures:
                self.fail(op.method, failures[op.label])

    @property
    def failed(self):
        return sum(self.failures.values())

    def timings(self, factors=None):
        """Latency figures in ms, each instance's times scaled by its factor.

        A percentile is taken over pool instances of each one's median
        time: how long an input takes, not how often the machine stalled.
        """
        per_instance = defaultdict(list)
        per_op = defaultdict(list)  # (pool index, method, label) -> ms
        passed, solver_ms = 0, 0.0
        for record, (index, ops, times, failures) in enumerate(self.records):
            scale = 1e3 * (factors[record] if factors is not None else 1.0)
            for op in ops:
                elapsed = scale * times[op.label]
                solver_ms += elapsed
                if op.label not in failures:
                    passed += 1
                    per_op[index, op.method, op.label].append(elapsed)
            if not failures:
                per_instance[index].append(scale * sum(times.values()))

        def block(position):
            medians, samples = defaultdict(list), Counter()
            for key, values in per_op.items():
                medians[key[position]].append(statistics.median(values))
                samples[key[position]] += len(values)
            return {
                key: {
                    "instances": len(v),
                    "samples": samples[key],
                    "ms_p50": percentile(v, 50),
                    "ms_p90": percentile(v, 90),
                }
                for key, v in sorted(medians.items())
            }

        medians = [statistics.median(v) for v in per_instance.values()]
        return {
            "instances": len(medians),
            "samples": sum(len(v) for v in per_instance.values()),
            "instance_ms_p50": percentile(medians, 50),
            "instance_ms_p90": percentile(medians, 90),
            "solves_per_s": 1e3 * passed / solver_ms if solver_ms else 0.0,
            "methods": block(1),
            "labels": block(2),
        }


def speed_factors(reference_s, reference_ms):
    """Per instance: reference time at reference speed over the local median."""
    ref = np.asarray(reference_s)
    local = [np.median(ref[max(0, i - ROLLING): i + ROLLING + 1]) for i in range(len(ref))]
    return 1e-3 * reference_ms / np.asarray(local)


def time_call(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


_reported_kinds = set()


def run_instance(instance, rotation, recorder=None, op_log=None):
    """Run every operation of one instance, then its gate.

    Returns ``(times, failures)`` keyed by operation label, and the results.
    The operation order rotates with ``rotation`` so no method always runs
    first on a fresh input. Exceptions are counted by kind, never raised.
    With a ``recorder``, each operation's spans carry its index in ``op_log``.
    """
    k = rotation % len(instance.ops)
    order = instance.ops[k:] + instance.ops[:k]
    times, failures, results = {}, {}, {}
    for op in order:
        if recorder is not None:
            recorder.op = len(op_log)
            op_log.append(op)
        start = perf_counter()
        try:
            results[op.label] = op.call()
        except Exception as exc:  # counted per kind; the run carries on
            failures[op.label] = type(exc).__name__
            if failures[op.label] not in _reported_kinds:
                _reported_kinds.add(failures[op.label])
                traceback.print_exc(file=sys.stderr)
        finally:
            times[op.label] = perf_counter() - start
        if recorder is not None:
            recorder.op = -1
    try:
        failures.update(instance.check(results))
    except Exception:  # a result the gate cannot even read is a failure
        traceback.print_exc(file=sys.stderr)
        failures.update({label: "check.error" for label in results})
    return (times, failures), results


def run_child(cmd):
    """Wall seconds of one child process, and the process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    return perf_counter() - start, proc


def cold_start(workload, workdir, index):
    """Seconds for a fresh interpreter to run ``eqopt solve`` on one file, and its failure."""
    import workloads

    out = workdir / f"cold-{index}.json"
    elapsed, proc = run_child([
        sys.executable, "-m", "eqopt.cli", "solve",
        "--input", workload.cli_input, "--method", workload.cli_method,
        "--output", str(out),
    ])
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return elapsed, f"exit{proc.returncode}"
    x = np.asarray(json.loads(out.read_text(encoding="utf-8"))["x"])
    constraints, reference = workload.cli_reference
    if not workloads.feasible(constraints, x):
        return elapsed, "check.residual"
    if workloads.rel_gap(x, reference) > workloads.AGREEMENT_TOL:
        return elapsed, "check.agreement"
    return elapsed, None


def cold_starts(workload, workdir, tally):
    """Cold starts, one at a time, each after a bare interpreter start."""
    samples = []
    for index in range(COLD_STARTS + 1):
        bare_s, proc = run_child(BARE_START)
        if proc.returncode != 0:
            raise RuntimeError(f"bare interpreter start failed: {proc.stderr}")
        elapsed, failure = cold_start(workload, workdir, index)
        tally.attempted += 1
        if failure is not None:
            tally.fail("cli", failure)
        elif index > 0:
            samples.append((elapsed, bare_s))
    return samples


def warm_up(workload):
    for rotation, instance in enumerate(workload.instances[:WARMUP_INSTANCES]):
        run_instance(instance, rotation)
        workload.reference()
    gc.collect()


def timed_run(workload, seconds, workdir):
    tally = Tally()
    starts = cold_starts(workload, workdir, tally)
    warm_up(workload)
    instances = workload.instances
    reference_s = []
    deadline = perf_counter() + seconds
    rotation = 0
    while perf_counter() < deadline:
        index = rotation % len(instances)
        outcome, _ = run_instance(instances[index], rotation)
        tally.add(index, outcome, instances[index].ops)
        reference_s.append(time_call(workload.reference))
        rotation += 1

    scaled = tally.timings(speed_factors(reference_s, REFERENCE_MS[workload.name]))
    setup = [BARE_START_S * cold / bare for cold, bare in starts]
    metrics = {
        "setup_s": (statistics.median(setup) if setup else float("nan"), "s"),
        "instance_ms_p50": (scaled["instance_ms_p50"], "ms"),
        "instance_ms_p90": (scaled["instance_ms_p90"], "ms"),
        "solves_per_s": (scaled["solves_per_s"], "1/s"),
        # the generated inputs count too; they are the same on every commit
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "scaled": scaled,
        "unscaled": tally.timings(),
        "reference_ms_p50": 1e3 * percentile(reference_s, 50),
        "cold_start_s": [cold for cold, _ in starts],
        "bare_start_s": [bare for _, bare in starts],
    }
    return tally, metrics, extra


def _op_counts(method, result, beta):
    """``(method, iterations, Armijo trials)`` of one traced operation."""
    if not hasattr(result, "iterations"):
        return method, None, None
    trials = tracing.armijo_trials(result, beta) if method == "newton" else None
    return method, len(result.iterations), trials


def _unit(name):
    if name.endswith("ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("flop_computed"):
        return "flop"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def traced_run(workload, seconds, workdir):
    import workloads

    recorder = tracing.Recorder()
    patches = tracing.install(recorder)
    for instance in workload.instances:
        tracing.wrap_oracles(recorder, instance.oracles, patches)
    op_log, ops = [], {}
    beta = workloads.nlp.NewtonConfig().beta
    warm_up(workload)

    tallies = {False: Tally(), True: Tally()}
    reference_s = {False: [], True: []}
    deadline = perf_counter() + seconds
    passes = 0
    # Whole passes over the same instances in the same order, alternating
    # untraced and traced, so per-operation counts repeat exactly per seed.
    # The reference runs outside any operation, so it records no spans.
    while passes == 0 or perf_counter() < deadline:
        for traced in (False, True):
            if traced:
                patches.enable()
            try:
                for rotation, instance in enumerate(workload.instances):
                    first = len(op_log)
                    outcome, results = run_instance(
                        instance, rotation, recorder if traced else None, op_log
                    )
                    tallies[traced].add(rotation, outcome, instance.ops)
                    reference_s[traced].append(time_call(workload.reference))
                    for op_id in range(first, len(op_log)):
                        op = op_log[op_id]
                        ops[op_id] = _op_counts(op.method, results.get(op.label), beta)
            finally:
                patches.disable()
        passes += 1

    reference_ms = REFERENCE_MS[workload.name]
    metrics = tracing.layer_metrics(recorder.spans, ops, workloads.METHODS)
    factor = 1e-3 * reference_ms / percentile(reference_s[False] + reference_s[True], 50)
    for name in metrics:
        if name.endswith("ms"):
            metrics[name] *= factor
    untraced, traced = (
        tallies[t].timings(speed_factors(reference_s[t], reference_ms)) for t in (False, True)
    )
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["instance_ms_p50"] / untraced["instance_ms_p50"] - 1.0
    )
    tally = Tally()
    for part in tallies.values():
        tally.attempted += part.attempted
        tally.failures += part.failures
    metrics["fail_ratio"] = tally.failed / tally.attempted if tally.attempted else 0.0
    spans_path = OUT / f"spans-{workload.name}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as fh:
        for span in recorder.spans:
            fh.write(json.dumps({**span._asdict(), "method": ops[span.op][0]}) + "\n")
    extra = {
        "passes": passes,
        "traced_ops": len(ops),
        "spans": len(recorder.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "skipped_names": patches.skipped,
        "speed_factor": factor,
        "scaled": untraced,
        "scaled_traced": traced,
        "unscaled": tallies[False].timings(),
    }
    return tally, {name: (value, _unit(name)) for name, value in metrics.items()}, extra


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(REFERENCE_MS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "eqopt" / "__init__.py").is_file():
        print(f"error: eqopt sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eqopt

    if Path(eqopt.__file__).resolve().parent != SRC / "eqopt":
        print(f"error: imported eqopt from {eqopt.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    env = environment()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workdir = Path(tmp)
        workload = workloads.BUILDERS[args.workload](args.seed, POOL_SIZE, workdir)
        run = traced_run if args.trace else timed_run
        tally, metrics, extra = run(workload, args.seconds, workdir)

    fail_ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "attempted": tally.attempted,
        "failed": tally.failed,
        "fail_ratio": fail_ratio,
        "failures": dict(sorted(tally.failures.items())),
        **extra,
    }
    report_path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} env={json.dumps(env)}")
    scaled = extra["scaled"]
    for group in ("methods", "labels"):
        for key, row in scaled[group].items():
            if group == "labels" and key in scaled["methods"]:
                continue
            raw = extra["unscaled"][group][key]
            print(
                f"# {key:<20} instances={row['instances']} samples={row['samples']:<6} "
                f"p50={row['ms_p50']:.4f} ms  p90={row['ms_p90']:.4f} ms  "
                f"(unscaled p50={raw['ms_p50']:.4f} ms)"
            )
    print(
        f"# fail_ratio={fail_ratio:.6g} ({tally.failed}/{tally.attempted}) "
        f"failures={report['failures']}"
    )
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# report: {report_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
