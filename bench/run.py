"""Benchmark for wignermoments: three seeded workloads, one closed-loop caller.

Usage, from the root of a checkout:

    python3 bench/run.py --workload catalog|synthesis|multicopy \
        --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

The package is imported from the checkout's `src/` and driven only through
its public functions, one call at a time (a closed loop with one caller).
The workload's fixed operation list, generated from the seed, is run in
whole passes: as many as fit in `--seconds` at the pass time recorded in
workloads.PASS_SECONDS, and at least three. Every result is checked against
an independent reference (see workloads.py).

End-to-end metrics: `setup_s` is the median wall time of several fresh
interpreters importing the modules the workload calls. Each operation's
latency is its median over the passes (a burst from another tenant of a
shared machine during one pass does not move it); `latency_p50_ms` and
`latency_p90_ms` are quantiles of those.
`ops_per_s` is the median over passes of operations per second of summed
call time. `peak_rss_mb` is the process's ru_maxrss.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, checks that both give bit-identical results, and prints the
per-layer metrics from the traced passes (per pass), the import breakdown
and the tracing overhead. `--workload all` runs each workload untraced in its
own fresh process and prints their metric tables.

The last line of output is one JSON object with the keys correct, attempted,
failed and metrics. Everything before it is for people: provenance, sample
counts and spreads, and any failed checks. The exit code is 1 when the run is
not correct (`--workload all`: when any workload's run is not), 2 when the
package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("catalog", "synthesis", "multicopy")
SETUP_SPAWNS = 7
IMPORTTIME_SPAWNS = 5
MIN_PASSES = 3
MAX_PROBLEM_LINES = 20


def _spawn_import(modules, importtime=False):
    """Wall time of a fresh interpreter importing `modules`; -X importtime stderr."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import " + ", ".join(modules)
    argv = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import of {modules} failed:\n{proc.stderr[-2000:]}")
    return wall, proc.stderr


def _importtime_by_package(stderr):
    """Sum of self import times (s) per top-level package."""
    out = {"numpy": 0.0, "scipy": 0.0, "wignermoments": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = [part.strip() for part in line[len("import time:"):].split("|")]
        top = name.split(".")[0]
        if top in out:
            out[top] += int(self_us) * 1e-6
    return out


def _quantile(sorted_vals, q):
    """Linear-interpolated quantile (numpy's default) of a sorted list."""
    pos = q * (len(sorted_vals) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def _fingerprint(result):
    """Exact identity of an operation result, for traced-vs-untraced comparison."""
    from wignermoments import moments, multicopy

    if isinstance(result, moments.MomentReport):
        return (
            result.state,
            result.cutoff,
            result.quadrature.order,
            tuple((m, float(v).hex()) for m, v in sorted(result.moments.items())),
            float(result.delta).hex(),
            result.verdict,
            float(result.est_error).hex(),
        )
    if isinstance(result, multicopy.TruncatedOperator):
        return _fingerprint(result.matrix.tobytes())
    if isinstance(result, bytes):
        return hashlib.blake2b(result, digest_size=16).hexdigest()
    if isinstance(result, complex):
        return (result.real.hex(), result.imag.hex())
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, tuple):
        return tuple(_fingerprint(x) for x in result)
    return repr(result)


class Tally:
    """Counts and per-operation latencies over the measured passes."""

    def __init__(self):
        self.latencies = []  # one entry per timed call, passes concatenated
        self.attempted = 0
        self.failed = 0
        self.violations = 0
        self.problems = []

    def record(self, op, seconds, problems):
        self.latencies.append(seconds)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.violations += any(p.violation for p in problems)
            for p in problems:
                text = f"{op.kind} {op.label}: {p.text}"
                if text not in self.problems:
                    self.problems.append(text)


def run_pass(ops, tally, tracer=None):
    """One closed-loop pass over the operation list; returns fingerprints."""
    from wignermoments.errors import WignerMomentsError
    from workloads import Problem

    prints = []
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter_ns()
        try:
            result = op.call()
            error = None
        except WignerMomentsError as exc:
            result, error = None, Problem(False, f"raised {type(exc).__name__}: {exc}")
        except Exception as exc:  # a crash outside the package's error taxonomy
            result, error = None, Problem(True, f"crashed {type(exc).__name__}: {exc}")
        seconds = (time.perf_counter_ns() - t0) * 1e-9
        if tracer is not None:
            tracer.op = None
        problems = [error] if error else op.check(result)
        tally.record(op, seconds, problems)
        prints.append(None if error else _fingerprint(result))
        del result
    return prints


def provenance(seed, workload):
    import numpy
    import scipy

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        commit = proc.stdout.strip() or commit
    digest = hashlib.sha256()
    for path in sorted((SRC / "wignermoments").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "blas_threads": _blas_threads(),
        "blas_threads_env": {
            k: os.environ[k]
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def _blas_threads():
    """OpenBLAS pool size as the loaded library reports it (None if unknown)."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _print_problems(tally):
    if not tally.problems:
        return
    print(f"failed checks ({len(tally.problems)} distinct):")
    for text in tally.problems[:MAX_PROBLEM_LINES]:
        print(f"  {text}")
    if len(tally.problems) > MAX_PROBLEM_LINES:
        print(f"  ... {len(tally.problems) - MAX_PROBLEM_LINES} more")


def _print_metrics(rows):
    for name, value, unit, note in rows:
        print(f"  {name:34s} {value:>16.6g} {unit:8s} {note}")


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    import workloads

    spawns = [
        _spawn_import(workloads.SETUP_IMPORTS[workload])[0] for _ in range(SETUP_SPAWNS)
    ]
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        t0 = time.perf_counter()
        ops = workloads.build(workload, seed, scratch)
        inputs_s = time.perf_counter() - t0
        tally = Tally()
        passes = max(MIN_PASSES, round(seconds / workloads.PASS_SECONDS[workload]))
        for _ in range(passes):
            run_pass(ops, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    # Each operation's latency is its median over the passes: on a shared
    # machine that varied less from run to run than its best over the passes.
    # Throughput is the median pass's.
    n = len(ops)
    per_pass = [tally.latencies[i * n:(i + 1) * n] for i in range(passes)]
    typical = sorted(statistics.median(p[i] for p in per_pass) for i in range(n))
    throughput = [n / sum(p) for p in per_pass]
    beyond_p90 = sum(1 for v in typical if v > _quantile(typical, 0.90))
    metrics = {
        "setup_s": (statistics.median(spawns), "s"),
        "ops_per_s": (statistics.median(throughput), "ops/s"),
        "latency_p50_ms": (_quantile(typical, 0.50) * 1e3, "ms"),
        "latency_p90_ms": (_quantile(typical, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(json.dumps({"provenance": provenance(seed, workload)}))
    print(
        f"workload {workload}: {n} ops per pass, {passes} passes, "
        f"{tally.attempted} timed calls, inputs built in {inputs_s:.3f} s"
    )
    _print_metrics(
        [
            ("setup_s", metrics["setup_s"][0], "s",
             f"median of {len(spawns)} spawns, min {min(spawns):.3f} max {max(spawns):.3f}"),
            ("ops_per_s", metrics["ops_per_s"][0], "ops/s",
             f"median of {passes} passes, min {min(throughput):.4g} max {max(throughput):.4g}"),
            ("latency_p50_ms", metrics["latency_p50_ms"][0], "ms",
             f"{n} samples, each an op's median of {passes} passes"),
            ("latency_p90_ms", metrics["latency_p90_ms"][0], "ms",
             f"{n} samples, {beyond_p90} beyond"),
            ("fail_frac", tally.failed / tally.attempted, "ratio",
             f"{tally.failed} of {tally.attempted} attempted"),
            ("peak_rss_mb", metrics["peak_rss_mb"][0], "MB", "ru_maxrss, 1 sample"),
        ]
    )
    _print_problems(tally)
    return tally, {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def _layer_unit(name):
    if "per_s" in name:
        return "1/s"
    if name.endswith("_s") or ".eval_s." in name:
        return "s"
    if name.endswith(("share", "overhead")):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def measure_traced(workload, seed, seconds):
    """Traced run: per-layer metrics, bit-identity and overhead."""
    import tracing
    import workloads

    imports = [
        _importtime_by_package(_spawn_import(workloads.SETUP_IMPORTS[workload], True)[1])
        for _ in range(IMPORTTIME_SPAWNS)
    ]
    scratch = tempfile.mkdtemp(dir=OUT_DIR)
    tracer = tracing.Tracer()
    try:
        ops = workloads.build(workload, seed, scratch)
        # a first untraced pass warms caches and fixes the reference results;
        # then traced and untraced passes alternate
        untraced_tally = Tally()
        reference = run_pass(ops, untraced_tally)
        tally = Tally()
        plain_lat, traced_lat = [], []
        mismatches = 0
        traced_passes = max(1, round(seconds / (2 * workloads.PASS_SECONDS[workload])))
        for _ in range(traced_passes):
            uninstall = tracing.install(tracer)
            try:
                traced = run_pass(ops, tally, tracer)
            finally:
                uninstall()
            traced_lat.append(sum(tally.latencies[-len(ops):]))
            mismatches += sum(1 for a, b in zip(reference, traced) if a != b)
            plain = run_pass(ops, untraced_tally)
            plain_lat.append(sum(untraced_tally.latencies[-len(ops):]))
            mismatches += sum(1 for a, b in zip(reference, plain) if a != b)
        tally.violations += untraced_tally.violations
        spans = tracer.spans
        layer = tracing.rollup(spans, traced_passes)
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(trace_path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    overhead = statistics.median(traced_lat) / statistics.median(plain_lat) - 1.0
    for pkg in ("numpy", "scipy", "wignermoments"):
        layer[f"import.{pkg}_s"] = statistics.median(d[pkg] for d in imports)
    layer["trace.overhead"] = overhead
    print(json.dumps({"provenance": provenance(seed, workload)}))
    print(
        f"workload {workload} traced: 1 warm-up + {traced_passes} traced + {traced_passes} "
        f"untraced passes of {len(ops)} ops, {len(spans)} spans written to "
        f"{trace_path.relative_to(ROOT)}"
    )
    print(
        f"  bit-identical results, every pass vs the warm-up pass: "
        f"{'yes' if mismatches == 0 else f'NO ({mismatches} differ)'}"
    )
    print(
        f"  tracing overhead: {overhead * 100:+.2f}% of op time "
        f"(traced {statistics.median(traced_lat):.3f} s vs untraced "
        f"{statistics.median(plain_lat):.3f} s per pass, median)"
    )
    print(
        f"  import breakdown: median of {IMPORTTIME_SPAWNS} -X importtime spawns; "
        f"other layer figures are per traced pass"
    )
    _print_metrics([(k, v, _layer_unit(k), "") for k, v in sorted(layer.items())])
    _print_problems(tally)
    tally.violations += mismatches
    return tally, {k: {"value": v, "unit": _layer_unit(k)} for k, v in sorted(layer.items())}


def run_all(seed, seconds):
    """Each workload untraced in a fresh process; fails if any run is incorrect."""
    code = 0
    for workload in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stderr)
            code = code or proc.returncode or 1
            continue
        print("\n".join(lines[:-1]))
        print(f"  correct: {result['correct']} "
              f"({result['failed']} of {result['attempted']} attempted failed)")
        code = code or proc.returncode or (0 if result["correct"] else 1)
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "wignermoments" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import wignermoments

    if Path(wignermoments.__file__).resolve().parent != (SRC / "wignermoments").resolve():
        print(f"error: imported wignermoments from {wignermoments.__file__}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)

    OUT_DIR.mkdir(exist_ok=True)
    if args.trace:
        tally, metrics = measure_traced(args.workload, args.seed, args.seconds)
    else:
        tally, metrics = measure(args.workload, args.seed, args.seconds)
    result = {
        "correct": tally.violations == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
