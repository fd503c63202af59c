#!/usr/bin/env python3
"""Benchmark of starbimod: one closed-loop client over seeded, checked cases.

Run from the repository root:

    python3 benchmarks/run.py --workload identity --seed 1 --seconds 15 --trace 0

Workloads are ``identity``, ``probe``, ``weyl`` and ``forms``; their inputs
are recorded in ``benchmarks/workloads.json``.  One client runs one case
at a time in this process, single-threaded, and checks every answer.

The last line of output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are end to end, measured untraced; with ``--trace 1`` they are
per-layer call counts and self times per case from a traced run, plus the
tracing overhead.  The line before it is a JSON report with the machine,
every set-up time, ``failed_ratio``, which percentile ``case_tail_ms``
is and over how many samples, the raw wall-clock figures, and the
workload's input properties.

Times are scaled to a reference kernel's nominal speed (see speed.py),
because the shared hosts this runs on drift in speed by more than any
useful bound; the raw wall-clock figures sit beside them in the report.

The program is imported from ``src/`` beside this directory.  When that
tree is missing the run stops with an error before printing any result.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import speed
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACE_DIR = ROOT / ".bench_out"

# The probe eigensolves are at most 15x15: BLAS threads only add noise.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_RUNS = 7
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9")
TAIL_MIN_BEYOND = 10
E2E_UNITS = {
    "cases_per_s": "1/s",
    "case_p50_ms": "ms",
    "case_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Each set-up runs in a fresh interpreter, so it pays what the CLI pays
# before its first case: importing starbimod (and numpy), loading the
# measures and the gate.  Interpreter start-up, which is not starbimod's,
# is not timed.  The child samples the kernel itself, so the scale
# follows the speed of the CPU it runs on.
_SETUP_CHILD = (
    "import json, sys\n"
    "root, bench, name = sys.argv[1:]\n"
    "sys.path[:0] = [root + '/src', bench]\n"
    "import speed, workloads\n"
    "from pathlib import Path\n"
    "with speed.Sampler() as sampler:\n"
    "    start = sampler.clock()\n"
    "    import starbimod\n"
    "    workloads.setup(name, starbimod, Path(root))\n"
    "    end = sampler.clock()\n"
    "print(json.dumps([end - start, (end - start) * sampler.scale(start, end)]))\n"
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Import starbimod from the checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "starbimod" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no starbimod sources in {src}")
    sys.path.insert(0, str(src))
    import starbimod

    if Path(starbimod.__file__).resolve().parent != (src / "starbimod").resolve():
        raise SystemExit(f"benchmark: starbimod imported from {starbimod.__file__}")
    return starbimod


def machine(sb) -> dict:
    import numpy

    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                None,
            )
    except OSError:
        pass
    affinity = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": len(affinity) if affinity else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "starbimod": sb.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def timed_setups(name: str) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds of SETUP_RUNS fresh interpreters setting up."""
    raw, scaled = [], []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT), str(BENCH), name],
            check=True,
            capture_output=True,
            text=True,
        )
        seconds, scaled_seconds = json.loads(child.stdout)
        raw.append(seconds)
        scaled.append(scaled_seconds)
    return raw, scaled


def run_pass(name, sb, measures, cases, sampler, recorder=None):
    """Run the cases in order while ``sampler`` samples the kernel.

    Returns raw and scaled seconds per case, both without the time the
    sampler took, and the failed case indices.
    """
    intervals = []
    failed = []
    with sampler:
        for index, case in enumerate(cases):
            if recorder is not None:
                recorder.case = index
            start = sampler.clock()
            try:
                ok = bool(workloads.run_case(name, sb, measures, case))
                error = None
            except Exception as exc:  # a raising case is a failed case; the run goes on
                ok = False
                error = exc
            intervals.append((start, sampler.clock()))
            if not ok:
                failed.append(index)
                print(f"benchmark: {name} case {index} failed its check", file=sys.stderr)
                if error is not None:
                    traceback.print_exception(error, file=sys.stderr)
    raw = [end - start for start, end in intervals]
    scaled = [(end - start) * sampler.scale(start, end) for start, end in intervals]
    return raw, scaled, failed


def percentile(ordered, p: str) -> float:
    """Percentile of a sorted sample, interpolated linearly between ranks."""
    pos = Fraction(p) * (len(ordered) - 1) / 100
    low = math.floor(pos)
    if pos == low:
        return ordered[low]
    high = ordered[low + 1]
    return high if math.isinf(high) else ordered[low] + float(pos - low) * (high - ordered[low])


def beyond(n: int, p: str) -> int:
    """How many of n sorted samples lie above the p-th percentile's position."""
    return n - 1 - math.floor(Fraction(p) * (n - 1) / 100)


def tail_percentile(n: int) -> str:
    """Highest ladder percentile with at least TAIL_MIN_BEYOND samples above it."""
    best = TAIL_LADDER[0]
    for p in TAIL_LADDER:
        if beyond(n, p) >= TAIL_MIN_BEYOND:
            best = p
    return best


def latency_metrics(times, failed, tail: str) -> dict:
    """Throughput and latency of one pass; a failed case misses every limit."""
    latencies = list(times)
    for index in failed:
        latencies[index] = math.inf
    ordered = sorted(latencies)
    return {
        "cases_per_s": len(times) / sum(times),
        "case_p50_ms": percentile(ordered, "50") * 1e3,
        "case_tail_ms": percentile(ordered, tail) * 1e3,
    }


def _metric(name, value):
    return {"value": value if math.isfinite(value) else None, "unit": E2E_UNITS[name]}


def untraced_run(sb, name: str, seed: int, seconds: float):
    setups_raw, setups = timed_setups(name)
    start = perf_counter()
    measures = workloads.setup(name, sb, ROOT)
    in_process_setup = perf_counter() - start
    cases = workloads.run_cases(name, sb, measures, seed, seconds)
    sampler = speed.Sampler()
    raw_times, times, failed = run_pass(name, sb, measures, cases, sampler)

    n = len(cases)
    tail = tail_percentile(n)
    values = latency_metrics(times, failed, tail)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {k: _metric(k, v) for k, v in values.items()}
    raw = latency_metrics(raw_times, failed, tail)
    raw["setup_s"] = statistics.median(setups_raw)
    report = {
        "workload": name,
        "seed": seed,
        "trace": 0,
        "end_to_end": dict(metrics, failed_ratio={"value": len(failed) / n, "unit": "ratio"}),
        "end_to_end_raw_wall_clock": {k: _metric(k, v) for k, v in raw.items()},
        "case_tail": {
            "percentile": float(tail),
            "samples": n,
            "beyond": beyond(n, tail),
        },
        "busy_raw_s": sum(raw_times),
        "setup_runs_s": setups,
        "setup_runs_raw_s": setups_raw,
        "setup_in_process_raw_s": in_process_setup,
        "reference": sampler.summary(),
        "machine": machine(sb),
        "loop": workloads.SPEC["loop"],
        "waits": workloads.SPEC["waits"],
        "inputs": workloads.WORKLOADS[name],
    }
    result = {"correct": not failed, "attempted": n, "failed": len(failed), "metrics": metrics}
    return report, result


def traced_run(sb, name: str, seed: int, seconds: float):
    """Per-layer counts and self times over the cases of a third of the run.

    The same case list runs three times: once counting calls and Scalar
    operations, once untraced and once recording spans.  Counts repeat
    exactly for a given seed and --seconds.  Spans are read on the span
    pass's sampler clock, so no layer's self time holds sampling time, and
    self times are scaled like the end-to-end times, by that pass's own
    kernel samples.
    """
    measures = workloads.setup(name, sb, ROOT)
    cases = workloads.run_cases(name, sb, measures, seed, seconds / 3)
    count = len(cases)
    digest = hashlib.sha256(repr(cases).encode()).hexdigest()
    names = [layer[0] for layer in tracing.LAYERS]

    counter = tracing.CallCounter()
    with tracing.installed(tracing.LAYERS + (tracing.SCALAR_OPS,), counter.wrap):
        failed = run_pass(name, sb, measures, cases, speed.Sampler())[2]
    failures = len(failed)
    _, untraced, failed = run_pass(name, sb, measures, cases, speed.Sampler())
    failures += len(failed)
    sampler = speed.Sampler()
    recorder = tracing.SpanRecorder(names, sampler.clock)
    with tracing.installed(tracing.LAYERS, recorder.wrap):
        traced_raw, traced, failed = run_pass(name, sb, measures, cases, sampler, recorder)
    failures += len(failed)

    calls, self_s = recorder.totals()
    repeatable = all(calls[n] == counter.counts[n] for n in names)
    if not repeatable:
        print("benchmark: span counts differ from the counting pass", file=sys.stderr)
    scale = sum(traced) / sum(traced_raw)
    metrics = {}
    for n in names:
        metrics[f"{n}.calls"] = {"value": counter.counts[n] / count, "unit": "calls/case"}
        metrics[f"{n}.self_s"] = {"value": self_s[n] * scale / count, "unit": "s/case"}
    ops = tracing.SCALAR_OPS[0]
    metrics[f"{ops}.calls"] = {"value": counter.counts[ops] / count, "unit": "ops/case"}
    untraced_cps = count / sum(untraced)
    traced_cps = count / sum(traced)
    metrics["trace.untraced_cases_per_s"] = {"value": untraced_cps, "unit": "1/s"}
    metrics["trace.traced_cases_per_s"] = {"value": traced_cps, "unit": "1/s"}
    metrics["trace.overhead_ratio"] = {"value": 1 - traced_cps / untraced_cps, "unit": "ratio"}

    spans_file = write_spans(recorder, name, seed, digest)
    report = {
        "workload": name,
        "seed": seed,
        "trace": 1,
        "trace_cases": count,
        "case_list_sha256": digest,
        "spans": len(recorder.spans),
        "spans_file": str(spans_file.relative_to(ROOT)),
        "reference": sampler.summary(),
        "machine": machine(sb),
        "loop": workloads.SPEC["loop"],
        "waits": workloads.SPEC["waits"],
        "inputs": workloads.WORKLOADS[name],
    }
    result = {
        "correct": failures == 0 and repeatable,
        "attempted": 3 * count,
        "failed": failures,
        "metrics": metrics,
    }
    return report, result


def write_spans(recorder, name: str, seed: int, digest: str) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"spans-{name}-seed{seed}.json.gz"
    with gzip.open(path, "wt") as fh:
        json.dump(
            {
                "workload": name,
                "seed": seed,
                "case_list_sha256": digest,
                "names": recorder.names,
                "fields": ["name", "start_s", "end_s", "parent", "case"],
                "clock": "perf_counter seconds less the time spent sampling the reference kernel",
                "spans": recorder.spans,
            },
            fh,
        )
    return path


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sb = import_program()
    run = traced_run if args.trace else untraced_run
    report, result = run(sb, args.workload, args.seed, args.seconds)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
