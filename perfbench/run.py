"""Benchmark of rotalign: three seeded workloads through its public entry points.

    python3 perfbench/run.py --workload mc-linear --seed 1 --seconds 30 --trace 0

Run from the repository root (any directory works; paths are taken from this
file).  The load is one closed-loop caller on one Python thread, with numpy's
BLAS held to one thread.  Set-up (a fresh-interpreter import of the program,
input generation and a warm-up call) runs several times and reports its
median.  Then the workload's pool of seeded inputs is run once in full and
cycled until ``--seconds`` have passed.  Each input counts once in the
latency percentiles, with the median of its repeats; errors are taken from
the first pass.  Each time is scaled to a nominal host speed measured around
it (see bench_speed.py).

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer split (see bench_trace.py), taken by running each
input of the first half of the pool untraced and then traced, in as many
whole cycles as fit in ``--seconds`` (at least one).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only when every operation
and every pool check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

SETUPS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc-linear", "grid-cli", "piecewise"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("seed and seconds must be non-negative")
    return args


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def import_in_fresh_interpreter() -> None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import rotalign.cli, rotalign.experiments"],
                   env=env, cwd=ROOT, check=True, timeout=120)


def set_up(workloads, name, seed, workdir, speed):
    """Run the whole set-up SETUPS times; return the last and the (start,
    seconds) of each."""
    times = []
    for _ in range(SETUPS):
        speed.probe()
        start = time.perf_counter()
        import_in_fresh_interpreter()
        workload = workloads[name]()
        workload.setup(seed, workload.default_pool, workdir)
        warm = workload.run(0)
        times.append((start, time.perf_counter() - start))
    return workload, warm, times


def measure(workload, seconds, speed):
    """First pass over the pool, then cycle until ``seconds`` have passed."""
    from bench_workloads import check_repeat

    n = workload.size
    first = [None] * n
    latencies = [[] for _ in range(n)]
    failures = []
    attempted = 0
    start = time.perf_counter()
    while attempted < n or time.perf_counter() - start < seconds:
        i = attempted % n
        result = check_repeat(first[i], workload.run(i))
        attempted += 1
        if first[i] is None:
            first[i] = result
        if result.ok:
            latencies[i].append((time.perf_counter(), result.seconds))
        else:
            failures.append(result.detail)
        speed.maybe_probe()
    return first, latencies, attempted, failures


def percentile(values, q: float) -> float:
    """q-th percentile with linear interpolation between order statistics."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(first, latencies, setups, speed):
    """Each input counts once: its latency is the median over its repeats.
    Every time is scaled by the host speed around it."""
    per_input = [statistics.median(speed.scale(t) * s for t, s in samples)
                 for samples in latencies if samples]
    setup_s = statistics.median(speed.scale(t) * s for t, s in setups)
    errors = [r.error for r in first if r.ok]
    if not per_input or not errors:
        return {}
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(per_input) / math.fsum(per_input), "1/s"),
        "latency_p50_ms": metric(1e3 * percentile(per_input, 50), "ms"),
        "latency_p90_ms": metric(1e3 * percentile(per_input, 90), "ms"),
        "error_geomean": metric(statistics.geometric_mean(errors), "1"),
        "error_p90": metric(percentile(errors, 90), "1"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def measure_traced(workload, seconds, speed):
    """Pair each input of the first half of the pool: untraced, then traced."""
    from bench_trace import Tracer
    from bench_workloads import check_repeat

    subset = max(1, workload.size // 2)
    tracer = Tracer()
    plain_s = traced_s = 0.0
    results, failures = [], []
    start = time.perf_counter()
    cycle_s = 0.0
    # Whole cycles keep the per-operation counts exact; start one only if it
    # ends in time.
    while not results or time.perf_counter() - start + cycle_s <= seconds:
        cycle_start = time.perf_counter()
        for i in range(subset):
            plain = workload.run(i)
            with tracer.installed():
                traced = check_repeat(plain, workload.run(i, tracer))
            for r in (plain, traced):
                if not r.ok:
                    failures.append(r.detail)
            plain_s += plain.seconds
            traced_s += traced.seconds
            results.append(traced)
            speed.maybe_probe()
        cycle_s = time.perf_counter() - cycle_start
    return tracer, results, plain_s, traced_s, failures


def per_layer(tracer, results, plain_s, traced_s, scale):
    ops = len(results)
    layers = tracer.layers

    def ms(layer):
        return metric(scale * layers[layer].self_ns / 1e6 / ops, "ms")

    corr = layers["correlation"]
    iterations = [r.iterations for r in results]
    return {
        "correlation.calls": metric(corr.calls / ops, "count"),
        "correlation.ms": metric(scale * corr.total_ns / 1e6 / ops, "ms"),
        "correlation.share": metric(corr.total_ns / 1e9 / traced_s, "frac"),
        "correlation.bytes_computed": metric(corr.bytes_computed / ops, "B"),
        "correlation.cell_pairs": metric(corr.cell_pairs / ops, "count"),
        "fields.rotate_calls": metric(layers["fields.rotate"].calls / ops, "count"),
        "fields.rotate_self_ms": ms("fields.rotate"),
        "fields.norm_ms": ms("fields.norm"),
        "ga3.rotation_matrix_ms": ms("ga3.rotation_matrix"),
        "ga3.compose_ms": ms("ga3.compose"),
        "ga3.rotor_ms": ms("ga3.rotor"),
        "detector.self_ms": ms("detector"),
        "detector.iterations_mean": metric(sum(iterations) / ops, "count"),
        "detector.iterations_max": metric(max(iterations), "count"),
        "detector.error_p99": metric(
            percentile([r.error for r in results], 99), "1"),
        "experiments.draw_ms": ms("experiments.draw"),
        "experiments.score_ms": ms("experiments.score"),
        "experiments.self_ms": ms("experiments"),
        "cli.load_ms": ms("cli.load"),
        "cli.self_ms": ms("cli"),
        "trace.op_ms": metric(scale * 1e3 * traced_s / ops, "ms"),
        "trace.overhead_frac": metric(traced_s / plain_s - 1.0, "frac"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rotalign" / "__init__.py").is_file():
        print(f"error: no rotalign package under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from bench_speed import HostSpeed
    from bench_workloads import WORKLOADS

    speed = HostSpeed()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workload, warm, setups = set_up(WORKLOADS, args.workload, args.seed,
                                        Path(tmp), speed)
        failures = [] if warm.ok else [f"warm-up: {warm.detail}"]
        if args.trace:
            tracer, results, plain_s, traced_s, failed = measure_traced(
                workload, args.seconds, speed)
            attempted = 2 * len(results)
            metrics = per_layer(tracer, results, plain_s, traced_s,
                                speed.scale()) if not failed else {}
        else:
            first, latencies, attempted, failed = measure(workload, args.seconds,
                                                          speed)
            failed += workload.pool_problems(first)
            metrics = end_to_end(first, latencies, setups, speed)
    failures += failed
    attempted += 1  # the warm-up call

    print(f"{args.workload:10s} {'host speed scale':28s} {speed.scale():14.6g} "
          f"({len(speed.samples)} probes)")
    for name, m in metrics.items():
        print(f"{args.workload:10s} {name:28s} {m['value']:14.6g} {m['unit']}")
    for detail in failures[:20]:
        print(f"FAILED: {detail}", file=sys.stderr)
    correct = not failures and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.exit(main())
