"""Benchmark of hetnoma: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see BENCHMARK.json for why each was chosen): mc_stock,
mc_dense_users, beta_search, sweep_cli.  Load is one process in a closed
loop: each op starts when the previous one has ended.  A pass runs every
distinct op of the workload once; one untimed warm-up pass comes first.
Every pass repeats the same ops.

Op times are reported at a reference machine speed: right before and
right after every op the benchmark measures how much slower than the
reference the machine runs (speed.slowdown), and divides the op's time
by the mean of the two factors.  An op's latency is the median of these
scaled times over its repeats.  op_ms_p50/p90 are taken over the distinct
ops; wall_s, the time of one pass, is the sum of the ops' latencies.  The
measured op times are kept in the record written to perfbench/out/.
setup_s is not scaled: it is the median of several fresh-interpreter
set-ups spread over the run, as measured (the calibration loop does not
track the speed of imports).

--trace 0 measures the end-to-end metrics with no tracing.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics
from the spans of the traced ones.  Every op's output is checked; a
failing check counts the op as failed.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A fuller
record with the run's manifest is written to perfbench/out/, and the
spans of a traced run to perfbench/out/spans-<workload>-seed<n>.csv.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


class Runner:
    """Runs passes of a workload and keeps the op counts and latencies."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors = []
        # per op: measured seconds and seconds at the reference speed
        self.measured = {key: [] for key in workload.keys}
        self.latency = {key: [] for key in workload.keys}

    def run_pass(self, tracer=None):
        """One pass over every op.

        Returns (measured op seconds, op seconds at the reference speed,
        tagged cells), summed over the pass's ops.
        """
        wl = self.workload
        results = {}
        failed_ops = set()
        errors = []
        measured = scaled = 0.0
        cells = 0
        for key in wl.keys:
            op = self.attempted
            self.attempted += 1
            before = speed.slowdown()
            if tracer is not None:
                tracer.op_id = op
            t0 = time.perf_counter()
            try:
                result = wl.run(key)
            except Exception:
                traceback.print_exc()
                op_errors = [f"{key!r}: op raised"]
            else:
                elapsed = time.perf_counter() - t0
                at_reference = elapsed / (0.5 * (before + speed.slowdown()))
                self.measured[key].append(elapsed)
                self.latency[key].append(at_reference)
                measured += elapsed
                scaled += at_reference
                n, op_errors = wl.inspect(key, result)
                cells += n
                results[key] = result
            if op_errors:
                failed_ops.add(op)
                errors.extend(op_errors)
        if len(results) == len(wl.keys):
            pass_errors = wl.finish_pass(results)
            if pass_errors:
                failed_ops.update(range(self.attempted - len(wl.keys), self.attempted))
                errors.extend(pass_errors)
        self.failed += len(failed_ops)
        for message in errors:
            print(f"check failed: {message}", file=sys.stderr)
        self.errors.extend(errors)
        return measured, scaled, cells

    def forget_timings(self):
        for key in self.workload.keys:
            self.measured[key].clear()
            self.latency[key].clear()


def percentiles(values):
    """Median and 90th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=10, method="inclusive")
    return q[4], q[8]


def setup_probe(workload, seed):
    """Seconds to import hetnoma and build the workload's inputs in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1])


def run_untraced(runner, args):
    # the warm-up pass has run, so this holds the pool workers' peak and
    # not yet that of the set-up probes
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    passes, cells, setups = 0, 0, []
    start = time.perf_counter()
    while not passes or time.perf_counter() < start + args.seconds:
        cells += runner.run_pass()[2]
        passes += 1
        # spread the set-up probes over the run, so that one slow spell of
        # the machine does not hold all of them
        if (len(setups) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setups) * args.seconds / SETUP_REPEATS):
            setups.append(setup_probe(args.workload, args.seed))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(args.workload, args.seed))
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    keys = runner.workload.keys
    never = [key for key in keys if not runner.latency[key]]
    if never:
        raise RuntimeError(f"ops {never!r} failed on every repeat; no timing to report")
    latency = {key: statistics.median(runner.latency[key]) for key in keys}
    p50, p90 = percentiles(list(latency.values()))
    wall = sum(latency.values())
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "op_ms_p50": 1e3 * p50,
        "op_ms_p90": 1e3 * p90,
        "ops_per_s": len(keys) / wall,
        "cells_per_s": cells / passes / wall,
        "peak_rss_mb": (own_kb + children_kb) / 1024.0,
    }
    details = {
        "passes": passes,
        "setup_probe_s": setups,
        "measured_op_ms": {repr(k): [1e3 * t for t in runner.measured[k]] for k in keys},
        "reference_op_ms": {repr(k): [1e3 * t for t in runner.latency[k]] for k in keys},
    }
    return values, details


def run_traced(runner, args):
    import layers
    from spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.run_pass())
        layers.install(tracer)
        try:
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.restore()
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
    values = layers.metrics(
        tracer, len(traced) * len(runner.workload.keys),
        sum(measured for measured, _, _ in traced),
        statistics.median(scaled for _, scaled, _ in plain),
        statistics.median(scaled for _, scaled, _ in traced),
    )
    details = {
        "measured_plain_pass_s": [measured for measured, _, _ in plain],
        "measured_traced_pass_s": [measured for measured, _, _ in traced],
        "spans": len(tracer.spans),
    }
    return values, details


def _command_output(argv):
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout if proc.returncode == 0 else None


def manifest(args, workload):
    import numpy
    import scipy

    import hetnoma

    commit = None
    git = _command_output(["git", "rev-parse", "--show-toplevel", "HEAD"])
    if git is not None:
        top, head = git.split()
        if Path(top).resolve() == ROOT:
            commit = head
    caches = {}
    for line in (_command_output(["lscpu"]) or "").splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("L2 cache", "L3 cache"):
            caches[key.strip().replace(" cache", "").lower()] = value.strip()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "n_jobs": workload.n_jobs,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "hetnoma": hetnoma.__version__,
        "git_commit": commit,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="hetnoma benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {list(workloads.NAMES)})", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workload = workloads.make(args.workload, args.seed, OUT)
    try:
        runner = Runner(workload)
        runner.run_pass()  # warm-up
        runner.forget_timings()
        measure = run_traced if args.trace else run_untraced
        values, details = measure(runner, args)
    finally:
        workload.close()

    if args.trace:
        import layers

        units = {name: unit for name, unit, _ in layers.declared()}
    else:
        units = dict(END_TO_END)
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    info = manifest(args, workload)
    record = {
        "manifest": info,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failed_frac": runner.failed / runner.attempted,
        "errors": runner.errors[:20],
        "metrics": metrics,
        **details,
    }
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, entry in metrics.items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(f"failed_frac {record['failed_frac']!r} ({runner.failed}/{runner.attempted} ops)")
    print("manifest " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
