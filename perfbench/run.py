#!/usr/bin/env python3
"""Run one benchmark workload against the talgebra sources of this checkout.

    env PYTHONHASHSEED=0 python3 perfbench/run.py --workload ground --seed 1 \
        --seconds 10 --trace 0

A closed loop with one client: each operation is sent after the previous
one returns. Rounds of the seeded operation list (at least 100 operations
each) repeat until at least --seconds have passed and at least three rounds
have run; a round is never cut. Each operation starts after a full garbage
collection, outside its timing, so that, as in a fresh CLI process, its time
does not depend on the garbage earlier operations left. The latency metrics
are taken over the operations of one round, each at its fastest time over the
rounds of the run: the processors of a shared host run for seconds at a time
at up to half speed, and the fastest of repeats interleaved over the whole
run keeps that out of the figures. Outputs are checked against
perfbench/reference.py after the timed loop. The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

A traced run first repeats whole rounds untraced for half of --seconds (at
least two), then, after the first of them as a warm-up, as many rounds
traced. Per-layer counts and times are per traced round;
`trace.overhead_s` is the traced wall of a round minus the untraced one.
The hash seed must be 0: set iteration order, and so the work done, depends
on it.
"""

from __future__ import annotations

import os
import sys
import time

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import shutil
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"
MAX_LOOP_SECONDS = 120.0
MIN_ROUNDS = 3          # repeats of each operation that its fastest time is taken over
HASH_SEED = "0"


def process_age() -> float:
    """Seconds since this process started."""
    with open("/proc/self/stat") as stat:
        fields = stat.read().rpartition(")")[2].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def run_rounds(ops, seconds=None, rounds=None, min_rounds=1):
    """Run whole rounds of ops, until `rounds` rounds or until `seconds`
    and `min_rounds` are reached. Returns (latencies, walls, outputs,
    errors): per round the latency of each op and the round's wall time;
    the first round's (rc, stdout, result) per op; and the exceptions and
    the outputs that differ from the first round."""
    import talgebra.cli

    latencies, walls, outputs, errors = [], [], [], []
    start = time.perf_counter()
    while True:
        done = len(walls)
        round_start = time.perf_counter()
        latencies.append([])
        for i, op in enumerate(ops):
            gc.collect()
            out = io.StringIO()
            rc = result = None
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                t0 = time.perf_counter()
                try:
                    if op.argv is not None:
                        rc = talgebra.cli.main(op.argv)
                    else:
                        result = op.call()
                except Exception as exc:     # a crash is a failed operation
                    errors.append((i, f"{type(exc).__name__}: {exc}", True))
                t1 = time.perf_counter()
            latencies[-1].append(t1 - t0)
            got = (rc, out.getvalue(), result)
            if done == 0:
                outputs.append(got)
            elif got != outputs[i]:
                errors.append((i, "output differs from the first round",
                               False))
        walls.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if len(walls) >= rounds:
                break
        elif len(walls) >= min_rounds and (elapsed >= seconds
                                           or elapsed >= MAX_LOOP_SECONDS):
            break
    return latencies, walls, outputs, errors


def verify(ops, outputs, errors):
    """Check the first output of every op that did not crash, report the
    problems on standard error, and return (failed, correct)."""
    crashed = [(i, msg) for i, msg, is_crash in errors if is_crash]
    problems = [msg for _, msg, is_crash in errors if not is_crash]
    failed_ops = {i for i, _ in crashed}
    for i, (op, (rc, out, result)) in enumerate(zip(ops, outputs)):
        if i in failed_ops:
            continue
        try:
            message = op.check(rc, out, result)
        except (ValueError, KeyError, TypeError) as exc:
            message = f"unreadable output: {type(exc).__name__}: {exc}"
        if message:
            problems.append(f"{op.kind}: {message}")
    for _, message in crashed:
        print(f"failed operation: {message}", file=sys.stderr)
    for message in problems[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    return len(crashed), not problems


def percentile(values, q):
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))      # nearest rank
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        print(f"error: run with PYTHONHASHSEED={HASH_SEED}", file=sys.stderr)
        return 2
    if not (SRC / "talgebra" / "__init__.py").is_file():
        print(f"error: no talgebra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = workloads.WORKLOADS[args.workload](rng, work)
        setup_s = process_age()
        if args.trace:
            result = traced_run(ops, args)
        else:
            result = timed_run(ops, args, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


def timed_run(ops, args, setup_s):
    latencies, walls, outputs, errors = run_rounds(
        ops, seconds=args.seconds, min_rounds=MIN_ROUNDS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, correct = verify(ops, outputs, errors)
    attempted = len(ops) * len(walls)
    fastest = [min(r[i] for r in latencies) for i in range(len(ops))]
    completed = (attempted - failed) / attempted
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdicts_per_s": (completed * len(ops) / sum(fastest), "1/s"),
        "verdict_ms_p50": (statistics.median(fastest) * 1000, "ms"),
        "verdict_ms_p90": (percentile(fastest, 90) * 1000, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return result_object(correct, attempted, failed, metrics)


def traced_run(ops, args):
    import tracing

    lat0, walls0, outputs, errors0 = run_rounds(
        ops, seconds=args.seconds / 2, min_rounds=2)
    rounds = len(walls0) - 1
    tracer = tracing.Tracer()
    tracer.install()
    lat1, walls1, outputs1, errors1 = run_rounds(ops, rounds=rounds)
    names = tracing.per_layer_metrics()
    values = tracer.metrics([name for name, _ in names], rounds,
                            (sum(walls1) - sum(walls0[1:])) / rounds)
    errors = errors0 + errors1
    errors += [(i, "traced output differs from the untraced one", False)
               for i, (a, b) in enumerate(zip(outputs, outputs1)) if a != b]
    failed, correct = verify(ops, outputs, errors)
    tracer.write_spans(RESULTS / f"spans-{args.workload}-seed"
                       f"{args.seed}.json")
    metrics = {name: (values[name], unit) for name, unit in names}
    attempted = sum(map(len, lat0)) + sum(map(len, lat1))
    return result_object(correct, attempted, failed, metrics)


def result_object(correct, attempted, failed, metrics):
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
