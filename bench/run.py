"""Run one benchmark workload against ``src/glattice`` and print its metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {table,groups,lattice} --seed N --seconds S --trace {0,1}

The workload seed fixes the inputs; ``--seconds`` fixes the op count as the
number of ops that take about that long at the nominal rate of the commit
that defined the benchmark, so a run always does the same work and a faster
program finishes sooner.  Set-up (a fresh import of ``glattice`` plus input
generation, including writing input documents) is repeated and its median
reported.  Every op's outcome is checked outside the timed region.

End-to-end times are the CPU time of the benchmark's one thread, scaled to
a reference CPU speed (see ``ScaledClock``).  The program is
single-threaded, computes in memory and reads its input documents from the
page cache, so on an idle machine CPU time equals wall time; on a shared
machine it leaves out the time slices the scheduler gives to other
processes, which would otherwise add tens of milliseconds to a few ops at
random.

With ``--trace 0`` the ops run untraced and the end-to-end metrics are
reported.  With ``--trace 1`` each op of a half-length list runs once
untraced and once under the tracer; the per-layer metrics come from the
traced executions, and ``trace.overhead_ratio`` compares the two.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print every metric by name with its unit, and the run context.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import oracle  # noqa: E402  (the script directory is on sys.path)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
COVERAGE_FLOOR = 0.9  # share of traced op wall time the root spans must cover on table
CALIBRATION_EVERY_S = 0.25  # wall time between calibration samples, taken between ops
CALIBRATION_NEIGHBOURS = 3  # samples on each side of a measurement that scale it
REFERENCE_S = 0.00125  # calibration CPU time of the reference CPU that times are scaled to


class ScaledClock:
    """The thread's CPU time, scaled to a reference CPU speed.

    The 2-core x86_64 machine the benchmark was defined on shares its cores
    with other tenants: for seconds to minutes at a time the same code runs
    up to 40% slower, so a whole run can sit in a slow spell.  A fixed calibration
    computation, Bareiss determinants of a 16 x 16 matrix written in the
    benchmark so that no change to glattice can alter it, is timed between
    ops every ``CALIBRATION_EVERY_S``.  Each measurement is multiplied by
    ``REFERENCE_S`` over the median of the calibration samples nearest to it
    in time.  Over 3 s windows of an 80 s probe on that machine, glattice
    op times varied by 10-12% (coefficient of variation) and their ratio to
    the calibration by 3-5%.
    """

    def __init__(self) -> None:
        self._matrix = oracle.random_matrix(random.Random(0), 16, 16, 20)
        self._samples: list[tuple[float, float]] = []  # (wall time, calibration CPU seconds)
        self._due = 0.0

    def calibrate(self, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now < self._due:
            return
        start = time.thread_time()
        for _ in range(3):
            oracle.det(self._matrix)
        self._samples.append((now, time.thread_time() - start))
        self._due = time.perf_counter() + CALIBRATION_EVERY_S

    def median_calibration(self) -> float:
        return statistics.median(dt for _, dt in self._samples)

    def scaled(self, measured: list[tuple[float, float]]) -> list[float]:
        """Scale ``(wall time, CPU seconds)`` measurements to the reference CPU."""
        times = [t for t, _ in self._samples]
        out = []
        for at, dt in measured:
            i = bisect.bisect_left(times, at)
            near = self._samples[max(0, i - CALIBRATION_NEIGHBOURS):i + CALIBRATION_NEIGHBOURS]
            out.append(dt * REFERENCE_S / statistics.median(c for _, c in near))
        return out

    def measure(self, fn):
        """Run ``fn`` and return its result and ``(wall midpoint, CPU seconds)``."""
        wall, start = time.perf_counter(), time.thread_time()
        result = fn()
        dt = time.thread_time() - start
        return result, ((wall + time.perf_counter()) / 2, dt)


def fresh_import():
    """Import ``glattice`` from ``src`` anew, as a new process would."""
    for name in [k for k in sys.modules if k == "glattice" or k.startswith("glattice.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    gl = importlib.import_module("glattice")
    importlib.import_module("glattice.cli")
    if Path(gl.__file__).resolve().parent != (SRC / "glattice").resolve():
        raise ImportError(f"glattice was imported from {gl.__file__}, not from {SRC}")
    return gl


def judge(op, outcome) -> str | None:
    if isinstance(outcome, Exception):
        return f"{op.kind}: raised {type(outcome).__name__}: {outcome}"
    try:
        reason = op.check(outcome)
    except Exception as e:  # a malformed report is a wrong outcome
        reason = f"outcome check raised {type(e).__name__}: {e}"
    return f"{op.kind}: {reason}" if reason else None


def call(op):
    try:
        return op.call()
    except Exception as e:  # a crash is an op outcome, checked like any other
        return e


def wall_timed(op) -> tuple[object, float]:
    start = time.perf_counter()
    outcome = call(op)
    return outcome, time.perf_counter() - start


def run_untraced(ops, clock: ScaledClock):
    measured, failures = [], []
    for op in ops:
        clock.calibrate()
        outcome, m = clock.measure(lambda: call(op))
        measured.append(m)
        failures.append(judge(op, outcome))
    clock.calibrate(force=True)
    return clock.scaled(measured), failures


def run_traced(ops):
    """Each op untraced and traced, alternating which goes first.

    Spans are timed by the wall clock, which is cheap to read on every call,
    so op times here are wall times too.
    """
    tracer = Tracer()
    untraced = traced = 0.0
    failures = []
    for i, op in enumerate(ops):
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    outcome, dt = wall_timed(op)
                finally:
                    tracer.uninstall()
                traced += dt
            else:
                outcome, dt = wall_timed(op)
                untraced += dt
            failures.append(judge(op, outcome))
    metrics = tracer.metrics()
    metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
    metrics["trace.coverage"] = (tracer.root_s / traced, "ratio")
    return metrics, failures


def end_to_end(latencies, failed, setups):
    n = len(latencies)
    k = n - TAIL_BEYOND  # rank of the tail sample, counted from the fastest
    metrics = {
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (sorted(latencies)[k - 1] * 1e3, "ms"),
        "error_rate": (failed / n, "ratio"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, 100.0 * k / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "glattice" / "__init__.py").is_file():
        print(f"error: no glattice sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_ops = 1 if args.trace else TAIL_BEYOND + 1
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"

    def set_up():
        gl = fresh_import()
        return workload.make_ops(gl, args.seed, seconds, min_ops, workdir)

    try:
        clock = ScaledClock()
        setups = []
        for _ in range(SETUP_REPEATS):
            clock.calibrate(force=True)
            ops, sample = clock.measure(set_up)
            setups.append(sample)
        clock.calibrate(force=True)
        if args.trace:
            metrics, failures = run_traced(ops)
            keys = [m["name"] for m in declared["per_layer"]]
        else:
            latencies, failures = run_untraced(ops, clock)
            metrics, tail_pct = end_to_end(latencies, sum(map(bool, failures)), clock.scaled(setups))
            keys = [m["name"] for m in declared["end_to_end"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [f for f in failures if f]
    for reason in failed[:10]:
        print(f"FAILED {reason}", file=sys.stderr)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "executions": len(failures),
        "setup_repeats": SETUP_REPEATS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "calibration_ms": round(clock.median_calibration() * 1e3, 4),
        "reference_calibration_ms": REFERENCE_S * 1e3,
    }
    if not args.trace:
        context["p50_samples"] = len(latencies)
        context["tail_percentile"] = round(tail_pct, 2)
        context["tail_samples_beyond"] = TAIL_BEYOND
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>16.6f} {unit}")
    print("context " + json.dumps(context))

    if args.trace and args.workload == "table" and metrics["trace.coverage"][0] < COVERAGE_FLOOR:
        print(f"error: root spans cover {metrics['trace.coverage'][0]:.3f} of op wall time, "
              f"below {COVERAGE_FLOOR}", file=sys.stderr)
        return 1
    result = {
        "correct": not failed,
        "attempted": len(failures),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in keys},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
