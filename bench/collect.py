"""Run workloads over several seeds and report each metric's median and spread.

Usage, from the root of a checkout:

    python3 bench/collect.py --workloads table groups lattice --seeds 1-10 [--trace] [--out FILE]
    python3 bench/collect.py --workloads table --seeds 1,1 --trace   # do the trace counts repeat?

Each run is a separate ``bench/run.py`` process, started after the previous
one has exited.  For every end-to-end metric the spread is the distance
between the first and third quartiles of the per-run values, as a share of
their median, and it is printed beside the metric's bound from
``BENCHMARK.json``.  With ``--out`` the per-run results and the summary are
written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 180


def seed_range(text: str) -> list[int]:
    """``1-10`` is seeds 1 to 10; ``3,3`` runs seed 3 twice."""
    if "," in text:
        return [int(s) for s in text.split(",")]
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.strip().splitlines()
    context = json.loads(lines[-2].removeprefix("context "))
    return {"seed": seed, "wall_s": wall, "context": context, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], bounds: dict) -> dict:
    """Median, quartiles and spread of each metric, plus the error rate."""
    metrics = [dict(r["result"]["metrics"]) for r in runs]
    for m, r in zip(metrics, runs):
        m["error_rate"] = {"value": r["result"]["failed"] / r["result"]["attempted"], "unit": "ratio"}
    out = {}
    for name in metrics[0]:
        values = [m[name]["value"] for m in metrics]
        median = statistics.median(values)
        entry = {"unit": metrics[0][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or declared["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in args.seeds]
        summary = summarize(runs, bounds)
        report["workloads"][workload] = {"runs": runs, "summary": summary}
        failed = sum(r["result"]["failed"] for r in runs)
        print(f"{workload}: {len(runs)} runs, {failed} failed ops, "
              f"run wall {min(r['wall_s'] for r in runs):.1f}-{max(r['wall_s'] for r in runs):.1f} s")
        for name, s in summary.items():
            spread = s.get("spread")
            note = f"  spread {spread:.3f}" if spread is not None else ""
            if "bound" in s:
                note += f" / bound {s['bound']}" + ("" if spread is None or spread <= s["bound"] / 3 else "  > bound/3")
            print(f"  {name:<42} median {s['median']:>14.6g} {s['unit']}{note}")
        sys.stdout.flush()
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
