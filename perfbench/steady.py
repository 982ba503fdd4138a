#!/usr/bin/env python3
"""Steadiness report: runs one workload of the benchmark once per seed and
prints, for each end-to-end metric, the median, the quartiles and the
relative interquartile range (IQR / median), flagging every metric whose
spread exceeds its bound in BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steady.py --workload paired_full --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload fleet_mixed --runs 5 --trace-overhead

With --trace-overhead every seed is also run traced, and the traced and
untraced jobs_per_s medians are printed with their difference (the
tracing overhead). Every run must report correct=true with zero failed
operations; the script exits 1 otherwise, or when a spread is wider than
its bound (setup_s excepted, as the acceptance rule does).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith(("host:", "round latency:", "FAILED")):
            print(f"    seed {seed}: {line}")
    return result, wall


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace-overhead", action="store_true")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)

    ok = True
    values = {name: [] for name in bounds}
    traced_jobs = []
    for seed in seeds:
        result, wall = run_once(bench["command"], args.workload, seed, seconds, 0)
        print(f"  seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} wall={wall:.1f}s "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        ok &= result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        if args.trace_overhead:
            traced, _ = run_once(bench["command"], args.workload, seed, seconds, 1)
            ok &= traced["correct"] and traced["failed"] == 0
            traced_jobs.append(traced["metrics"]["trace.jobs_per_s"]["value"])

    print(f"\n{args.workload}: {args.runs} runs, seeds {seeds.start}..{seeds.stop - 1}, "
          f"{seconds} s each")
    print(f"{'metric':<22} {'unit':>6} {'median':>14} {'q1':>14} {'q3':>14} "
          f"{'IQR/med':>8} {'bound':>6}  flag")
    for name, meta in bounds.items():
        q1, q2, q3, rel = spread(values[name])
        flag = ""
        if rel > meta["bound"]:
            flag = "WIDER THAN BOUND"
            ok &= name == "setup_s"
        elif rel > meta["bound"] / 3:
            flag = "above bound/3"
        print(f"{name:<22} {meta['unit']:>6} {q2:>14.6g} {q1:>14.6g} {q3:>14.6g} "
              f"{rel:>8.4f} {meta['bound']:>6}  {flag}")
    if traced_jobs:
        untraced = statistics.median(values["jobs_per_s"])
        traced = statistics.median(traced_jobs)
        print(f"\ntracing overhead on jobs_per_s: untraced median {untraced:.6g}, traced median "
              f"{traced:.6g}, difference {untraced - traced:.6g} "
              f"({100 * (untraced - traced) / untraced:.2f}% of untraced)")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
