#!/usr/bin/env python3
"""Prints goldens.txt: the digests of the fixed campaign set of every
workload in BENCHMARK.json, for seeds 0 to 12.

Run from the repository root after a change that is meant to alter
estimates, and review the diff:

    python3 perfbench/goldens.py > perfbench/goldens.txt
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(0, 13)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in SEEDS:
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr[-4000:])
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            lines = [l for l in proc.stderr.splitlines() if l.startswith("golden ")]
            if len(lines) != 1:
                raise SystemExit(f"{workload} seed {seed}: no golden line")
            print(lines[0].removeprefix("golden "), flush=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: attempted={result['attempted']} "
                  f"failed={result['failed']}", file=sys.stderr)


if __name__ == "__main__":
    main()
