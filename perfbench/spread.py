#!/usr/bin/env python3
"""Run the benchmark several times per workload and report the spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --runs 10 [--workloads tower cli] [--first-seed 1]
                                [--out results.json]

Each run uses its own seed. For every end-to-end metric the script
prints the median, the quartiles (statistics.quantiles with n=4) and the
distance between the quartiles as a share of the median, next to a third
of the metric's bound from BENCHMARK.json, and exits 1 when a spread
other than that of setup_s reaches it or an answer is wrong. With --out
it also writes all values, for quoting before-and-after numbers.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    steady = True
    for name in args.workloads:
        values = {m: [] for m in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                print(f"{name} seed {seed}: incorrect answers\n{proc.stderr}", file=sys.stderr)
                steady = False
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(proc.stdout.splitlines()[-2], flush=True)
        results[name] = values
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            ok = share < bounds[m] / 3 or m == "setup_s"
            steady &= ok
            print(f"  {name:10} {m:12} median {med:10.4f}  q1 {q1:10.4f}  q3 {q3:10.4f}  "
                  f"spread {share:6.3f}  bound/3 {bounds[m] / 3:6.3f}  {'ok' if ok else 'WIDE'}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
