#!/usr/bin/env python3
"""Regenerate perfbench/golden.json from the fixed corpora.

Usage, from the root of a checkout: python3 perfbench/make_golden.py

The golden answers are the tower triples (V0_bar, V0, V0_under) of the
fixed tower items and the exit code, stdout and output-file hash of each
fixed cli step. They were generated once at the commit that introduced
the benchmark; rerun this only when a change of answers is intended.
The README table rows are checked against the README before writing.
"""

import json
import sys
from pathlib import Path

import workloads
from run import cleanup

README_TABLE = {
    "T(2,3)": [1, 1, 1],
    "T(2,3) # T(2,3)": [1, 1, 2],
    "T(4,5) # T(4,5)": [4, 4, 6],
    "T(4,5) # T(4,5) # T(5,6)": [7, 7, 9],
    "T(6,7) # T(6,7)": [9, 9, 12],
    "T(4,5) # T(6,7)": [7, 7, 9],
    "T(3,4)^-1 # T(4,5)^-1 # T(5,6)": [-1, 1, 1],
    "T(5,6) # T(5,6)": [6, 6, 6],
}


def fixed_answers(name: str, lib: workloads.Lib) -> dict:
    corpus = dict(workloads.CORPORA[name], random_items=0)
    wl = workloads.build(name, lib, 0, corpus, {"tower": {}, "cli": {}})
    try:
        return {item.name: item.run() for item in wl.items}
    finally:
        cleanup(wl)


def main() -> int:
    lib = workloads.Lib()
    tower = {k: ans["triple"] for k, ans in fixed_answers("tower", lib).items()}
    for row, triple in README_TABLE.items():
        if tower[row] != triple:
            print(f"{row}: computed {tower[row]}, README table says {triple}", file=sys.stderr)
            return 1
    golden = {"tower": tower, "cli": fixed_answers("cli", lib)}
    path = Path(__file__).resolve().parent / "golden.json"
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
