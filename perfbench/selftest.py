#!/usr/bin/env python3
"""Self-test of the benchmark harness on a tiny corpus.

Usage, from the root of a checkout: python3 perfbench/selftest.py

It checks that meta.json describes exactly the workloads of
BENCHMARK.json, each with layers that are modules of iotak. For each
workload it checks that an untraced run emits exactly the
end-to-end metrics of BENCHMARK.json and a traced run exactly the
per-layer metrics, with every answer right and the traced answers equal
to the untraced ones. It then corrupts one golden answer of the tower
and of the cli workload and checks that each is counted as one failure
without ending the run. Exits 0 when every check holds.
"""

import json
import sys

import run
import workloads

TINY = {
    "tower": {
        "items": [
            ("T(2,3)", [(2, 3, False)]),
            ("T(2,3) # T(2,3)", [(2, 3, False)] * 2),
            ("T(3,4)^-1 # T(4,5)^-1 # T(5,6)", [(3, 4, True), (4, 5, True), (5, 6, False)]),
        ],
        "largest": "T(2,3) # T(2,3)",
        "random_items": 1,
        "random_max_gens": 27,
    },
    "identities": {
        "pairs": [((2, 3), (2, 3)), ((2, 3), (3, 4))],
        "largest": "T(2,3) # T(2,3)",
        "random_items": 1,
        "random_max_gens": 9,
    },
    "cli": {
        "steps": [
            ["torus", "2", "3", "-o", "t2.json"],
            ["torus", "2", "3", "--mirror", "-o", "t2m.json"],
            ["torus", "1", "1", "-o", "unk.json"],
            ["sum", "t2.json", "t2.json", "-o", "s.json"],
            ["sum", "t2.json", "t2m.json", "-o", "z.json"],
            ["dual", "s.json", "-o", "sd.json"],
            ["check", "s.json"],
            ["invariants", "s.json"],
            ["invariants", "s.json", "--format", "text"],
            ["invariants", "sd.json", "--oracle"],
            ["obstruct", "s.json"],
            ["local-equiv", "unk.json", "z.json"],
            ["local-equiv", "unk.json", "t2.json"],
            ["local-equiv", "t2.json", "t2.json", "--cap", "0"],
        ],
        "largest": "check s.json",
        "random_items": 1,
        "random_max_gens": 9,
    },
}

# README table rows; the cli golden answers are recorded from a first run
TINY_GOLDEN = {"tower": {"T(2,3)": [1, 1, 1], "T(2,3) # T(2,3)": [1, 1, 2],
                         "T(3,4)^-1 # T(4,5)^-1 # T(5,6)": [-1, 1, 1]}, "cli": {}}

failures = []


def expect(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}")
    if not cond:
        failures.append(what)


def record_cli_golden() -> dict:
    wl, _ = run.setup("cli", 0, dict(TINY["cli"], random_items=0), TINY_GOLDEN)
    try:
        return {item.name: item.run() for item in wl.items}
    finally:
        run.cleanup(wl)


def main() -> int:
    # the tiny items take milliseconds: repeat the largest one a fixed
    # number of times, so that every run attempts the same answers
    run.LARGEST_MIN_S = 0.0
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    golden = dict(TINY_GOLDEN, cli=record_cli_golden())

    meta = json.loads((workloads.ROOT / "perfbench" / "meta.json").read_text())
    expect(set(meta["workloads"]) == {w["name"] for w in spec["workloads"]},
           "meta.json describes the workloads of BENCHMARK.json")
    modules = {name.split(".")[1] for name in sys.modules if name.startswith("iotak.")}
    expect(all(set(w["layers"]) <= modules for w in meta["workloads"].values()),
           "meta.json names only modules of iotak as layers")

    attempted = {}
    for name, corpus in TINY.items():
        res = run.untraced_run(name, 1, 0, corpus, golden)
        attempted[name] = res["attempted"]
        expect(set(res["metrics"]) == end_to_end,
               f"{name}: untraced run emits the end-to-end metrics")
        expect(res["correct"] and res["failed"] == 0, f"{name}: untraced answers are right")
        res = run.traced_run(name, 1, corpus, golden)
        expect(set(res["metrics"]) == per_layer, f"{name}: traced run emits the per-layer metrics")
        expect(res["correct"] and res["failed"] == 0,
               f"{name}: traced answers are right and equal the untraced ones")
        expect(res["attempted"] >= 1, f"{name}: traced run attempts answers")

    bad_tower = dict(golden, tower=dict(golden["tower"], **{"T(2,3)": [1, 1, 2]}))
    step = "invariants s.json"
    bad_step = dict(golden["cli"][step], stdout="{}\n")
    bad_cli = dict(golden, cli=dict(golden["cli"], **{step: bad_step}))
    for name, bad in (("tower", bad_tower), ("cli", bad_cli)):
        res = run.untraced_run(name, 1, 0, TINY[name], bad)
        expect(res["failed"] == 1 and not res["correct"],
               f"{name}: one corrupted golden answer is one failure")
        expect(res["attempted"] == attempted[name], f"{name}: the run goes on after the failure")
    print("selftest passed" if not failures else f"selftest FAILED: {len(failures)} checks")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
