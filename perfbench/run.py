#!/usr/bin/env python3
"""Benchmark of iotak: the tower, identities and cli workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 24 --trace 0

--seconds defaults to run_seconds of BENCHMARK.json. Each run is one
process running one workload as a closed loop: one item after another,
one thread. With --trace 0 it repeats whole passes over the workload's
items for about --seconds seconds (at least one pass), then repeats the
workload's largest item until it has LARGEST_MIN samples of together
at least LARGEST_MIN_S seconds, checks every answer and reports the
end-to-end metrics:

- wall_s: one pass, the sum over items of each item's median time;
- largest_s: the median time of the largest item;
- setup_s: the median of SETUP_SAMPLES set-ups (iotak import and input
  generation), all but one in fresh interpreters;
- peak_rss_mb: the peak resident memory of the process.

Times are normalized to the host's nominal speed (see hostspeed.py): on
a shared host the same pass takes up to 1.8x longer while other tenants
load the cores, and neither wall time nor CPU time is steady. The line
before the result also gives the raw wall time of a pass, the host's
slowdown during the run, and fail_ratio with ops.

With --trace 1 it runs untraced and traced passes in turn, TRACE_ROUNDS
of each, checks that every pass gives the same answers, reports the
per-layer metrics of the last traced pass and trace.overhead_ratio (the
best normalized traced pass over the best untraced one, minus 1) and
writes the spans to .perfbench_out/. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import workloads
from hostspeed import NOMINAL_S, HostSpeed
from tracing import Tracer

OUT_DIR = workloads.ROOT / ".perfbench_out"
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
SETUP_SAMPLES = 9
LARGEST_MIN = 4
LARGEST_MIN_S = 4.0
TRACE_ROUNDS = 2
PROBE_TIMEOUT_S = 120

Interval = Tuple[float, float, float]  # start, end, seconds; see HostSpeed.interval


@dataclass
class Pass:
    items: List[workloads.Item]  # in the order run
    intervals: List[Interval]  # per item
    answers: List[object]
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def normalized(self, hs: HostSpeed) -> List[float]:
        return [hs.normalize(iv) for iv in self.intervals]


def setup(name: str, seed: int, corpus=None, golden=None):
    """Import iotak and generate the workload's inputs; returns the
    workload and the normalized time both took."""
    with HostSpeed() as hs:
        mark = hs.now()
        lib = workloads.Lib()
        wl = workloads.build(name, lib, seed, corpus, golden)
        span = hs.interval(mark)
    return wl, hs.normalize(span)


def cleanup(wl: workloads.Workload) -> None:
    if wl.scratch is not None:
        shutil.rmtree(wl.scratch, ignore_errors=True)
        try:
            wl.scratch.parent.rmdir()
        except OSError:
            pass


def run_pass(wl: workloads.Workload, hs: HostSpeed, tracer: Optional[Tracer] = None,
             between: Callable[[], None] = lambda: None) -> Pass:
    """One pass over every item; a wrong answer or an exception counts
    as one failure and the pass goes on. `between` runs after each item,
    outside its time."""
    result = Pass(wl.items, [], [])
    for item in wl.items:
        if tracer is not None:
            tracer.item = item.name
        mark = hs.now()
        try:
            ans = item.run()
            result.intervals.append(hs.interval(mark))
            errors = item.check(ans)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            if len(result.intervals) == len(result.answers):
                result.intervals.append(hs.interval(mark))
            ans = {"exception": f"{type(exc).__name__}: {exc}"}
            errors = [ans["exception"]]
        result.answers.append(ans)
        if errors:
            result.failed += 1
            result.errors.append(f"{wl.name} / {item.name}: {'; '.join(errors)}")
        between()
    return result


def measure(wl: workloads.Workload, hs: HostSpeed, seconds: float,
            between: Callable[[], None]) -> List[Pass]:
    """Whole passes while the next one should end within `seconds` (at
    least one), then repeats of the largest item until it has at least
    LARGEST_MIN samples and LARGEST_MIN_S seconds of them."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass(wl, hs, between=between))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    k = next(k for k, item in enumerate(wl.items) if item.name == wl.largest)
    only_largest = dataclasses.replace(wl, items=[wl.items[k]])
    largest = [p.intervals[k] for p in passes]
    while len(largest) < LARGEST_MIN or sum(s for _, _, s in largest) < LARGEST_MIN_S:
        passes.append(run_pass(only_largest, hs, between=between))
        largest.append(passes[-1].intervals[0])
    return passes


def probe_setup(name: str, seed: int) -> float:
    """Normalized set-up time measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=workloads.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_run(name: str, seed: int, seconds: float, corpus=None, golden=None) -> dict:
    wl, setup_s = setup(name, seed, corpus, golden)
    setups = [setup_s]
    start = time.perf_counter()

    def probe_when_due() -> None:
        # spread the probes over the run, so that they do not all fall
        # into one burst of interference
        if len(setups) < SETUP_SAMPLES and \
                time.perf_counter() - start >= len(setups) * seconds / SETUP_SAMPLES:
            setups.append(probe_setup(name, seed))

    try:
        with HostSpeed() as hs:
            passes = measure(wl, hs, seconds, probe_when_due)
        setups += [probe_setup(name, seed) for _ in range(SETUP_SAMPLES - len(setups))]
    finally:
        cleanup(wl)
    failed = sum(p.failed for p in passes)
    attempted = sum(len(p.answers) for p in passes)
    samples: Dict[int, List[float]] = {}  # normalized times per item, by id
    for p in passes:
        for item, t in zip(p.items, p.normalized(hs)):
            samples.setdefault(id(item), []).append(t)
    largest = samples[id(next(item for item in wl.items if item.name == wl.largest))]
    metrics = {
        "wall_s": metric(sum(statistics.median(ts) for ts in samples.values()), "s"),
        "largest_s": metric(statistics.median(largest), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    for p in passes:
        for line in p.errors:
            print(f"FAIL {line}", file=sys.stderr)
    full = [p for p in passes if len(p.items) == len(wl.items)]
    raw_wall = statistics.median(sum(s for _, _, s in p.intervals) for p in full)
    slowdown = statistics.median(hs.kernel_s) / NOMINAL_S
    summary = " ".join(f"{k}={v['value']:.4f}" for k, v in metrics.items())
    print(f"{name} seed={seed} passes={len(full)} items={len(wl.items)} {summary} "
          f"largest_samples={len(largest)} raw_wall_s={raw_wall:.4f} "
          f"host_slowdown={slowdown:.3f} fail_ratio={failed / attempted:.4f} ops={attempted}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced_run(name: str, seed: int, corpus=None, golden=None) -> dict:
    lib = workloads.Lib()
    plain: List[Pass] = []
    traced: List[Pass] = []
    built: List[workloads.Workload] = []

    def one_pass(tracer: Optional[Tracer]) -> Pass:
        wl = workloads.build(name, lib, seed, corpus, golden)
        built.append(wl)
        try:
            return run_pass(wl, hs, tracer)
        finally:
            cleanup(wl)

    with HostSpeed() as hs:
        for _ in range(TRACE_ROUNDS):
            plain.append(one_pass(None))
            tracer = Tracer(hs.clock)
            tracer.install()
            try:
                traced.append(one_pass(tracer))
            finally:
                tracer.uninstall()

    wl = built[0]
    passes = plain + traced
    mismatched = [(item.name, k) for k, p in enumerate(passes[1:], 1)
                  for item, a, b in zip(wl.items, plain[0].answers, p.answers) if a != b]
    for p in passes:
        for line in p.errors:
            print(f"FAIL {line}", file=sys.stderr)
    for item, k in mismatched:
        print(f"FAIL {name} / {item}: pass {k} gives another answer than the first "
              "untraced pass", file=sys.stderr)
    failed = sum(p.failed for p in passes) + len(mismatched)
    attempted = sum(len(p.answers) for p in passes)

    plain_wall = min(sum(p.normalized(hs)) for p in plain)
    traced_wall = min(sum(p.normalized(hs)) for p in traced)
    values = tracer.metrics()
    values["trace.overhead_ratio"] = traced_wall / plain_wall - 1
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: metric(v, units.get(k, "count")) for k, v in values.items()}

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    tracer.write(path, {"workload": name, "seed": seed, "untraced_wall_s": plain_wall,
                        "traced_wall_s": traced_wall})
    print(f"{name} seed={seed} best traced wall_s={traced_wall:.4f} "
          f"best untraced wall_s={plain_wall:.4f} (normalized, {TRACE_ROUNDS} passes each) "
          f"spans={len(tracer.spans)} -> {path.relative_to(workloads.ROOT)}")
    print(f"{name}: largest self time overall {tracer.largest_self()}, "
          f"in {wl.largest}: {tracer.largest_self(wl.largest)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CORPORA))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print the normalized set-up time of a fresh interpreter and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            wl, setup_s = setup(args.workload, args.seed)
            cleanup(wl)
            print(setup_s)
            return 0
        if args.trace:
            result = traced_run(args.workload, args.seed)
        else:
            result = untraced_run(args.workload, args.seed, args.seconds)
    except ImportError as exc:
        print(f"cannot import iotak from this checkout: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
