#!/usr/bin/env python3
"""Line trace: the executable lines of src/iotak that the benchmark
traffic never runs, each tagged with whether the tier-1 tests run it.

Usage, from anywhere:

    python scripts/linetrace.py

Under one sys.settrace line tracer, limited to frames whose code lives
in src/iotak, it runs every item of the tower, identities and cli
workloads at seeds 1 and 11 (built by perfbench/workloads.build, each
answer checked by its item's check), then scripts/reproduce_table.py
--oracle; that is the traffic. Then, separately, it runs the tier-1
tests through pytest.main. It prints every executable line of src/iotak,
taken from co_lines of each module's code objects, that the traffic
never runs, as "path:line  tag  source", with tag "tests" when the tests
run it and "none" when nothing does, and removes the .perfbench_tmp
scratch directory that the cli workload creates. Exits 1 when an item's
check, the table or the tests fail. It takes about two minutes, so CI
does not run it.
"""

import contextlib
import io
import os
import runpy
import shutil
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "iotak"
WORKLOADS = ("tower", "identities", "cli")
SEEDS = (1, 11)


class LineTracer:
    """The (file, line) pairs run in frames of code under SRC while tracing."""

    def __init__(self):
        self.lines = set()
        self._inside = {}  # co_filename -> whether it is under SRC

    def _call(self, frame, event, arg):
        name = frame.f_code.co_filename
        inside = self._inside.get(name)
        if inside is None:
            inside = self._inside[name] = Path(os.path.realpath(name)).is_relative_to(SRC)
        if not inside:
            return None
        self.lines.add((name, frame.f_lineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def tracing(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)

    def by_file(self):
        """{path relative to ROOT: set of line numbers}."""
        out = {}
        for name, line in self.lines:
            rel = Path(os.path.realpath(name)).relative_to(ROOT)
            out.setdefault(str(rel), set()).add(line)
        return out


def executable_lines(path: Path) -> set:
    """The line numbers of every instruction of the module's code objects."""
    stack, lines = [compile(path.read_text(), str(path), "exec")], set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_workloads() -> int:
    """Run and check every item of each workload at each seed; the number of failures."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    lib, failed = workloads.Lib(), 0
    for name in WORKLOADS:
        for seed in SEEDS:
            wl = workloads.build(name, lib, seed)
            try:
                for item in wl.items:
                    errors = item.check(item.run())
                    if errors:
                        failed += 1
                        print(f"FAILED  {name} seed {seed} / {item.name}: {'; '.join(errors)}")
            finally:
                if wl.scratch is not None:
                    shutil.rmtree(wl.scratch, ignore_errors=True)
                    with contextlib.suppress(OSError):
                        wl.scratch.parent.rmdir()
    return failed


def run_table() -> int:
    """scripts/reproduce_table.py --oracle, its output discarded; its exit code."""
    script = ROOT / "scripts" / "reproduce_table.py"
    argv, sys.argv = sys.argv, [str(script), "--oracle"]
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            runpy.run_path(str(script), run_name="__main__")
    except SystemExit as exc:
        return exc.code or 0
    finally:
        sys.argv = argv
    return 0


def run_tests() -> int:
    """The tier-1 suite, quiet, run from a temporary directory so that the
    Hypothesis database stays out of the checkout; pytest's exit code."""
    import pytest

    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return int(pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")]))
        finally:
            os.chdir(cwd)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    traffic, tests = LineTracer(), LineTracer()
    with traffic.tracing():
        failed = run_workloads()
        table = run_table()
    with tests.tracing():
        suite = run_tests()

    ran, tested = traffic.by_file(), tests.by_file()
    counts = {"tests": 0, "none": 0}
    for path in sorted(SRC.glob("*.py")):
        rel = str(path.relative_to(ROOT))
        source = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - ran.get(rel, set())):
            tag = "tests" if line in tested.get(rel, ()) else "none"
            counts[tag] += 1
            print(f"{rel}:{line}  {tag:<5}  {source[line - 1].strip()}")
    print(f"never run by the traffic: {counts['tests']} lines run by the tests, "
          f"{counts['none']} by nothing")
    print(f"item failures {failed}, reproduce_table exit {table}, pytest exit {suite}")
    return 1 if failed or table or suite else 0


if __name__ == "__main__":
    sys.exit(main())
