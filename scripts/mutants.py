#!/usr/bin/env python3
"""Mutation check: each mutant is one edit to a file under src/ that its
listed tests must catch.

Usage, from anywhere:

    python scripts/mutants.py

For each mutant it copies src/ to a temporary directory, replaces the
old text, which must occur exactly once in the file, with the new text,
and runs pytest on the listed tests with PYTHONPATH at the copy. The
mutant is killed when pytest fails. Each test selection is first run on
an unedited copy, where it must pass, so that a failure means the edit
was caught. Exits 1 when a mutant survives, an old text is stale or a
selection fails unedited.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REDUCTION = ("tests/test_invariants.py", "-k", "reduction")
RING = ("tests/test_ring.py",)

# (name, file under src/, old text, new text, pytest arguments)
MUTANTS = [
    ("reduce_tower drops the sigma update of iota", "iotak/invariants.py",
     "            add(endo, endo_into, b, endo[x])\n", "", REDUCTION),
    ("reduce_tower drops the pi update of iota", "iotak/invariants.py",
     "        for b in list(endo_into[y]):\n            add(endo, endo_into, b, d[x])\n", "",
     REDUCTION),
    ("reduce_tower cancels entries one grading up", "iotak/invariants.py",
     "gr[y] == gr[x] - 1", "gr[y] == gr[x] + 1", REDUCTION),
    ("ZERO + p returns ZERO", "iotak/ring.py",
     "        if not a:\n            return other\n",
     "        if not a:\n            return self\n", RING),
    ("p + p returns p", "iotak/ring.py",
     "        if a == b:\n            return ZERO\n",
     "        if a == b:\n            return self\n", RING),
    ("the product of two monomials adds j to k", "iotak/ring.py",
     "_canonical(((i + k, j + l),))", "_canonical(((i + k, j + k),))", RING),
    ("the U/V swap of a monomial keeps it", "iotak/ring.py",
     "_canonical(((j, i),))", "_canonical(((i, j),))", RING),
]


def run_tests(src: Path, args) -> bool:
    """Whether pytest passes on args with iotak imported from src. It runs
    in src's parent, so the Hypothesis database stays out of the checkout."""
    argv = [str(ROOT / a) if a.startswith("tests/") else a for a in args]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *argv],
        cwd=src.parent, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return proc.returncode == 0


def copy_src(tmp: str) -> Path:
    src = Path(tmp) / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def main() -> int:
    bad = 0
    for args in dict.fromkeys(m[4] for m in MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            if not run_tests(copy_src(tmp), args):
                print(f"FAILS UNEDITED  {' '.join(args)}")
                bad += 1
    if bad:
        return 1
    for name, rel, old, new, args in MUTANTS:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = copy_src(tmp)
            path = src / rel
            text = path.read_text()
            if text.count(old) != 1:
                status = f"STALE ({text.count(old)} matches)"
            else:
                path.write_text(text.replace(old, new))
                status = "SURVIVED" if run_tests(src, args) else "killed"
        bad += status != "killed"
        print(f"{status:<9} {time.perf_counter() - start:5.1f}s  {rel}: {name}  [{' '.join(args)}]")
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
