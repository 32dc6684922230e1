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
SNF = ("tests/test_invariants.py", "tests/test_complexes.py",
       "-k", "snf or homology or slice or reduction")
ORACLE = ("tests/test_invariants.py", "-k", "oracle")
PHI = ("tests/test_iota.py", "-k", "phi")
LOCAL = ("tests/test_iota.py", "-k", "local or search or witness")
VERIFIER = ("tests/test_iota.py", "-k", "local or search or witness or verifier or homotopy")
DUAL = ("tests/test_iota.py", "tests/test_models.py")
AXIOM6 = ("tests/test_iota.py", "tests/test_cli.py", "-k", "axiom_six")
TRACE = ("tests/test_iota.py", "-k", "iota_through_trace")
GF2 = ("tests/test_gf2.py",)

# (name, file under src/, old text, new text, pytest arguments)
MUTANTS = [
    ("reduce_tower drops the sigma update of iota", "iotak/invariants.py",
     "            add(endo, endo_into, b, ex)\n", "", REDUCTION),
    ("reduce_tower drops the pi update of iota", "iotak/invariants.py",
     "        for b in [b for b in endo_into[y] if not dead[b]]:\n"
     "            add(endo, endo_into, b, dx)\n", "", REDUCTION),
    ("reduce_tower cancels entries one grading up", "iotak/invariants.py",
     "g, best = gr[x] - 1, None", "g, best = gr[x] + 1, None", REDUCTION),
    ("reduce_tower's unit search accepts a dead target", "iotak/invariants.py",
     "if gr[z] == g and not dead[z]:", "if gr[z] == g:", REDUCTION),
    ("the pivot takes the target with the most live rows into it", "iotak/invariants.py",
     "key = (len(d_into[z]), z)", "key = (-len(d_into[z]), z)", REDUCTION),
    ("reduce_tower's renumbering keeps dead targets", "iotak/invariants.py",
     "{new[j] for j in m[i] if not dead[j]}", "{new[j] for j in m[i]}", REDUCTION),
    ("Morphism.__add__ updates the left operand's row in place", "iotak/complexes.py",
     "            dst = dict(dst)\n", "", ("tests/test_complexes.py", "-k", "shares_the_rows")),
    ("gf2.solve never reports 0 = 1", "iotak/gf2.py",
     "        if basis.add(row | (aug if b else 0)) == aug:\n            return None\n",
     "        basis.add(row | (aug if b else 0))\n", GF2),
    ("gf2.solve back-substitutes from 0 instead of the right-hand-side bit", "iotak/gf2.py",
     "    sol = aug\n", "    sol = 0\n", GF2),
    ("gf2.nullspace skips reducing each pivot row by the pivots above it", "iotak/gf2.py",
     "        while above:\n            low = above & -above\n"
     "            row ^= pivots[low.bit_length() - 1]\n            above ^= low\n", "", GF2),
    ("RowBasis.add stores the unreduced row", "iotak/gf2.py",
     "        vec = self.reduce(vec)\n        if vec:\n"
     "            self.pivots[(vec & -vec).bit_length() - 1] = vec\n        return vec\n",
     "        red = self.reduce(vec)\n        if red:\n"
     "            self.pivots[(red & -red).bit_length() - 1] = vec\n        return red\n", GF2),
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
    ("Slices.snf reduces in ascending grading order", "iotak/complexes.py",
     "key=lambda i: (-g[i], i)", "key=lambda i: (g[i], i)", SNF),
    ("the oracle tests d_bar at m = 0", "iotak/invariants.py",
     "if _d_bar_hits(t, c, n_power):", "if _d_bar_hits(t, c, 0):", ORACLE),
    ("the oracle's nontorsion tests use one cocycle", "iotak/invariants.py",
     "self.cocycles(r - 2 * self.n_power)]", "self.cocycles(r - 2 * self.n_power)[:1]]", ORACLE),
    ("a slice's cycle basis drops the full slice's vector of top bit n_r",
     "iotak/complexes.py", "v.bit_length() <= n]", "v.bit_length() < n]", ORACLE),
    ("criterion (a)'s z-block drops its kernel rows", "iotak/invariants.py",
     "for low, v in basis.pivots.items() if low >= n)", "for low, v in basis.pivots.items() if 0)",
     ORACLE),
    ("criterion (a) restricts the kernel rows with lowest bit at or above n_x",
     "iotak/invariants.py", "kernel[:bisect.bisect_left(lows, nx)]",
     "kernel[bisect.bisect_left(lows, nx):]", ORACLE),
    ("the Phi^2 homotopy keeps n(n+1)/2 odd", "iotak/iota.py",
     "a * (a - 1) // 2 % 2", "a * (a + 1) // 2 % 2", PHI),
    ("build_phi keeps the even U powers", "iotak/iota.py",
     "(a - 1, b) if a % 2 else None", "(a - 1, b) if not a % 2 else None", PHI),
    ("the local-equivalence solve has a zero lambda row", "iotak/iota.py",
     "maps.equations.values()), on_homology << n]", "maps.equations.values()), 0]", LOCAL),
    ("the verifier drops the (iota2, F) pair", "iotak/iota.py",
     "(b.iota.entries, m.entries), ", "", VERIFIER),
    ("the verifier skips H's filtration", "iotak/iota.py",
     "and h.is_filtered() and not", "and not", VERIFIER),
    ("_search_direction takes H from the F bits", "iotak/iota.py",
     "homotopies.morphism(sol & ((1 << n) - 1))", "homotopies.morphism(sol >> n)", VERIFIER),
    ("the search cap rejects a dimension equal to it", "iotak/iota.py",
     "if dim > cap:", "if dim >= cap:", ("tests/test_iota.py", "tests/test_cli.py", "-k", "cap")),
    ("the semigroup sieve needs both n - p and n - q", "iotak/models.py",
     "member[n - p]) or (n >= q", "member[n - p]) and (n >= q", ("tests/test_models.py",)),
    ("UTowerComplex without its row-index check", "iotak/invariants.py",
     "                if i not in indices or not row <= indices:\n"
     "                    j = next(iter(row - indices or row))\n"
     "                    raise InvariantError(f\"tower entry {i!r} -> {j!r} indexes outside \"\n"
     "                                         f\"a basis of {len(gr)}\")\n", "",
     ("tests/test_invariants.py", "-k", "tower_rejects")),
    ("tensor lists x|d(y)'s targets before d(x)|y's", "iotak/complexes.py",
     "            acc = {o + i2: p for o, p in offsets}\n"
     "            if row2:\n"
     "                acc.update({base + j2: q for j2, q in row2.items()})\n",
     "            acc = {base + j2: q for j2, q in (row2 or {}).items()}\n"
     "            acc.update({o + i2: p for o, p in offsets})\n"
     "            if row2:\n",
     ("tests/test_complexes.py", "-k", "tensor")),
    ("tensor_morphism's product memo ignores q", "iotak/complexes.py",
     "prod.get(k := (id(p), id(q)))", "prod.get(k := id(p))",
     ("tests/test_complexes.py", "-k", "accumulating_reference")),
    ("dual_iota keeps iota's entries unswapped", "iotak/iota.py",
     "{i: p.swap_uv() for i, p in col.items()}", "{i: p for i, p in col.items()}", DUAL),
    ("dual_iota does not transpose iota", "iotak/iota.py",
     "_transpose(ic.iota.entries).items()", "ic.iota.entries.items()", DUAL),
    ("SliceHomologyReport without its homogeneity check", "iotak/complexes.py",
     "        if c.inhomogeneous:\n            raise ValueError(_NOT_HOMOGENEOUS)\n"
     "        super().__init__", "        super().__init__",
     ("tests/test_complexes.py", "-k", "rejects_wrong_monomial")),
    ("_product_terms takes a variant that is not an int", "iotak/iota.py",
     "if type(variant) is not int or variant not in (1, 2):", "if variant not in (1, 2):",
     ("tests/test_iota.py", "-k", "rejections")),
    ("axiom (6) without the diagonal of id", "iotak/iota.py",
     " ^ {(i, i) for i in range(len(cx))}", "", AXIOM6),
    ("Psi's support read off the U exponent", "iotak/iota.py",
     "(a, b - 1) if b % 2 else None", "(a, b - 1) if a % 2 else None", AXIOM6),
    ("axiom (6) counts Psi o Phi in place of Phi o Psi", "iotak/iota.py",
     "(build_phi(cx).entries, build_psi(cx).entries)",
     "(build_psi(cx).entries, build_phi(cx).entries)", AXIOM6),
    ("axiom (6) reads pass without being decided", "iotak/iota.py",
     "    involution_ok = False\n    witness = None\n    if base.passed",
     "    involution_ok = True\n    witness = None\n    if False and base.passed",
     ("tests/test_cli.py", "-k", "failing_only_axiom_six")),
    ("the trace composites take the variant-2 involution", "iotak/iota.py",
     "dic.complex, dic.iota, 1)]", "dic.complex, dic.iota, 2)]", TRACE),
    ("the diagonal sum lands on b|a^ in place of a|b^", "iotak/iota.py",
     "k = a * n + b", "k = b * n + a", TRACE),
    ("the trace composite reads the factors untransposed", "iotak/iota.py",
     "_diagonal_sum(((_transpose(f), _transpose(g)) for f, g in terms), n)",
     "_diagonal_sum(terms, n)", TRACE),
    ("the zero witness whatever the right-hand side", "iotak/complexes.py",
     "if not rhs and not (src.inhomogeneous", "if not (src.inhomogeneous", AXIOM6),
    ("_odd_support keeps every reached target", "iotak/complexes.py",
     "hits.symmetric_difference_update(ks)", "hits.update(ks)",
     ("tests/test_complexes.py", "-k", "odd_support or reference_order")),
    ("filtration tests only the first entry object", "iotak/complexes.py",
     "for k, p in distinct.items() if not p.is_filtered()}",
     "for k, p in list(distinct.items())[:1] if not p.is_filtered()}",
     ("tests/test_complexes.py", "-k", "filtered or offenders")),
    ("the one-monomial parse accepts a bool exponent", "iotak/serialize.py",
     "type(m[0]) is int and type(m[1]) is int", "type(m[0]) is int and isinstance(m[1], int)",
     ("tests/test_cli.py", "-k", "one_monomial")),
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


def mutate(rel: str, old: str, new: str, args) -> str:
    """Apply one edit to a fresh copy of src/ and run its tests: "killed",
    "SURVIVED", or "STALE" when the old text does not occur exactly once."""
    with tempfile.TemporaryDirectory() as tmp:
        src = copy_src(tmp)
        path = src / rel
        text = path.read_text()
        if text.count(old) != 1:
            return f"STALE ({text.count(old)} matches)"
        path.write_text(text.replace(old, new))
        return "SURVIVED" if run_tests(src, args) else "killed"


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
        status = mutate(rel, old, new, args)
        bad += status != "killed"
        print(f"{status:<9} {time.perf_counter() - start:5.1f}s  {rel}: {name}  [{' '.join(args)}]")
    print(f"{len(MUTANTS)} mutants, {len(MUTANTS) - bad} killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
