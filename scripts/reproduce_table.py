#!/usr/bin/env python3
"""Recompute the large-surgery invariant table for connected sums of
torus knots, with the independent oracle cross-check.

Usage: python scripts/reproduce_table.py [--oracle]

The table goes to stdout, byte for byte the same on every run; the
elapsed time goes to stderr.
"""

import argparse
import sys
import time

from iotak.invariants import (
    InvariantError,
    a_zero_minus,
    involutive_invariants,
    lemma_criteria_oracle,
    obstruction_pattern,
)
from iotak.iota import product
from iotak.models import mirror, torus_knot


def build(spec):
    """spec: list of (p, q, mirrored) triples, summed left to right."""
    parts = []
    for p, q, mirrored in spec:
        ic = torus_knot(p, q)
        parts.append(mirror(ic) if mirrored else ic)
    acc = parts[0]
    for part in parts[1:]:
        acc = product(acc, part, verify=False)
    return acc


ROWS = [
    ("T(2,3)", [(2, 3, False)]),
    ("T(2,3) # T(2,3)", [(2, 3, False)] * 2),
    ("T(4,5) # T(4,5)", [(4, 5, False)] * 2),
    ("T(4,5) # T(4,5) # T(5,6)", [(4, 5, False), (4, 5, False), (5, 6, False)]),
    ("T(6,7) # T(6,7)", [(6, 7, False)] * 2),
    ("T(4,5) # T(6,7)", [(4, 5, False), (6, 7, False)]),
    ("T(3,4)^-1 # T(4,5)^-1 # T(5,6)", [(3, 4, True), (4, 5, True), (5, 6, False)]),
    ("T(5,6) # T(5,6)", [(5, 6, False)] * 2),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--oracle", action="store_true",
                        help="cross-check d_bar/d_under with the max-grading oracle")
    args = parser.parse_args()

    print(f"{'knot':34} {'V0_bar':>6} {'V0':>4} {'V0_under':>8}  {'thin/L-space?':>13}")
    start = time.time()
    for name, spec in ROWS:
        ic = build(spec)
        tower = a_zero_minus(ic, verify=False)
        rep = involutive_invariants(tower)
        if args.oracle:
            try:
                agrees = lemma_criteria_oracle(tower) == (rep.d_bar, rep.d_under)
            except InvariantError as exc:
                print(f"{name}: oracle failed: {exc}", file=sys.stderr)
                agrees = False
            if not agrees:
                print(f"{name}: ORACLE DISAGREEMENT", file=sys.stderr)
                return 3
        verdict = obstruction_pattern(rep)
        pattern = "consistent" if verdict.consistent_with_thin_or_lspace else "obstructed"
        vb, v0, vu = rep.triple()
        print(f"{name:34} {vb:>6} {v0:>4} {vu:>8}  {pattern:>13}")
    print(f"total {time.time() - start:.2f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
