"""Command-line front end.

Subcommands build model complexes, verify the axioms, form connected
sums and duals, compute the large-surgery invariants (optionally
cross-checked against an independent oracle), evaluate the
obstruction patterns, and search for local equivalences.

Exit codes: 0 success, 1 verification failure, 2 parse or usage error,
3 cap exceeded, oracle disagreement or oracle failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import List, Optional

from . import serialize
from .invariants import (
    InvariantError,
    a_zero_minus,
    involutive_invariants,
    lemma_criteria_oracle,
    obstruction_pattern,
)
from .iota import (
    CapExceededError,
    IotaComplex,
    product,
    dual_iota,
    search_local_equivalence,
    verify_iota_complex,
)
from .models import mirror, torus_knot

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3

AXIOM_LABELS = {
    1: "d^2 = 0",
    2: "differential filtered",
    3: "gradings homogeneous",
    4: "homology is the ring",
    5: "iota skew-graded, skew-filtered chain map",
    6: "iota^2 ~ id + Phi Psi (filtered homotopy)",
}


def _threads_cap() -> Optional[int]:
    """Worker cap from IOTAK_THREADS; computation is currently
    single-threaded, so any positive cap is honored trivially."""
    raw = os.environ.get("IOTAK_THREADS")
    if raw is None:
        return None
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n < 1:
        print(f"IOTAK_THREADS must be a positive integer, got {raw!r}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return n


def _verified(path: str) -> tuple[str, IotaComplex]:
    name, ic = serialize.load(path)
    report = verify_iota_complex(ic)
    if not report.passed:
        k = report.first_failure
        print(f"{path}: fails axiom ({k}) {AXIOM_LABELS[k]}", file=sys.stderr)
        for line in report.offenders:
            print(f"  {line}", file=sys.stderr)
        raise SystemExit(EXIT_VERIFY)
    return name, ic


def cmd_check(args) -> int:
    name, ic = serialize.load(args.file)
    report = verify_iota_complex(ic)
    for k, ok in report.checks:
        print(f"axiom ({k}) {AXIOM_LABELS[k]}: {'pass' if ok else 'FAIL'}")
    for line in report.offenders:
        print(f"  {line}")
    if report.passed:
        print(f"{name}: iota-complex")
        return EXIT_OK
    print(f"{name}: NOT an iota-complex")
    return EXIT_VERIFY


def _torus(p: int, q: int, mirrored: bool) -> tuple[str, IotaComplex]:
    ic = torus_knot(p, q)
    if mirrored:
        return f"T({p},{q})^-1", mirror(ic)
    return f"T({p},{q})", ic


def cmd_torus(args) -> int:
    name, ic = _torus(args.p, args.q, args.mirror)
    serialize.save(args.output, name, ic)
    return EXIT_OK


def cmd_sum(args) -> int:
    verified = {path: _verified(path) for path in dict.fromkeys(args.files)}
    loaded = [verified[path] for path in args.files]
    name, acc = loaded[0]
    for part_name, part in loaded[1:]:
        acc = product(acc, part, variant=args.variant, verify=False)
        name = f"{name} # {part_name}"
    serialize.save(args.output, name, acc)
    return EXIT_OK


def cmd_dual(args) -> int:
    name, ic = _verified(args.file)
    serialize.save(args.output, f"dual({name})", dual_iota(ic))
    return EXIT_OK


def _invariants_input(args) -> tuple[str, IotaComplex]:
    if args.torus is not None and args.file is not None:
        print("give either a file or --torus, not both", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.torus is not None:
        return _torus(*args.torus, args.mirror)
    if args.file is None:
        print("need a complex file or --torus P Q", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if args.mirror:
        print("--mirror needs --torus; mirror a file with the dual subcommand", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return _verified(args.file)


def cmd_invariants(args) -> int:
    name, ic = _invariants_input(args)
    tower = a_zero_minus(ic, verify=False)
    rep = involutive_invariants(tower)
    try:
        oracle = lemma_criteria_oracle(tower) if args.oracle else None
    except InvariantError as exc:
        print(f"oracle failed: {exc}", file=sys.stderr)
        return EXIT_CAP
    if oracle is not None and oracle != (rep.d_bar, rep.d_under):
        print(f"oracle disagreement: cone gives (d_bar, d_under) = ({rep.d_bar}, "
              f"{rep.d_under}), max-grading oracle gives {oracle}", file=sys.stderr)
        return EXIT_CAP
    if args.format == "json":
        print(json.dumps(rep.to_dict()))
    else:
        vb, v0, vu = rep.triple()
        print(f"{name}: (V0_bar, V0, V0_under) = ({vb}, {v0}, {vu})")
    return EXIT_OK


def cmd_obstruct(args) -> int:
    name, ic = _verified(args.file)
    rep = involutive_invariants(a_zero_minus(ic, verify=False))
    verdict = obstruction_pattern(rep)
    out = {"name": name, "V0_bar": rep.V0_bar, "V0": rep.V0, "V0_under": rep.V0_under}
    out.update(verdict.to_dict())
    print(json.dumps(out))
    return EXIT_OK


def cmd_local_equiv(args) -> int:
    if args.cap < 0:
        print(f"--cap must be a nonnegative integer, got {args.cap}", file=sys.stderr)
        return EXIT_USAGE
    ic_a = _verified(args.file_a)[1]
    ic_b = ic_a if args.file_b == args.file_a else _verified(args.file_b)[1]
    try:
        found = search_local_equivalence(ic_a, ic_b, cap=args.cap)
    except CapExceededError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CAP
    if found is None:
        print(json.dumps({"locally_equivalent": False, "search": "exhausted"}))
    else:
        f, g, _, _ = found
        print(json.dumps({
            "locally_equivalent": True,
            "F": serialize.morphism_to_list(f),
            "G": serialize.morphism_to_list(g),
        }))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="iotak",
        description="involutive knot Floer complexes: products, duals, invariants",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the six iota-complex axioms")
    p.add_argument("file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("torus", help="emit the staircase model of a torus knot")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_torus)

    p = sub.add_parser("sum", help="iterated connected-sum product")
    p.add_argument("files", nargs="+")
    p.add_argument("--variant", type=int, choices=(1, 2), default=1)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_sum)

    p = sub.add_parser("dual", help="dual (mirror) complex")
    p.add_argument("file")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("invariants", help="large-surgery invariants")
    p.add_argument("file", nargs="?")
    p.add_argument("--torus", nargs=2, type=int, metavar=("P", "Q"))
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check d_bar/d_under against the max-grading oracle")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("obstruct", help="thin / L-space pattern verdict")
    p.add_argument("file")
    p.set_defaults(func=cmd_obstruct)

    p = sub.add_parser("local-equiv", help="search for a local equivalence")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--cap", type=int, default=24)
    p.set_defaults(func=cmd_local_equiv)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        _threads_cap()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except serialize.ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InvariantError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; the input is too large", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
