"""The three benchmark workloads: corpora, seeded inputs, items and checks.

Each workload turns a seed into a list of items. An item runs one
answer through the public API of iotak and a check compares the answer
with a golden value or with properties the answer must have. Library
functions are looked up on their modules at call time, so a tracer that
rebinds module attributes sees every call the benchmark makes.

Corpora are plain data so that the self-test can pass a tiny one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent

# tower items above this many generators skip the max-grading oracle,
# which costs 8-114 s per item there
ORACLE_MAX_GENS = 729

# a part is (p, q, mirrored) for a torus knot, or ("S", steps, mirrored)
# for a palindromic staircase with u-steps `steps`
TOWER_README = [
    ("T(2,3)", [(2, 3, False)]),
    ("T(2,3) # T(2,3)", [(2, 3, False)] * 2),
    ("T(4,5) # T(4,5)", [(4, 5, False)] * 2),
    ("T(4,5) # T(4,5) # T(5,6)", [(4, 5, False), (4, 5, False), (5, 6, False)]),
    ("T(6,7) # T(6,7)", [(6, 7, False)] * 2),
    ("T(4,5) # T(6,7)", [(4, 5, False), (6, 7, False)]),
    ("T(3,4)^-1 # T(4,5)^-1 # T(5,6)", [(3, 4, True), (4, 5, True), (5, 6, False)]),
    ("T(5,6) # T(5,6)", [(5, 6, False)] * 2),
]

TOWER_CORPUS = {
    "items": TOWER_README
    + [(f"T({p},{p + 1})^#3", [(p, p + 1, False)] * 3) for p in range(4, 8)]
    + [(f"T({p},{p + 1})^-1 # T({p},{p + 1})^#2", [(p, p + 1, True)] + [(p, p + 1, False)] * 2)
       for p in range(4, 7)]
    + [(f"(T({p},{p + 1})^-1)^#3", [(p, p + 1, True)] * 3) for p in (4, 5)],
    "largest": "T(7,8)^#3",
    "random_items": 4,
    "random_max_gens": 343,
}

IDENTITIES_KNOTS = [(2, 3), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7)]

IDENTITIES_CORPUS = {
    "pairs": list(itertools.combinations_with_replacement(IDENTITIES_KNOTS, 2)),
    "largest": "T(6,7) # T(6,7)",
    "random_items": 3,
    # C x C^dual has gens^2 generators; keep the seeded part a small share
    "random_max_gens": 45,
}


def _torus_steps(p: int) -> List[List[str]]:
    return [["torus", str(p), str(p + 1), "-o", f"t{p}.json"],
            ["torus", str(p), str(p + 1), "--mirror", "-o", f"t{p}m.json"]]


CLI_CORPUS = {
    # file arguments are names inside the workload's scratch directory
    "steps": [step for p in range(2, 7) for step in _torus_steps(p)] + [
        ["torus", "1", "1", "-o", "unk.json"],
        ["sum", "t4.json", "t4.json", "t4.json", "-o", "s4.json"],
        ["sum", "t5.json", "t5.json", "t5.json", "-o", "s5.json"],
        ["sum", "t6.json", "t6.json", "t6.json", "-o", "s6.json"],
        ["sum", "t3m.json", "t4m.json", "t5.json", "--variant", "2", "-o", "v2.json"],
        ["sum", "t4.json", "t4.json", "-o", "t44.json"],
        ["sum", "t2.json", "t2m.json", "-o", "t22m.json"],
        ["dual", "s4.json", "-o", "d4.json"],
        ["dual", "t6.json", "-o", "t6d.json"],
    ] + [["check", f] for f in ("t2.json", "t6m.json", "s4.json", "s5.json", "s6.json",
                                 "v2.json", "d4.json")]
    + [["invariants", f] for f in ("t2.json", "s4.json", "s5.json", "s6.json", "v2.json",
                                    "d4.json")]
    + [["invariants", f, "--format", "text"] for f in ("t2.json", "s4.json", "s5.json",
                                                       "v2.json", "d4.json")]
    + [["invariants", f, "--oracle"] for f in ("t2.json", "s4.json", "v2.json", "d4.json")]
    + [
        ["invariants", "--torus", "5", "6", "--mirror", "--format", "text"],
        ["obstruct", "s4.json"],
        ["obstruct", "v2.json"],
        ["obstruct", "d4.json"],
        ["local-equiv", "t2.json", "t2.json"],
        ["local-equiv", "t3.json", "t3.json"],
        ["local-equiv", "unk.json", "t22m.json"],
        ["local-equiv", "unk.json", "t2.json"],
        ["local-equiv", "t2.json", "t3.json"],
        # a 59-dimensional chain-map space: exit code 3 is the answer
        ["local-equiv", "t44.json", "t44.json"],
    ],
    "largest": "check s6.json",
    "random_items": 2,
    "random_max_gens": 343,
}

CORPORA = {"tower": TOWER_CORPUS, "identities": IDENTITIES_CORPUS, "cli": CLI_CORPUS}


class Lib:
    """The iotak modules, imported from the checkout's src directory."""

    def __init__(self):
        src = ROOT / "src"
        if str(src) not in sys.path:
            sys.path.insert(0, str(src))
        import iotak
        import iotak.cli
        import iotak.serialize

        if not Path(iotak.__file__).resolve().is_relative_to(src):
            raise ImportError(f"iotak was imported from {iotak.__file__}, not from {src}")
        self.iotak = iotak
        self.complexes = iotak.complexes
        self.cli = iotak.cli
        self.serialize = iotak.serialize


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    # returns a list of error messages, empty when the answer is right
    check: Callable[[object], List[str]]


@dataclass
class Workload:
    name: str
    items: List[Item]
    largest: str
    scratch: Optional[Path] = None


# ---------------------------------------------------------------------------
# seeded staircase sums


def random_sum_spec(rng: random.Random, max_gens: int) -> List[tuple]:
    """A sum of 1-3 palindromic staircases with 1-3 steps of size 1-3,
    each mirrored with probability 1/2, of at most max_gens generators."""
    while True:
        parts = []
        gens = 1
        for _ in range(rng.randint(1, 3)):
            steps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
            parts.append(("S", steps, rng.random() < 0.5))
            gens *= 2 * len(steps) + 1
        if gens <= max_gens:
            return parts


def part_name(part: tuple) -> str:
    a, b, mirrored = part
    base = f"S({','.join(map(str, b))})" if a == "S" else f"T({a},{b})"
    return base + ("^-1" if mirrored else "")


def build_part(lib: Lib, part: tuple):
    a, b, mirrored = part
    models = lib.iotak.models
    if a == "S":
        ic = models.staircase_complex(models.Staircase(tuple(b), tuple(reversed(b))))
    else:
        ic = models.torus_knot(a, b)
    return models.mirror(ic) if mirrored else ic


def random_specs(workload: str, seed: int, count: int, max_gens: int) -> List[tuple]:
    rng = random.Random(f"{workload}:{seed}")
    out = []
    for _ in range(count):
        spec = random_sum_spec(rng, max_gens)
        out.append((" # ".join(part_name(p) for p in spec), spec))
    return out


def _parts_cache(lib: Lib, specs) -> Dict[tuple, object]:
    cache: Dict[tuple, object] = {}
    for _, spec in specs:
        for part in spec:
            if part not in cache:
                cache[part] = build_part(lib, part)
    return cache


# ---------------------------------------------------------------------------
# tower: product -> a_zero_minus -> involutive_invariants (+ oracle)


def _d_order_errors(d_under: int, d: int, d_bar: int) -> List[str]:
    if d_under <= d <= d_bar:
        return []
    return [f"d_under <= d <= d_bar fails: ({d_under}, {d}, {d_bar})"]


def _tower_item(lib: Lib, name: str, parts: list, golden: Optional[list],
                seeded: bool = False) -> Item:
    """Fixed items are checked against their golden triple, every item
    against the oracle and the order of the d-invariants."""
    def run():
        iotak = lib.iotak
        acc = parts[0]
        for part in parts[1:]:
            acc = iotak.product(acc, part, verify=False)
        tower = iotak.a_zero_minus(acc, verify=False)
        rep = iotak.involutive_invariants(tower)
        ans = {"triple": list(rep.triple()), "d": [rep.d_under, rep.d, rep.d_bar]}
        if len(acc.complex) <= ORACLE_MAX_GENS:
            ans["oracle"] = list(iotak.lemma_criteria_oracle(tower))
        return ans

    def check(ans) -> List[str]:
        errors = _d_order_errors(*ans["d"])
        if not seeded and ans["triple"] != golden:
            errors.append(f"triple {ans['triple']} != golden {golden}")
        d_under, _, d_bar = ans["d"]
        if "oracle" in ans and ans["oracle"] != [d_bar, d_under]:
            errors.append(f"oracle {ans['oracle']} != cone {[d_bar, d_under]}")
        return errors

    return Item(name, run, check)


def build_tower(lib: Lib, seed: int, corpus: dict, golden: dict) -> Workload:
    specs = list(corpus["items"])
    randoms = random_specs("tower", seed, corpus["random_items"], corpus["random_max_gens"])
    cache = _parts_cache(lib, specs + randoms)
    items = [_tower_item(lib, name, [cache[p] for p in spec], golden["tower"].get(name))
             for name, spec in specs]
    items += [_tower_item(lib, f"seeded {name}", [cache[p] for p in spec], None, seeded=True)
              for name, spec in randoms]
    return Workload("tower", items, corpus["largest"])


# ---------------------------------------------------------------------------
# identities: the exact identities of criterion 6 on C = K1 # K2


def _identities_item(lib: Lib, name: str, parts: list) -> Item:
    def run():
        iotak, complexes = lib.iotak, lib.complexes
        ic = parts[0]
        for part in parts[1:]:
            ic = iotak.product(ic, part, verify=False)
        c = ic.complex
        d = complexes.differential_morphism(c)
        phi = iotak.build_phi(c)
        anti = (complexes.compose(phi, d) + complexes.compose(d, phi)).is_zero()
        h = iotak.phi_squared_homotopy(c)
        dh = complexes.compose(d, h) + complexes.compose(h, d)
        square = complexes.compose(phi, phi).entries == dh.entries
        witnesses = iotak.inverse_witnesses(ic)
        return {"phi_d_anticommute": anti, "phi_squared_homotopy": square,
                "witness_failures": [n for n, ok in witnesses.checks if not ok]}

    def check(ans) -> List[str]:
        errors = [f"{key} fails" for key in ("phi_d_anticommute", "phi_squared_homotopy")
                  if not ans[key]]
        errors += [f"inverse witness check fails: {n}" for n in ans["witness_failures"]]
        return errors

    return Item(name, run, check)


def build_identities(lib: Lib, seed: int, corpus: dict, golden: dict) -> Workload:
    specs = [(f"T({a[0]},{a[1]}) # T({b[0]},{b[1]})", [(*a, False), (*b, False)])
             for a, b in corpus["pairs"]]
    randoms = random_specs("identities", seed, corpus["random_items"],
                           corpus["random_max_gens"])
    cache = _parts_cache(lib, specs + randoms)
    items = [_identities_item(lib, name, [cache[p] for p in spec]) for name, spec in specs]
    items += [_identities_item(lib, f"seeded {name}", [cache[p] for p in spec])
              for name, spec in randoms]
    return Workload("identities", items, corpus["largest"])


# ---------------------------------------------------------------------------
# cli: iotak.cli.main in-process on files in a scratch directory


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli_run(lib: Lib, scratch: Path, argv: List[str]) -> dict:
    """Run one CLI step; the answer is its exit code, stdout and the
    hash of the file it wrote."""
    args = [str(scratch / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(args)
    ans = {"exit": code, "stdout": out.getvalue()}
    if "-o" in argv:
        target = scratch / argv[argv.index("-o") + 1]
        ans["sha256"] = _sha256(target) if target.exists() else None
    return ans


def cli_step_name(argv: List[str]) -> str:
    return " ".join(argv)


def _cli_golden_item(lib: Lib, scratch: Path, argv: List[str], golden: Optional[dict]) -> Item:
    def check(ans) -> List[str]:
        if golden is None:
            return ["no golden answer for this step"]
        return [f"{key}: {ans.get(key)!r} != golden {golden.get(key)!r}"
                for key in ("exit", "stdout", "sha256") if ans.get(key) != golden.get(key)]

    return Item(cli_step_name(argv), lambda: _cli_run(lib, scratch, argv), check)


def _cli_random_items(lib: Lib, scratch: Path, tag: str, part_files: List[str]) -> List[Item]:
    """sum, check and invariants --oracle on one seeded staircase sum,
    checked by property."""
    out = f"{tag}.json"

    def expect_exit(ans) -> List[str]:
        return [] if ans["exit"] == 0 else [f"exit code {ans['exit']}"]

    def check_verdict(ans) -> List[str]:
        lines = ans["stdout"].splitlines()
        ok = ans["exit"] == 0 and bool(lines) and lines[-1].endswith(": iota-complex")
        return [] if ok else [f"check rejects a staircase sum: {ans}"]

    def check_invariants(ans) -> List[str]:
        if ans["exit"] != 0:
            return [f"exit code {ans['exit']}"]
        rep = json.loads(ans["stdout"])
        return _d_order_errors(rep["d_under"], rep["d"], rep["d_bar"])

    steps = [
        (["sum", *part_files, "-o", out], expect_exit),
        (["check", out], check_verdict),
        (["invariants", out, "--oracle"], check_invariants),
    ]
    return [Item(f"seeded {cli_step_name(argv)}",
                 (lambda argv=argv: _cli_run(lib, scratch, argv)), check)
            for argv, check in steps]


def build_cli(lib: Lib, seed: int, corpus: dict, golden: dict) -> Workload:
    scratch = ROOT / ".perfbench_tmp" / f"cli-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    golden_steps = golden["cli"]
    items = [_cli_golden_item(lib, scratch, argv, golden_steps.get(cli_step_name(argv)))
             for argv in corpus["steps"]]
    randoms = random_specs("cli", seed, corpus["random_items"], corpus["random_max_gens"])
    cache = _parts_cache(lib, randoms)
    for k, (_, spec) in enumerate(randoms):
        files = []
        for m, part in enumerate(spec):
            files.append(f"r{k}_{m}.json")
            lib.serialize.save(str(scratch / files[-1]), part_name(part), cache[part])
        items += _cli_random_items(lib, scratch, f"r{k}", files)
    return Workload("cli", items, corpus["largest"], scratch)


BUILDERS = {"tower": build_tower, "identities": build_identities, "cli": build_cli}


def load_golden() -> dict:
    return json.loads((Path(__file__).resolve().parent / "golden.json").read_text())


def build(name: str, lib: Lib, seed: int, corpus: Optional[dict] = None,
          golden: Optional[dict] = None) -> Workload:
    return BUILDERS[name](lib, seed, corpus or CORPORA[name],
                          load_golden() if golden is None else golden)
