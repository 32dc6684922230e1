"""JSON complex files.

A complex file carries a name, the generator list with both gradings,
and the differential and involution as sparse entry lists; monomials are
[i, j] exponent pairs with U first. Emission is canonical (entries
sorted by source then target, monomials in ring order), so emit, parse,
emit round-trips byte-identically. Parsing is strict: a malformed
document raises ParseError and is never coerced.

dumps writes the text of json.dumps(doc, indent=2) + "\n" from the fixed
schema through the C encoder (an indent forces the pure-Python one).
save encodes the whole file before opening it, then writes over the old
bytes and cuts the file at their end: truncating it to zero first frees
the old blocks, which costs tens of milliseconds per rewrite on ext4.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from .complexes import SKEW, BasisElement, Entries, FreeComplex, Morphism, differential_morphism
from .iota import IotaComplex
from .ring import _canonical


class ParseError(ValueError):
    pass


def morphism_to_list(m: Morphism) -> List[Dict]:
    """Entries of m sorted by source then target, named by generator."""
    out = []
    for i in sorted(m.entries):
        for j in sorted(m.entries[i]):
            out.append({
                "from": m.source.basis[i].name,
                "to": m.target.basis[j].name,
                "mono": [[a, b] for (a, b) in m.entries[i][j].terms],
            })
    return out


def iota_complex_to_dict(name: str, ic: IotaComplex) -> Dict:
    cx = ic.complex
    return {
        "name": name,
        "generators": [
            {"name": x.name, "gr_u": x.gr_u, "gr_v": x.gr_v} for x in cx.basis
        ],
        "differential": morphism_to_list(differential_morphism(cx)),
        "iota": morphism_to_list(ic.iota),
    }


def _array(items: List[str], pad: str) -> str:
    """A JSON array of encoded items as indent=2 lays it out at indent pad."""
    if not items:
        return "[]"
    inner = f"\n{pad}  "
    return f"[{inner}{f',{inner}'.join(items)}\n{pad}]"


def dumps(doc: Dict) -> str:
    q = json.dumps
    gens = [f'{{\n      "name": {q(g["name"])},\n      "gr_u": {g["gr_u"]},\n'
            f'      "gr_v": {g["gr_v"]}\n    }}' for g in doc["generators"]]
    maps = [[f'{{\n      "from": {q(e["from"])},\n      "to": {q(e["to"])},\n      "mono": '
             f'{_array([_array([str(i), str(j)], " " * 8) for i, j in e["mono"]], " " * 6)}\n    }}'
             for e in doc[key]] for key in ("differential", "iota")]
    return (f'{{\n  "name": {q(doc["name"])},\n  "generators": {_array(gens, "  ")},\n'
            f'  "differential": {_array(maps[0], "  ")},\n  "iota": {_array(maps[1], "  ")}\n}}\n')


def _list_field(doc: Dict, key: str) -> List:
    if not isinstance(doc[key], list):
        raise ParseError(f"field {key!r} must be a list")
    return doc[key]


def _parse_entries(items: List, index, what: str) -> Entries:
    """Each entry as the sorted tuple of its exponent pairs, checked here, not by LaurentPoly."""
    entries: Entries = {}
    for item in items:
        try:
            src = index[item["from"]]
            tgt = index[item["to"]]
            mono = item["mono"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad {what} entry: {item!r}") from exc
        terms = []
        for m in mono if isinstance(mono, list) else ():
            if not (isinstance(m, list) and len(m) == 2):
                break
            a, b = m
            if type(a) is not int or type(b) is not int:
                break
            terms.append((a, b))
        if not terms or len(terms) != len(mono):
            raise ParseError(f"bad monomial list in {what} entry {item['from']} -> {item['to']}")
        if len(terms) > 1:
            terms.sort()
            if any(s == t for s, t in zip(terms, terms[1:])):
                raise ParseError(f"repeated monomial in {what} entry {item['from']} -> {item['to']}")
        row = entries.setdefault(src, {})
        if tgt in row:
            raise ParseError(f"duplicate {what} entry {item['from']} -> {item['to']}")
        row[tgt] = _canonical(tuple(terms))
    return entries


def iota_complex_from_dict(doc: Dict) -> tuple[str, IotaComplex]:
    if not isinstance(doc, dict):
        raise ParseError("complex file must be a JSON object")
    try:
        name = doc["name"]
        gens = _list_field(doc, "generators")
        diff_items = _list_field(doc, "differential")
        iota_items = _list_field(doc, "iota")
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {name!r}")
    basis = []
    for g in gens:
        try:
            gen_name, gr_u, gr_v = g["name"], g["gr_u"], g["gr_v"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"bad generator: {g!r}") from exc
        if not (isinstance(gen_name, str) and type(gr_u) is int and type(gr_v) is int):
            raise ParseError(f"bad generator: {g!r}")
        basis.append(BasisElement(gen_name, gr_u, gr_v))
    names = [b.name for b in basis]
    if len(set(names)) != len(names):
        raise ParseError("duplicate generator names")
    index = {n: i for i, n in enumerate(names)}
    diff = _parse_entries(diff_items, index, "differential")
    iota_entries = _parse_entries(iota_items, index, "iota")
    # the entries are nonzero and in range by construction
    cx = FreeComplex(basis, diff)
    return name, IotaComplex(cx, Morphism(cx, cx, iota_entries, SKEW, (0, 0)))


def save(path: str, name: str, ic: IotaComplex) -> None:
    data = dumps(iota_complex_to_dict(name, ic)).encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        stale = os.fstat(fh.fileno()).st_size > len(data)  # never so for a pipe or device
        fh.write(data)
        if stale:
            fh.truncate()


def load(path: str) -> tuple[str, IotaComplex]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return iota_complex_from_dict(doc)

