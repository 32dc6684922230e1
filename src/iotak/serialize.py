"""JSON complex files.

A complex file carries a name, the generator list with both gradings,
and the differential and involution as sparse entry lists; monomials are
[i, j] exponent pairs with U first. Emission is canonical (entries
sorted by source then target, monomials in ring order), so emit, parse,
emit round-trips byte-identically. Parsing is strict: a malformed
document, or a file json cannot decode (not UTF-8, nested too deeply, an
integer longer than sys.get_int_max_str_digits()), raises ParseError and
is never coerced. Polynomials are immutable, so the entries of a map
with one monomial list share one LaurentPoly.

dumps writes the text of json.dumps(doc, indent=2) + "\n", for doc the
file's document as the specification in tests/conftest.py builds it,
straight from the complex, with no dict and not through json's encoder
(an indent forces its pure-Python one): each generator name is quoted
once and each distinct monomial list laid out once.
save encodes the whole file before opening it, then writes over the old
bytes and cuts the file at their end: truncating it to zero first frees
the old blocks, which costs tens of milliseconds per rewrite on ext4.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

from .complexes import SKEW, BasisElement, Entries, FreeComplex, Morphism
from .iota import IotaComplex
from .ring import LaurentPoly, _canonical


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


def _array(items: List[str], pad: str) -> str:
    """A JSON array of encoded items as indent=2 lays it out at indent pad."""
    if not items:
        return "[]"
    inner = f"\n{pad}  "
    return f"[{inner}{f',{inner}'.join(items)}\n{pad}]"


def dumps(name: str, ic: IotaComplex) -> str:
    """The file text, as the module docstring specifies it."""
    q = [json.dumps(x.name) for x in ic.complex.basis]
    gens = [f'{{\n      "name": {n},\n      "gr_u": {x.gr_u},\n      "gr_v": {x.gr_v}\n    }}'
            for n, x in zip(q, ic.complex.basis)]
    monos: Dict[tuple, str] = {}
    maps = []
    for entries in (ic.complex.diff, ic.iota.entries):
        items = []
        for i in sorted(entries):
            for j in sorted(entries[i]):
                t = entries[i][j].terms
                mono = monos.get(t) or monos.setdefault(t, _array(
                    [f"[\n          {a},\n          {b}\n        ]" for a, b in t], " " * 6))
                items.append(f'{{\n      "from": {q[i]},\n      "to": {q[j]},\n'
                             f'      "mono": {mono}\n    }}')
        maps.append(_array(items, "  "))
    return (f'{{\n  "name": {json.dumps(name)},\n  "generators": {_array(gens, "  ")},\n'
            f'  "differential": {maps[0]},\n  "iota": {maps[1]}\n}}\n')


def _list_field(doc: Dict, key: str) -> List:
    if not isinstance(doc[key], list):
        raise ParseError(f"field {key!r} must be a list")
    return doc[key]


def _parse_entries(items: List, index, what: str) -> Entries:
    """Each entry as the sorted tuple of its exponent pairs, checked here, not by LaurentPoly."""
    entries: Entries = {}
    polys: Dict[tuple, LaurentPoly] = {}
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
        terms = tuple(terms)
        row[tgt] = polys.get(terms) or polys.setdefault(terms, _canonical(terms))
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
    data = dumps(name, ic).encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        stale = os.fstat(fh.fileno()).st_size > len(data)  # never so for a pipe or device
        fh.write(data)
        if stale:
            fh.truncate()


def load(path: str) -> tuple[str, IotaComplex]:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # ValueError covers the JSON and UTF-8 errors
        raise ParseError(f"{path}: invalid JSON: {exc}") from exc
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return iota_complex_from_dict(doc)

