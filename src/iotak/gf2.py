"""GF(2) linear algebra on int bitsets.

Vectors are Python ints (bit i = coordinate i), rows of a matrix are a
list of such ints. Pivoting is on the lowest set bit, so a reduced row
contains only columns >= its pivot column. `solve` and `rank` reduce rows
sparsest first: it fills in less, and the pivot columns, the lowest bits
of the row space, do not depend on row order. `solve` back-substitutes,
walking pivots in decreasing order; `nullspace` brings the pivot rows
to reduced echelon form once, highest pivot first, and reads every
basis vector off the reduced rows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional


class RowBasis:
    """Incremental row space with reduction against stored pivots."""

    __slots__ = ("pivots",)

    def __init__(self, rows: Iterable[int] = ()):
        self.pivots: Dict[int, int] = {}
        for r in rows:
            self.add(r)

    def reduce(self, vec: int) -> int:
        while vec:
            col = (vec & -vec).bit_length() - 1
            piv = self.pivots.get(col)
            if piv is None:
                return vec
            vec ^= piv
        return 0

    def add(self, vec: int) -> bool:
        """Insert vec; True if it enlarged the span."""
        vec = self.reduce(vec)
        if vec == 0:
            return False
        self.pivots[(vec & -vec).bit_length() - 1] = vec
        return True

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rank(rows: Iterable[int]) -> int:
    return RowBasis(sorted(rows, key=int.bit_count)).rank


def solve(rows: List[int], rhs: List[int], nvars: int) -> Optional[int]:
    """The least solution of the affine system rows[k] . x = rhs[k], or None.

    The right-hand side rides along as an extra bit above all variable
    bits; a row reducing to that bit alone means 0 = 1. Back
    substitution from that bit, highest pivot first, gives the solution
    with all free variables zero, the least one: a null vector's top bit
    is a free column, since a pivot row would meet it there alone.
    """
    aug = 1 << nvars
    basis = RowBasis()
    for row, b in sorted(zip(rows, rhs), key=lambda rb: rb[0].bit_count()):
        vec = basis.reduce(row | (aug if b else 0))
        if vec == aug:
            return None
        if vec:
            basis.pivots[(vec & -vec).bit_length() - 1] = vec
    sol = aug
    for col, row in sorted(basis.pivots.items(), reverse=True):
        if (row & sol).bit_count() & 1:
            sol |= 1 << col
    return sol ^ aug


def nullspace(rows: Iterable[int], nvars: int) -> List[int]:
    """Basis of the solution space of the homogeneous system, one vector
    per free column f in increasing order: e_f plus the pivot columns
    whose reduced row has bit f (the only null vector that is e_f on
    the free columns)."""
    pivots = RowBasis(rows).pivots
    pivmask = 0
    for col in pivots:
        pivmask |= 1 << col
    freemask = ((1 << nvars) - 1) & ~pivmask
    out = {f: 1 << f for f in range(nvars) if not pivmask >> f & 1}
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        above = (row & pivmask) ^ (1 << col)
        while above:
            low = above & -above
            row ^= pivots[low.bit_length() - 1]
            above ^= low
        pivots[col] = row
        bit = 1 << col
        row &= freemask
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= bit
            row ^= low
    return list(out.values())


def apply_rows(rows: List[int], vec: int) -> int:
    """Image of vec under the map e_k -> rows[k] (xor of selected rows)."""
    out = 0
    while vec:
        low = vec & -vec
        out ^= rows[low.bit_length() - 1]
        vec ^= low
    return out


def pullback(rows: List[int], phi: int) -> int:
    """The functional phi after the map e_k -> rows[k]: bit k is the
    parity of rows[k] & phi, so pullback . v = phi . apply_rows(rows, v)."""
    return sum(1 << k for k, row in enumerate(rows) if (row & phi).bit_count() & 1)


def support_rows(mat: Dict[int, Dict[int, object]], members: List[int],
                 target_positions: List[int]) -> List[int]:
    """The support of the sparse matrix {i: {j: entry}} as bitset rows:
    row k has bit target_positions[j] for each entry of members[k].
    Raises ValueError on an entry whose target has position -1."""
    rows = []
    for i in members:
        row = 0
        for j in mat.get(i, ()):
            p = target_positions[j]
            if p < 0:
                raise ValueError("map image left the target slice")
            row |= 1 << p
        rows.append(row)
    return rows


def transpose(rows: List[int], ncols: int) -> List[int]:
    out = [0] * ncols
    for k, row in enumerate(rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= 1 << k
            row ^= low
    return out
