"""Exact arithmetic in F2[U, V, U^-1, V^-1].

A Laurent polynomial is a finite set of monomials U^i V^j with i, j in Z;
the F2 coefficient of a monomial is encoded by its presence in the set.

Canonical form: `terms` is a tuple of distinct (int, int) pairs sorted
lexicographically, so structural equality is semantic equality and
serialized forms are canonical. The constructor establishes this form
from any iterable of pairs, reducing mod 2; an exponent whose type is
not int (a float, a bool, an int subclass) is a ValueError, as it is
for `monomial`.
Operations whose result is canonical by construction skip it and wrap
the tuple directly:

- a parsed entry is its sorted pairs, which the parser checks are
  distinct ints;
- the product of two monomials, and the U/V swap of one, is a monomial;
- a single exponent pair is a monomial.

Every other sum and product goes through the constructor.
Polynomials are immutable: nothing assigns to `terms` after
construction. So `ZERO + p` returns the operand `p` itself rather
than a copy.
"""

from __future__ import annotations

from typing import Iterable, Tuple

Monomial = Tuple[int, int]


def require_ints(what: str, values) -> None:
    """ValueError naming the first value whose type is not int (a bool's is not)."""
    for v in values:
        if type(v) is not int:
            raise ValueError(f"{what} must be ints, got {v!r}")


class LaurentPoly:
    """An element of F2[U, V, U^-1, V^-1] in canonical form."""

    __slots__ = ("terms",)

    def __init__(self, terms: Iterable[Monomial] = ()):
        # mod-2 reduction: a monomial appearing an even number of times cancels
        seen: set[Monomial] = set()
        for t in terms:
            i, j = t
            if type(i) is not int or type(j) is not int:
                require_ints("exponents", t)
            m = (i, j)
            if m in seen:
                seen.remove(m)
            else:
                seen.add(m)
        self.terms: Tuple[Monomial, ...] = tuple(sorted(seen))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if not a:
            return other
        if a == b:
            return ZERO
        # characteristic 2: addition is symmetric difference of term sets
        return LaurentPoly(set(a) ^ set(b))

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        a, b = self.terms, other.terms
        if len(a) == 1 == len(b):
            ((i, j),), ((k, l),) = a, b
            return _canonical(((i + k, j + l),))
        return LaurentPoly([(i + k, j + l) for (i, j) in a for (k, l) in b])

    def swap_uv(self) -> "LaurentPoly":
        """The ring automorphism exchanging U and V."""
        if len(self.terms) == 1:
            ((i, j),) = self.terms
            return _canonical(((j, i),))
        return LaurentPoly((j, i) for (i, j) in self.terms)

    def is_filtered(self) -> bool:
        """True when all exponents are nonnegative (element of F2[U, V])."""
        return all(i >= 0 and j >= 0 for (i, j) in self.terms)

    def __repr__(self) -> str:
        if not self.terms:
            return "0"

        def fmt(i: int, j: int) -> str:
            parts = []
            if i:
                parts.append("U" if i == 1 else f"U^{i}")
            if j:
                parts.append("V" if j == 1 else f"V^{j}")
            return "".join(parts) or "1"

        return " + ".join(fmt(i, j) for (i, j) in self.terms)


def _canonical(terms: Tuple[Monomial, ...]) -> LaurentPoly:
    """Wrap a tuple that is in canonical form already, skipping __init__."""
    p = object.__new__(LaurentPoly)
    p.terms = terms
    return p


ZERO = LaurentPoly()
ONE = LaurentPoly([(0, 0)])


def monomial(i: int, j: int) -> LaurentPoly:
    if type(i) is not int or type(j) is not int:
        require_ints("exponents", (i, j))
    return _canonical(((i, j),))
