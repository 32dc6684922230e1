"""Free bigraded chain complexes over F2[U,V,U^-1,V^-1] and their morphisms.

A complex is a finite ordered basis with two integer gradings plus a
sparse differential matrix of Laurent polynomials. Morphisms carry a
variance flag: equivariant maps commute with U and V, skew maps exchange
them (F(U.x) = V.F(x)). Skew maps are stored as plain matrices; the U/V
swap is applied to scalars during composition and grading checks.

Everything here is exact. Homogeneity forces each matrix entry of a graded
map to a single monomial, which is what makes chain-homotopy existence a
finite F2 linear problem (see homotopy_solve), and what makes d^2 = 0,
is_chain_map, the solver's final check and the local-equivalence verifier
parities of paths on homogeneous input (see _odd_support); compose is kept
for composites whose entries are used later. Morphism.inhomogeneous
decides homogeneity once per matrix. Complexes are filtered:
verify_complex checks that the differential stays in F2[U, V], testing
each distinct entry object once (see _unfiltered).
"""

from __future__ import annotations

import bisect
import functools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple, Union

from . import gf2
from .ring import ONE, LaurentPoly, Monomial, monomial, require_ints

EQUIVARIANT = "equivariant"
SKEW = "skew"

# sparse matrix layout: {source index: {target index: entry}}
Entries = Dict[int, Dict[int, LaurentPoly]]


@dataclass(slots=True)
class BasisElement:
    """A named generator, treated as immutable (frozen would slow __init__)."""

    name: str
    gr_u: int
    gr_v: int

    @property
    def alexander(self) -> int:
        return (self.gr_u - self.gr_v) // 2


class FreeComplex:
    """A free chain complex over the Laurent ring, with chosen basis.

    The differential is required to stay in F2[U, V] (nonnegative
    exponents); verify_complex checks it. diff is stored as given, under
    the contract of Morphism: no zero entry, no empty row, indices in
    range, and no mutation afterward. inhomogeneous decides once, through
    Morphism.inhomogeneous, whether the differential is homogeneous, for
    verify_complex, the slice homology, the Hom-space equations and the tower.
    """

    def __init__(self, basis, diff: Entries):
        self.basis: Tuple[BasisElement, ...] = tuple(basis)
        self.diff: Entries = diff
        names = [b.name for b in self.basis]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")

    @functools.cached_property
    def inhomogeneous(self) -> Tuple[Tuple[int, int], ...]:
        """Morphism.inhomogeneous of the differential, built on first use."""
        return differential_morphism(self).inhomogeneous

    @functools.cached_property
    def slice_homology(self) -> "SliceHomologyReport":
        """The SliceHomologyReport of this complex, built on first use."""
        return SliceHomologyReport(self)

    def __len__(self) -> int:
        return len(self.basis)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, FreeComplex)
            and self.basis == other.basis
            and self.diff == other.diff
        )

    def __repr__(self) -> str:
        return f"FreeComplex({len(self)} generators)"


class Morphism:
    """A matrix of Laurent polynomials with variance and bidegree.

    bidegree (a, b) means gr_u(F x) = gr_u(x) + a for equivariant maps
    and gr_u(F x) = gr_v(x) + a for skew maps (and symmetrically for
    gr_v). The matrix is stored {source: {target: entry}}, as given: the
    caller passes no zero entry, no empty row and only indices in range of
    the endpoints, and mutates it no more. ==, is_zero and inhomogeneous
    rely on that; the sums that can cancel (+, compose) drop what cancels.
    """

    def __init__(self, source: FreeComplex, target: FreeComplex, entries: Entries,
                 variance: str, bidegree: Tuple[int, int]):
        if variance not in (EQUIVARIANT, SKEW):
            raise ValueError(f"bad variance {variance!r}")
        self.source = source
        self.target = target
        self.entries = entries
        self.variance = variance
        a, b = bidegree
        require_ints("bidegree", (a, b))
        self.bidegree = (a, b)

    @functools.cached_property
    def inhomogeneous(self) -> Tuple[Tuple[int, int], ...]:
        """The (source, target) index pairs whose entry is not the
        grading-forced monomial, in the order of entries, built on first
        use. The cache is safe: only __init__ sets entries, and no code
        mutates them after."""
        out = []
        for i, row in self.entries.items():
            gu, gv = forced_base(self.source.basis[i], self.variance, self.bidegree)
            basis = self.target.basis  # read per row: a LazyTensor builds on the first read
            for j, p in row.items():
                if len(p.terms) == 1:
                    ((a, b),) = p.terms
                    y = basis[j]
                    if 2 * a == y.gr_u - gu and 2 * b == y.gr_v - gv:
                        continue
                out.append((i, j))
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def is_filtered(self) -> bool:
        return not _unfiltered(self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Morphism)
            and self.entries == other.entries
            and self.variance == other.variance
            and self.bidegree == other.bidegree
            and self.source == other.source
            and self.target == other.target
        )

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.variance != other.variance or self.bidegree != other.bidegree:
            raise ValueError("cannot add morphisms of different variance or bidegree")
        if self.source != other.source or self.target != other.target:
            raise ValueError("cannot add morphisms with different endpoints")
        # no row is mutated after construction, so a row only one operand holds is shared
        out: Entries = dict(self.entries)
        for i, row in other.entries.items():
            dst = out.get(i)
            if dst is None:
                out[i] = row
                continue
            dst = dict(dst)
            for j, p in row.items():
                if j not in dst:
                    dst[j] = p
                elif s := dst[j] + p:
                    dst[j] = s
                else:
                    del dst[j]
            if dst:
                out[i] = dst
            else:
                del out[i]
        return Morphism(self.source, self.target, out, self.variance, self.bidegree)

    def __repr__(self) -> str:
        nnz = sum(len(r) for r in self.entries.values())
        return f"Morphism({self.variance}, bidegree={self.bidegree}, {nnz} entries)"


def identity_morphism(c: FreeComplex) -> Morphism:
    return Morphism(c, c, {i: {i: ONE} for i in range(len(c))}, EQUIVARIANT, (0, 0))


def compose(f: Morphism, g: Morphism) -> Morphism:
    """The composite f o g (g applied first).

    When f is skew, scalars crossing it get the U/V swap, so the matrix
    of the composite is f applied to the swapped matrix of g.
    """
    if g.target != f.source:
        raise ValueError("composition endpoint mismatch")
    skew_f = f.variance == SKEW
    variance = SKEW if (f.variance == SKEW) != (g.variance == SKEW) else EQUIVARIANT
    ga, gb = g.bidegree
    if skew_f:
        ga, gb = gb, ga
    bidegree = (f.bidegree[0] + ga, f.bidegree[1] + gb)
    out: Entries = {}
    for i, row_g in g.entries.items():
        acc: Dict[int, LaurentPoly] = {}
        cancelled = False
        for j, p in row_g.items():
            fr = f.entries.get(j)
            if not fr:
                continue
            scalar = p.swap_uv() if skew_f else p
            # the ring is a domain, so no product of nonzero entries is zero
            for k, q in fr.items():
                prod = scalar * q
                prev = acc.get(k)
                if prev is None:
                    acc[k] = prod
                else:
                    acc[k] = s = prev + prod
                    cancelled = cancelled or not s
        if cancelled:
            acc = {k: p for k, p in acc.items() if p}
        if acc:
            out[i] = acc
    return Morphism(g.source, f.target, out, variance, bidegree)


def forced_base(x: BasisElement, variance: str, bidegree: Tuple[int, int]) -> Tuple[int, int]:
    """The bigrading (gu, gv) that the monomial 1 reaches from x. A
    homogeneous entry from x to y is forced to U^((y.gr_u - gu)/2)
    V^((y.gr_v - gv)/2), and to vanish when either difference is odd."""
    a, b = bidegree
    if variance == EQUIVARIANT:
        return x.gr_u + a, x.gr_v + b
    return x.gr_v + a, x.gr_u + b


def differential_morphism(c: FreeComplex) -> Morphism:
    # neither object is mutated, so the two share the matrix
    return Morphism(c, c, c.diff, EQUIVARIANT, (-1, -1))


def _odd_support(*pairs: Tuple[Entries, Entries]) -> Set[Tuple[int, int]]:
    """The (i, k) reached by an odd number of paths i -> j -> k through the
    pairs (after, before). This is the support of the sum of the composites
    when they share one variance and bidegree and every entry is its forced
    monomial (a skew map's U/V swap keeps it forced): then each path's
    monomial depends only on (i, k). Each step i -> j flips row i's targets
    by after's row j, one set operation."""
    odd: Dict[int, Set[int]] = {}
    for after, before in pairs:
        for i, row in before.items():
            hits = odd.get(i)
            if hits is None:
                hits = odd[i] = set()
            for j in row:
                ks = after.get(j)
                if ks:
                    hits.symmetric_difference_update(ks)
    return {(i, k) for i, hits in odd.items() for k in hits}


def _unfiltered(entries: Entries) -> Set[int]:
    """The ids of the distinct entry objects with a negative exponent;
    each object is tested once, however many entries share it."""
    distinct = {id(p): p for row in entries.values() for p in row.values()}
    return {k for k, p in distinct.items() if not p.is_filtered()}


def is_chain_map(f: Morphism) -> bool:
    """Exact check of d_target o f = f o d_source; on supports when both
    differentials and f are homogeneous."""
    src, tgt = f.source, f.target
    if not (src.inhomogeneous or tgt.inhomogeneous or f.inhomogeneous):
        return not _odd_support((tgt.diff, f.entries), (f.entries, src.diff))
    d_src, d_tgt = differential_morphism(src), differential_morphism(tgt)
    return compose(d_tgt, f).entries == compose(f, d_src).entries


@dataclass
class CheckReport:
    """Named yes/no checks, in the order they were made, and the lines
    that name what failed."""

    checks: Tuple[Tuple[Union[int, str], bool], ...]
    offenders: Tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)

    @property
    def first_failure(self) -> Union[int, str, None]:
        return next((name for name, ok in self.checks if not ok), None)

    def require(self, what: str) -> None:
        """ValueError "<what> fails axiom (k): <offenders>" unless every check passed."""
        if not self.passed:
            raise ValueError(f"{what} fails axiom ({self.first_failure}): "
                             + "; ".join(self.offenders))


def verify_complex(c: FreeComplex) -> CheckReport:
    """Axioms (1) d^2 = 0, (2) d filtered and (3) gradings and d
    homogeneous, as the checks named 1, 2 and 3.

    Failures are reported, not raised; offending generators and entries
    are listed by name: homogeneity first, then d^2, then filtration.
    """
    offenders = [f"generator {x.name}: gr_u and gr_v have different parity"
                 for x in c.basis if (x.gr_u - x.gr_v) % 2]
    offenders += [f"entry {c.basis[i].name} -> {c.basis[j].name}: {c.diff[i][j]!r} "
                  "is not homogeneous of bidegree (-1,-1)" for i, j in c.inhomogeneous]
    homogeneous = not offenders

    # on a homogeneous d, d^2 = 0 is a parity of paths; an inhomogeneous d, which no
    # support determines, and a failure take compose, which lists offenders in its order
    d = differential_morphism(c)
    d2 = ([(i, j) for i, row in compose(d, d).entries.items() for j in row]
          if c.inhomogeneous or _odd_support((c.diff, c.diff)) else [])
    offenders += [f"d^2 nonzero: {c.basis[i].name} -> {c.basis[j].name}" for i, j in d2]

    bad = _unfiltered(c.diff)
    unfiltered = [f"entry {c.basis[i].name} -> {c.basis[j].name}: negative exponent in "
                  "filtered complex" for i, row in c.diff.items() for j, p in row.items()
                  if id(p) in bad] if bad else []
    offenders += unfiltered
    return CheckReport(((1, not d2), (2, not unfiltered), (3, homogeneous)), tuple(offenders))


# ---------------------------------------------------------------------------
# constructions


def tensor(c1: FreeComplex, c2: FreeComplex) -> FreeComplex:
    """Tensor product over the Laurent ring, Leibniz differential, built
    one row of c1 at a time; each row lists d(x)|y's targets, then x|d(y)'s.
    x|y is named x.name + "|" + y.name; ValueError names the two pairs
    when names containing "|" make two of them equal."""
    n2 = len(c2)
    tails = [("|" + y.name, y.gr_u, y.gr_v) for y in c2.basis]
    basis = [BasisElement(x.name + name, x.gr_u + u, x.gr_v + v)
             for x in c1.basis for name, u, v in tails]
    rows2 = [c2.diff.get(i2) for i2 in range(n2)]
    diff: Entries = {}
    for i1 in range(len(c1)):
        base = i1 * n2
        row1 = c1.diff.get(i1)
        if not row1:
            # x|y reaches only x|d(y): the rows of c2, shifted
            diff.update((base + i2, {base + j2: q for j2, q in row2.items()})
                        for i2, row2 in enumerate(rows2) if row2)
            continue
        offsets = [(j1 * n2, p) for j1, p in row1.items()]
        for i2, row2 in enumerate(rows2):
            src = base + i2
            acc = {o + i2: p for o, p in offsets}
            if row2:
                acc.update({base + j2: q for j2, q in row2.items()})
                if i1 in row1 and i2 in row2:
                    # j1 * n2 + i2 == i1 * n2 + j2 only for j1 == i1 and j2 == i2:
                    # both differentials have a diagonal entry, and the terms add
                    if s := row1[i1] + row2[i2]:
                        acc[src] = s
                    else:
                        del acc[src]
            if acc:
                diff[src] = acc
    try:
        c = FreeComplex(basis, diff)
    except ValueError:
        # a repeated name; each factor's are unique, so two distinct pairs (x, y) join to it
        seen: Dict[str, Tuple[str, str]] = {}
        pair = next(pair for pair in ((x.name, y.name) for x in c1.basis for y in c2.basis)
                    if seen.setdefault("|".join(pair), pair) is not pair)
        name = "|".join(pair)
        raise ValueError(f"product generators {seen[name]} and {pair} share the name "
                         f"{name!r}") from None
    # diff is homogeneous when both factors are: each entry is a
    # factor's, between gradings shifted alike
    if not (c1.inhomogeneous or c2.inhomogeneous):
        c.inhomogeneous = ()
    return c


class LazyTensor(FreeComplex):
    """tensor(c1, c2), built on the first read of basis or diff; len needs no build."""

    def __init__(self, c1: FreeComplex, c2: FreeComplex):
        self.factors = (c1, c2)
        if not (c1.inhomogeneous or c2.inhomogeneous):
            self.inhomogeneous = ()

    built = functools.cached_property(lambda self: tensor(*self.factors))
    basis = property(lambda self: self.built.basis)
    diff = property(lambda self: self.built.diff)

    def __len__(self) -> int:
        return len(self.factors[0]) * len(self.factors[1])


def tensor_morphism(f: Morphism, g: Morphism, source: FreeComplex, target: FreeComplex) -> Morphism:
    """(f|g)(x tensor y) = f(x) tensor g(y), for maps of equal variance.

    Mixed variances are rejected: the tensor of an equivariant map with
    a skew map is not well defined over the ring.
    """
    if f.variance != g.variance:
        raise ValueError("tensor of morphisms needs equal variances")
    n2s = len(g.source)
    n2t = len(g.target)
    # targets (j1, j2) are distinct within a row and the ring is a domain, so every
    # product is a nonzero entry; f and g hold their entries for the call, so ids
    # are stable and entries share one product per pair of entry objects
    out: Entries = {}
    prod: Dict[Tuple[int, int], LaurentPoly] = {}
    for i1, row_f in f.entries.items():
        for i2, row_g in g.entries.items():
            out[i1 * n2s + i2] = {j1 * n2t + j2: prod.get(k := (id(p), id(q)))
                                  or prod.setdefault(k, p * q)
                                  for j1, p in row_f.items() for j2, q in row_g.items()}
    bidegree = (f.bidegree[0] + g.bidegree[0], f.bidegree[1] + g.bidegree[1])
    return Morphism(source, target, out, f.variance, bidegree)


def _transpose(entries: Entries) -> Entries:
    """{target: {source: entry}}, the transpose of a sparse matrix."""
    out: Entries = {}
    for i, row in entries.items():
        for j, p in row.items():
            out.setdefault(j, {})[i] = p
    return out


def dual(c: FreeComplex) -> FreeComplex:
    """Dual complex: negated gradings, transposed differential."""
    basis = [BasisElement(f"{x.name}^", -x.gr_u, -x.gr_v) for x in c.basis]
    return FreeComplex(basis, _transpose(c.diff))


# ---------------------------------------------------------------------------
# finite slices and homology

def _per_slice(build):
    """Build a Slices result once per distinct slice."""
    @functools.wraps(build)
    def method(self: "Slices", r: int):
        key = (build.__name__, self.canonical(r))
        if key not in self._memo:
            self._memo[key] = build(self, key[1])
        return self._memo[key]
    return method


class Slices:
    """The F2 linear algebra of the grading-r slices of a free complex
    over F2[W], W of degree -2: generator i at gradings[i], and d, of
    degree -1 with d^2 = 0, as its supports {i: targets}.

    Slice r has one basis vector W^k x per generator x with
    gr(x) = r + 2k, k >= 0. Each parity's generators are ordered once,
    by (descending grading, index), and slice r lists the first n_r of
    them, those at grading r or above: every slice is a prefix of its
    parity's full slice, a generator has the same position in every
    slice that holds it, and W^m from slice r to slice r - 2m is the
    inclusion of a prefix. This is the order snf sorts by, split by
    parity on the first slice query, so a caller of snf alone pays only
    snf's own sort. Eliminations take their rows from the highest
    position down, which fills in less under gf2's lowest-bit pivots;
    spans, null spaces and gf2.solve's solutions do not depend on the
    order rows go in. Up to one above the lowest grading min_gr a slice
    holds every generator of its parity, so slices below min_gr - 1
    share a canonical grading, and every per-slice result is built once
    for it. Callers must not mutate what these methods return.
    """

    def __init__(self, gradings: List[int], diff: Dict[int, Iterable[int]]):
        self.gradings = gradings
        self.diff = diff
        self.min_gr = min(gradings, default=0)
        self._memo: Dict[tuple, object] = {}

    def canonical(self, r: int) -> int:
        """The grading that stands for the slice of r: r itself from
        low = min_gr - 1 up, and below it the full slice of r's parity."""
        return r if r >= self.min_gr - 1 else self.full(r)

    def full(self, r: int) -> int:
        """low or low + 1, whichever has r's parity: slices up to min_gr + 1
        hold every generator of their parity, so below low the slice of r
        and its neighbours r +- 1 equal those of low or low + 1."""
        low = self.min_gr - 1
        return low + (r - low) % 2

    @functools.cached_property
    def _order(self) -> List[int]:
        """The generators by (descending grading, index)."""
        g = self.gradings
        return sorted(range(len(g)), key=lambda i: (-g[i], i))

    @functools.cached_property
    def _parity_order(self) -> Tuple[List[int], ...]:
        """_order split into the even and the odd gradings."""
        g = self.gradings
        return tuple([i for i in self._order if g[i] % 2 == p] for p in (0, 1))

    @_per_slice
    def members(self, r: int) -> List[int]:
        """The generators with a power in slice r, in slice order: the prefix
        of r's parity at grading r or above."""
        g, order = self.gradings, self._parity_order[r % 2]
        return order[:bisect.bisect_right(order, -r, key=lambda i: -g[i])]

    @_per_slice
    def positions(self, r: int) -> List[int]:
        """Entry i: the position of generator i in slice r, or -1."""
        out = [-1] * len(self.gradings)
        for p, i in enumerate(self.members(r)):
            out[i] = p
        return out

    @_per_slice
    def diff_rows(self, r: int) -> List[int]:
        """d from slice r to slice r - 1, one bitset row per member. d(x) lies
        at gr(x) - 1 or above, so these are the full slice's first n_r rows."""
        full = self.full(r)
        if r != full:
            return self.diff_rows(full)[:len(self.members(r))]
        return gf2.support_rows(self.diff, self.members(r), self.positions(r - 1))

    @_per_slice
    def cycle_basis(self, r: int) -> List[int]:
        """gf2.nullspace of d on slice r, read off the full slice of r's
        parity: its vectors of top bit below n_r = len(members(r)).

        This is exactly what nullspace returns on slice r alone. A target
        below grading r - 1 is hit only from gradings below r, so slice r's
        system is the full system restricted to its first n_r columns, and
        its null vectors are the full ones with top bit below n_r. The
        vector nullspace gives for free column f is e_f plus pivot columns
        below f, so its top bit is f: the top bits of null vectors are the
        free columns, the free columns of slice r are the full ones below
        n_r, and the vector for each is the one null vector that is e_f on
        those free columns, in both systems.
        """
        full = self.full(r)
        n = len(self.members(r))
        if r != full:
            return [v for v in self.cycle_basis(full) if v.bit_length() <= n]
        return gf2.nullspace(gf2.transpose(self.diff_rows(r), len(self.members(r - 1)))[::-1], n)

    @_per_slice
    def boundaries(self, r: int) -> gf2.RowBasis:
        return gf2.RowBasis(self.diff_rows(r + 1)[::-1])

    @_per_slice
    def cocycles(self, r: int) -> List[int]:
        """Functionals phi_a, zero on the boundaries of slice r, with phi_a(g_b) = delta_ab on
        a basis g_b of its cycles modulo boundaries: a cycle is a boundary iff all vanish.
        Every boundary is a cycle, so the scan for the g_b stops once they and the
        boundaries span all len(cycle_basis(r)) dimensions of the cycles."""
        span = gf2.RowBasis()
        span.pivots = dict(self.boundaries(r).pivots)
        rows = list(span.pivots.values())
        first = len(rows)
        cycles = self.cycle_basis(r)
        for z in cycles:
            if span.rank == len(cycles):
                break
            if span.add(z):
                rows.append(z)
        return [gf2.solve(rows, [k == a for k in range(len(rows))], len(self.members(r)))
                for a in range(first, len(rows))]

    def snf(self) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
        """Graded Smith normal form by F2 column reduction with clearing, for
        d^2 = 0: the free summands' gradings and the towers F2[W]/W^k as (grading, k).

        Generators sort by (-grading, index), and position p is bit p of an
        int column, so a column's top bit, its low, is its entry of least
        power of W. The change x_b += W^m x_a is allowed exactly when
        g_a >= g_b with equal parity, so columns of one source parity,
        reduced in that order, only take on earlier columns: XOR with the
        pivot column of the same low until the column is zero or has a new
        low y, which pairs with the source x and splits off F2[W]/W^k at
        gr(y), 2k = gr(y) - gr(x) + 1, when k > 0. Odd sources go first.
        Clearing: a reduced odd column with low y is W^k (y + earlier
        terms), and y -> y + earlier terms is an allowed change whose image
        is a cycle, so y's own column would reduce to zero and is skipped.
        Unpaired generators are the free summands. The decomposition is an
        isomorphism invariant, so the pivot order cannot change it.
        """
        g, diff, order = self.gradings, self.diff, self._order
        pos = [0] * len(g)
        for p, i in enumerate(order):
            pos[i] = p
        pivots: Dict[int, int] = {}  # low -> reduced column
        paired = bytearray(len(g))
        torsion: List[Tuple[int, int]] = []
        for x in sorted(order, key=lambda i: g[i] % 2 == 0):  # odd sources first
            if paired[x] or x not in diff:
                continue
            col = 0
            for y in diff[x]:
                col |= 1 << pos[y]
            low = col.bit_length() - 1
            while low in pivots:
                col ^= pivots[low]
                low = col.bit_length() - 1
            if col:
                pivots[low] = col
                y = order[low]
                paired[x] = paired[y] = 1
                k = (g[y] - g[x] + 1) // 2
                if k:
                    torsion.append((g[y], k))
        return tuple(sorted(g[i] for i in range(len(g)) if not paired[i])), tuple(sorted(torsion))


# support rows see only the parity of a target, not its monomial
_NOT_HOMOGENEOUS = "slice homology needs homogeneous maps and differentials"


class SliceHomologyReport(Slices):
    """Decide H_*(C) = R by the two parity slices (A=0, gr_u in {0, 1}).

    U and V are invertible, so the slice at gr_u = g has one vector
    U^i V^j x per generator x with gr_u(x) = g mod 2, and a homogeneous
    map's slice matrix is the support of its matrix: these are slices 0
    and 1 of the Slices with grading 2 for gr_u even and 1 for gr_u odd.
    d flips the parity of gr_u, so these gradings force each entry to
    W^0 (even to odd) or W^1 (odd to even), filtered or not. Holding all
    generators of their parity, the slices see the complex with W
    inverted, where torsion dies: the dims count the free gradings 2 and
    1 of Slices.snf. Homology R, generator even, is exactly dims (1, 0).
    ValueError unless d is homogeneous.
    """

    def __init__(self, c: FreeComplex):
        if c.inhomogeneous:
            raise ValueError(_NOT_HOMOGENEOUS)
        super().__init__([2 - x.gr_u % 2 for x in c.basis], c.diff)
        free, _ = self.snf()
        self.dims = (free.count(2), free.count(1))
        self.holds = self.dims == (1, 0)

    @functools.cached_property
    def generator(self) -> Optional[int]:
        """The first even cycle in nullspace order that is not a
        boundary, or None."""
        return next((z for z in self.cycle_basis(0) if not self.boundaries(0).contains(z)), None)

    @property
    def functional(self) -> Optional[int]:
        """An even-slice functional phi, zero on the boundaries and one on
        the generator, or None unless the homology is the ring. Then a
        cycle c is a nonzero class exactly when phi . c = 1."""
        return self.cocycles(0)[0] if self.holds else None

    def maps_generator_nonzero(self, f: "Morphism", target: "SliceHomologyReport") -> bool:
        """Whether f, a homogeneous degree-(0,0) chain map out of this
        complex, sends the generator to a nonzero class of target."""
        if self.generator is None:
            raise ValueError("source slice homology has no generator class")
        rows = gf2.support_rows(f.entries, self.members(0), target.positions(0))
        return not target.boundaries(0).contains(gf2.apply_rows(rows, self.generator))


def homology_class_map(f: Morphism) -> bool:
    """Whether a degree-(0,0) equivariant chain map is nonzero on the
    rank-one slice homology, i.e. an isomorphism on homology for this class."""
    if f.variance != EQUIVARIANT or f.bidegree != (0, 0):
        raise ValueError("homology_class_map needs an equivariant bidegree-(0,0) map")
    if not is_chain_map(f):
        raise ValueError("homology_class_map rejects non-chain-maps")
    if f.inhomogeneous:
        raise ValueError(_NOT_HOMOGENEOUS)
    return f.source.slice_homology.maps_generator_nonzero(f, f.target.slice_homology)


# ---------------------------------------------------------------------------
# Hom-space equations and the chain-homotopy solver

class _HomEquations:
    """The F2 system of filtered homogeneous maps src -> tgt.

    Each basis pair whose grading-forced monomial has nonnegative
    exponents is one unknown bit; each entry of dH + Hd is one equation,
    a bitmask over the unknowns keyed by (source, target) index. Both
    differentials must be homogeneous, as FreeComplex.inhomogeneous
    decides.
    """

    def __init__(self, src: FreeComplex, tgt: FreeComplex, variance: str,
                 bidegree: Tuple[int, int]):
        for side, c in (("target", tgt), ("source", src)):
            if c.inhomogeneous:
                raise ValueError(f"{side} differential is not homogeneous")
        self.src, self.tgt = src, tgt
        self.variance, self.bidegree = variance, bidegree
        self.unknowns: List[Tuple[int, int, Monomial]] = []
        # the unknowns out of each source index, as (target, unknown)
        self.by_source: Dict[int, List[Tuple[int, int]]] = {}
        # the targets by bigrading; a source reaches those at or above its base
        buckets: Dict[Tuple[int, int], List[int]] = {}
        for j, y in enumerate(tgt.basis):
            buckets.setdefault((y.gr_u, y.gr_v), []).append(j)
        keys = sorted(buckets)
        for i, x in enumerate(src.basis):
            gu, gv = forced_base(x, variance, bidegree)
            hits = sorted((j, ((u - gu) // 2, (v - gv) // 2))
                          for u, v in keys[bisect.bisect_left(keys, (gu,)):]
                          if v >= gv and (u - gu) % 2 == (v - gv) % 2 == 0 for j in buckets[u, v])
            for j, m in hits:
                self.by_source.setdefault(i, []).append((j, len(self.unknowns)))
                self.unknowns.append((i, j, m))
        self.equations = self.residue(tgt.diff, src.diff)

    def residue(self, after: Entries, before: Entries) -> Dict[Tuple[int, int], int]:
        """after o X + X o before as bitmask equations over the unknowns X,
        keyed by (source, target) index, for after out of tgt and before
        into src. With one monomial per entry the gradings force every
        product's monomial, so an entry is the parity of its terms."""
        equations: Dict[Tuple[int, int], int] = {}
        for var, (i, j, _) in enumerate(self.unknowns):
            for k in after.get(j, ()):
                equations[(i, k)] = equations.get((i, k), 0) ^ (1 << var)
        for i, row in before.items():
            for j in row:
                for k, var in self.by_source.get(j, ()):
                    equations[(i, k)] = equations.get((i, k), 0) ^ (1 << var)
        return equations

    def morphism(self, bits: int) -> Morphism:
        """The map whose entries are the unknowns set in bits."""
        entries: Entries = {}
        for var, (i, j, m) in enumerate(self.unknowns):
            if (bits >> var) & 1:
                entries.setdefault(i, {})[j] = monomial(*m)
        return Morphism(self.src, self.tgt, entries, self.variance, self.bidegree)


def homotopy_solve(f: Morphism, g: Morphism) -> Optional[Morphism]:
    """Find a filtered H with dH + Hd = f + g; None exactly when none exists.

    H has the variance of f and g and bidegree one above theirs; its
    unknowns are one F2 bit per basis pair whose grading-forced monomial
    has nonnegative exponents. f and g need not be chain maps (with
    d^2 = 0, a non-chain f + g has no H). ValueError only for mismatched
    endpoints, variance or bidegree, or an entry that is not the
    grading-forced monomial. The solve is _solve_support's, on f + g.
    """
    if f.source != g.source or f.target != g.target:
        raise ValueError("homotopy_solve needs maps with equal endpoints")
    if f.bidegree != g.bidegree or f.variance != g.variance:
        raise ValueError("homotopy_solve needs maps of equal bidegree and variance")
    fg = f + g
    # an inhomogeneous d is named first, by _HomEquations
    if fg.inhomogeneous and not (f.source.inhomogeneous or f.target.inhomogeneous):
        raise ValueError("f + g is not homogeneous")
    return _solve_support(f.source, f.target, f.variance, (f.bidegree[0] + 1, f.bidegree[1] + 1),
                          {(i, j) for i, row in fg.entries.items() for j in row})


def _solve_support(src: FreeComplex, tgt: FreeComplex, variance: str,
                   bidegree: Tuple[int, int], rhs: Set[Tuple[int, int]]) -> Optional[Morphism]:
    """The least filtered H of this variance and bidegree with dH + Hd supported on rhs, or None."""
    # rhs = 0 has the zero homotopy; an inhomogeneous d still gets _HomEquations' ValueError
    if not rhs and not (src.inhomogeneous or tgt.inhomogeneous):
        return Morphism(src, tgt, {}, variance, bidegree)
    space = _HomEquations(src, tgt, variance, bidegree)
    keys = sorted(set(space.equations) | rhs)
    sol = gf2.solve([space.equations.get(k, 0) for k in keys], [k in rhs for k in keys],
                    len(space.unknowns))
    if sol is None:
        return None
    h = space.morphism(sol)
    # both differentials and h are homogeneous, so supports decide
    if _odd_support((tgt.diff, h.entries), (h.entries, src.diff)) != rhs:
        raise AssertionError("homotopy solver produced an invalid solution")
    return h
