"""Large-surgery correction terms from the Alexander-grading-zero tower.

The subcomplex of monomials U^i V^j x with i, j >= 0 sitting in Alexander
grading zero is free over F2[W] for W = UV, with the involution restricting
to a grading-preserving endomorphism. After Gaussian elimination of its
W^0 entries, its homology (graded Smith normal form) and the involutive
mapping cone yield d, d-bar, d-under and the V-invariants; an
independent max-grading oracle checks d-bar and d-under on the
unreduced tower.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from . import gf2
from .complexes import Slices, _odd_support, _per_slice
from .iota import IotaComplex, verify_iota_complex

# sparse F2[W] matrix: {source index: set of target indices}. Homogeneity
# forces the power W^k of an entry x -> y: 2k = gr(y) - gr(x) + 1 for the
# differential and 2k = gr(y) - gr(x) for the endomorphism.
TowerEntries = Dict[int, Set[int]]


class InvariantError(ValueError):
    """Structural assumption violated (odd d, missing free summand, ...)."""


class UTowerComplex(Slices):
    """A graded free F2[W]-complex, optionally with an endomorphism, and
    the complexes.Slices of its gradings and d.

    Matrices store supports only. An entry from x to y is the power W^k
    that the gradings force, 2k = gr(y) - gr(x) + 1 for the differential
    and 2k = gr(y) - gr(x) for the endomorphism, and that k must be a
    nonnegative integer. The basis is stored as given: each entry is a
    (str, int) pair, or InvariantError names it. So it names a matrix
    entry whose source or target is not an int in range(len(basis)).

    The oracle's W-power tests read the top grading max_gr and the
    grading span n_power, past which W^n_power kills every torsion class:
    a cycle v of slice r <= max_gr is nontorsion iff it pairs oddly with
    a cocycle of the canonical slice of r - 2 n_power (at or below
    min_gr - 1) pulled back along W^n_power.
    """

    def __init__(self, basis: List[Tuple[str, int]], diff: TowerEntries,
                 endo: Optional[TowerEntries] = None):
        self.basis: Tuple[Tuple[str, int], ...] = tuple(basis)
        for name, g in self.basis:
            if not isinstance(name, str) or type(g) is not int:
                raise InvariantError(f"tower basis entry {(name, g)!r} is not a (str, int) pair")
        super().__init__([g for _, g in self.basis], {i: set(row) for i, row in diff.items() if row})
        self.endo = None if endo is None else {i: set(row) for i, row in endo.items() if row}
        self.max_gr = max(self.gradings, default=0)
        self.n_power = (self.max_gr - self.min_gr) // 2 + 1
        self._validate()

    def __len__(self) -> int:
        return len(self.basis)

    def _validate(self) -> None:
        gr = self.gradings
        indices = set(range(len(gr)))
        for mats, shift in ((self.diff, 1), (self.endo or {}, 0)):
            for i, row in mats.items():
                if i not in indices or not row <= indices:
                    j = next(iter(row - indices or row))
                    raise InvariantError(f"tower entry {i!r} -> {j!r} indexes outside "
                                         f"a basis of {len(gr)}")
                # 1.0 and True pass the sets; rows are never empty, so row names a j
                if type(i) is not int:
                    raise InvariantError(f"tower entry {i!r} -> {next(iter(row))!r} has a "
                                         "non-int index")
                for j in row:
                    if type(j) is not int:
                        raise InvariantError(f"tower entry {i!r} -> {j!r} has a non-int index")
                    twice_k = gr[j] - gr[i] + shift
                    if twice_k < 0 or twice_k % 2:
                        raise InvariantError(f"tower entry {self.basis[i][0]} -> "
                                             f"{self.basis[j][0]} forces no W^k, k >= 0")
        # d^2 = 0: homogeneity pins every path's exponent, so only parity matters
        if bad := {i for i, _ in _odd_support((self.diff, self.diff))}:
            i = next(i for i in self.diff if i in bad)
            raise InvariantError(f"d^2 != 0 at generator {self.basis[i][0]}")

    @_per_slice
    def one_plus_iota_rows(self, r: int) -> List[int]:
        """1 + endo on slice r: the first n_r rows of the full slice's, as
        the endomorphism raises no grading."""
        full = self.full(r)
        if r != full:
            return self.one_plus_iota_rows(full)[:len(self.members(r))]
        assert self.endo is not None
        rows = gf2.support_rows(self.endo, self.members(r), self.positions(r))
        return [row ^ (1 << pos) for pos, row in enumerate(rows)]

    @_per_slice
    def nontorsion_tests(self, r: int) -> List[int]:
        """The cocycles of slice r - 2 n_power pulled back along W^n_power, so
        masked to slice r: a cycle of slice r is nontorsion iff it pairs
        oddly with one of them."""
        mask = (1 << len(self.members(r))) - 1
        return [phi & mask for phi in self.cocycles(r - 2 * self.n_power)]

    def spans_nontorsion(self, r: int, cycles: List[int]) -> bool:
        """Whether some F2 combination of the given grading-r cycles (the inputs
        must be cycles) is nontorsion: iff one cycle pairs oddly with a test."""
        return any((v & phi).bit_count() & 1 for phi in self.nontorsion_tests(r) for v in cycles)

    @_per_slice
    def iota_cycle_images(self, r: int) -> List[int]:
        """(1 + endo)z for each z of cycle_basis(r)."""
        rows = self.one_plus_iota_rows(r)
        return [gf2.apply_rows(rows, z) for z in self.cycle_basis(r)]

    @_per_slice
    def z_block(self, r: int) -> Tuple[List[int], List[int], List[Tuple[int, Optional[int]]]]:
        """Criterion (a)'s equations W^m x + dz = 0 with z in slice r, reduced
        in z once for every x-slice above (see _solutions_hit): one row per
        w of slice r - 1, its z-part the z with w in dz, tracking its
        combination of rows in the bits above slice r's.

        Returns the kernel, the combinations whose z-part reduces to zero
        (the cocycles of slice r - 1), in echelon form sorted by lowest bit,
        with those lowest bits; and per nontorsion test phi of slice r,
        (phi, X): X is the combination that clears the z-part of phi's
        (1 + iota)-pullback, or None when no combination does.
        """
        n = len(self.members(r))
        rows = gf2.transpose(self.diff_rows(r), len(self.members(r - 1)))
        basis = gf2.RowBasis(rows[w] | 1 << (n + w) for w in reversed(range(len(rows))))
        kernel = sorted((low - n, v >> n) for low, v in basis.pivots.items() if low >= n)
        pulls = []
        for phi in self.nontorsion_tests(r):
            v = basis.reduce(gf2.pullback(self.one_plus_iota_rows(r), phi))
            pulls.append((phi, None if v & ((1 << n) - 1) else v >> n))
        return [low for low, _ in kernel], [a for _, a in kernel], pulls


def a_zero_minus(ic: IotaComplex, verify: bool = True) -> UTowerComplex:
    """Extract the tower subcomplex and the restricted involution.

    The generator over F2[W] for a basis element x of Alexander grading
    A is U^max(A,0) V^max(-A,0) x, at grading gr_u(x) - 2 max(A, 0).
    verify=True checks all six axioms of the input first.

    Either way the differential must be homogeneous, as
    FreeComplex.inhomogeneous decides, and so must iota. Then the
    gradings force each entry x -> y to U^p V^q with one power
    k = i0 + p - i0(y) = j0 + q - j0(y) of W (i0, j0 swapped for iota),
    the k of 2k = gr(y) - gr(x) + 1 for d and 2k = gr(y) - gr(x) for
    iota. So the rows keep only their supports, and
    UTowerComplex._validate checks that each k is an integer >= 0.
    """
    if verify:
        verify_iota_complex(ic).require("a_zero_minus input")
    cx = ic.complex
    if cx.inhomogeneous or ic.iota.inhomogeneous:
        raise InvariantError("entry does not restrict to the tower subcomplex")
    basis = [(x.name, x.gr_u - 2 * max(x.alexander, 0)) for x in cx.basis]
    # UTowerComplex takes the support of each {target: entry} row
    return UTowerComplex(basis, cx.diff, ic.iota.entries)


@dataclass(frozen=True)
class HomologyDecomp:
    """Free summand gradings and torsion towers (grading, order)."""

    free: Tuple[int, ...]
    torsion: Tuple[Tuple[int, int], ...]


def homology_snf(t: UTowerComplex) -> HomologyDecomp:
    """Graded Smith normal form of the tower, by complexes.Slices.snf."""
    return HomologyDecomp(*t.snf())


def reduce_tower(t: UTowerComplex) -> UTowerComplex:
    """Cancel every W^0 entry x -> y of d, carrying the endomorphism along
    as pi endo sigma (see involutive_invariants): each row b with y in d(b)
    gains d(x) in d and endo(x) in endo (sigma), each endo row holding y
    gains d(x) (pi), and x and y are marked dead, to be dropped at the
    renumbering. The gradings force every power, so a symmetric difference
    of supports is the exact F2[W] sum. sigma gives a row a new W^0 entry
    only if it had one, so one pass, in any order, leaves d with no W^0
    entry: the result is minimal. A dead generator stays in rows but
    reaches no decision: the unit search and the updates skip it, d(x) and
    endo(x) are cut to live generators before they are added, and only the
    dying d-rows leave the into-index, so len(d_into[y]), which the pivot
    rule reads, counts exactly the live rows of d holding y.
    """
    gr = t.gradings
    n = len(gr)
    mats = [[set(m.get(i, ())) for i in range(n)] for m in (t.diff, t.endo or {})]
    into = [[set() for _ in range(n)] for _ in mats]  # target -> the rows holding it
    for m, inv in zip(mats, into):
        for i, row in enumerate(m):
            for j in row:
                inv[j].add(i)
    dead = bytearray(n)

    def add(m: List[Set[int]], inv: List[Set[int]], b: int, delta: List[int]) -> None:
        row = m[b]
        for z in delta:
            if z in row:
                row.remove(z)
                inv[z].remove(b)
            else:
                row.add(z)
                inv[z].add(b)

    (d, endo), (d_into, endo_into) = mats, into
    for x in sorted(range(n), key=gr.__getitem__):
        units = [] if dead[x] else [y for y in d[x] if not dead[y] and gr[y] == gr[x] - 1]
        if not units:
            continue
        y = min(units, key=lambda y: (len(d_into[y]), y))
        dead[x] = 1
        dx, ex = ([z for z in m[x] if not dead[z]] for m in mats)
        for b in [b for b in d_into[y] if not dead[b]]:
            add(d, d_into, b, dx)
            add(endo, endo_into, b, ex)
        for b in [b for b in endo_into[y] if not dead[b]]:
            add(endo, endo_into, b, dx)
        dead[y] = 1
        for v in (x, y):
            for z in d[v]:
                d_into[z].discard(v)
    keep = [i for i in range(n) if not dead[i]]
    new = {i: k for k, i in enumerate(keep)}
    d, endo = ({new[i]: row for i in keep if (row := {new[j] for j in m[i] if not dead[j]})}
               for m in mats)
    return UTowerComplex([t.basis[i] for i in keep], d, None if t.endo is None else endo)


def involutive_cone(t: UTowerComplex) -> UTowerComplex:
    """Mapping cone of (1 + iota) into a fresh copy, domain grading
    shifted up by one."""
    if t.endo is None:
        raise InvariantError("involutive cone needs the endomorphism")
    n = len(t)
    basis = [(f"{name}.dom", g + 1) for name, g in t.basis]
    basis += [(f"{name}.q", g) for name, g in t.basis]
    diff: TowerEntries = {i + n: {j + n for j in row} for i, row in t.diff.items()}
    for i in range(n):
        # an endomorphism entry i -> i is forced to W^0 and cancels the 1
        diff[i] = t.diff.get(i, set()) | ({i + n} ^ {j + n for j in t.endo.get(i, ())})
    return UTowerComplex(basis, diff, endo=None)


@dataclass(frozen=True)
class InvariantReport:
    """d, d_bar and d_under, each even; the V-invariants are V = -d/2."""

    d: int
    d_bar: int
    d_under: int

    def __post_init__(self):
        for name, val in (("d", self.d), ("d_bar", self.d_bar), ("d_under", self.d_under)):
            if val % 2:
                raise InvariantError(f"{name} = {val} is odd; V-invariants would not be integers")

    @property
    def V0(self) -> int:
        return -self.d // 2

    @property
    def V0_bar(self) -> int:
        return -self.d_bar // 2

    @property
    def V0_under(self) -> int:
        return -self.d_under // 2

    def triple(self) -> Tuple[int, int, int]:
        """(V0_bar, V0, V0_under), the table's column order."""
        return (self.V0_bar, self.V0, self.V0_under)

    def to_dict(self) -> Dict[str, int]:
        return {
            "d": self.d,
            "d_bar": self.d_bar,
            "d_under": self.d_under,
            "V0": self.V0,
            "V0_bar": self.V0_bar,
            "V0_under": self.V0_under,
        }


def involutive_invariants(t: UTowerComplex) -> InvariantReport:
    """d from the tower homology, d-bar/d-under from the cone.

    The tower is reduced first (reduce_tower): each W^0 entry x -> y of d
    is cancelled, lowest grading x first, with y the W^0 target with the
    fewest entries of d into it. The inclusion sigma, b -> b + W^k x, and
    the projection pi, y -> d(x) - y, are chain maps with pi sigma = id
    and sigma pi homotopic to id, and the reduced endomorphism is
    pi iota sigma. So sigma (1 + pi iota sigma) is homotopic to
    (1 + iota) sigma, and sigma with that homotopy maps the cone of
    1 + pi iota sigma to the cone of 1 + iota by a homotopy equivalence:
    the homology, the cone's homology and the triple are those of the
    unreduced tower. T(7,8)^#3's 2 197 generators reduce to 73.
    lemma_criteria_oracle is never given the reduced tower, so it stays
    an independent check of the reduction.

    A class survives localization at W exactly when it generates a free
    summand, so the maximal gradings are read off the decomposition: the
    cone's free gradings in d's parity give d-bar, those in the opposite
    parity give d-under + 1.
    """
    t = reduce_tower(t)
    decomp = homology_snf(t)
    if not decomp.free:
        raise InvariantError("tower homology has no free summand")
    d = max(decomp.free)
    cone = homology_snf(involutive_cone(t))
    same = [g for g in cone.free if (g - d) % 2 == 0]
    opp = [g for g in cone.free if (g - d) % 2 == 1]
    if not same or not opp:
        raise InvariantError("cone homology is missing a free summand in one parity class")
    return InvariantReport(d, max(same), max(opp) - 1)


# ---------------------------------------------------------------------------
# independent oracle via maximum-grading criteria

def _d_bar_hits(t: UTowerComplex, c: int, m: int) -> bool:
    """Whether a d_bar criterion holds at grading c for this m: (a) some
    solution of dy = (1+iota)x, dz = W^m x with x != 0 at grading c - 1
    has W^m y + (1+iota)z nontorsion, or (b) cycles y != 0 at grading c
    and z at c - 2m have W^m y + (1+iota)z nontorsion.
    """
    return _solutions_hit(t, c - 1, c - 2 * m) or _cycle_pairs_hit(t, c, c - 2 * m)


def _solutions_hit(t: UTowerComplex, r: int, s: int) -> bool:
    """Criterion (a) with x in slice r, y in slice r + 1 and z in slice s.

    The solutions v = (x, y, z) are the null space of the row space E of
    the equations: one has x_k = 1 iff e_k is outside E, one has a
    nontorsion image iff a pulled-back nontorsion test is outside E, and if
    v has the image and u has x != 0, v, u or v + u has both.

    z is eliminated once per z-slice, by z_block(s). The equations
    W^m x + dz = 0 have one row per w of slice s - 1, with x-part e_w when
    w is in slice r (W^m keeps x's position) and 0 otherwise. So a kernel
    combination a, whose z-parts cancel, leaves the row a & xmask in x
    alone, and the kernel rows with lowest bit below n_x span these. E's
    rows free of z are those of dy = (1+iota)x and these. A test's
    pullback has y-part phi on slice r + 1 and z-part (1+iota)^T phi: it
    is outside E when no combination X of the rows clears its z-part,
    and otherwise iff its remainder, X & xmask in x and phi in y, is
    outside the rows free of z.
    """
    nx = len(t.members(r))
    if not nx or not t.nontorsion_tests(s):
        return False
    lows, kernel, pulls = t.z_block(s)
    xmask, ymask = (1 << nx) - 1, (1 << len(t.members(r + 1))) - 1
    eqs = gf2.transpose(t.one_plus_iota_rows(r) + t.diff_rows(r + 1), nx)
    eqs += [a & xmask for a in kernel[:bisect.bisect_left(lows, nx)]]
    span = gf2.RowBasis(eqs)
    return (any(x is None or not span.contains(x & xmask | (phi & ymask) << nx)
                for phi, x in pulls)
            and not all(span.contains(1 << k) for k in range(nx)))


def _cycle_pairs_hit(t: UTowerComplex, c: int, s: int) -> bool:
    """Criterion (b) with y in slice c and z in slice s: W^m y is y."""
    y_cycles = t.cycle_basis(c)
    return bool(y_cycles) and t.spans_nontorsion(s, y_cycles + t.iota_cycle_images(s))


def _d_under_hits(t: UTowerComplex, r: int) -> bool:
    """Whether some cycle v at grading r has a nontorsion class and (1 + iota)v a boundary."""
    # psi_a has bit k when cycle k pairs oddly with nontorsion test a
    psis = [gf2.pullback(t.cycle_basis(r), phi) for phi in t.nontorsion_tests(r)]
    if not any(psis):
        return False
    # the cycle combinations with (1 + iota)-image killed by every cocycle of
    # slice r are these rows' null space; one pairs oddly with psi iff psi is outside
    images = t.iota_cycle_images(r)
    span = gf2.RowBasis(gf2.pullback(images, phi) for phi in t.cocycles(r))
    return not all(span.contains(psi) for psi in psis)


def lemma_criteria_oracle(t: UTowerComplex) -> Tuple[int, int]:
    """(d_bar, d_under) by the maximum-grading criteria, independently of
    the cone construction.

    d_under: the top grading of a cycle v with nontorsion class such that
    (1 + iota)v is a boundary. d_bar: the top value over (a) gr(x) + 1
    for solutions of dy = (1+iota)x, dz = W^m x with x != 0 and
    W^m y + (1+iota)z nontorsion, and (b) gr(y) for cycle pairs y != 0, z
    with W^m y + (1+iota)z nontorsion, for m up to the grading span
    n_power. Raises when the test at m = n_power + 1 could differ from the
    one at n_power, that is when c - 2 n_power and c - 2 n_power - 2 have
    different canonical slices, which the grading range below rules out.
    Tests pair with the tower's own cocycles; existence is row-space membership.

    Both d_bar criteria are monotone in m: if (x, y, z) solves (a) for m,
    then (x, y, Wz) solves it for m + 1 with image W (W^m y + (1+iota)z),
    and (y, Wz) does the same for (b); W times a nontorsion class is
    nontorsion. So some m <= n_power hits exactly when m = n_power hits,
    and each grading needs only the tests at n_power and n_power + 1.

    The slices are prefixes of their parity's full slice (complexes.Slices),
    so one null space per parity gives every slice's cycles, and W^m is a
    prefix inclusion. Every c scanned has c - 2 n_power at or below min_gr,
    so both tests at c read the same two full slices and share one
    decision, and criterion (a)'s z-block on them is reduced once per
    parity (UTowerComplex.z_block). The oracle uses neither reduce_tower
    nor the Smith normal form.
    """
    if t.endo is None:
        raise InvariantError("oracle needs the endomorphism")
    if not len(t):
        raise InvariantError("oracle needs a nonempty complex")
    max_gr, min_gr, n_power = t.max_gr, t.min_gr, t.n_power

    # a witness W^N v for a free class v can sit as far as 2 n_power
    # below the lowest generator grading
    d_under = next((r for r in range(max_gr, min_gr - 2 * n_power - 1, -1)
                    if _d_under_hits(t, r)), None)
    if d_under is None:
        raise InvariantError("no d_under witness in the grading range")

    # d_under's witness means a free summand at a generator grading g, where (b) hits with z = 0
    for c in range(max_gr + 1, min_gr - 1, -1):
        if _d_bar_hits(t, c, n_power):
            break
        # the test at n_power + 1 would read the same slice, so it misses too
        if t.canonical(c - 2 * n_power) != t.canonical(c - 2 * n_power - 2):
            raise InvariantError(
                f"m bound {n_power} too small: raising it changes d_bar")
    return (c, d_under)


@dataclass(frozen=True)
class ObstructionReport:
    pattern1: bool
    pattern2: bool

    @property
    def consistent_with_thin_or_lspace(self) -> bool:
        return self.pattern1 or self.pattern2

    def to_dict(self) -> Dict[str, bool]:
        return {
            "pattern1": self.pattern1,
            "pattern2": self.pattern2,
            "consistent_with_thin_or_lspace": self.consistent_with_thin_or_lspace,
        }


def obstruction_pattern(r: InvariantReport) -> ObstructionReport:
    """The two value patterns of thin knots, L-space knots and their
    mirrors; a knot matching neither is concordant to none of them."""
    vb, v0, vu = r.V0_bar, r.V0, r.V0_under
    pattern1 = vb >= 0 and v0 >= 0 and vu >= 0 and 0 <= vu - vb <= 1
    pattern2 = vb <= 0 and v0 == 0 and vu == 0
    return ObstructionReport(pattern1, pattern2)
