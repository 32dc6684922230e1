"""Iota-complexes: filtered complexes with a skew homotopy-involution.

The involution iota squares to id + Phi o Psi. Phi = dd/dU, Psi = dd/dV
and the Phi^2 homotopy are read off the forced exponents of a homogeneous
differential d (ValueError otherwise). The module verifies the six axioms,
the sixth on supports, forms connected-sum products, duals and trace/cotrace
inverse witnesses, and decides local equivalence by one F2 solve per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from . import gf2
from .complexes import (
    EQUIVARIANT,
    SKEW,
    BasisElement,
    CheckReport,
    Entries,
    FreeComplex,
    LazyTensor,
    Morphism,
    _HomEquations,
    _odd_support,
    _solve_support,
    _transpose,
    compose,
    dual,
    homotopy_solve,
    identity_morphism,
    is_chain_map,
    tensor,
    tensor_morphism,
    verify_complex,
)
from .ring import ONE, ZERO, LaurentPoly, Monomial, monomial


@dataclass(frozen=True)
class IotaComplex:
    """A filtered free complex together with its skew involution."""

    complex: FreeComplex
    iota: Morphism

    def __post_init__(self):
        if self.iota.source != self.complex or self.iota.target != self.complex:
            raise ValueError("iota must be an endomorphism of the underlying complex")
        if self.iota.variance != SKEW or self.iota.bidegree != (0, 0):
            raise ValueError("iota must be skew of bidegree (0, 0)")


def identity_complex() -> IotaComplex:
    """The unit: one generator in bigrading (0, 0), zero differential,
    iota fixing the generator."""
    c = FreeComplex([BasisElement("e", 0, 0)], {})
    return IotaComplex(c, Morphism(c, c, {0: {0: ONE}}, SKEW, (0, 0)))


# Phi keeps an entry U^a V^b of d with a odd, as U^(a-1) V^b; Psi one with b odd, as U^a V^(b-1)
Rule = Callable[[int, int], Optional[Monomial]]
_PHI: Rule = lambda a, b: (a - 1, b) if a % 2 else None
_PSI: Rule = lambda a, b: (a, b - 1) if b % 2 else None


def _from_exponents(c: FreeComplex, bidegree: Tuple[int, int], rule: Rule) -> Morphism:
    """The equivariant endomorphism of c keeping each entry U^a V^b of d as U^rule(a, b)
    where that is not None, one rule call and one monomial per distinct entry object (d holds
    them; loaded or built, it shares them); ValueError unless every entry is its grading-forced
    monomial."""
    if c.inhomogeneous:
        raise ValueError("the differential is not homogeneous")
    memo: Dict[int, Optional[LaurentPoly]] = {}  # memo itself marks a miss
    entries: Entries = {}
    for i, row in c.diff.items():
        for j, p in row.items():
            if (m := memo.get(id(p), memo)) is memo:
                m = memo[id(p)] = None if (e := rule(*p.terms[0])) is None else monomial(*e)
            if m is not None:
                entries.setdefault(i, {})[j] = m
    return Morphism(c, c, entries, EQUIVARIANT, bidegree)


def build_phi(c: FreeComplex) -> Morphism:
    """d/dU of each entry of d; equivariant, bidegree (1, -1); ValueError if d is inhomogeneous."""
    return _from_exponents(c, (1, -1), _PHI)


def build_psi(c: FreeComplex) -> Morphism:
    """d/dV of each entry of d; equivariant, bidegree (-1, 1); ValueError if d is inhomogeneous."""
    return _from_exponents(c, (-1, 1), _PSI)


def phi_squared_homotopy(c: FreeComplex) -> Morphism:
    """The explicit homotopy H with Phi^2 = dH + Hd.

    Writing the differential as a sum of matrices P_n U^n, the homotopy
    keeps the terms with n(n-1)/2 odd and lowers the U-exponent by two.
    It is filtered whenever the differential is; ValueError unless homogeneous.
    """
    return _from_exponents(c, (3, -1), lambda a, b: (a - 2, b) if a * (a - 1) // 2 % 2 else None)


@dataclass
class IotaReport(CheckReport):
    """The six axioms as the checks named 1-6, in the order of the
    definition: (1) d^2 = 0, (2) d filtered, (3) gradings homogeneous,
    (4) homology is the ring, (5) iota skew-graded/skew-filtered chain
    map, (6) iota^2 homotopic to id + Phi Psi through a filtered
    equivariant homotopy. involution_homotopy is the witness for (6).
    """

    involution_homotopy: Optional[Morphism] = None


def verify_iota_complex(ic: IotaComplex) -> IotaReport:
    """Check all six axioms; failures are reported with witnesses.

    (1)-(3) and (5) are always decided. (4) is decided when (1) and (3) pass:
    the slice homology needs a homogeneous d with d^2 = 0, and not the
    filtration. (6) is decided when (1)-(5) all pass; an undecided (4) or (6)
    reads as failed. Then d and iota are homogeneous, so iota o iota,
    Phi o Psi and id are equivariant of bidegree (0, 0) and each entry i -> k
    of their sum is its forced monomial once per path i -> j -> k through
    (iota, iota) or (Phi, Psi), plus once on the diagonal: (6) solves
    homotopy_solve's system on that odd support.
    """
    cx = ic.complex
    base = verify_complex(cx)
    offenders = list(base.offenders)

    ok = dict(base.checks)
    hom = cx.slice_homology if ok[1] and ok[3] else None
    homology_r_ok = bool(hom and hom.holds)
    if hom and not hom.holds:
        offenders.append(f"slice homology dims {hom.dims} != (1, 0)")

    iota_ok = True
    if ic.iota.inhomogeneous:
        iota_ok = False
        offenders.append("iota is not skew-graded of bidegree (0, 0)")
    if not ic.iota.is_filtered():
        iota_ok = False
        offenders.append("iota is not skew-filtered")
    if iota_ok and not is_chain_map(ic.iota):
        iota_ok = False
        offenders.append("iota is not a chain map")

    involution_ok = False
    witness = None
    if base.passed and homology_r_ok and iota_ok:
        phi_psi = (build_phi(cx).entries, build_psi(cx).entries)
        paths = _odd_support((ic.iota.entries, ic.iota.entries), phi_psi)
        rhs = paths ^ {(i, i) for i in range(len(cx))}
        witness = _solve_support(cx, cx, EQUIVARIANT, (1, 1), rhs)
        involution_ok = witness is not None
        if not involution_ok:
            offenders.append("no filtered equivariant homotopy from iota^2 to id + Phi Psi")

    checks = (*base.checks, (4, homology_r_ok), (5, iota_ok), (6, involution_ok))
    return IotaReport(checks, tuple(offenders), witness)


def _product_terms(c1: FreeComplex, iota1: Morphism, c2: FreeComplex, iota2: Morphism,
                   variant: int) -> Tuple[Tuple[Morphism, Morphism], ...]:
    """The factor pairs (f, g) whose tensors f|g sum to the involution of
    the product: (iota1, iota2) and (Phi1 iota1, Psi2 iota2) for variant
    1, (Psi1 iota1, Phi2 iota2) for variant 2. Each f|g is skew of
    bidegree (0, 0)."""
    if type(variant) is not int or variant not in (1, 2):
        raise ValueError("variant must be 1 or 2")
    if variant == 1:
        left, right = compose(build_phi(c1), iota1), compose(build_psi(c2), iota2)
    else:
        left, right = compose(build_psi(c1), iota1), compose(build_phi(c2), iota2)
    return (iota1, iota2), (left, right)


def product(ic1: IotaComplex, ic2: IotaComplex, *, variant: int = 1,
            verify: bool = True) -> IotaComplex:
    """Connected-sum product: tensor complex with the involution
    iota1|iota2 + Phi1 iota1|Psi2 iota2 (variant 1) or the Psi/Phi variant 2.
    variant and verify are keyword-only; verify=True rejects failing inputs.
    With verify=False an inhomogeneous factor still raises ValueError, from
    building its Phi or Psi; so when both factors' involutions are
    homogeneous, every term is, and the product's is recorded so."""
    if verify:
        for k, ic in ((1, ic1), (2, ic2)):
            verify_iota_complex(ic).require(f"product input {k}")
    prod = tensor(ic1.complex, ic2.complex)
    (f1, g1), (f2, g2) = _product_terms(ic1.complex, ic1.iota, ic2.complex, ic2.iota, variant)
    iota = tensor_morphism(f1, g1, prod, prod) + tensor_morphism(f2, g2, prod, prod)
    if not (ic1.iota.inhomogeneous or ic2.iota.inhomogeneous):
        iota.inhomogeneous = ()
    return IotaComplex(prod, iota)


def dual_iota(ic: IotaComplex) -> IotaComplex:
    """The inverse: dual complex with the dualized involution, the
    transpose of iota with each entry U/V-swapped. The functional phi maps
    to swap o phi o iota, which keeps the dual skew-graded for the
    negated gradings."""
    dc = dual(ic.complex)
    entries = {j: {i: p.swap_uv() for i, p in col.items()}
               for j, col in _transpose(ic.iota.entries).items()}
    return IotaComplex(dc, Morphism(dc, dc, entries, SKEW, (0, 0)))


# ---------------------------------------------------------------------------
# trace / cotrace inverse witnesses

@dataclass(kw_only=True)
class InverseWitnessReport(CheckReport):
    cotrace: Morphism
    trace: Morphism


def _diagonal_sum(pairs: Iterable[Tuple[Entries, Entries]], n: int) -> Dict[int, LaurentPoly]:
    """The sum over the pairs (f, g) and over x of f[x][a] g[x][b], at a * n + b,
    without the sums that cancelled."""
    out: Dict[int, LaurentPoly] = {}
    for f, g in pairs:
        for x, row_f in f.items():
            row_g = g.get(x)
            if row_g:
                for a, p in row_f.items():
                    for b, q in row_g.items():
                        k = a * n + b
                        out[k] = out.get(k, ZERO) + p * q
    return {k: p for k, p in out.items() if p}


def _iota_through_trace(ic: IotaComplex, dic: IotaComplex, prod: FreeComplex,
                        unit: FreeComplex) -> Tuple[Morphism, Morphism]:
    """iota o cotrace and trace o iota, for iota the variant-1 involution
    of prod = C x C^dual, without building iota.

    With iota the sum of f|g over the factor pairs, iota o cotrace sends
    1 to the sum over x of f(x) tensor g(x^), and trace o iota sends
    a tensor b^ to the sum over c of f[a][c] g[b][c]: both are the
    diagonal sum, the second over the transposed factors, so the work of
    each is the number of products out of, or into, the diagonal x|x^.
    """
    terms = [(f.entries, g.entries)
             for f, g in _product_terms(ic.complex, ic.iota, dic.complex, dic.iota, 1)]
    n = len(ic.complex)
    # the composites of the skew (0, 0) involution with the two equivariant (0, 0) maps
    image = _diagonal_sum(terms, n)
    to_unit = _diagonal_sum(((_transpose(f), _transpose(g)) for f, g in terms), n)
    return (Morphism(unit, prod, {0: image} if image else {}, SKEW, (0, 0)),
            Morphism(prod, unit, {k: {0: p} for k, p in to_unit.items()}, SKEW, (0, 0)))


def inverse_witnesses(ic: IotaComplex) -> InverseWitnessReport:
    """Construct and verify the local equivalence C x C^dual ~ identity.

    The cotrace sends 1 to the sum of x tensor x^dual; the trace sends
    x tensor y^dual to y^dual(x). Their composite is the mod-2 Euler
    characteristic times the identity, which is the identity since the
    homology is the ring.

    Every check is decided from C and C^dual in O(nnz(d) + n) work. C x C^dual
    is a LazyTensor, built only when the report's endpoints are read or an
    intertwining solve has a nonzero right-hand side; its involution (variant 1)
    is read only through iota o cotrace and trace o iota (_iota_through_trace).

    The two "nonzero on homology" lines need no slice homology of the
    product. Once both maps are homogeneous chain maps they induce maps
    on slice homology, and trace_* o cotrace_* is then the identity on
    the unknot's rank-one slice homology, which is not zero; so neither
    cotrace_* nor trace_* is zero.
    """
    ce = identity_complex()
    dic = dual_iota(ic)
    c, dc = ic.complex, dic.complex
    prod = LazyTensor(c, dc)

    n = len(c)
    cotrace = Morphism(ce.complex, prod, {0: {i * n + i: ONE for i in range(n)}} if n else {},
                       EQUIVARIANT, (0, 0))
    trace = Morphism(prod, ce.complex, {i * n + i: {0: ONE} for i in range(n)},
                     EQUIVARIANT, (0, 0))
    # each map is 1 between the unit and x|x^: homogeneous when x|x^ is in (0, 0)
    graded = all(x.gr_u + y.gr_u == 0 and x.gr_v + y.gr_v == 0 for x, y in zip(c.basis, dc.basis))
    # d_prod takes x|x^ to j|x^ per entry x -> j of d, and to x|k^ per entry
    # x^ -> k^ of d^dual. On supports (an inhomogeneous factor raises below), the
    # cotrace is a chain map when each (j, k) is hit by both or neither; the rows into
    # the diagonal (a|b^ -> b|b^ per a -> b, a|b^ -> a|a^ per b^ -> a^) hit them transposed.
    chain = ({(j, i) for i, row in c.diff.items() for j in row}
             == {(i, k) for i, row in dc.diff.items() for k in row})

    checks: List[Tuple[str, bool]] = [
        ("cotrace homogeneous", graded),
        ("trace homogeneous", graded),
        ("cotrace filtered", cotrace.is_filtered()),
        ("trace filtered", trace.is_filtered()),
        ("cotrace chain map", chain),
        ("trace chain map", chain),
        ("trace o cotrace = id", compose(trace, cotrace) == identity_morphism(ce.complex)),
    ]
    # the argument above needs every check so far but the filtrations
    nonzero = all(ok for name, ok in checks if not name.endswith("filtered"))
    checks += [("cotrace nonzero on homology", nonzero), ("trace nonzero on homology", nonzero)]
    iota_cotrace, trace_iota = _iota_through_trace(ic, dic, prod, ce.complex)
    h_f = homotopy_solve(compose(cotrace, ce.iota), iota_cotrace)
    checks.append(("cotrace intertwines involutions", h_f is not None))
    h_g = homotopy_solve(trace_iota, compose(ce.iota, trace))
    checks.append(("trace intertwines involutions", h_g is not None))
    return InverseWitnessReport(tuple(checks), cotrace=cotrace, trace=trace)


# ---------------------------------------------------------------------------
# local equivalence

def verify_local_equivalence(ic1: IotaComplex, ic2: IotaComplex, f: Morphism, g: Morphism,
                             h_f: Morphism, h_g: Morphism) -> CheckReport:
    """Check, solving nothing, that (f, g) witnesses ic1 ~ ic2 with h_f, h_g the homotopies of
    iota2 f ~ f iota1 and iota1 g ~ g iota2: homogeneous, filtered, and dH + Hd + iota' F + F iota
    zero as a parity of paths. ValueError for an inhomogeneous iota or a misshapen map or H."""
    sides = (("f", f, h_f, ic1, ic2, 1, 2), ("g", g, h_g, ic2, ic1, 2, 1))
    for name, m, h, a, b, s, t in sides:
        if a.iota.inhomogeneous:
            raise ValueError(f"iota{s} is not homogeneous")
        for what, x, shape in ((name, m, (EQUIVARIANT, (0, 0))), (f"h_{name}", h, (SKEW, (1, 1)))):
            if x.source != a.complex or x.target != b.complex:
                raise ValueError(f"{what} must map ic{s} to ic{t}")
            if (x.variance, x.bidegree) != shape:
                raise ValueError(f"{what} must be {shape[0]} of bidegree {shape[1]}")
    checks = [(f"{name} {what}", ok) for name, m, *_ in sides for what, ok in (
        ("homogeneous", not m.inhomogeneous), ("filtered", m.is_filtered()),
        ("chain map", is_chain_map(m)))]
    if not all(ok for _, ok in checks):
        return CheckReport(tuple(checks))

    hom1, hom2 = ic1.complex.slice_homology, ic2.complex.slice_homology
    checks.append(("f isomorphism on homology", hom1.maps_generator_nonzero(f, hom2)))
    checks.append(("g isomorphism on homology", hom2.maps_generator_nonzero(g, hom1)))
    for name, m, h, a, b, s, t in sides:
        checks.append((f"iota{t} {name} ~ {name} iota{s}", not h.inhomogeneous
                       and h.is_filtered() and not _odd_support(
                           (b.complex.diff, h.entries), (h.entries, a.complex.diff),
                           (b.iota.entries, m.entries), (m.entries, a.iota.entries))))
    return CheckReport(tuple(checks))


class CapExceededError(Exception):
    """A chain-map solution space is larger than the search's cap."""


def _search_direction(src_ic: IotaComplex, tgt_ic: IotaComplex,
                      cap: int) -> Optional[Tuple[Morphism, Morphism]]:
    """The least witness F: src -> tgt and its H, or None (see search_local_equivalence)."""
    src, tgt = src_ic.complex, tgt_ic.complex
    z, phi = src.slice_homology.generator, tgt.slice_homology.functional
    if z is None or phi is None:
        raise ValueError(f"{'target' if z else 'source'} slice homology has no generator class")
    maps = _HomEquations(src, tgt, EQUIVARIANT, (0, 0))
    dim = len(maps.unknowns) - gf2.rank(maps.equations.values())
    if dim > cap:
        raise CapExceededError(f"chain-map solution space has dimension {dim} > cap {cap}")
    homotopies = _HomEquations(src, tgt, SKEW, (1, 1))
    n = len(homotopies.unknowns)
    skew_rows = homotopies.equations
    for key, eq in maps.residue(tgt_ic.iota.entries, src_ic.iota.entries).items():
        skew_rows[key] = skew_rows.get(key, 0) ^ (eq << n)
    even, tgt_positions = src.slice_homology.members(0), tgt.slice_homology.positions(0)
    on_homology = sum(1 << var for p, i in enumerate(even) if z >> p & 1
                      for j, var in maps.by_source.get(i, ()) if phi >> tgt_positions[j] & 1)
    rows = [*skew_rows.values(), *(eq << n for eq in maps.equations.values()), on_homology << n]
    sol = gf2.solve(rows, [0] * (len(rows) - 1) + [1], n + len(maps.unknowns))
    return None if sol is None else (maps.morphism(sol >> n),
                                     homotopies.morphism(sol & ((1 << n) - 1)))


def search_local_equivalence(ic1: IotaComplex, ic2: IotaComplex, cap: int = 24
                             ) -> Optional[Tuple[Morphism, Morphism, Morphism, Morphism]]:
    """A local equivalence witness (f, g, h_f, h_g), or None, which proves there is none.

    Each direction is one F2 system over the filtered skew homotopy bits H, low,
    and the filtered chain-map bits F above them: dF + Fd = 0, dH + Hd = iota2 F +
    F iota1 on supports (gradings force every monomial), and lambda . F = 1, where
    lambda has F's bit i -> j when the source's slice generator has i and the
    target's functional has j. gf2.solve's least solution gives the least valid
    chain map F, the least valid combination c of a chain-map nullspace basis:
    vector k alone has its free column f_k as its top bit, so bit f_k of F is c_k
    and maps compare as their c. Its H is h_f or h_g, which verify_local_equivalence
    checks. CapExceededError: a chain-map dimension (F bits less a rank) > cap.
    """
    there = _search_direction(ic1, ic2, cap)
    back = None if there is None else _search_direction(ic2, ic1, cap)
    if back is None:
        return None
    (f, h_f), (g, h_g) = there, back
    if not verify_local_equivalence(ic1, ic2, f, g, h_f, h_g).passed:
        raise AssertionError("local-equivalence solve produced an invalid witness")
    return f, g, h_f, h_g
