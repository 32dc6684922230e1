import os
import re
import tempfile
from typing import Dict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import IntSubclass, parts_strategy, staircase_strategy, staircase_sum
from iotak import gf2, serialize
from iotak.complexes import (
    EQUIVARIANT,
    SKEW,
    BasisElement,
    FreeComplex,
    Morphism,
    SliceHomologyReport,
    _HomEquations,
    _odd_support,
    compose,
    differential_morphism,
    dual,
    homology_class_map,
    homotopy_solve,
    identity_morphism,
    is_chain_map,
    tensor,
    tensor_morphism,
    verify_complex,
)
from iotak.invariants import InvariantError, a_zero_minus
from iotak.iota import (
    IotaComplex,
    _iota_through_trace,
    _product_terms,
    build_phi,
    build_psi,
    dual_iota,
    identity_complex,
    inverse_witnesses,
    phi_squared_homotopy,
    product,
    search_local_equivalence,
    verify_iota_complex,
)
from iotak.models import mirror, staircase_complex, torus_knot
from iotak.ring import ONE, LaurentPoly, monomial


def test_verify_trefoil_passes(hand_trefoil):
    report = verify_complex(hand_trefoil.complex)
    assert report.passed
    assert report.offenders == ()


def test_verify_single_generator():
    c = FreeComplex([BasisElement("e", 0, 0)], {})
    assert verify_complex(c).passed


def test_verify_empty_complex():
    assert verify_complex(FreeComplex([], {})).passed


def test_verify_grading_mismatch():
    # db = Ua with b(-1,-1), a(0,0): gr_v fails
    basis = [BasisElement("a", 0, 0), BasisElement("b", -1, -1)]
    c = FreeComplex(basis, {1: {0: monomial(1, 0)}})
    report = verify_complex(c)
    assert not dict(report.checks)[3]
    assert any("b -> a" in o for o in report.offenders)


def test_verify_catches_d_squared():
    basis = [
        BasisElement("a", 2, 2),
        BasisElement("b", 1, 1),
        BasisElement("c", 0, 0),
    ]
    c = FreeComplex(basis, {0: {1: ONE}, 1: {2: ONE}})
    report = verify_complex(c)
    assert dict(report.checks)[3]
    assert not dict(report.checks)[1]
    assert report.offenders == ("d^2 nonzero: a -> c",)


def test_verify_d_squared_offenders_in_first_reach_order():
    """A homogeneous d^2 lists its offenders in the order compose first
    reaches them, here y1 before y0, not in index order."""
    basis = [BasisElement("x0", 2, 2), BasisElement("x1", 1, 1), BasisElement("x2", 1, 1),
             BasisElement("y0", 0, 0), BasisElement("y1", 0, 0)]
    c = FreeComplex(basis, {0: {2: ONE, 1: ONE}, 2: {4: ONE}, 1: {3: ONE}})
    report = verify_complex(c)
    assert dict(report.checks)[3] and not dict(report.checks)[1]
    assert report.offenders == ("d^2 nonzero: x0 -> y1", "d^2 nonzero: x0 -> y0")


def test_verify_offenders_pinned():
    """Every kind of offender, in the text and order recorded before
    verify_complex shared its homogeneity check with the map checks
    (today Morphism.inhomogeneous)."""
    basis = [BasisElement("a", 0, 0), BasisElement("b", -1, -1), BasisElement("c", -2, -2),
             BasisElement("p", 0, -1)]
    diff = {1: {0: monomial(0, 0) + monomial(1, 1), 2: monomial(-1, 2)},
            2: {1: ONE, 0: monomial(1, 1)}, 0: {2: monomial(3, 0)}}
    report = verify_complex(FreeComplex(basis, diff))
    assert not any(dict(report.checks).values())
    assert report.offenders == (
        "generator p: gr_u and gr_v have different parity",
        "entry b -> a: 1 + UV is not homogeneous of bidegree (-1,-1)",
        "entry b -> c: U^-1V^2 is not homogeneous of bidegree (-1,-1)",
        "entry c -> b: 1 is not homogeneous of bidegree (-1,-1)",
        "entry c -> a: UV is not homogeneous of bidegree (-1,-1)",
        "entry a -> c: U^3 is not homogeneous of bidegree (-1,-1)",
        "d^2 nonzero: b -> c",
        "d^2 nonzero: b -> b",
        "d^2 nonzero: b -> a",
        "d^2 nonzero: c -> a",
        "d^2 nonzero: c -> c",
        "d^2 nonzero: a -> b",
        "d^2 nonzero: a -> a",
        "entry b -> c: negative exponent in filtered complex",
    )


def test_tensor_trefoil_square(hand_trefoil):
    c = hand_trefoil.complex
    t = tensor(c, c)
    assert len(t) == 9
    bb = 1 * 3 + 1
    row = t.diff[bb]
    assert row == {
        0 * 3 + 1: monomial(1, 0),  # Ua|b
        2 * 3 + 1: monomial(0, 1),  # Vc|b
        1 * 3 + 0: monomial(1, 0),  # b|Ua
        1 * 3 + 2: monomial(0, 1),  # b|Vc
    }
    aa = t.basis[0]
    assert (aa.gr_u, aa.gr_v) == (0, -4)
    assert verify_complex(t).passed


def test_tensor_unit(hand_trefoil):
    unit = FreeComplex([BasisElement("e", 0, 0)], {})
    t = tensor(unit, hand_trefoil.complex)
    assert [(x.gr_u, x.gr_v) for x in t.basis] == [
        (x.gr_u, x.gr_v) for x in hand_trefoil.complex.basis
    ]
    assert t.diff == hand_trefoil.complex.diff


def test_dual_trefoil(hand_trefoil):
    d = dual(hand_trefoil.complex)
    assert [(x.name, x.gr_u, x.gr_v) for x in d.basis] == [
        ("a^", 0, 2), ("b^", 1, 1), ("c^", 2, 0),
    ]
    # da^ = U b^, dc^ = V b^
    assert d.diff == {0: {1: monomial(1, 0)}, 2: {1: monomial(0, 1)}}
    assert verify_complex(d).passed


def test_dual_unknot_self():
    unit = FreeComplex([BasisElement("e", 0, 0)], {})
    assert dual(unit).diff == {}
    assert dual(unit).basis[0].gr_u == 0


def skew(c):
    """The same complex with the roles of U and V exchanged."""
    basis = [BasisElement(x.name, x.gr_v, x.gr_u) for x in c.basis]
    return FreeComplex(basis, {i: {j: p.swap_uv() for j, p in row.items()}
                               for i, row in c.diff.items()})


def test_skew_trefoil(hand_trefoil):
    s = skew(hand_trefoil.complex)
    assert (s.basis[0].gr_u, s.basis[0].gr_v) == (-2, 0)
    assert s.diff[1] == {0: monomial(0, 1), 2: monomial(1, 0)}
    assert skew(s) == hand_trefoil.complex
    assert verify_complex(s).passed


def test_homology_is_r_examples(hand_trefoil):
    unit = FreeComplex([BasisElement("e", 0, 0)], {})
    assert SliceHomologyReport(unit).holds
    assert SliceHomologyReport(unit).dims == (1, 0)
    assert SliceHomologyReport(hand_trefoil.complex).holds
    acyclic = FreeComplex(
        [BasisElement("a", 0, 0), BasisElement("b", 1, -1)],
        {0: {1: monomial(1, 0)}},
    )
    rep = SliceHomologyReport(acyclic)
    assert not rep.holds
    assert rep.dims == (0, 0) == ref_homology_dims(acyclic)


def test_slice_homology_pinned():
    """(dims, generator, functional) of five complexes. The unfiltered
    T(2,3) (x0 four lower in gr_u, x2 four lower in gr_v, dx1 = U^-1 x0 +
    V^-1 x2) has no tower, so its slice homology is decided without one."""
    t = torus_knot(2, 3).complex
    lowered = [BasisElement(x.name, x.gr_u - 4 * (x.name == "x0"), x.gr_v - 4 * (x.name == "x2"))
               for x in t.basis]
    unfiltered = FreeComplex(lowered, {1: {0: monomial(-1, 0), 2: monomial(0, -1)}})
    mixed = product(torus_knot(3, 4), mirror(torus_knot(2, 3))).complex
    assert len(mixed) == 15
    cases = [
        (FreeComplex([], {}), ((0, 0), None, None)),
        (t, ((1, 0), 1, 3)),
        (FreeComplex(t.basis, {}), ((2, 1), 1, None)),
        (unfiltered, ((1, 0), 1, 3)),
        (mixed, ((1, 0), 3, 73)),
    ]
    for c, pinned in cases:
        rep = SliceHomologyReport(c)
        assert (rep.dims, rep.generator, rep.functional) == pinned


@given(staircase_strategy, staircase_strategy)
@settings(max_examples=25, deadline=None)
def test_constructions_stay_clean(s1, s2):
    c1 = staircase_complex(s1).complex
    c2 = staircase_complex(s2).complex
    t = tensor(c1, c2)
    # tensor records t as homogeneous without a scan; the scan agrees
    assert t.inhomogeneous == differential_morphism(t).inhomogeneous == ()
    assert verify_complex(t).passed
    assert verify_complex(dual(t)).passed
    assert verify_complex(skew(t)).passed
    assert SliceHomologyReport(c1).holds
    assert SliceHomologyReport(t).holds


# ---------------------------------------------------------------------------
# parity slices against a reference that keys slice vectors by monomial

def ref_slice_members(c, alex, gr):
    """(generator, (i, j)) for each vector U^i V^j x of the slice at
    Alexander grading alex and gr_u = gr, in generator order."""
    out = []
    for idx, x in enumerate(c.basis):
        if (x.gr_u - gr) % 2:
            continue
        i = (x.gr_u - gr) // 2
        out.append((idx, (i, i - (x.alexander - alex))))
    return out


def ref_map_rows(entries, src_members, tgt_members):
    """Slice rows from the actual monomials; a term that misses the
    target slice raises."""
    lookup = {key: pos for pos, key in enumerate(tgt_members)}
    rows = []
    for idx, (i, j) in src_members:
        row = 0
        for tgt, p in entries.get(idx, {}).items():
            for (a, b) in p.terms:
                pos = lookup.get((tgt, (i + a, j + b)))
                if pos is None:
                    raise ValueError("slice map image left the target slice")
                row ^= 1 << pos
        rows.append(row)
    return rows


def ref_diff_rows(c, alex, gr):
    return ref_map_rows(c.diff, ref_slice_members(c, alex, gr), ref_slice_members(c, alex, gr - 1))


def ref_homology_dims(c):
    def dim(gr):
        n = len(ref_slice_members(c, 0, gr))
        return n - gf2.rank(ref_diff_rows(c, 0, gr)) - gf2.rank(ref_diff_rows(c, 0, gr + 1))
    return (dim(0), dim(1))


@given(staircase_strategy)
@settings(max_examples=20, deadline=None)
def test_slice_translation_isomorphisms(s):
    # multiplication by V identifies the (A, m) and (A+1, m) slices,
    # multiplication by UV the (A, m) and (A, m-2) slices; in canonical
    # slice bases the matrices agree on the nose, and they are the
    # support rows of the parity slices
    c = tensor(staircase_complex(s).complex, torus_knot(2, 3).complex)
    hom = SliceHomologyReport(c)
    for alex, gr in [(0, 0), (0, 1), (1, -1), (-2, 4)]:
        base = ref_diff_rows(c, alex, gr)
        assert base == ref_diff_rows(c, alex + 1, gr)
        assert base == ref_diff_rows(c, alex, gr - 2)
        assert base == gf2.support_rows(c.diff, hom.members(gr % 2), hom.positions((gr - 1) % 2))
    assert SliceHomologyReport(c).dims == ref_homology_dims(c)


def direct_sum(*complexes):
    """The direct sum, generator names prefixed by the summand's position."""
    basis, diff = [], {}
    for k, c in enumerate(complexes):
        base = len(basis)
        basis += [BasisElement(f"{k}.{x.name}", x.gr_u, x.gr_v) for x in c.basis]
        diff.update((base + i, {base + j: p for j, p in row.items()}) for i, row in c.diff.items())
    return FreeComplex(basis, diff)


@st.composite
def summands_off_the_ring(draw):
    """A staircase sum (either product variant) beside optional summands
    that move its homology off the ring: 0-2 isolated generators of random
    parity, an acyclic pair a -> b with the forced monomial 1, the sum
    again with d deleted, and T(2,3) with the unfiltered dx1 = U^-1 x0 +
    V^-1 x2, in a random order."""
    c = staircase_sum(draw(parts_strategy), draw(st.sampled_from((1, 2)))).complex
    out = [c]
    for k, parity in enumerate(draw(st.lists(st.integers(0, 1), max_size=2))):
        u, v = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        out.append(FreeComplex([BasisElement(f"e{k}", 2 * u + parity, 2 * v + parity)], {}))
    if draw(st.booleans()):
        u, v = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        out.append(FreeComplex([BasisElement("a", u, u + 2 * v), BasisElement("b", u - 1, u + 2 * v - 1)],
                               {0: {1: ONE}}))
    if draw(st.booleans()):
        out.append(FreeComplex(c.basis, {}))
    if draw(st.booleans()):
        t = torus_knot(2, 3).complex
        lowered = [BasisElement(x.name, x.gr_u - 4 * (x.name == "x0"), x.gr_v - 4 * (x.name == "x2"))
                   for x in t.basis]
        out.append(FreeComplex(lowered, {1: {0: monomial(-1, 0), 2: monomial(0, -1)}}))
    return direct_sum(*draw(st.permutations(out)))


@given(summands_off_the_ring())
@settings(max_examples=40, deadline=None)
def test_slice_homology_dims_off_the_ring(c):
    """The slice dims against the monomial-keyed reference on complexes
    whose homology is mostly not the ring."""
    assert SliceHomologyReport(c).dims == ref_homology_dims(c)


def test_slice_homology_rejects_wrong_monomial(hand_trefoil):
    """An entry U^3 where U is forced, UV^2 where V is, or UV where 1 is,
    reaches a target of the right parity, so only the homogeneity check
    rejects it: in the slice homology, the Hom-space equations, the
    homotopy solver (also where f + g = 0), the tower, Phi, Psi, the
    Phi^2 homotopy and an unverified product alike; a tensor with such a
    factor is not taken as homogeneous."""
    c = hand_trefoil.complex
    for wrong in ({0: monomial(3, 0), 2: monomial(0, 1)}, {0: monomial(1, 0), 2: monomial(1, 2)}):
        bad = FreeComplex(c.basis, {1: wrong})
        with pytest.raises(ValueError):
            SliceHomologyReport(bad)
        with pytest.raises(ValueError):
            _HomEquations(bad, bad, EQUIVARIANT, (1, 1))
        with pytest.raises(ValueError):
            homotopy_solve(identity_morphism(bad), Morphism(bad, bad, {}, EQUIVARIANT, (0, 0)))
        with pytest.raises(ValueError):
            homotopy_solve(identity_morphism(bad), identity_morphism(bad))
        assert tensor(bad, c).inhomogeneous and tensor(c, bad).inhomogeneous
        for build in (build_phi, build_psi, phi_squared_homotopy):
            with pytest.raises(ValueError):
                build(bad)
        reflection = Morphism(bad, bad, hand_trefoil.iota.entries, SKEW, (0, 0))
        with pytest.raises(ValueError):
            product(IotaComplex(bad, reflection), identity_complex(), verify=False)
        with pytest.raises(InvariantError):
            a_zero_minus(IotaComplex(bad, reflection), verify=False)
        with pytest.raises(ValueError):
            homology_class_map(identity_morphism(bad))
    uv = Morphism(c, c, {i: {i: monomial(1, 1)} for i in range(3)}, EQUIVARIANT, (0, 0))
    with pytest.raises(ValueError):
        homology_class_map(uv)


def test_homology_class_map_identity_and_zero(hand_trefoil):
    c = hand_trefoil.complex
    assert homology_class_map(identity_morphism(c))
    assert not homology_class_map(Morphism(c, c, {}, EQUIVARIANT, (0, 0)))


def test_homology_class_map_rejects_non_chain_map(hand_trefoil):
    c = hand_trefoil.complex
    bad = Morphism(c, c, {0: {2: monomial(-1, 1)}}, EQUIVARIANT, (0, 0))
    with pytest.raises(ValueError):
        homology_class_map(bad)


def test_homotopy_solve_equal_maps(hand_trefoil):
    c = hand_trefoil.complex
    f = identity_morphism(c)
    h = homotopy_solve(f, f)
    assert h is not None and h.is_zero()
    assert h.bidegree == (1, 1)


def test_homotopy_solve_rejects_mismatches(hand_trefoil):
    c = hand_trefoil.complex
    f = identity_morphism(c)
    g = Morphism(c, c, {}, EQUIVARIANT, (2, 0))
    with pytest.raises(ValueError):
        homotopy_solve(f, g)
    # UV on the diagonal, where bidegree (0, 0) forces 1
    uv = Morphism(c, c, {i: {i: monomial(1, 1)} for i in range(3)}, EQUIVARIANT, (0, 0))
    with pytest.raises(ValueError):
        homotopy_solve(uv, Morphism(c, c, {}, EQUIVARIANT, (0, 0)))


def reference_homotopy_solve(f, g):
    """homotopy_solve behind its former precondition that f and g be
    chain maps; the reference for dropping it."""
    if not (is_chain_map(f) and is_chain_map(g)):
        raise ValueError("homotopy_solve requires chain maps")
    return homotopy_solve(f, g)


@given(parts_strategy, st.integers(min_value=0))
@settings(max_examples=25, deadline=None)
def test_homotopy_solve_needs_no_chain_maps(parts, k):
    """On (iota^2, id + Phi Psi) both paths give the same H. With entry k
    of iota^2 dropped, f + g is homogeneous, and homotopy_solve answers
    None whenever it is no chain map, where the reference raised."""
    ic = staircase_sum(parts)
    c = ic.complex
    f = compose(ic.iota, ic.iota)
    g = identity_morphism(c) + compose(build_phi(c), build_psi(c))
    h = homotopy_solve(f, g)
    assert h is not None and h.entries == reference_homotopy_solve(f, g).entries

    cells = [(i, j) for i, row in f.entries.items() for j in row]
    drop = cells[k % len(cells)]
    kept = {i: {j: p for j, p in row.items() if (i, j) != drop} for i, row in f.entries.items()}
    f = Morphism(c, c, kept, EQUIVARIANT, (0, 0))
    if is_chain_map(f + g):
        assert homotopy_solve(f, g) == reference_homotopy_solve(f, g)
    else:
        assert homotopy_solve(f, g) is None
        with pytest.raises(ValueError, match="requires chain maps"):
            reference_homotopy_solve(f, g)


def ref_is_chain_map(f):
    """d o f = f o d by compose, the reference for the support check."""
    d_src, d_tgt = differential_morphism(f.source), differential_morphism(f.target)
    return compose(d_tgt, f).entries == compose(f, d_src).entries


def ref_d_squared(c):
    """The d^2 offender lines of verify_complex, by compose."""
    d = differential_morphism(c)
    return [f"d^2 nonzero: {c.basis[i].name} -> {c.basis[j].name}"
            for i, row in compose(d, d).entries.items() for j in row]


def _rewrite(entries, k, fn):
    """entries with their k-th cell p replaced by fn(p), counted mod their
    number, and that cell."""
    cells = [(i, j) for i, row in entries.items() for j in row]
    cell = cells[k % len(cells)]
    return {i: {j: fn(p) if (i, j) == cell else p for j, p in row.items()}
            for i, row in entries.items()}, cell


def _drop(entries, k):
    """entries without their k-th cell, counted mod their number, and
    without its row if that leaves the row empty."""
    out, (i, j) = _rewrite(entries, k, lambda p: p)
    del out[i][j]
    if not out[i]:
        del out[i]
    return out


@given(parts_strategy, st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=40, deadline=None)
def test_support_checks_match_compose_references(parts, k_iota, k_diff):
    """On a staircase sum, the sum with one entry of iota dropped and the
    sum with one entry of d dropped (still homogeneous, often d^2 != 0),
    the support checks answer as the compose-based references: the chain
    map checks of iota, Phi and Psi, d^2 = 0 with its offender lines in
    order, and dH + Hd = f + g for every H that homotopy_solve returns
    for (iota^2, id + Phi Psi)."""
    ic = staircase_sum(parts)
    c = ic.complex
    no_iota_entry = IotaComplex(c, Morphism(c, c, _drop(ic.iota.entries, k_iota), SKEW, (0, 0)))
    cd = FreeComplex(c.basis, _drop(c.diff, k_diff))
    no_d_entry = IotaComplex(cd, Morphism(cd, cd, ic.iota.entries, SKEW, (0, 0)))
    for case in (ic, no_iota_entry, no_d_entry):
        cx = case.complex
        assert not cx.inhomogeneous
        phi, psi = build_phi(cx), build_psi(cx)
        for f in (case.iota, phi, psi):
            assert is_chain_map(f) == ref_is_chain_map(f)
        report = verify_complex(cx)
        assert report.offenders == tuple(ref_d_squared(cx))
        assert dict(report.checks)[1] == (not report.offenders)
        f = compose(case.iota, case.iota)
        g = identity_morphism(cx) + compose(phi, psi)
        h = homotopy_solve(f, g)
        if h is not None:
            d = differential_morphism(cx)
            assert (compose(d, h) + compose(h, d)).entries == (f + g).entries


def reference_odd_support(*pairs):
    """The dict-flip path count that _odd_support replaced, verbatim: the
    odd (i, k) as a list, rows in before's order and targets in the order
    compose first reaches them."""
    odd: Dict[int, Dict[int, bool]] = {}
    for after, before in pairs:
        for i, row in before.items():
            hits = None  # a row that reaches nothing allocates nothing
            for j in row:
                ks = after.get(j)
                if ks:
                    if hits is None:
                        hits = odd.setdefault(i, {})
                    for k in ks:
                        hits[k] = not hits.get(k, False)
    return [(i, k) for i, hits in odd.items() for k, o in hits.items() if o]


@st.composite
def sparse_supports(draw, n):
    """A sparse {source: {target: ONE}} on n generators, rows and targets
    in drawn order, rows sometimes empty."""
    rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
    return {i: dict.fromkeys(draw(st.lists(st.integers(0, n - 1), unique=True, max_size=4)), ONE)
            for i in rows}


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_odd_support_matches_the_dict_flip_reference(data):
    n = data.draw(st.integers(1, 8))
    pairs = data.draw(st.lists(st.tuples(sparse_supports(n), sparse_supports(n)),
                               min_size=1, max_size=3))
    ref = reference_odd_support(*pairs)
    assert _odd_support(*pairs) == set(ref)


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_d_squared_offenders_in_the_reference_order(data):
    """On a homogeneous d between adjacent gradings, drawn with rows and
    targets in any order and often with d^2 != 0, the d^2 offenders are
    reference_odd_support's pairs in its order."""
    levels = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    basis, level_of = [], []
    for g, size in enumerate(levels):
        for k in range(size):
            basis.append(BasisElement(f"x{g}_{k}", -g, -g))
            level_of.append(g)
    n = len(basis)
    down = {i: [j for j in range(n) if level_of[j] == level_of[i] + 1] for i in range(n)}
    order = data.draw(st.permutations(range(n)))
    diff = {}
    for i in order:
        if down[i]:
            targets = data.draw(st.lists(st.sampled_from(down[i]), unique=True))
            if targets:
                diff[i] = dict.fromkeys(targets, ONE)
    c = FreeComplex(basis, diff)
    assert not c.inhomogeneous
    report = verify_complex(c)
    ref = reference_odd_support((diff, diff))
    assert report.offenders == tuple(f"d^2 nonzero: {basis[i].name} -> {basis[k].name}"
                                     for i, k in ref)
    assert dict(report.checks)[1] == (not ref)


def test_a_shared_unfiltered_entry_is_reported_at_every_position(monkeypatch):
    """One unfiltered LaurentPoly held by three entries, and an equal one
    built apart, are tested once per object and reported at each of their
    positions, in entry order."""
    basis = [BasisElement(name, 0, 0) for name in "abcd"]
    bad, twin, uv = monomial(-1, 0), monomial(-1, 0), monomial(1, 1)
    diff = {2: {1: bad, 0: ONE}, 0: {3: bad, 2: uv}, 3: {0: twin, 1: bad}}
    c = FreeComplex(basis, diff)
    tested = []
    real = LaurentPoly.is_filtered
    monkeypatch.setattr(LaurentPoly, "is_filtered", lambda p: tested.append(p) or real(p))
    report = verify_complex(c)
    assert sorted(map(id, tested)) == sorted(map(id, (bad, twin, ONE, uv)))
    assert [o for o in report.offenders if "negative exponent" in o] == [
        f"entry {s} -> {t}: negative exponent in filtered complex"
        for s, t in (("c", "b"), ("a", "d"), ("d", "a"), ("d", "b"))]
    assert not dict(report.checks)[2]
    assert not differential_morphism(c).is_filtered()


@pytest.mark.parametrize("exponents", [(-1, 2), (1, 0), (0, -3), (0, 0)])
def test_parsed_and_built_entries_get_one_filtration_verdict(exponents):
    """A parsed entry and an equal LaurentPoly built apart are distinct
    objects with the verdict of LaurentPoly.is_filtered, alone or together."""
    doc = {"name": "k", "generators": [{"name": "a", "gr_u": 0, "gr_v": 0}],
           "differential": [], "iota": [{"from": "a", "to": "a", "mono": [list(exponents)]}]}
    _, ic = serialize.iota_complex_from_dict(doc)
    parsed = ic.iota.entries[0][0]
    built = monomial(*exponents)
    assert parsed is not built and parsed == built
    expected = min(exponents) >= 0
    cx = FreeComplex([BasisElement("a", 0, 0), BasisElement("b", 0, 0)], {})
    for entries in ({0: {0: parsed}}, {0: {0: built}}, {0: {0: parsed}, 1: {1: built}}):
        assert Morphism(cx, cx, entries, SKEW, (0, 0)).is_filtered() == expected
    assert built.is_filtered() == parsed.is_filtered() == expected


def ref_inhomogeneous(f):
    """The cells of f with a term U^a V^b y whose bigrading
    (gr_u(y) - 2a, gr_v(y) - 2b) is not where f sends x, or with more
    than one term, in the order of f.entries."""
    a, b = f.bidegree
    out = []
    for i, row in f.entries.items():
        x = f.source.basis[i]
        gu, gv = (x.gr_u, x.gr_v) if f.variance == EQUIVARIANT else (x.gr_v, x.gr_u)
        for j, p in row.items():
            y = f.target.basis[j]
            if len(p.terms) != 1 or any((y.gr_u - 2 * u, y.gr_v - 2 * v) != (gu + a, gv + b)
                                        for u, v in p.terms):
                out.append((i, j))
    return tuple(out)


@given(parts_strategy, st.integers(min_value=0), st.integers(min_value=0),
       st.sampled_from([(1, 0), (0, 1), (1, 1), (-1, 2)]))
@settings(max_examples=40, deadline=None)
def test_inhomogeneous_matches_a_grading_oracle(parts, k_iota, k_diff, extra):
    """Morphism.inhomogeneous of the skew iota and of d agrees with a
    term-by-term grading oracle on a staircase sum, the sum with one iota
    entry times UV, and the sum with one d entry given a second term;
    the complex's cached verdict is its differential's."""
    ic = staircase_sum(parts)
    c = ic.complex
    uv_entries, uv_cell = _rewrite(ic.iota.entries, k_iota, lambda p: p * monomial(1, 1))
    wrong_iota = IotaComplex(c, Morphism(c, c, uv_entries, SKEW, (0, 0)))
    two_terms, d_cell = _rewrite(c.diff, k_diff, lambda p: p + p * monomial(*extra))
    cd = FreeComplex(c.basis, two_terms)
    wrong_d = IotaComplex(cd, Morphism(cd, cd, ic.iota.entries, SKEW, (0, 0)))
    for case, iota_bad, d_bad in ((ic, (), ()), (wrong_iota, (uv_cell,), ()),
                                  (wrong_d, (), (d_cell,))):
        cx, d = case.complex, differential_morphism(case.complex)
        assert case.iota.inhomogeneous == ref_inhomogeneous(case.iota) == iota_bad
        assert d.inhomogeneous == ref_inhomogeneous(d) == d_bad
        assert cx.inhomogeneous == d.inhomogeneous


def test_compose_variance_and_bidegree(hand_trefoil):
    iota = hand_trefoil.iota
    sq = compose(iota, iota)
    assert sq.variance == EQUIVARIANT
    assert sq.bidegree == (0, 0)
    assert sq.entries == identity_morphism(hand_trefoil.complex).entries


def test_differential_morphism_shares_diff():
    """The differential as a Morphism reuses the complex's normalized
    entries, and neither verification nor the solver writes to them."""
    c = product(torus_knot(3, 4), dual_iota(torus_knot(2, 3))).complex
    before = {i: dict(row) for i, row in c.diff.items()}
    d = differential_morphism(c)
    assert d.entries is c.diff
    assert d.entries == Morphism(c, c, dict(c.diff), EQUIVARIANT, (-1, -1)).entries
    assert verify_complex(c).passed
    f = identity_morphism(c)
    h = Morphism(c, c, {3: {8: ONE}, 11: {6: ONE}}, EQUIVARIANT, (1, 1))
    g = f + compose(d, h) + compose(h, d)
    assert homotopy_solve(f, g).entries == h.entries
    assert c.diff == before


# ---------------------------------------------------------------------------
# tensor, tensor_morphism, compose and Morphism.__add__ against a reference
# that accumulates every monomial and reduces once

small_exponents = st.integers(min_value=-1, max_value=1)
bits = st.integers(min_value=0, max_value=1)
# multi-term entries, and monomials from so few that sums often cancel
small_polys = st.one_of(
    st.builds(monomial, bits, bits),
    st.lists(st.tuples(small_exponents, small_exponents), min_size=1, max_size=3).map(LaurentPoly),
)


@st.composite
def matrices(draw, n_src, n_tgt):
    """Entries {i: {j: poly}} as the constructors take them: the zero
    polys drawn are left out, and so no row is empty."""
    pairs = st.tuples(st.integers(0, n_src - 1), st.integers(0, n_tgt - 1))
    cells = draw(st.dictionaries(pairs, small_polys, max_size=n_src * n_tgt))
    out = {}
    for (i, j), p in cells.items():
        if p:
            out.setdefault(i, {})[j] = p
    return out


@st.composite
def small_complexes(draw):
    n = draw(st.integers(1, 3))
    basis = [BasisElement(f"g{k}", 0, 0) for k in range(n)]
    # arbitrary matrices: these constructions need neither d^2 = 0 nor gradings
    return FreeComplex(basis, draw(matrices(n, n)))


@st.composite
def small_maps(draw, source, target, variance=None):
    variance = variance or draw(st.sampled_from([EQUIVARIANT, SKEW]))
    return Morphism(source, target, draw(matrices(len(source), len(target))), variance, (0, 0))


def reference(cells):
    """Normalized entries from {(i, j): [monomials]}, reduced mod 2."""
    out = {}
    for (i, j), terms in cells.items():
        p = LaurentPoly(terms)
        if p:
            out.setdefault(i, {})[j] = p
    return out


def ref_tensor_diff(c1, c2):
    n2 = len(c2)
    cells = {}
    for i1, row in c1.diff.items():
        for j1, p in row.items():
            for i2 in range(n2):
                cells.setdefault((i1 * n2 + i2, j1 * n2 + i2), []).extend(p.terms)
    for i2, row in c2.diff.items():
        for j2, q in row.items():
            for i1 in range(len(c1)):
                cells.setdefault((i1 * n2 + i2, i1 * n2 + j2), []).extend(q.terms)
    return reference(cells)


def ref_products(p, q):
    return [(a + c, b + d) for (a, b) in p.terms for (c, d) in q.terms]


def ref_compose(f, g):
    cells = {}
    for i, row_g in g.entries.items():
        for j, p in row_g.items():
            if f.variance == SKEW:
                p = LaurentPoly((b, a) for (a, b) in p.terms)
            for k, q in f.entries.get(j, {}).items():
                cells.setdefault((i, k), []).extend(ref_products(p, q))
    return reference(cells)


def ref_tensor_morphism(f, g):
    n2s, n2t = len(g.source), len(g.target)
    cells = {}
    for i1, row_f in f.entries.items():
        for j1, p in row_f.items():
            for i2, row_g in g.entries.items():
                for j2, q in row_g.items():
                    cells.setdefault((i1 * n2s + i2, j1 * n2t + j2), []).extend(
                        ref_products(p, q))
    return reference(cells)


def ref_sum(f, g):
    cells = {}
    for m in (f, g):
        for i, row in m.entries.items():
            for j, p in row.items():
                cells.setdefault((i, j), []).extend(p.terms)
    return reference(cells)


def assert_normalized(entries):
    assert all(row and all(p for p in row.values()) for row in entries.values())


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_constructions_match_accumulating_reference(data):
    c1, c2 = data.draw(small_complexes()), data.draw(small_complexes())
    t = tensor(c1, c2)
    assert t.diff == ref_tensor_diff(c1, c2)
    assert_normalized(t.diff)

    f = data.draw(small_maps(c1, c2))
    g = data.draw(small_maps(c1, c2, f.variance))
    h = data.draw(small_maps(c2, c1))
    for got, want in [((f + g).entries, ref_sum(f, g)),
                      ((f + f).entries, {}),
                      (compose(h, f).entries, ref_compose(h, f)),
                      (compose(f, h).entries, ref_compose(f, h))]:
        assert got == want
        assert_normalized(got)

    k = data.draw(small_maps(c2, c1, f.variance))
    fk = tensor_morphism(f, k, t, tensor(c2, c1))
    assert fk.entries == ref_tensor_morphism(f, k)
    assert_normalized(fk.entries)


def test_tensor_morphism_multiplies_each_pair_of_entry_objects_once(monkeypatch):
    """On the last product of T(4,5)^#3, each tensor of the involution
    calls LaurentPoly.__mul__ once per distinct pair (id(p), id(q)) of
    entry objects and still equals the reference: 61 products for 427
    entries."""
    k = torus_knot(4, 5)
    a = product(k, k, verify=False)
    prod = tensor(a.complex, k.complex)
    terms = _product_terms(a.complex, a.iota, k.complex, k.iota, 1)
    mul, calls = LaurentPoly.__mul__, []
    monkeypatch.setattr(LaurentPoly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
    counts = []
    for f, g in terms:
        calls.clear()
        fg = tensor_morphism(f, g, prod, prod)
        ids = [{id(p) for row in m.entries.values() for p in row.values()} for m in (f, g)]
        assert len(calls) == len(ids[0]) * len(ids[1])
        assert fg.entries == ref_tensor_morphism(f, g)
        counts.append((len(calls), sum(map(len, fg.entries.values()))))
    assert counts == [(5, 371), (56, 56)]


def ref_tensor_ordered(c1, c2):
    """tensor's basis and differential in the order of a term-by-term
    loop: x|y row-major, and in each row the targets of d(x)|y, then
    those of x|d(y), a diagonal collision added in place."""
    n2 = len(c2)
    basis = [BasisElement(f"{x.name}|{y.name}", x.gr_u + y.gr_u, x.gr_v + y.gr_v)
             for x in c1.basis for y in c2.basis]
    diff = {}
    for i1 in range(len(c1)):
        for i2 in range(n2):
            acc = {j1 * n2 + i2: p for j1, p in c1.diff.get(i1, {}).items()}
            for j2, q in c2.diff.get(i2, {}).items():
                k = i1 * n2 + j2
                acc[k] = acc[k] + q if k in acc else q
            acc = {k: p for k, p in acc.items() if p}
            if acc:
                diff[i1 * n2 + i2] = acc
    return basis, diff


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_tensor_keeps_the_term_by_term_order(data):
    """The basis (names, gradings, order), the row order and each row's
    target order of tensor are those of ref_tensor_ordered, on small
    complexes with diagonal entries, regraded and with their rows in a
    drawn order (as dual leaves them); every entry off a diagonal
    collision is the factor's LaurentPoly object itself."""
    gradings = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
    c1, c2 = (FreeComplex([BasisElement(x.name, *data.draw(gradings)) for x in c.basis],
                          dict(data.draw(st.permutations(list(c.diff.items())))))
              for c in (data.draw(small_complexes()), data.draw(small_complexes())))
    t = tensor(c1, c2)
    basis, diff = ref_tensor_ordered(c1, c2)
    assert [(x.name, x.gr_u, x.gr_v) for x in t.basis] == [
        (x.name, x.gr_u, x.gr_v) for x in basis]
    assert [(i, list(row)) for i, row in t.diff.items()] == [
        (i, list(row)) for i, row in diff.items()]
    assert t.diff == diff
    assert all(p is diff[i][j] for i, row in t.diff.items() for j, p in row.items() if i != j)


def test_tensor_diagonal_collision():
    """x|y is reached from itself through d(x)|y and x|d(y) when both
    differentials have a diagonal entry; the two terms add."""
    def loop(p):
        return FreeComplex([BasisElement("e", 0, 0)], {0: {0: p}})
    assert tensor(loop(monomial(1, 0)), loop(monomial(0, 1))).diff == {
        0: {0: monomial(1, 0) + monomial(0, 1)}}
    assert tensor(loop(monomial(1, 0)), loop(monomial(1, 0))).diff == {}


def test_compose_and_sum_cancel_to_zero():
    c1 = FreeComplex([BasisElement("a", 0, 0)], {})
    c2 = FreeComplex([BasisElement("b", 0, 0), BasisElement("c", 0, 0)], {})
    g = Morphism(c1, c2, {0: {0: monomial(1, 0), 1: monomial(0, 1)}}, EQUIVARIANT, (0, 0))
    f = Morphism(c2, c1, {0: {0: monomial(0, 1)}, 1: {0: monomial(1, 0)}}, EQUIVARIANT, (0, 0))
    assert compose(f, g).entries == {}
    assert (g + g).entries == {}
    assert compose(g, f).entries == {0: {0: monomial(1, 1), 1: monomial(0, 2)},
                                     1: {0: monomial(2, 0), 1: monomial(1, 1)}}


@given(parts_strategy)
@settings(max_examples=20, deadline=None)
def test_every_built_matrix_is_normalized(parts):
    """Every matrix the constructions build on a staircase sum has no
    zero entry and no empty row, which FreeComplex and Morphism take on
    trust: tensor's differential, both product variants, the dual,
    Phi, Psi and the Phi^2 homotopy, iota^2, the sums f + f (which is
    zero) and id + iota^2 (which cancels on the diagonal), iota through
    the trace and the cotrace, the trace and the cotrace themselves,
    the axiom-6 homotopy, a save/load round trip, and the local
    equivalence witnesses of T(2,3) with itself."""
    ic = staircase_sum(parts)
    c = ic.complex
    dic = dual_iota(ic)
    prod = tensor(c, dic.complex)
    iota2 = compose(ic.iota, ic.iota)
    assert (ic.iota + ic.iota).entries == {}
    witnesses = inverse_witnesses(ic)
    h = verify_iota_complex(ic).involution_homotopy
    assert h is not None
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "k.json")
        serialize.save(path, "k", ic)
        _, loaded = serialize.load(path)
    assert loaded == ic
    t23 = torus_knot(2, 3)
    maps = [build_phi(c), build_psi(c), phi_squared_homotopy(c), iota2,
            identity_morphism(c) + iota2, dic.iota,
            *(product(ic, dic, variant=v, verify=False).iota for v in (1, 2)),
            *_iota_through_trace(ic, dic, prod, identity_complex().complex),
            witnesses.cotrace, witnesses.trace, h, loaded.iota,
            *search_local_equivalence(t23, t23)]
    for entries in (prod.diff, dic.complex.diff, loaded.complex.diff,
                    *(m.entries for m in maps)):
        assert_normalized(entries)


@pytest.mark.parametrize("build, message", [
    (lambda c: Morphism(c, c, {}, "covariant", (0, 0)), "bad variance 'covariant'"),
    (lambda c: FreeComplex([*c.basis, c.basis[0]], {}), "duplicate generator names"),
    (lambda c: identity_morphism(c) + Morphism(c, c, {}, EQUIVARIANT, (1, 1)),
     "cannot add morphisms of different variance or bidegree"),
    (lambda c: identity_morphism(c) + identity_morphism(dual(c)),
     "cannot add morphisms with different endpoints"),
    (lambda c: compose(identity_morphism(c), identity_morphism(dual(c))),
     "composition endpoint mismatch"),
    (lambda c: tensor_morphism(identity_morphism(c), Morphism(c, c, {}, SKEW, (0, 0)), c, c),
     "tensor of morphisms needs equal variances"),
    (lambda c: homology_class_map(Morphism(c, c, {}, SKEW, (0, 0))),
     "homology_class_map needs an equivariant bidegree-(0,0) map"),
    (lambda c: homotopy_solve(identity_morphism(c), identity_morphism(dual(c))),
     "homotopy_solve needs maps with equal endpoints"),
    (lambda c: homology_class_map(identity_morphism(FreeComplex(
        [BasisElement("a", 0, 0), BasisElement("b", -1, -1)], {0: {1: ONE}}))),
     "source slice homology has no generator class"),
], ids=["variance", "names", "add-grading", "add-endpoints", "compose", "tensor-variance",
        "class-map-skew", "solve-endpoints", "class-map-acyclic"])
def test_guards_name_what_they_reject(hand_trefoil, build, message):
    """The checks that FreeComplex, Morphism, +, compose and
    tensor_morphism keep raise ValueError with these exact messages."""
    with pytest.raises(ValueError) as err:
        build(hand_trefoil.complex)
    assert str(err.value) == message


@pytest.mark.parametrize("bad", [0.5, True, IntSubclass(1)], ids=["float", "bool", "int subclass"])
def test_morphism_rejects_a_bidegree_that_is_not_an_int(bad):
    """Only type int is an int: a bidegree (0.5, True) is an error, not (0, 1)."""
    c = torus_knot(2, 3).complex
    for bidegree in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match=re.escape(f"bidegree must be ints, got {bad!r}")):
            Morphism(c, c, {}, EQUIVARIANT, bidegree)
