import hashlib
import json
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    CONJUGATED_PARTS,
    T23_D_SQUARED_NONZERO,
    conjugated_draw,
    iota_complex_to_dict,
    palindromic_staircase,
    parts_strategy,
    perturbed,
    perturbed_t34_mirror_t23,
    staircase_strategy,
    staircase_sum,
    t23_with,
)
from iotak import complexes, gf2, serialize
from iotak.complexes import (
    EQUIVARIANT,
    SKEW,
    BasisElement,
    FreeComplex,
    Morphism,
    _HomEquations,
    compose,
    differential_morphism,
    homology_class_map,
    identity_morphism,
    is_chain_map,
    tensor,
    tensor_morphism,
    homotopy_solve,
)
from iotak import iota
from iotak.iota import (
    CapExceededError,
    IotaComplex,
    _iota_through_trace,
    _search_direction,
    build_phi,
    build_psi,
    dual_iota,
    identity_complex,
    inverse_witnesses,
    phi_squared_homotopy,
    product,
    search_local_equivalence,
    verify_iota_complex,
    verify_local_equivalence,
)
from iotak.invariants import InvariantError, a_zero_minus, involutive_invariants
from iotak.models import mirror, staircase_complex, torus_knot
from iotak.ring import ONE, ZERO, LaurentPoly, monomial
from iotak.serialize import morphism_to_list


def test_build_phi_psi_trefoil(hand_trefoil):
    c = hand_trefoil.complex
    phi, psi = build_phi(c), build_psi(c)
    assert phi.entries == {1: {0: ONE}}
    assert psi.entries == {1: {2: ONE}}
    assert phi.bidegree == (1, -1) and psi.bidegree == (-1, 1)


def test_build_phi_unknot():
    c = identity_complex().complex
    assert build_phi(c).is_zero()
    assert build_psi(c).is_zero()


def test_build_phi_tensor_leibniz(hand_trefoil):
    c = hand_trefoil.complex
    t = tensor(c, c)
    phi = build_phi(t)
    bb = 1 * 3 + 1
    assert phi.entries.get(bb) == {0 * 3 + 1: ONE, 1 * 3 + 0: ONE}  # a|b + b|a


def test_phi_rules_run_once_per_distinct_entry_object():
    """T(4,5)^#3's d shares 6 entry objects among its 882 entries (tensor
    reuses the factors'); Phi's, Psi's and the Phi^2 homotopy's rules run
    once per object, and each kept entry is the rule's monomial."""
    k = torus_knot(4, 5)
    c = product(product(k, k, verify=False), k, verify=False).complex
    distinct = {id(p) for row in c.diff.values() for p in row.values()}
    assert (len(distinct), sum(map(len, c.diff.values()))) == (6, 882)
    phi2 = lambda a, b: (a - 2, b) if a * (a - 1) // 2 % 2 else None
    for build, rule in ((build_phi, iota._PHI), (build_psi, iota._PSI),
                        (phi_squared_homotopy, phi2)):
        want = {}
        for i, row in c.diff.items():
            for j, p in row.items():
                if (m := rule(*p.terms[0])) is not None:
                    want.setdefault(i, {})[j] = monomial(*m)
        calls = []
        counting = lambda a, b: calls.append(1) or rule(a, b)
        assert iota._from_exponents(c, build(c).bidegree, counting).entries == want
        assert build(c).entries == want
        assert len(calls) == len(distinct)


def test_phi_is_chain_map_exactly(corpus_staircases):
    for ic in corpus_staircases:
        c = ic.complex
        d = differential_morphism(c)
        for m in (build_phi(c), build_psi(c)):
            assert (compose(m, d) + compose(d, m)).is_zero()


def test_verify_trefoil_with_zero_homotopy(hand_trefoil):
    report = verify_iota_complex(hand_trefoil)
    assert report.passed
    assert report.involution_homotopy is not None
    assert report.involution_homotopy.is_zero()


def test_verify_identity_complex():
    assert verify_iota_complex(identity_complex()).passed


def test_identity_iota_fails_skew_grading(hand_trefoil):
    c = hand_trefoil.complex
    bad = IotaComplex(c, Morphism(c, c, {i: {i: ONE} for i in range(3)}, SKEW, (0, 0)))
    report = verify_iota_complex(bad)
    assert not report.passed
    assert report.first_failure == 5


def test_product_unit(hand_trefoil):
    p = product(identity_complex(), hand_trefoil)
    assert [(x.gr_u, x.gr_v) for x in p.complex.basis] == [
        (x.gr_u, x.gr_v) for x in hand_trefoil.complex.basis
    ]
    assert p.iota.entries == hand_trefoil.iota.entries


def test_product_trefoil_square_iota(hand_trefoil):
    p = product(hand_trefoil, hand_trefoil, variant=1)
    refl = {i * 3 + j: {(2 - i) * 3 + (2 - j): ONE} for i in range(3) for j in range(3)}
    # one correction arrow: (Phi iota)|(Psi iota) hits only b|b, sending it
    # to (Phi a)|(Psi c)... i.e. the single extra term on top of reflection
    plain = tensor_morphism(hand_trefoil.iota, hand_trefoil.iota, p.complex, p.complex)
    correction = p.iota + plain
    assert sum(len(r) for r in correction.entries.values()) == 1
    bb = 1 * 3 + 1
    assert correction.entries == {bb: {0 * 3 + 2: ONE}}


def test_product_rejects_bad_input(hand_trefoil):
    c = hand_trefoil.complex
    bad = IotaComplex(c, Morphism(c, c, {i: {i: ONE} for i in range(3)}, SKEW, (0, 0)))
    with pytest.raises(ValueError):
        product(bad, hand_trefoil)


def test_product_rejection_messages_pinned():
    """product(..., verify=True) names the failing input, its first
    failing axiom and every offender line."""
    t23 = torus_knot(2, 3)
    cases = [
        ((t23_with(iota={}), t23), "product input 1 fails axiom (6): "
         "no filtered equivariant homotopy from iota^2 to id + Phi Psi"),
        ((t23, t23_with(diff=T23_D_SQUARED_NONZERO)), "product input 2 fails axiom (1): "
         "d^2 nonzero: x1 -> x1; d^2 nonzero: x0 -> x0; d^2 nonzero: x0 -> x2; "
         "iota is not a chain map"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as exc:
            product(*args)
        assert str(exc.value) == message


def test_product_flags_are_keyword_only():
    """A third factor is a TypeError, not read as the variant."""
    k = torus_knot(2, 3)
    for args in ((k, k, k), (k, k, 2)):
        with pytest.raises(TypeError):
            product(*args, verify=False)


def test_product_square_satisfies_involution(hand_trefoil):
    for variant in (1, 2):
        p = product(hand_trefoil, hand_trefoil, variant=variant)
        assert verify_iota_complex(p).passed


def test_dual_iota_examples(hand_trefoil):
    e = identity_complex()
    de = dual_iota(e)
    assert de.iota.entries == e.iota.entries
    d = dual_iota(hand_trefoil)
    assert (d.complex.basis[0].gr_u, d.complex.basis[0].gr_v) == (0, 2)
    assert verify_iota_complex(d).passed


def test_phi_squared_homotopy_trefoil(hand_trefoil):
    c = hand_trefoil.complex
    h = phi_squared_homotopy(c)
    assert h.is_zero()
    phi = build_phi(c)
    assert compose(phi, phi).is_zero()


def test_phi_squared_homotopy_t34():
    c = torus_knot(3, 4).complex
    h = phi_squared_homotopy(c)
    assert sum(len(r) for r in h.entries.values()) == 1
    assert h.is_filtered()
    _check_phi_squared_identity(c)


def test_phi_squared_homotopy_mixed_tensor(hand_trefoil):
    c = tensor(hand_trefoil.complex, torus_knot(3, 4).complex)
    _check_phi_squared_identity(c)


def _check_phi_squared_identity(c):
    phi = build_phi(c)
    h = phi_squared_homotopy(c)
    d = differential_morphism(c)
    lhs = compose(phi, phi)
    rhs = compose(d, h) + compose(h, d)
    assert lhs.entries == rhs.entries


def ref_derivative(p, var):
    """d/dU or d/dV of any polynomial by the generic rule, reduced mod 2."""
    if var == "U":
        return LaurentPoly([(i - 1, j) for (i, j) in p.terms if i % 2])
    return LaurentPoly([(i, j - 1) for (i, j) in p.terms if j % 2])


def ref_phi_squared(p):
    """The terms U^n V^b of p with n(n-1)/2 odd, lowered to U^(n-2) V^b."""
    return LaurentPoly([(i - 2, j) for (i, j) in p.terms if i * (i - 1) // 2 % 2])


def ref_from_terms(c, entry, bidegree):
    """entry applied to each entry of d, the zeros and the rows they
    empty left out."""
    entries = {}
    for i, row in c.diff.items():
        kept = {j: q for j, p in row.items() if (q := entry(p))}
        if kept:
            entries[i] = kept
    return Morphism(c, c, entries, EQUIVARIANT, bidegree)


@given(parts_strategy)
@settings(max_examples=40, deadline=None)
def test_maps_from_exponents_match_the_generic_rule(parts):
    """Phi, Psi and the Phi^2 homotopy, read off the forced exponents,
    equal entry for entry the generic rule applied to each entry's terms."""
    k = staircase_sum(parts)
    for ic in (k, dual_iota(k), staircase_sum(parts, variant=2)):
        c = ic.complex
        assert build_phi(c) == ref_from_terms(c, lambda p: ref_derivative(p, "U"), (1, -1))
        assert build_psi(c) == ref_from_terms(c, lambda p: ref_derivative(p, "V"), (-1, 1))
        assert phi_squared_homotopy(c) == ref_from_terms(c, ref_phi_squared, (3, -1))


def test_inverse_witnesses_identity():
    rep = inverse_witnesses(identity_complex())
    assert rep.passed
    assert rep.cotrace.entries == {0: {0: ONE}}
    assert rep.trace.entries == {0: {0: ONE}}


def test_inverse_witnesses_of_the_empty_complex():
    """With no generator the cotrace is the zero map, with no empty row,
    and trace o cotrace is not the identity."""
    c = FreeComplex([], {})
    rep = inverse_witnesses(IotaComplex(c, Morphism(c, c, {}, SKEW, (0, 0))))
    assert rep.cotrace.is_zero() and rep.trace.is_zero()
    assert rep.first_failure == "trace o cotrace = id"


def test_inverse_witnesses_trefoil(hand_trefoil):
    rep = inverse_witnesses(hand_trefoil)
    assert rep.passed, rep.first_failure
    # cotrace sends 1 to the sum of x tensor x-dual: three diagonal entries
    assert rep.cotrace.entries == {0: {0: ONE, 4: ONE, 8: ONE}}


@given(parts_strategy)
@settings(max_examples=25, deadline=None)
def test_inverse_witnesses_match_slice_homology(parts):
    """The two "nonzero on homology" lines, derived from the chain-map
    and trace o cotrace = id checks, equal the slice homology maps."""
    rep = inverse_witnesses(staircase_sum(parts))
    checks = dict(rep.checks)
    assert checks["cotrace nonzero on homology"] == homology_class_map(rep.cotrace)
    assert checks["trace nonzero on homology"] == homology_class_map(rep.trace)


def zero_homotopies(ic1, ic2):
    """The zero homotopies h_f: ic1 -> ic2 and h_g: ic2 -> ic1."""
    return (Morphism(ic1.complex, ic2.complex, {}, SKEW, (1, 1)),
            Morphism(ic2.complex, ic1.complex, {}, SKEW, (1, 1)))


def test_verify_local_equivalence_identity(hand_trefoil):
    f = identity_morphism(hand_trefoil.complex)
    rep = verify_local_equivalence(hand_trefoil, hand_trefoil, f, f,
                                   *zero_homotopies(hand_trefoil, hand_trefoil))
    assert rep.passed


def test_verify_local_equivalence_products(hand_trefoil):
    p1 = product(hand_trefoil, hand_trefoil, variant=1, verify=False)
    p2 = product(hand_trefoil, hand_trefoil, variant=2, verify=False)
    c = p1.complex
    f = identity_morphism(c) + tensor_morphism(
        build_psi(hand_trefoil.complex), build_phi(hand_trefoil.complex), c, c
    )
    f12 = Morphism(p1.complex, p2.complex, f.entries, EQUIVARIANT, (0, 0))
    f21 = Morphism(p2.complex, p1.complex, f.entries, EQUIVARIANT, (0, 0))
    # both intertwine on the nose: the homotopies are zero
    rep = verify_local_equivalence(p1, p2, f12, f21, *zero_homotopies(p1, p2))
    assert rep.passed, rep.first_failure


def test_verify_local_equivalence_zero_fails(hand_trefoil):
    z = Morphism(hand_trefoil.complex, hand_trefoil.complex, {}, EQUIVARIANT, (0, 0))
    rep = verify_local_equivalence(hand_trefoil, hand_trefoil, z, z,
                                   *zero_homotopies(hand_trefoil, hand_trefoil))
    assert not rep.passed
    assert rep.first_failure == "f isomorphism on homology"


@pytest.mark.parametrize("build, message", [
    (lambda k, f: IotaComplex(torus_knot(3, 4).complex, k.iota),
     "iota must be an endomorphism of the underlying complex"),
    (lambda k, f: IotaComplex(k.complex, Morphism(k.complex, k.complex, k.iota.entries,
                                                  EQUIVARIANT, (0, 0))),
     "iota must be skew of bidegree (0, 0)"),
    (lambda k, f: product(k, k, variant=3, verify=False), "variant must be 1 or 2"),
    (lambda k, f: product(k, k, variant=True, verify=False), "variant must be 1 or 2"),
    (lambda k, f: product(k, k, variant=1.0, verify=False), "variant must be 1 or 2"),
    (lambda k, f: product(k, k, variant=2.0, verify=False), "variant must be 1 or 2"),
    (lambda k, f: verify_local_equivalence(k, identity_complex(), f, f, *zero_homotopies(k, k)),
     "f must map ic1 to ic2"),
    (lambda k, f: verify_local_equivalence(
        k, k, Morphism(k.complex, k.complex, f.entries, SKEW, (0, 0)), f, *zero_homotopies(k, k)),
     "f must be equivariant of bidegree (0, 0)"),
    (lambda k, f: verify_local_equivalence(
        k, k, f, f, *zero_homotopies(k, identity_complex())), "h_f must map ic1 to ic2"),
    (lambda k, f: verify_local_equivalence(
        k, k, f, f, zero_homotopies(k, k)[0], zero_homotopies(identity_complex(), k)[0]),
     "h_g must map ic2 to ic1"),
    (lambda k, f: verify_local_equivalence(
        k, k, f, f, Morphism(k.complex, k.complex, {}, EQUIVARIANT, (1, 1)), zero_homotopies(k, k)[1]),
     "h_f must be skew of bidegree (1, 1)"),
    (lambda k, f: verify_local_equivalence(
        k, k, f, f, zero_homotopies(k, k)[0], Morphism(k.complex, k.complex, {}, SKEW, (0, 0))),
     "h_g must be skew of bidegree (1, 1)"),
    (lambda k, f: verify_local_equivalence(
        t23_with(iota={**k.iota.entries, 1: {1: monomial(1, 1)}}), k, f, f, *zero_homotopies(k, k)),
     "iota1 is not homogeneous"),
    (lambda k, f: verify_local_equivalence(
        k, t23_with(iota={**k.iota.entries, 1: {1: monomial(1, 1)}}), f, f, *zero_homotopies(k, k)),
     "iota2 is not homogeneous"),
], ids=["iota between complexes", "equivariant iota", "variant 3", "variant True",
        "variant 1.0", "variant 2.0", "f to the wrong complex", "skew f",
        "h_f to the wrong complex", "h_g from the wrong complex", "equivariant h_f",
        "h_g of bidegree (0, 0)", "inhomogeneous iota1", "inhomogeneous iota2"])
def test_iota_rejections_are_pinned(build, message):
    """On T(2,3), with f its identity map."""
    k = torus_knot(2, 3)
    with pytest.raises(ValueError) as exc:
        build(k, identity_morphism(k.complex))
    assert str(exc.value) == message


def test_verify_local_equivalence_stops_at_a_failed_map_check():
    """f = {x0 -> x0} is no chain map of T(2,3), so the report holds the
    six map checks only: no homology or intertwining check runs."""
    k = torus_knot(2, 3)
    f = Morphism(k.complex, k.complex, {0: {0: ONE}}, EQUIVARIANT, (0, 0))
    rep = verify_local_equivalence(k, k, f, identity_morphism(k.complex), *zero_homotopies(k, k))
    assert rep.checks == (("f homogeneous", True), ("f filtered", True), ("f chain map", False),
                          ("g homogeneous", True), ("g filtered", True), ("g chain map", True))


def test_search_finds_identity(hand_trefoil):
    found = search_local_equivalence(hand_trefoil, hand_trefoil)
    assert found is not None
    assert verify_local_equivalence(hand_trefoil, hand_trefoil, *found).passed


def test_search_unknot_vs_trefoil_negative(hand_trefoil):
    assert search_local_equivalence(identity_complex(), hand_trefoil) is None


def test_search_product_variants(hand_trefoil):
    p1 = product(hand_trefoil, hand_trefoil, variant=1, verify=False)
    p2 = product(hand_trefoil, hand_trefoil, variant=2, verify=False)
    assert search_local_equivalence(p1, p2) is not None


def test_search_cap_exceeded(hand_trefoil):
    with pytest.raises(CapExceededError):
        search_local_equivalence(hand_trefoil, hand_trefoil, cap=0)


def _with_identity_iota(basis, diff):
    c = FreeComplex(basis, diff)
    return IotaComplex(c, Morphism(c, c, {i: {i: ONE} for i in range(len(c))}, SKEW, (0, 0)))


def test_search_needs_homology_the_ring_on_both_sides(hand_trefoil):
    """An acyclic complex has no generator class; on two unknot
    generators the functional would not decide "nonzero on homology"."""
    acyclic = _with_identity_iota([BasisElement("x", 0, 0), BasisElement("y", 1, 1)], {1: {0: ONE}})
    two = _with_identity_iota([BasisElement("x", 0, 0), BasisElement("y", 0, 0)], {})
    for ic in (acyclic, two):
        assert ic.complex.slice_homology.functional is None
        with pytest.raises(ValueError, match="target slice homology has no generator class"):
            _search_direction(hand_trefoil, ic, 24)
    with pytest.raises(ValueError, match="source slice homology has no generator class"):
        _search_direction(acyclic, hand_trefoil, 24)


def _chain_map_basis(src, tgt):
    space = _HomEquations(src.complex, tgt.complex, EQUIVARIANT, (0, 0))
    return space, gf2.nullspace(space.equations.values(), len(space.unknowns))


def exhaustive_direction(src, tgt):
    """The reference search: try every combination of the chain-map
    basis in increasing order, and return the first that is nonzero on
    homology and intertwines the involutions up to filtered homotopy."""
    space, basis = _chain_map_basis(src, tgt)
    for combo in range(1, 1 << len(basis)):
        cand = space.morphism(gf2.apply_rows(basis, combo))
        if not homology_class_map(cand):
            continue
        if homotopy_solve(compose(tgt.iota, cand), compose(cand, src.iota)) is not None:
            return cand
    return None


def full_iota_through_trace(ic, dic, prod, unit):
    """The reference for _iota_through_trace: the full involution of
    prod = C x C^dual, composed with the cotrace and the trace."""
    iota_prod = product(ic, dic, verify=False).iota
    n = len(ic.complex)
    cotrace = Morphism(unit, prod, {0: {i * n + i: ONE for i in range(n)}}, EQUIVARIANT, (0, 0))
    trace = Morphism(prod, unit, {i * n + i: {0: ONE} for i in range(n)}, EQUIVARIANT, (0, 0))
    return compose(iota_prod, cotrace), compose(trace, iota_prod)


def witness_outcome(ic):
    """inverse_witnesses' checks, or the type and message of what it raised."""
    try:
        return inverse_witnesses(ic).checks
    except Exception as e:  # the outcome is compared, whatever it is
        return type(e), str(e)


def reference_witness_outcome(ic, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(iota, "_iota_through_trace", full_iota_through_trace)
        return witness_outcome(ic)


@given(parts_strategy, st.booleans(), st.randoms(use_true_random=False))
@example(CONJUGATED_PARTS, True, random.Random(0))
@settings(max_examples=25, deadline=None)
def test_iota_through_trace_matches_the_full_involution(parts, conjugate, rnd):
    """On staircase sums, and on the same sums in a conjugated basis."""
    ic = staircase_sum(parts)
    if conjugate:
        ic = conjugated_draw(ic, rnd)
    dic, unit = dual_iota(ic), identity_complex().complex
    prod = tensor(ic.complex, dic.complex)
    assert _iota_through_trace(ic, dic, prod, unit) == full_iota_through_trace(ic, dic, prod, unit)


@pytest.mark.parametrize("p", [2, 3, 4, 5])
@pytest.mark.parametrize("flip", [False, True])
def test_inverse_witnesses_match_the_full_involution(p, flip, monkeypatch):
    k = mirror(torus_knot(p, p + 1)) if flip else torus_knot(p, p + 1)
    ic = product(k, k, verify=False)
    outcome = witness_outcome(ic)
    assert outcome == reference_witness_outcome(ic, monkeypatch)
    assert all(ok for _, ok in outcome)


def test_inverse_witnesses_on_a_corrupted_involution(monkeypatch):
    """Each entry of iota on T(2,3) # T(3,4) dropped in turn: the outcome
    is the reference path's, checks or exception, and a drop that makes
    iota no chain map fails first at the cotrace's intertwining homotopy,
    which does not exist, without raising."""
    ic = product(torus_knot(2, 3), torus_knot(3, 4))
    c, entries = ic.complex, ic.iota.entries
    non_chain = []
    for i, row in entries.items():
        for j in row:
            kept = {a: {b: p for b, p in r.items() if (a, b) != (i, j)} for a, r in entries.items()}
            bad = IotaComplex(c, Morphism(c, c, kept, SKEW, (0, 0)))
            outcome = witness_outcome(bad)
            assert outcome == reference_witness_outcome(bad, monkeypatch)
            if not is_chain_map(bad.iota):
                non_chain.append(next(name for name, ok in outcome if not ok))
    assert non_chain == ["cotrace intertwines involutions"] * 15


def reference_witness_checks(ic):
    """inverse_witnesses' checks decided on the built C x C^dual: tensor,
    then inhomogeneous, is_filtered, is_chain_map and compose on it."""
    ce = identity_complex()
    dic = iota.dual_iota(ic)
    prod = tensor(ic.complex, dic.complex)
    n = len(ic.complex)
    cotrace = Morphism(ce.complex, prod, {0: {i * n + i: ONE for i in range(n)}} if n else {},
                       EQUIVARIANT, (0, 0))
    trace = Morphism(prod, ce.complex, {i * n + i: {0: ONE} for i in range(n)},
                     EQUIVARIANT, (0, 0))
    checks = [
        ("cotrace homogeneous", not cotrace.inhomogeneous),
        ("trace homogeneous", not trace.inhomogeneous),
        ("cotrace filtered", cotrace.is_filtered()),
        ("trace filtered", trace.is_filtered()),
        ("cotrace chain map", is_chain_map(cotrace)),
        ("trace chain map", is_chain_map(trace)),
        ("trace o cotrace = id", compose(trace, cotrace) == identity_morphism(ce.complex)),
    ]
    nonzero = all(ok for name, ok in checks if not name.endswith("filtered"))
    checks += [("cotrace nonzero on homology", nonzero), ("trace nonzero on homology", nonzero)]
    iota_cotrace, trace_iota = _iota_through_trace(ic, dic, prod, ce.complex)
    checks.append(("cotrace intertwines involutions",
                   homotopy_solve(compose(cotrace, ce.iota), iota_cotrace) is not None))
    checks.append(("trace intertwines involutions",
                   homotopy_solve(trace_iota, compose(ce.iota, trace)) is not None))
    return tuple(checks)


def reference_outcome(ic):
    try:
        return reference_witness_checks(ic)
    except Exception as e:  # the outcome is compared, whatever it is
        return type(e), str(e)


def theorem_inputs():
    """The unit, the empty complex, the trefoil, T(p,p+1) # T(p,p+1) and
    its mirror, both product variants, K # K^dual and a triple sum."""
    empty = FreeComplex([], {})
    t23, t34, t45 = torus_knot(2, 3), torus_knot(3, 4), torus_knot(4, 5)
    inputs = [identity_complex(), IotaComplex(empty, Morphism(empty, empty, {}, SKEW, (0, 0))), t23]
    for p in (2, 3, 4, 5):
        for k in (torus_knot(p, p + 1), mirror(torus_knot(p, p + 1))):
            inputs.append(product(k, k, verify=False))
    inputs += [product(t23, t34, variant=2, verify=False),
               product(t34, dual_iota(t34), verify=False),
               product(product(t23, t34, verify=False), mirror(t45), verify=False)]
    return inputs


@pytest.mark.parametrize("ic", theorem_inputs())
def test_inverse_witnesses_match_the_built_product_on_theorem_inputs(ic):
    assert witness_outcome(ic) == reference_outcome(ic)


@given(parts_strategy, st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_inverse_witnesses_match_the_built_product(parts, variant):
    """The checks decided from the factors equal those decided on
    tensor(C, C^dual)."""
    ic = staircase_sum(parts, variant)
    assert witness_outcome(ic) == reference_outcome(ic)


def test_inverse_witnesses_on_a_corrupted_dual(monkeypatch):
    """dual_iota with one transposed entry of d dropped, each in turn, on
    T(2,3) # T(3,4): the checks are the reference's, and both chain-map
    checks fail, the cotrace's first."""
    ic = product(torus_knot(2, 3), torus_knot(3, 4))
    entries = [(i, j) for i, row in ic.complex.diff.items() for j in row]
    for i, j in entries:
        def corrupted(k, drop=(j, i)):
            dc = complexes.dual(k.complex)
            diff = {a: {b: p for b, p in row.items() if (a, b) != drop} for a, row in dc.diff.items()}
            bad = FreeComplex(dc.basis, {a: row for a, row in diff.items() if row})
            return IotaComplex(bad, Morphism(bad, bad, dual_iota(k).iota.entries, SKEW, (0, 0)))
        with monkeypatch.context() as m:
            m.setattr(iota, "dual_iota", corrupted)
            outcome = witness_outcome(ic)
            assert outcome == reference_outcome(ic)
        failed = [name for name, ok in outcome if not ok]
        assert failed[:2] == ["cotrace chain map", "trace chain map"]
    assert len(entries) == 22

    def shifted(k):
        """The unknot's dual with its generator two higher in both gradings."""
        (x,) = complexes.dual(k.complex).basis
        bad = FreeComplex([BasisElement(x.name, x.gr_u + 2, x.gr_v + 2)], {})
        return IotaComplex(bad, Morphism(bad, bad, dual_iota(k).iota.entries, SKEW, (0, 0)))
    unknot = identity_complex()
    with monkeypatch.context() as m:
        m.setattr(iota, "dual_iota", shifted)
        outcome = witness_outcome(unknot)
        assert outcome == reference_outcome(unknot)
    assert [name for name, ok in outcome if not ok][:2] == ["cotrace homogeneous", "trace homogeneous"]


def test_inverse_witnesses_build_no_product(monkeypatch):
    """On T(6,7) # T(6,7) every check passes with tensor refusing to run,
    and reading the cotrace's target then builds C x C^dual (14 641
    generators) equal to tensor's, in the same order."""
    ic = product(torus_knot(6, 7), torus_knot(6, 7))

    def refuse(*args):
        raise AssertionError("C x C^dual was built")

    with monkeypatch.context() as m:
        m.setattr(complexes, "tensor", refuse)
        m.setattr(iota, "tensor", refuse)
        rep = inverse_witnesses(ic)
    assert rep.passed
    assert len(rep.cotrace.target) == 14_641
    built, ref = rep.cotrace.target, tensor(ic.complex, dual_iota(ic).complex)
    assert rep.trace.source is built and built == ref
    assert [x.name for x in built.basis] == [x.name for x in ref.basis]
    assert [(i, list(row.items())) for i, row in built.diff.items()] == \
        [(i, list(row.items())) for i, row in ref.diff.items()]


@pytest.mark.parametrize("p, flip", [(6, False), (5, True)],
                         ids=["T(6,7)#T(6,7)", "T(5,6)^-1#T(5,6)^-1"])
def test_inverse_witnesses_leave_the_product_unbuilt(p, flip):
    """The cost model of the identities workload: every check passes and
    C x C^dual (14 641 and 6 561 generators) is still a LazyTensor that
    nothing has built."""
    k = mirror(torus_knot(p, p + 1)) if flip else torus_knot(p, p + 1)
    rep = inverse_witnesses(product(k, k))
    assert rep.passed
    assert "built" not in vars(rep.cotrace.target)


def test_inverse_witnesses_decide_colliding_product_names():
    """Generators a, b|c, a|b, c: C x C^dual would name both (a, b|c^) and
    (a|b, c^) a|b|c^. The checks need no names; reading an endpoint
    raises tensor's ValueError."""
    c = FreeComplex([BasisElement(name, 0, 0) for name in ("a", "b|c", "a|b", "c")], {})
    rep = inverse_witnesses(IotaComplex(c, Morphism(c, c, {i: {i: ONE} for i in range(4)},
                                                    SKEW, (0, 0))))
    assert rep.first_failure == "trace o cotrace = id"
    with pytest.raises(ValueError) as exc:
        rep.cotrace.target.basis
    assert str(exc.value) == "product generators ('a', 'b|c^') and ('a|b', 'c^') share the name 'a|b|c^'"


@st.composite
def complex_pairs(draw):
    """A sum of staircases and a second complex that is unrelated, or a
    sum with the factors swapped, or the other product variant, or
    K # K' # K'^dual."""
    parts = draw(parts_strategy)
    kind = draw(st.sampled_from(("unrelated", "swapped", "variant", "inverse pair")))
    if kind == "unrelated":
        return staircase_sum(parts), staircase_sum(draw(parts_strategy), draw(st.sampled_from((1, 2))))
    if kind == "swapped":
        return staircase_sum(parts), staircase_sum(parts[::-1])
    if kind == "variant":
        return staircase_sum(parts, 1), staircase_sum(parts, 2)
    k, k2 = staircase_sum(parts[:1]), staircase_complex(draw(staircase_strategy))
    return k, product(product(k, k2, verify=False), dual_iota(k2), verify=False)


@given(complex_pairs())
@settings(max_examples=15, deadline=None)
def test_solve_matches_exhaustive_search(pair):
    """The one-solve decision and witness equal the exhaustive search's,
    in each direction whose chain-map space has dimension <= 12."""
    a, b = pair
    for src, tgt in ((a, b), (b, a)):
        if len(_chain_map_basis(src, tgt)[1]) > 12:
            with pytest.raises(CapExceededError):
                _search_direction(src, tgt, 12)
            continue
        found = _search_direction(src, tgt, 12)
        assert (found and found[0]) == exhaustive_direction(src, tgt)


def test_search_witness_pinned():
    """T(2,3) # T(2,3), variant 1 to variant 2: the basis has dimension 5
    and the least witness is combination 20, the swap of the factors.
    Combinations 16-19 are nonzero on homology but do not intertwine."""
    t23 = torus_knot(2, 3)
    p1, p2 = product(t23, t23, variant=1), product(t23, t23, variant=2)
    space, basis = _chain_map_basis(p1, p2)
    assert len(basis) == 5
    f, _ = _search_direction(p1, p2, 24)
    assert f.entries == {i * 3 + j: {j * 3 + i: ONE} for i in range(3) for j in range(3)}
    assert f == space.morphism(gf2.apply_rows(basis, 20))
    for combo in range(1, 20):
        cand = space.morphism(gf2.apply_rows(basis, combo))
        assert homology_class_map(cand) == (combo >= 16)
    assert exhaustive_direction(p1, p2) == f


BIG_CAP = 10_000


def reference_verify(ic1, ic2, f, g):
    """The checks of the solve-based verifier that verify_local_equivalence
    replaced: its map and homology checks, and each intertwining decided
    by a fresh homotopy_solve."""
    checks = []
    for name, m in (("f", f), ("g", g)):
        checks += [(f"{name} homogeneous", not m.inhomogeneous),
                   (f"{name} filtered", m.is_filtered()), (f"{name} chain map", is_chain_map(m))]
    if not all(ok for _, ok in checks):
        return tuple(checks)
    hom1, hom2 = ic1.complex.slice_homology, ic2.complex.slice_homology
    checks.append(("f isomorphism on homology", hom1.maps_generator_nonzero(f, hom2)))
    checks.append(("g isomorphism on homology", hom2.maps_generator_nonzero(g, hom1)))
    h1 = homotopy_solve(compose(ic2.iota, f), compose(f, ic1.iota))
    checks.append(("iota2 f ~ f iota1", h1 is not None))
    h2 = homotopy_solve(compose(ic1.iota, g), compose(g, ic2.iota))
    checks.append(("iota1 g ~ g iota2", h2 is not None))
    return tuple(checks)


@given(parts_strategy, st.sampled_from((1, 2)), st.booleans(), st.data())
@settings(max_examples=15, deadline=None)
def test_support_verifier_agrees_with_the_solve_based_one(parts, variant, swap, data):
    """On a staircase sum against a perturbed copy of itself, in either
    variant and factor order, the support checks of the search's
    homotopies give the solve-based verifier's checks of its maps."""
    a = staircase_sum(parts)
    b = staircase_sum(parts[::-1] if swap else parts, variant)
    unknowns = len(_HomEquations(b.complex, b.complex, SKEW, (1, 1)).unknowns)
    b = perturbed(b, data.draw(st.integers(0, (1 << unknowns) - 1)))
    found = search_local_equivalence(a, b, cap=BIG_CAP)
    assert found is not None
    rep = verify_local_equivalence(a, b, *found)
    assert rep.passed
    assert rep.checks == reference_verify(a, b, *found[:2])


def test_toggling_one_homotopy_entry_fails_its_check():
    """T(3,4) # T(2,3)^-1 against its perturbed copy: toggling unknown v
    of h_f or h_g fails exactly that homotopy's check when v's column of
    the homotopy equations is nonzero, which holds for every entry the
    least solution sets."""
    a = product(torus_knot(3, 4), mirror(torus_knot(2, 3)))
    b = perturbed_t34_mirror_t23()
    f, g, h_f, h_g = search_local_equivalence(a, b)
    assert h_f.entries and h_g.entries
    for k, (h, src, tgt) in enumerate(((h_f, a, b), (h_g, b, a))):
        space = _HomEquations(src.complex, tgt.complex, SKEW, (1, 1))
        bits = sum(1 << v for v, (i, j, _) in enumerate(space.unknowns) if j in h.entries.get(i, {}))
        assert space.morphism(bits) == h
        columns = 0
        for eq in space.equations.values():
            columns |= eq
        assert bits & ~columns == 0
        for v in range(len(space.unknowns)):
            hs = [h_f, h_g]
            hs[k] = space.morphism(bits ^ (1 << v))
            failed = [name for name, ok in verify_local_equivalence(a, b, f, g, *hs).checks if not ok]
            assert failed == (["iota2 f ~ f iota1", "iota1 g ~ g iota2"][k:k + 1] if columns >> v & 1
                              else [])


def test_the_verifier_solves_nothing(monkeypatch):
    """With the search's slice homology cached, verify_local_equivalence
    passes the search's witness with every solver and compose disabled."""
    a, b = product(torus_knot(3, 4), mirror(torus_knot(2, 3))), perturbed_t34_mirror_t23()
    found = search_local_equivalence(a, b)

    def disabled(*args, **kwargs):
        raise AssertionError("the verifier called a solver")

    for module, name in ((gf2, "solve"), (gf2, "rank"), (gf2, "nullspace"), (iota, "_HomEquations"),
                         (iota, "homotopy_solve"), (iota, "compose"), (complexes, "compose")):
        monkeypatch.setattr(module, name, disabled)
    assert verify_local_equivalence(a, b, *found).passed


def test_an_unfiltered_or_inhomogeneous_homotopy_fails_its_check():
    """e(0, 0), p(-2, -2), q(-3, -3) with dp = q and iota the identity:
    F = G = id, and any H from e to q has dH + Hd = 0 = iota F + F iota
    on supports. U^-2 V^-2 is the forced monomial there, not filtered;
    1 is filtered but not homogeneous."""
    basis = [BasisElement("e", 0, 0), BasisElement("p", -2, -2), BasisElement("q", -3, -3)]
    ic = _with_identity_iota(basis, {1: {2: ONE}})
    assert verify_iota_complex(ic).passed
    f = identity_morphism(ic.complex)
    zero, _ = zero_homotopies(ic, ic)
    assert verify_local_equivalence(ic, ic, f, f, zero, zero).passed
    for p in (monomial(-2, -2), ONE):
        h = Morphism(ic.complex, ic.complex, {0: {2: p}}, SKEW, (1, 1))
        assert (h.is_filtered(), not h.inhomogeneous) == (p == ONE, p != ONE)
        for hs, name in (((h, zero), "iota2 f ~ f iota1"), ((zero, h), "iota1 g ~ g iota2")):
            rep = verify_local_equivalence(ic, ic, f, f, *hs)
            assert [n for n, ok in rep.checks if not ok] == [name]


def _witnessed(ic1, ic2):
    found = search_local_equivalence(ic1, ic2, cap=BIG_CAP)
    return found is not None and verify_local_equivalence(ic1, ic2, *found).passed


@given(st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=2, max_size=2))
@settings(max_examples=8, deadline=None)
def test_product_variants_and_factor_order_locally_equivalent(parts):
    """K1 # K2 in variant 1 ~ variant 2, and K1 # K2 ~ K2 # K1."""
    k12 = staircase_sum(parts)
    assert _witnessed(k12, staircase_sum(parts, 2))
    assert _witnessed(k12, staircase_sum(parts[::-1]))


@given(parts_strategy)
@settings(max_examples=8, deadline=None)
def test_sum_with_dual_locally_trivial(parts):
    """K # K^dual ~ the unknot, for K of at most 49 generators."""
    k = staircase_sum(parts)
    assume(len(k.complex) <= 49)
    assert _witnessed(product(k, dual_iota(k), verify=False), identity_complex())


@given(complex_pairs())
@settings(max_examples=10, deadline=None)
def test_local_equivalence_preserves_invariants(pair):
    """Locally equivalent complexes have equal (V0_bar, V0, V0_under)."""
    a, b = pair
    if search_local_equivalence(a, b, cap=BIG_CAP) is not None:
        triples = [involutive_invariants(a_zero_minus(ic, verify=False)).triple() for ic in pair]
        assert triples[0] == triples[1]


T23, T34 = [(palindromic_staircase([1]), False)], [(palindromic_staircase([1, 2]), False)]
T34_MIRROR_T23 = T34 + [(palindromic_staircase([1]), True)]


@given(parts_strategy, parts_strategy, st.sampled_from([1, 2]),
       st.none() | st.integers(min_value=0, max_value=(1 << 64) - 1),
       st.booleans(), st.booleans(), st.randoms(use_true_random=False))
@example(T34, T23, 1, None, False, False, random.Random(0))
@example(T34_MIRROR_T23, T34, 2, 1, False, False, random.Random(0))
@example(CONJUGATED_PARTS, T34, 1, None, True, True, random.Random(0))
@settings(max_examples=60, deadline=None)
def test_local_maps_are_read_off_the_tower(parts1, parts2, variant, bits, conj1, conj2, rnd):
    """A local map C1 -> C2 exists iff d_under(C1^dual # C2) >= 0.

    Products keep local maps, and C1^dual # C1 is locally trivial (as
    inverse_witnesses checks), so C1 <= C2 iff unknot <= X = C1^dual # C2.
    A local map from the unknot to X is a grading-0 element z of X's
    Alexander-grading-0 tower: z is a cycle with a nontorsion class, and
    (1 + iota)z is a boundary, the homotopy's value at 1 lying at grading
    1. That is _d_under_hits at grading 0. d_under is even and W commutes
    with iota, so such a z exists exactly when d_under(X) >= 0.

    The search's Hom-space solve and the tower's cone decide this apart,
    in both directions, with C1 perturbed on the draws that give bits, and
    then C1, and then C2, in a conjugated basis (conftest.conjugated_draw)
    on the draws that ask for it. T(3,4) has a local map to T(2,3) and
    none back; T(3,4) # T(2,3)^-1, perturbed by its first K unknown, has
    none to T(3,4) and one back.
    """
    c1, c2 = staircase_sum(parts1, variant), staircase_sum(parts2, variant)
    if bits is not None:
        unknowns = len(_HomEquations(c1.complex, c1.complex, SKEW, (1, 1)).unknowns)
        c1 = perturbed(c1, bits & ((1 << unknowns) - 1))
    if conj1:
        c1 = conjugated_draw(c1, rnd)
    if conj2:
        c2 = conjugated_draw(c2, rnd)
    for src, tgt in ((c1, c2), (c2, c1)):
        x = product(dual_iota(src), tgt, variant=variant, verify=False)
        d_under = involutive_invariants(a_zero_minus(x, verify=False)).d_under
        assert (_search_direction(src, tgt, BIG_CAP) is not None) == (d_under >= 0)


@given(st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=3, max_size=3))
@settings(max_examples=6, deadline=None)
def test_sum_associative_up_to_local_equivalence(parts):
    """(K1 # K2) # K3 ~ K1 # (K2 # K3), for sums of up to 343 generators."""
    k1, k2, k3 = (mirror(staircase_complex(s)) if flip else staircase_complex(s)
                  for s, flip in parts)
    left = product(product(k1, k2, verify=False), k3, verify=False)
    right = product(k1, product(k2, k3, verify=False), verify=False)
    found = search_local_equivalence(left, right, cap=BIG_CAP)
    assert found is not None and verify_local_equivalence(left, right, *found).passed


def _sha256(m):
    return hashlib.sha256(json.dumps(morphism_to_list(m)).encode()).hexdigest()


def test_associativity_witness_pinned():
    """(T(3,4) # T(4,5)) # T(5,6) vs T(3,4) # (T(4,5) # T(5,6)): 315
    generators and a chain-map space of dimension 1 983, far above what
    the exhaustive search covers. The hashes are of the witnesses the
    chain-map-basis search returned before the (H, F) system."""
    k1, k2, k3 = torus_knot(3, 4), torus_knot(4, 5), torus_knot(5, 6)
    left = product(product(k1, k2, verify=False), k3, verify=False)
    right = product(k1, product(k2, k3, verify=False), verify=False)
    with pytest.raises(CapExceededError, match="dimension 1983 > cap 1982"):
        search_local_equivalence(left, right, cap=1982)
    f, g, _, _ = search_local_equivalence(left, right, cap=1983)
    pinned = "25d6536d7590738275bd6a079ef2cbcba34f2b1d11bb01361aa22abd614c51c4"
    assert _sha256(f) == _sha256(g) == pinned


@given(complex_pairs())
@settings(max_examples=10, deadline=None)
def test_residue_is_the_support_of_the_laurent_composites(pair):
    """The iota residue row of each chain-map unknown e is the support of
    the Laurent iota2 e + e iota1."""
    src, tgt = pair
    space = _HomEquations(src.complex, tgt.complex, EQUIVARIANT, (0, 0))
    rows = space.residue(tgt.iota.entries, src.iota.entries)
    for var in range(len(space.unknowns)):
        e = space.morphism(1 << var)
        laurent = compose(tgt.iota, e) + compose(e, src.iota)
        assert not laurent.inhomogeneous
        support = {(i, j) for i, row in laurent.entries.items() for j in row}
        assert {key for key, eq in rows.items() if eq >> var & 1} == support


@given(complex_pairs())
@settings(max_examples=10, deadline=None)
def test_functional_kills_boundaries_and_detects_the_generator(pair):
    """phi is 0 on every boundary row and 1 on the generator, and phi(f(z))
    is maps_generator_nonzero on the chain maps of a basis and on sums of
    two of them."""
    src, tgt = pair
    for c in (src.complex, tgt.complex):
        hom = c.slice_homology
        even_positions, odd = hom.positions(0), hom.members(1)
        phi = hom.functional
        for row in gf2.support_rows(c.diff, odd, even_positions):
            assert (phi & row).bit_count() % 2 == 0
        assert (phi & hom.generator).bit_count() % 2 == 1
    space, basis = _chain_map_basis(src, tgt)
    hom, tgt_hom = src.complex.slice_homology, tgt.complex.slice_homology
    for b in basis[:20] + [x ^ y for x, y in zip(basis, basis[1:20])]:
        f = space.morphism(b)
        rows = gf2.support_rows(f.entries, hom.members(0), tgt_hom.positions(0))
        image = gf2.apply_rows(rows, hom.generator)
        on_homology = (tgt_hom.functional & image).bit_count() % 2 == 1
        assert on_homology == hom.maps_generator_nonzero(f, tgt_hom)


def test_iota_fourth_power_homotopic_to_identity(hand_trefoil):
    p = product(hand_trefoil, torus_knot(3, 4), verify=False)
    i2 = compose(p.iota, p.iota)
    i4 = compose(i2, i2)
    assert homotopy_solve(i4, identity_morphism(p.complex)) is not None


def test_phi_psi_commute_up_to_homotopy(corpus_staircases, hand_trefoil):
    cases = [ic.complex for ic in corpus_staircases]
    cases.append(product(hand_trefoil, hand_trefoil, verify=False).complex)
    for c in cases:
        f = compose(build_phi(c), build_psi(c))
        g = compose(build_psi(c), build_phi(c))
        assert homotopy_solve(f, g) is not None


def test_associativity_difference_null_homotopic(hand_trefoil):
    t34 = torus_knot(3, 4)
    left = product(product(hand_trefoil, hand_trefoil, verify=False), t34, verify=False)
    right = product(hand_trefoil, product(hand_trefoil, t34, verify=False), verify=False)
    # the underlying tensor complexes agree up to name bracketing
    assert [(x.gr_u, x.gr_v) for x in left.complex.basis] == [
        (x.gr_u, x.gr_v) for x in right.complex.basis
    ]
    rebased = Morphism(left.complex, left.complex, right.iota.entries, SKEW, (0, 0))
    assert homotopy_solve(left.iota, rebased) is not None


def test_commutativity_swap_intertwines(hand_trefoil):
    t34 = torus_knot(3, 4)
    p12 = product(hand_trefoil, t34, variant=1, verify=False)
    p21 = product(t34, hand_trefoil, variant=2, verify=False)
    n1, n2 = len(hand_trefoil.complex), len(t34.complex)
    swap_entries = {
        i1 * n2 + i2: {i2 * n1 + i1: ONE} for i1 in range(n1) for i2 in range(n2)
    }
    t = Morphism(p12.complex, p21.complex, swap_entries, EQUIVARIANT, (0, 0))
    lhs = compose(p21.iota, t)
    rhs = compose(t, p12.iota)
    assert homotopy_solve(lhs, rhs) is not None


@given(staircase_strategy, staircase_strategy)
@settings(max_examples=10, deadline=None)
def test_products_are_iota_complexes(s1, s2):
    ic1, ic2 = staircase_complex(s1), staircase_complex(s2)
    for variant in (1, 2):
        assert verify_iota_complex(product(ic1, ic2, variant=variant, verify=False)).passed


def test_tensor_of_skew_maps_well_defined(hand_trefoil):
    # scalars crossing a skew tensor factor pick up the U/V swap:
    # (F|G) o (r . id) = (swap r . id) o (F|G) for skew F, G
    c = hand_trefoil.complex
    t = tensor(c, c)
    fg = tensor_morphism(hand_trefoil.iota, hand_trefoil.iota, t, t)
    for r in [monomial(1, 0), monomial(0, 1), monomial(2, 1), monomial(-1, 3)]:
        i, j = r.terms[0]
        mult = Morphism(t, t, {k: {k: r} for k in range(len(t))}, EQUIVARIANT, (-2 * i, -2 * j))
        mult_swapped = Morphism(
            t, t, {k: {k: r.swap_uv()} for k in range(len(t))}, EQUIVARIANT, (-2 * j, -2 * i)
        )
        assert compose(fg, mult).entries == compose(mult_swapped, fg).entries


def test_homotopy_witnesses_pinned():
    """Witnesses of the solver as recorded before its Hom-space equations
    were shared with the chain-map search. gf2.solve returns the
    solution with every free unknown zero, so they stay fixed."""
    t23 = torus_knot(2, 3)
    rep = verify_iota_complex(product(t23, t23))
    assert rep.passed and rep.involution_homotopy.entries == {}

    ic = product(torus_knot(3, 4), dual_iota(t23))
    c = ic.complex
    d = differential_morphism(c)
    for f, pinned in ((identity_morphism(c), {3: {8: ONE}, 11: {6: ONE}}),
                      (ic.iota, {3: {6: ONE}, 11: {8: ONE}})):
        h = Morphism(c, c, pinned, f.variance, (1, 1))
        g = f + compose(d, h) + compose(h, d)
        assert not (f + g).is_zero()
        assert homotopy_solve(f, g).entries == pinned


def reference_axiom_six(ic):
    """Axiom (6)'s witness through Laurent arithmetic: homotopy_solve of
    iota o iota against id + Phi o Psi, every composite built."""
    c = ic.complex
    rhs = identity_morphism(c) + compose(build_phi(c), build_psi(c))
    return homotopy_solve(compose(ic.iota, ic.iota), rhs)


def _assert_axiom_six_witness(ic, h):
    """dH + Hd = iota^2 + id + Phi Psi, every side composed over the ring."""
    c = ic.complex
    d = differential_morphism(c)
    rhs = compose(ic.iota, ic.iota) + identity_morphism(c) + compose(build_phi(c), build_psi(c))
    assert (compose(d, h) + compose(h, d) + rhs).is_zero()


@given(parts_strategy, st.sampled_from([1, 2]), st.booleans(), st.booleans(),
       st.randoms(use_true_random=False))
@example(CONJUGATED_PARTS, 1, True, False, random.Random(0))
@settings(max_examples=60, deadline=None)
def test_axiom_six_on_supports_matches_the_laurent_path(parts, variant, conjugate, dualize, rnd):
    """On staircase sums, the same in a conjugated basis (where Phi Psi !=
    Psi Phi), their duals and iota + dK + Kd for a random filtered skew K:
    the verdict and witness of axiom (6) decided on supports are those of
    the composed path, and the witness is one."""
    ic = staircase_sum(parts, variant)
    if conjugate:
        ic = conjugated_draw(ic, rnd)
    if dualize:
        ic = dual_iota(ic)
    c = ic.complex
    n = len(_HomEquations(c, c, SKEW, (1, 1)).unknowns)
    for bits in dict.fromkeys((0, rnd.getrandbits(n))):
        pic = perturbed(ic, bits)
        rep, ref = verify_iota_complex(pic), reference_axiom_six(pic)
        assert rep.checks[:5] == ((1, True), (2, True), (3, True), (4, True), (5, True))
        assert rep.checks[5] == (6, ref is not None)
        if ref is not None:
            assert rep.involution_homotopy == ref
            _assert_axiom_six_witness(pic, ref)


def test_axiom_six_witness_pinned():
    """A perturbed involution whose axiom-6 witness is nonzero."""
    ic = perturbed_t34_mirror_t23()
    rep = verify_iota_complex(ic)
    assert rep.passed
    h = rep.involution_homotopy
    assert (h.variance, h.bidegree, h.entries) == (EQUIVARIANT, (1, 1), {3: {8: ONE}, 11: {6: ONE}})
    assert h == reference_axiom_six(ic)
    _assert_axiom_six_witness(ic, h)


def test_verify_scans_each_matrix_once(monkeypatch):
    """verify_iota_complex decides the homogeneity of d and of iota with one
    forced_base call per row of each, and a_zero_minus then reuses both."""
    _, ic = serialize.iota_complex_from_dict(iota_complex_to_dict(
        "k", product(torus_knot(3, 4), torus_knot(2, 3))))
    assert (len(ic.complex.diff), len(ic.iota.entries)) == (9, 15)
    calls = []
    forced_base = complexes.forced_base
    monkeypatch.setattr(complexes, "forced_base", lambda *a: calls.append(a) or forced_base(*a))
    assert verify_iota_complex(ic).passed
    assert len(calls) == 9 + 15
    a_zero_minus(ic, verify=False)
    assert len(calls) == 9 + 15


def test_axiom_six_composes_nothing(monkeypatch):
    """Axiom (6) is decided on supports: on a staircase sum all six axioms
    pass with no LaurentPoly product or sum and no compose, and with the
    same one forced_base call per row of d and of iota."""
    _, ic = serialize.iota_complex_from_dict(iota_complex_to_dict(
        "k", product(torus_knot(3, 4), torus_knot(2, 3))))
    calls = []
    forced_base = complexes.forced_base
    monkeypatch.setattr(complexes, "forced_base", lambda *a: calls.append(a) or forced_base(*a))

    def forbidden(*args):
        raise AssertionError("Laurent arithmetic in verify_iota_complex")
    monkeypatch.setattr(LaurentPoly, "__mul__", forbidden)
    monkeypatch.setattr(LaurentPoly, "__add__", forbidden)
    monkeypatch.setattr(iota, "compose", forbidden)
    rep = verify_iota_complex(ic)
    assert rep.passed and rep.involution_homotopy.entries == {}
    assert len(calls) == 9 + 15


def test_a_zero_minus_never_scans_a_product_involution(monkeypatch):
    """product records its involution as homogeneous when both factors'
    are, so neither product nor a_zero_minus calls forced_base on a row
    of the product."""
    k1, k2 = torus_knot(3, 4), torus_knot(2, 3)
    calls = []
    forced_base = complexes.forced_base
    monkeypatch.setattr(complexes, "forced_base", lambda *a: calls.append(a) or forced_base(*a))
    a_zero_minus(product(k1, k2, verify=False), verify=False)
    assert not [x.name for x, *_ in calls if "|" in x.name]


@given(parts_strategy, st.sampled_from([1, 2]))
@settings(max_examples=40, deadline=None)
def test_recorded_product_homogeneity_matches_a_scan(parts, variant):
    """The () that product records for its involution, on a staircase sum
    times its first part, is what a fresh scan of the same entries finds."""
    first = staircase_sum(parts[:1])
    ic = product(staircase_sum(parts, variant), first, variant=variant, verify=False)
    assert ic.iota.__dict__["inhomogeneous"] == ()
    assert Morphism(ic.complex, ic.complex, ic.iota.entries, SKEW, (0, 0)).inhomogeneous == ()


def test_product_with_an_inhomogeneous_involution_is_not_recorded():
    """A factor with one iota entry times UV: the product's involution is
    not recorded as homogeneous, a scan finds offenders, and a_zero_minus
    still raises InvariantError."""
    k = torus_knot(2, 3)
    entries = {i: {j: p * monomial(1, 1) if i == j else p for j, p in row.items()}
               for i, row in k.iota.entries.items()}
    assert sum(i in row for i, row in entries.items()) == 1
    bad = IotaComplex(k.complex, Morphism(k.complex, k.complex, entries, SKEW, (0, 0)))
    for ic in (product(bad, torus_knot(3, 4), verify=False),
               product(torus_knot(3, 4), bad, verify=False)):
        assert "inhomogeneous" not in ic.iota.__dict__
        assert ic.iota.inhomogeneous
        with pytest.raises(InvariantError):
            a_zero_minus(ic, verify=False)
