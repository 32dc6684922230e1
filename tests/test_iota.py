import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import staircase_strategy
from iotak.complexes import (
    EQUIVARIANT,
    SKEW,
    Morphism,
    compose,
    differential_morphism,
    homology_class_map,
    identity_morphism,
    tensor,
    tensor_morphism,
    homotopy_solve,
    zero_morphism,
)
from iotak.iota import (
    CapExceededError,
    IotaComplex,
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
from iotak.models import mirror, staircase_complex, torus_knot, unknot_complex
from iotak.ring import ONE, ZERO, monomial


def test_build_phi_psi_trefoil(hand_trefoil):
    c = hand_trefoil.complex
    phi, psi = build_phi(c), build_psi(c)
    assert phi.entries == {1: {0: ONE}}
    assert psi.entries == {1: {2: ONE}}
    assert phi.bidegree == (1, -1) and psi.bidegree == (-1, 1)


def test_build_phi_unknot():
    ic = identity_complex()
    assert build_phi(ic).is_zero()
    assert build_psi(ic).is_zero()


def test_build_phi_tensor_leibniz(hand_trefoil):
    c = hand_trefoil.complex
    t = tensor(c, c)
    phi = build_phi(t)
    bb = 1 * 3 + 1
    assert phi.entries.get(bb) == {0 * 3 + 1: ONE, 1 * 3 + 0: ONE}  # a|b + b|a


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


def test_inverse_witnesses_identity():
    rep = inverse_witnesses(identity_complex())
    assert rep.passed
    assert rep.cotrace.entries == {0: {0: ONE}}
    assert rep.trace.entries == {0: {0: ONE}}


def test_inverse_witnesses_trefoil(hand_trefoil):
    rep = inverse_witnesses(hand_trefoil)
    assert rep.passed, rep.first_failure
    # cotrace sends 1 to the sum of x tensor x-dual: three diagonal entries
    assert rep.cotrace.entries == {0: {0: ONE, 4: ONE, 8: ONE}}


@given(st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=1, max_size=2))
@settings(max_examples=25, deadline=None)
def test_inverse_witnesses_match_slice_homology(parts):
    """The two "nonzero on homology" lines, derived from the chain-map
    and trace o cotrace = id checks, equal the slice homology maps."""
    ics = [mirror(staircase_complex(s)) if flip else staircase_complex(s) for s, flip in parts]
    ic = ics[0] if len(ics) == 1 else product(*ics, verify=False)
    rep = inverse_witnesses(ic)
    checks = dict(rep.checks)
    assert checks["cotrace nonzero on homology"] == homology_class_map(rep.cotrace)
    assert checks["trace nonzero on homology"] == homology_class_map(rep.trace)


def test_verify_local_equivalence_identity(hand_trefoil):
    f = identity_morphism(hand_trefoil.complex)
    rep = verify_local_equivalence(hand_trefoil, hand_trefoil, f, f)
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
    rep = verify_local_equivalence(p1, p2, f12, f21)
    assert rep.passed, rep.first_failure


def test_verify_local_equivalence_zero_fails(hand_trefoil):
    z = zero_morphism(hand_trefoil.complex, hand_trefoil.complex, EQUIVARIANT, (0, 0))
    rep = verify_local_equivalence(hand_trefoil, hand_trefoil, z, z)
    assert not rep.passed
    assert rep.first_failure == "f isomorphism on homology"


def test_search_finds_identity(hand_trefoil):
    found = search_local_equivalence(hand_trefoil, hand_trefoil)
    assert found is not None
    f, g = found
    assert verify_local_equivalence(hand_trefoil, hand_trefoil, f, g).passed


def test_search_unknot_vs_trefoil_negative(hand_trefoil):
    assert search_local_equivalence(unknot_complex(), hand_trefoil) is None


def test_search_product_variants(hand_trefoil):
    p1 = product(hand_trefoil, hand_trefoil, variant=1, verify=False)
    p2 = product(hand_trefoil, hand_trefoil, variant=2, verify=False)
    assert search_local_equivalence(p1, p2) is not None


def test_search_cap_exceeded(hand_trefoil):
    with pytest.raises(CapExceededError):
        search_local_equivalence(hand_trefoil, hand_trefoil, cap=0)


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
