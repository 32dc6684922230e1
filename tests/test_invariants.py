import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_TORUS,
    IntSubclass,
    T23_D_SQUARED_NONZERO,
    normal_form,
    palindromic_staircase,
    parts_strategy,
    staircase_strategy,
    staircase_sum,
    t23_with,
)
from iotak.invariants import (
    HomologyDecomp,
    InvariantError,
    InvariantReport,
    UTowerComplex,
    a_zero_minus,
    homology_snf,
    involutive_cone,
    involutive_invariants,
    lemma_criteria_oracle,
    obstruction_pattern,
    reduce_tower,
)
from iotak.iota import dual_iota, identity_complex, product
from iotak.models import mirror, staircase_complex, torus_knot
from iotak import gf2
from iotak.ring import ONE
from iotak.invariants import _d_bar_hits, _d_under_hits


def tower(ic):
    return a_zero_minus(ic, verify=False)


def test_a_zero_minus_unknot():
    t = tower(identity_complex())
    assert t.basis == (("e", 0),)
    assert t.diff == {}
    assert t.endo == {0: {0}}


def test_a_zero_minus_trefoil(hand_trefoil):
    t = tower(hand_trefoil)
    assert t.basis == (("a", -2), ("b", -1), ("c", -2))
    assert t.diff == {1: {0, 2}}
    assert t.endo == {0: {2}, 1: {1}, 2: {0}}


def test_a_zero_minus_trefoil_square(hand_trefoil):
    p = product(hand_trefoil, hand_trefoil, verify=False)
    t = tower(p)
    assert len(t) == 9
    gradings = sorted(g for _, g in t.basis)
    assert gradings == [-4, -4, -3, -3, -3, -3, -2, -2, -2]
    # the involution is reflection (9 entries) plus one correction arrow
    assert sum(len(r) for r in t.endo.values()) == 10
    refl = {i * 3 + j: 2 * 3 + 2 - (i * 3 + j) for i in range(3) for j in range(3)}
    extra = [
        (i, j) for i, row in t.endo.items() for j in row if refl[i] != j
    ]
    assert extra == [(1 * 3 + 1, 0 * 3 + 2)]


def test_a_zero_minus_validates_input(hand_trefoil):
    from iotak.complexes import FreeComplex, Morphism, SKEW, BasisElement
    from iotak.iota import IotaComplex
    from iotak.ring import ONE

    c = hand_trefoil.complex
    bad = IotaComplex(c, Morphism(c, c, {i: {i: ONE} for i in range(3)}, SKEW, (0, 0)))
    with pytest.raises(ValueError):
        a_zero_minus(bad)


def test_a_zero_minus_rejection_messages_pinned():
    """a_zero_minus(..., verify=True) checks axioms (1)-(5) only, so
    T(2,3) without iota passes; a failure names its first failing axiom
    and every offender line."""
    assert a_zero_minus(t23_with(iota={})).endo == {}
    ones = {i: {i: ONE} for i in range(3)}
    for ic, message in [
        (t23_with(diff=T23_D_SQUARED_NONZERO), "a_zero_minus input fails axiom (1): "
         "d^2 nonzero: x1 -> x1; d^2 nonzero: x0 -> x0; d^2 nonzero: x0 -> x2; "
         "iota is not a chain map"),
        (t23_with(diff={}), "a_zero_minus input fails axiom (4): slice homology dims (2, 1) != (1, 0)"),
        (t23_with(iota=ones), "a_zero_minus input fails axiom (5): "
         "iota is not skew-graded of bidegree (0, 0)"),
    ]:
        with pytest.raises(ValueError) as exc:
            a_zero_minus(ic)
        assert str(exc.value) == message


def test_a_zero_minus_rejects_two_term_entry(hand_trefoil):
    # iota(b) = (1 + UV) b would restrict to W^0 + W^1, which no grading allows
    from iotak.complexes import Morphism, SKEW
    from iotak.iota import IotaComplex
    from iotak.ring import LaurentPoly

    c = hand_trefoil.complex
    entries = dict(hand_trefoil.iota.entries)
    entries[1] = {1: LaurentPoly([(0, 0), (1, 1)])}
    bad = IotaComplex(c, Morphism(c, c, entries, SKEW, (0, 0)))
    with pytest.raises(InvariantError):
        a_zero_minus(bad, verify=False)


def test_snf_plain_cancellation():
    t = UTowerComplex([("a", 1), ("b", 0)], {0: {1}})
    assert homology_snf(t) == HomologyDecomp((), ())


def test_snf_single_torsion_tower():
    # gr(a) = gr(b) - 2*2 + 1 forces da = W^2 b
    t = UTowerComplex([("a", -3), ("b", 0)], {0: {1}})
    assert homology_snf(t) == HomologyDecomp((), ((0, 2),))


def test_snf_trefoil_tower(hand_trefoil):
    decomp = homology_snf(tower(hand_trefoil))
    assert decomp.free == (-2,)
    assert decomp.torsion == ()


def test_snf_rejects_inhomogeneous():
    with pytest.raises(InvariantError):
        UTowerComplex([("a", 0), ("b", 0)], {0: {1}})


def test_tower_rejects_forced_negative_or_odd_power():
    # d: 2k = gr(b) - gr(a) + 1 = -2; endo: 2k = gr(b) - gr(a) = 1
    with pytest.raises(InvariantError):
        UTowerComplex([("a", 0), ("b", -3)], {0: {1}})
    with pytest.raises(InvariantError):
        UTowerComplex([("a", 0), ("b", 1)], {}, endo={0: {1}})


@pytest.mark.parametrize("entry", [("a", 2.5), ("a", True), (7, "3")])
def test_tower_rejects_a_basis_entry_it_would_coerce(entry):
    """A float or bool grading and a non-str name are errors naming the
    entry, not a grading rounded to an int or a name passed to str."""
    with pytest.raises(InvariantError, match=re.escape(repr(entry))):
        UTowerComplex([entry], {})


@pytest.mark.parametrize("diff,endo,entry", [
    ({0: {-1}}, None, "0 -> -1"),
    ({0: {5}}, None, "0 -> 5"),
    ({7: {1}}, None, "7 -> 1"),
    ({}, {0: {-2}}, "0 -> -2"),
    ({}, {2: {0}}, "2 -> 0"),
], ids=["d target -1", "d target past the end", "d source past the end",
        "endo target -2", "endo source past the end"])
def test_tower_rejects_an_index_outside_its_basis(diff, endo, entry):
    """A negative index is not read from the end of the basis, and an
    index past it is an InvariantError naming the entry, not an
    IndexError."""
    with pytest.raises(InvariantError, match=f"tower entry {entry} indexes outside a basis of 2"):
        UTowerComplex([("a", 1), ("b", 0)], diff, endo)


@pytest.mark.parametrize("diff,endo,entry", [
    ({0: {1.0}}, None, "0 -> 1.0"),
    ({0: {True}}, None, "0 -> True"),
    ({False: {1}}, None, "False -> 1"),
    ({}, {0: {IntSubclass(1)}}, "0 -> 1"),
    ({}, {True: {0}}, "True -> 0"),
    ({}, {0: {0.0}}, "0 -> 0.0"),
], ids=["d target float", "d target bool", "d source bool",
        "endo target int subclass", "endo source bool", "endo target float"])
def test_tower_rejects_an_index_that_is_not_an_int(diff, endo, entry):
    """An index equal to an int in range is still an InvariantError naming
    the entry: not a bare TypeError, and not True read as 1."""
    with pytest.raises(InvariantError, match=f"tower entry {entry} has a non-int index"):
        UTowerComplex([("a", 1), ("b", 0)], diff, endo)


def test_tower_rejects_an_int_subclass_grading():
    with pytest.raises(InvariantError, match=re.escape("('a', 1) is not a (str, int) pair")):
        UTowerComplex([("a", IntSubclass(1))], {})


@pytest.mark.parametrize("build, message", [
    (lambda: UTowerComplex([("a", 0), ("b", -1), ("c", -2)], {0: {1}, 1: {2}}),
     "d^2 != 0 at generator a"),
    (lambda: involutive_invariants(UTowerComplex([("a", 0), ("b", -1)], {0: {1}}, {})),
     "tower homology has no free summand"),
    (lambda: lemma_criteria_oracle(UTowerComplex([], {}, {})), "oracle needs a nonempty complex"),
    (lambda: lemma_criteria_oracle(UTowerComplex([("a", 0), ("b", -1)], {0: {1}}, {})),
     "no d_under witness in the grading range"),
], ids=["d squared", "acyclic tower", "empty oracle", "acyclic oracle"])
def test_invariants_rejections_are_pinned(build, message):
    """da = b, db = c has d^2 a = c; the tower with da = b has no homology,
    so the oracle finds no d_under witness for it."""
    with pytest.raises(InvariantError) as exc:
        build()
    assert str(exc.value) == message


def test_snf_mixed_exponents():
    # da = b + c, dd = W(b + c): homology is free on [b] and [d + Wa]
    t = UTowerComplex(
        [("a", 0), ("b", -1), ("c", -1), ("d", -2)],
        {0: {1, 2}, 3: {1, 2}},
    )
    decomp = homology_snf(t)
    assert decomp == HomologyDecomp((-2, -1), ())


def test_snf_basis_permutation_invariant():
    rng = random.Random(11)
    base = tower(product(torus_knot(2, 3), torus_knot(3, 4), verify=False))
    expected = homology_snf(base)
    n = len(base)
    for _ in range(5):
        perm = list(range(n))
        rng.shuffle(perm)
        inv = [0] * n
        for new, old in enumerate(perm):
            inv[old] = new
        basis = [base.basis[old] for old in perm]
        diff = {inv[i]: {inv[j] for j in row} for i, row in base.diff.items()}
        endo = {inv[i]: {inv[j] for j in row} for i, row in base.endo.items()}
        assert homology_snf(UTowerComplex(basis, diff, endo)) == expected


def snf_by_full_scan(t):
    """Reference SNF: the same cancellation, each pivot the least
    (k, source, target) found by scanning every entry, with each k
    read from the gradings."""
    cols = {i: {j: (t.gradings[j] - t.gradings[i] + 1) // 2 for j in row}
            for i, row in t.diff.items()}
    rows = {}
    for i, row in cols.items():
        for j, k in row.items():
            rows.setdefault(j, {})[i] = k
    alive = set(range(len(t)))
    torsion = []

    def drop(i, j):
        del cols[i][j]
        if not cols[i]:
            del cols[i]
        del rows[j][i]
        if not rows[j]:
            del rows[j]

    while cols:
        k, x, y = min((k, i, j) for i, row in cols.items() for j, k in row.items())
        if k > 0:
            torsion.append((t.gradings[y], k))
        sources = [(w, kw) for w, kw in rows[y].items() if w != x]
        targets = [(z, kz) for z, kz in cols[x].items() if z != y]
        for w, kw in sources:
            for z, kz in targets:
                if z in cols.get(w, {}):
                    drop(w, z)
                else:
                    cols.setdefault(w, {})[z] = rows.setdefault(z, {})[w] = kw - k + kz
        for w in list(rows.get(y, {})):
            drop(w, y)
        for z in list(cols.get(x, {})):
            drop(x, z)
        for z in list(cols.get(y, {})):
            drop(y, z)
        for w in list(rows.get(x, {})):
            drop(w, x)
        alive -= {x, y}
    return HomologyDecomp(tuple(sorted(t.gradings[i] for i in alive)), tuple(sorted(torsion)))


# sums of 1-3 random staircases, each mirrored or not
staircase_sums = st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=1, max_size=3)


def sum_tower(parts):
    ics = [mirror(staircase_complex(s)) if flip else staircase_complex(s) for s, flip in parts]
    ic = ics[0]
    for other in ics[1:]:
        ic = product(ic, other, verify=False)
    return tower(ic)


@given(staircase_sums)
@settings(max_examples=30, deadline=None)
def test_snf_matches_full_scan(parts):
    """Sums with mirrored parts have W^k pivots with k > 0, which the
    column reduction must pair as the full-scan cancellation does."""
    t = sum_tower(parts)
    for cx in (t, involutive_cone(t)):
        assert homology_snf(cx) == snf_by_full_scan(cx)


# a summand: ("free", g), or ("pair", g, k) for x -> W^k y with gr(y) = g
summands = st.one_of(
    st.tuples(st.just("free"), st.integers(-6, 6)),
    st.tuples(st.just("pair"), st.integers(-6, 6), st.integers(0, 3)),
)


@given(st.lists(summands, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_snf_recovers_a_conjugated_direct_sum(parts, rng):
    """A direct sum of free generators and pairs x -> W^k y, written in a
    random basis x_i + sum W^m x_j (g_j >= g_i, same parity), has the
    known decomposition."""
    gradings, diff = [], {}
    for part in parts:
        if part[0] == "pair":
            _, gy, k = part
            diff[len(gradings)] = {len(gradings) + 1}
            gradings += [gy - 2 * k + 1, gy]
        else:
            gradings.append(part[1])
    n = len(gradings)
    perm = rng.sample(range(n), n)
    g = [gradings[i] for i in perm]
    d = [sum(1 << perm.index(j) for j in diff.get(i, ())) for i in perm]
    # new basis vector i is row i of P = 1 + N, N[i][j] != 0 only for j before i
    order = sorted(range(n), key=lambda i: (-g[i], i))
    p_rows, q_rows = [0] * n, [0] * n
    for a, i in enumerate(order):
        earlier = [j for j in order[:a] if (g[j] - g[i]) % 2 == 0 and rng.random() < 0.3]
        p_rows[i] = (1 << i) | sum(1 << j for j in earlier)
        q_rows[i] = 1 << i  # Q = P^-1 = 1 + N Q
        for j in earlier:
            q_rows[i] ^= q_rows[j]
    new_diff = {}
    for i in range(n):
        image = gf2.apply_rows(d, p_rows[i])
        row = gf2.apply_rows(q_rows, image)
        new_diff[i] = {j for j in range(n) if row >> j & 1}
    t = UTowerComplex([(f"x{i}", g[i]) for i in range(n)], new_diff)
    free = sorted(part[1] for part in parts if part[0] == "free")
    torsion = sorted(part[1:] for part in parts if part[0] == "pair" and part[2] > 0)
    assert homology_snf(t) == HomologyDecomp(tuple(free), tuple(torsion))


def slice_dim(decomp, r):
    """F2 dimension of the homology in grading r, from the decomposition."""
    n = sum(1 for g in decomp.free if g >= r and (g - r) % 2 == 0)
    n += sum(1 for (g, k) in decomp.torsion if g >= r > g - 2 * k and (g - r) % 2 == 0)
    return n


def slice_dims_direct(t, r):
    slices = t
    n = len(slices.members(r))
    return n - gf2.rank(slices.diff_rows(r)) - gf2.rank(slices.diff_rows(r + 1))


def test_snf_matches_slice_ranks():
    for ic in [torus_knot(2, 3), product(torus_knot(3, 4), torus_knot(4, 5), verify=False)]:
        t = tower(ic)
        decomp = homology_snf(t)
        gradings = [g for _, g in t.basis]
        for r in range(min(gradings) - 3, max(gradings) + 1):
            assert slice_dim(decomp, r) == slice_dims_direct(t, r)


def test_cone_unknot():
    cone = involutive_cone(tower(identity_complex()))
    assert cone.basis == (("e.dom", 1), ("e.q", 0))
    assert cone.diff == {}


def test_cone_trefoil(hand_trefoil):
    t = tower(hand_trefoil)
    cone = involutive_cone(t)
    assert len(cone) == 6
    # db.dom = a.dom + c.dom since (1 + iota) kills b; da.dom = (a + c).q
    assert cone.diff[1] == {0, 2}
    assert cone.diff[0] == {3, 5}
    assert cone.diff[2] == {3, 5}
    assert cone.diff[4] == {3, 5}


def test_cone_rank_doubles_and_is_complex():
    t = tower(product(torus_knot(3, 4), torus_knot(3, 4), verify=False))
    cone = involutive_cone(t)
    assert len(cone) == 2 * len(t)  # construction validates d^2 = 0


def check_reduction(t):
    """reduce_tower is a homotopy equivalence that conjugates iota: the
    homology, the cone's homology, the triple and the oracle's pair are
    unchanged, and the result is minimal, with no W^0 entry in d."""
    r = reduce_tower(t)
    decomp = homology_snf(t)
    assert homology_snf(r) == decomp
    assert homology_snf(involutive_cone(r)) == homology_snf(involutive_cone(t))
    rep = involutive_invariants(t)
    assert involutive_invariants(r) == rep
    assert lemma_criteria_oracle(r) == lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)
    assert all(r.gradings[j] != r.gradings[i] - 1 for i, row in r.diff.items() for j in row)
    assert len(r) == len(decomp.free) + 2 * len(decomp.torsion)


@given(parts_strategy, st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_reduction_keeps_homology_and_invariants(parts, variant):
    check_reduction(tower(staircase_sum(parts, variant)))


@given(st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=3, max_size=3),
       st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_staircase_sum_of_three_parts_folds_left(parts, variant):
    """staircase_sum on three parts is product(product(a, b), c), and the
    cone's (d_bar, d_under) is the oracle's on its tower."""
    a, b, c = (staircase_sum([part]) for part in parts)
    want = product(product(a, b, variant=variant, verify=False), c, variant=variant, verify=False)
    got = staircase_sum(parts, variant)
    assert got.complex.basis == want.complex.basis
    assert got.complex.diff == want.complex.diff
    assert got.iota.entries == want.iota.entries
    t = tower(got)
    rep = involutive_invariants(t)
    assert lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)


@pytest.mark.parametrize("p", range(2, 8))
@pytest.mark.parametrize("flips", [(True,) * 3, (True, False, False)], ids=["mirrored", "mixed"])
def test_reduction_keeps_invariants_of_torus_sums(p, flips):
    """(T(p,p+1)^-1)^#3 and T(p,p+1)^-1 # T(p,p+1)^#2, up to 2 197 generators."""
    k = torus_knot(p, p + 1)
    a, b, c = (mirror(k) if flip else k for flip in flips)
    check_reduction(tower(product(product(a, b, verify=False), c, verify=False)))


def test_reduction_of_the_trefoil(hand_trefoil):
    """In the tower db = a + c, all W^0. Cancelling b -> a (a and c tie on
    incoming entries, and a comes first) sends a to d(b) - a = c, so
    iota's c -> a becomes c -> c. T(2,3) # T(2,3) keeps one free summand
    and one W-torsion pair."""
    r = reduce_tower(tower(hand_trefoil))
    assert (r.basis, r.diff, r.endo) == ((("c", -2),), {}, {0: {0}})
    r = reduce_tower(tower(product(hand_trefoil, hand_trefoil, verify=False)))
    assert len(r) == 3
    assert homology_snf(r) == HomologyDecomp((-2,), ((-2, 1),))


def test_invariants_unknot():
    rep = involutive_invariants(tower(identity_complex()))
    assert (rep.d, rep.d_bar, rep.d_under) == (0, 0, 0)
    assert rep.triple() == (0, 0, 0)


def test_invariants_trefoil(hand_trefoil):
    rep = involutive_invariants(tower(hand_trefoil))
    assert rep.triple() == (1, 1, 1)


def test_invariants_trefoil_square(hand_trefoil):
    rep = involutive_invariants(tower(product(hand_trefoil, hand_trefoil, verify=False)))
    assert rep.triple() == (1, 1, 2)
    assert rep.d_under == -4


def test_invariant_report_validation():
    with pytest.raises(InvariantError):
        InvariantReport(1, 1, 1)
    with pytest.raises(InvariantError):
        InvariantReport(0, 2, 1)


def test_oracle_examples(hand_trefoil):
    assert lemma_criteria_oracle(tower(identity_complex())) == (0, 0)
    assert lemma_criteria_oracle(tower(hand_trefoil)) == (-2, -2)
    p = product(hand_trefoil, hand_trefoil, verify=False)
    assert lemma_criteria_oracle(tower(p)) == (-2, -4)


def test_oracle_agrees_with_cone_on_mirrors():
    for p, q in [(2, 3), (3, 4), (4, 5)]:
        t = tower(mirror(torus_knot(p, q)))
        rep = involutive_invariants(t)
        assert lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)


def test_oracle_agrees_on_mixed_mirror_products():
    paired = [(2, 3), (3, 4), (4, 5)]
    parts = [torus_knot(p, q) for p, q in paired]
    parts += [mirror(torus_knot(p, q)) for p, q in paired]
    for a in parts:
        for b in parts:
            t = tower(product(a, b, verify=False))
            rep = involutive_invariants(t)
            assert lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)
            assert rep.d_under <= rep.d <= rep.d_bar


def test_variant_independence():
    pairs = [((2, 3), (3, 4)), ((3, 4), (4, 5)), ((2, 5), (5, 6))]
    for (p1, q1), (p2, q2) in pairs:
        a, b = torus_knot(p1, q1), torus_knot(p2, q2)
        r1 = involutive_invariants(tower(product(a, b, variant=1, verify=False)))
        r2 = involutive_invariants(tower(product(a, b, variant=2, verify=False)))
        assert r1 == r2


def test_unit_summand_leaves_report_unchanged():
    for p, q in [(2, 3), (3, 4)]:
        ic = torus_knot(p, q)
        base = involutive_invariants(tower(ic))
        summed = involutive_invariants(tower(product(ic, identity_complex(), verify=False)))
        assert base == summed


def triple(ic):
    return involutive_invariants(tower(ic)).triple()


@given(parts_strategy)
@settings(max_examples=25, deadline=None)
def test_sum_with_dual_has_unknot_invariants(parts):
    """K # K^dual is locally equivalent to the unknot, so its triple
    (V0_bar, V0, V0_under) is (0, 0, 0)."""
    k = staircase_sum(parts)
    assert triple(product(k, dual_iota(k), verify=False)) == (0, 0, 0)


def test_observed_v0_bar_not_superadditive():
    """V0_bar(K1#K2) >= V0_bar(K1) + V0_bar(K2) fails on T(2,3)#T(2,3)."""
    t23 = torus_knot(2, 3)
    assert triple(t23)[0] == 1
    assert triple(product(t23, t23, verify=False))[0] == 1


def test_observed_v0_under_below_v0_under_plus_v0_bar():
    """V0_under(K1#K2) >= V0_under(K1) + V0_bar(K2) fails on
    T(3,4)^-1#T(2,3): 0 < 0 + 1."""
    k1, k2 = mirror(torus_knot(3, 4)), torus_knot(2, 3)
    assert (triple(k1)[2], triple(k2)[0]) == (0, 1)
    assert triple(product(k1, k2, verify=False))[2] == 0


@given(parts_strategy, parts_strategy)
@settings(max_examples=40, deadline=None)
def test_observed_connected_sum_inequalities(parts1, parts2):
    """Bounds on the triple (V0_bar, V0, V0_under) of K1 # K2 by the
    triples of K1 and K2. The source paper states none of them; they
    are observed on sums of staircases."""
    k1, k2 = staircase_sum(parts1), staircase_sum(parts2)
    (bar1, v1, under1), (bar2, v2, under2) = triple(k1), triple(k2)
    bar, v, under = triple(product(k1, k2, verify=False))
    assert bar <= bar1 + under2 and bar <= bar2 + under1
    assert under <= under1 + under2
    assert under >= bar1 + bar2
    assert v <= v1 + v2


def _v_s(stairs, s):
    """V_s of the L-space knot with steps (a_1..a_k, b_1..b_k):
    max(0, min over m of max(a_1 + ... + a_m, b_{m+1} + ... + b_k - s))."""
    a, b = stairs.u_steps, stairs.v_steps
    return max(0, min(max(sum(a[:m]), sum(b[m:]) - s) for m in range(len(a) + 1)))


@given(st.lists(staircase_strategy, min_size=1, max_size=3), st.sampled_from([1, 2]))
@settings(max_examples=30, deadline=None)
def test_observed_v0_of_a_staircase_sum_is_the_min_plus_convolution(parts, variant):
    """For a connected sum of L-space knots, V_s is the min-plus
    convolution of the factors' V_s (Borodzik-Livingston), so V0 is the
    least sum of V_{s_i} over s_1 + ... + s_n = 0. V_s comes from the
    step data alone; V_s is 0 for s >= g and -s for s <= -g, so each
    s_i but the last ranges over [-G, G], G the sum of the genera."""
    ic = staircase_complex(parts[0])
    for part in parts[1:]:
        ic = product(ic, staircase_complex(part), variant=variant, verify=False)
    g = sum(sum(p.u_steps) for p in parts)
    v0 = min(sum(_v_s(p, s) for p, s in zip(parts, head + (-sum(head),)))
             for head in itertools.product(range(-g, g + 1), repeat=len(parts) - 1))
    assert triple(ic)[1] == v0


def test_obstruction_patterns():
    def report(vb, v0, vu):
        return InvariantReport(-2 * v0, -2 * vb, -2 * vu)

    r = obstruction_pattern(report(1, 1, 2))
    assert r.pattern1 and not r.pattern2
    r = obstruction_pattern(report(4, 4, 6))
    assert not r.pattern1 and not r.pattern2
    assert not r.consistent_with_thin_or_lspace
    r = obstruction_pattern(report(0, 0, 0))
    assert r.pattern1 and r.pattern2
    r = obstruction_pattern(report(-1, 0, 0))
    assert r.pattern2


@given(staircase_sums)
@settings(max_examples=25, deadline=None)
def test_oracle_matches_cone(parts):
    t = sum_tower(parts)
    rep = involutive_invariants(t)
    assert lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)


def d_bar_every_m(slices):
    """The reference d_bar loop: at each grading c from the top down, try
    every m from 0 to n_power + 1 in turn. Returns d_bar and, for each c
    tried, the first m that hits or None."""
    firsts = {}
    for c in range(slices.max_gr + 1, slices.min_gr - 1, -1):
        hit = (m for m in range(slices.n_power + 2) if _d_bar_hits(slices, c, m))
        firsts[c] = next(hit, None)
        if firsts[c] is not None:
            if firsts[c] > slices.n_power:
                raise InvariantError("m bound too small")
            return c, firsts
    raise InvariantError("no d_bar witness in the grading range")


@given(staircase_sums)
@settings(max_examples=15, deadline=None)
def test_oracle_d_bar_matches_every_m(parts):
    """The oracle's two tests per grading, at n_power and n_power + 1,
    give the every-m loop's d_bar because the criteria are monotone in m."""
    t = sum_tower(parts)
    slices = t
    n = slices.n_power
    d_bar, firsts = d_bar_every_m(slices)
    assert lemma_criteria_oracle(t)[0] == d_bar
    for c, first in firsts.items():
        hits = [_d_bar_hits(slices, c, m) for m in range(n + 2)]
        assert all(hits[m + 1] for m in range(n + 1) if hits[m])
        assert (first is not None and first <= n) == hits[n]


@pytest.mark.parametrize("parts", [
    [(6, 7, True)] * 3,
    [(6, 7, True), (6, 7, False), (6, 7, False)],
    [(7, 8, False)] * 3,
], ids=["(T(6,7)^-1)^#3", "T(6,7)^-1 # T(6,7)^#2", "T(7,8)^#3"])
def test_oracle_matches_cone_on_large_sums(parts):
    """Sums of 1 331-2 197 generators, above the sizes the benchmark
    checks with the oracle."""
    ics = [mirror(torus_knot(p, q)) if flip else torus_knot(p, q) for p, q, flip in parts]
    t = tower(product(product(ics[0], ics[1], verify=False), ics[2], verify=False))
    rep = involutive_invariants(t)
    assert lemma_criteria_oracle(t) == (rep.d_bar, rep.d_under)


# References: the normal-form table and null-space forms of the oracle's
# nontorsion tests and criteria, which the cocycle forms must reproduce.

def reference_spans_nontorsion(slices, r, vectors):
    """Row i of the table: the normal form of W^n_power e_i modulo the
    boundaries of slice r - 2 n_power, linear and zero on boundaries."""
    if not vectors:
        return False
    low = gf2.RowBasis(slices.diff_rows(r - 2 * slices.n_power + 1))
    table = [normal_form(low, e) for e in slices.power_rows(r, slices.n_power)]
    return any(gf2.apply_rows(table, v) for v in vectors)


def reference_d_under_hits(slices, r):
    """Enumerate the combinations of cycles whose (1 + iota)-image is a
    boundary, then test their span for a nontorsion class."""
    cycles = slices.cycle_basis(r)
    if not cycles:
        return False
    bnd = gf2.RowBasis(slices.diff_rows(r + 1))
    one_plus = slices.one_plus_iota_rows(r)
    residues = [normal_form(bnd, gf2.apply_rows(one_plus, z)) for z in cycles]
    combos = gf2.nullspace(gf2.transpose(residues, len(slices.members(r))), len(cycles))
    return reference_spans_nontorsion(slices, r, [gf2.apply_rows(cycles, c) for c in combos])


def reference_d_bar_hits(slices, c, m):
    """Criterion (a) from a null-space basis of its solutions, each
    existence test on its own; criterion (b) from the cycle images."""
    r = c - 1
    xs = slices.members(r)
    if xs:
        ys, zs = slices.members(r + 1), slices.members(r - 2 * m + 1)
        nx, ny, nz = len(xs), len(ys), len(zs)
        zero = [0]
        images1 = slices.one_plus_iota_rows(r) + slices.diff_rows(r + 1) + zero * nz
        eqs = gf2.transpose(images1, nx)
        images2 = slices.power_rows(r, m) + zero * ny + slices.diff_rows(r - 2 * m + 1)
        eqs += gf2.transpose(images2, len(slices.members(r - 2 * m)))
        sols = gf2.nullspace(eqs, nx + ny + nz)
        if any(v & ((1 << nx) - 1) for v in sols):
            l_rows = (zero * nx + slices.power_rows(r + 1, m)
                      + slices.one_plus_iota_rows(r - 2 * m + 1))
            images = [gf2.apply_rows(l_rows, v) for v in sols]
            if reference_spans_nontorsion(slices, r + 1 - 2 * m, images):
                return True
    y_cycles = slices.cycle_basis(c)
    if not y_cycles:
        return False
    images = [gf2.apply_rows(slices.power_rows(c, m), y) for y in y_cycles]
    images += [gf2.apply_rows(slices.one_plus_iota_rows(c - 2 * m), z)
               for z in slices.cycle_basis(c - 2 * m)]
    return reference_spans_nontorsion(slices, c - 2 * m, images)


def reference_oracle(t):
    """lemma_criteria_oracle's scan over the reference criteria."""
    slices = t
    max_gr, min_gr, n = slices.max_gr, slices.min_gr, slices.n_power
    d_under = next((r for r in range(max_gr, min_gr - 2 * n - 1, -1)
                    if reference_d_under_hits(slices, r)), None)
    if d_under is None:
        raise InvariantError("no d_under witness in the grading range")
    for c in range(max_gr + 1, min_gr - 1, -1):
        if reference_d_bar_hits(slices, c, n):
            return (c, d_under)
        if reference_d_bar_hits(slices, c, n + 1):
            raise InvariantError(f"m bound {n} too small: raising it changes d_bar")
    raise InvariantError("no d_bar witness in the grading range")


def outcome(oracle, t):
    try:
        return oracle(t)
    except InvariantError as exc:
        return str(exc)


@given(staircase_sums)
@settings(max_examples=20, deadline=None)
def test_oracle_criteria_match_references(parts):
    """At every grading the oracle scans, the cocycle forms of the d_under
    test and of both d_bar tests (m = n_power, n_power + 1) decide as
    the references do, and so does spans_nontorsion on each cycle."""
    t = sum_tower(parts)
    slices = t
    n = slices.n_power
    for r in range(slices.max_gr, slices.min_gr - 2 * n - 1, -1):
        assert _d_under_hits(slices, r) == reference_d_under_hits(slices, r), r
        for z in slices.cycle_basis(r):
            assert slices.spans_nontorsion(r, [z]) == reference_spans_nontorsion(slices, r, [z])
    for c in range(slices.max_gr + 1, slices.min_gr - 1, -1):
        for m in (n, n + 1):
            assert _d_bar_hits(slices, c, m) == reference_d_bar_hits(slices, c, m), (c, m)


@given(staircase_sums)
@settings(max_examples=20, deadline=None)
def test_cocycles_are_dual_to_homology(parts):
    """Each slice's cocycles vanish on its boundaries, pair with the
    homology representatives as the identity, and number as many as the
    slice homology's dimension from the Smith normal form."""
    t = sum_tower(parts)
    slices = t
    decomp = homology_snf(t)
    for r in range(slices.max_gr + 1, slices.min_gr - 2 * slices.n_power - 3, -1):
        phis = slices.cocycles(r)
        assert len(phis) == slice_dim(decomp, r)
        span = gf2.RowBasis(slices.diff_rows(r + 1))
        assert all((phi & b).bit_count() % 2 == 0 for phi in phis for b in slices.diff_rows(r + 1))
        reps = [z for z in slices.cycle_basis(r) if span.add(z)]
        assert [[(phi & g).bit_count() % 2 for g in reps] for phi in phis] == [
            [int(a == b) for b in range(len(reps))] for a in range(len(phis))]


@given(parts_strategy, st.sampled_from([1, 2]))
@settings(max_examples=20, deadline=None)
def test_stable_slices_are_the_slice_homology(parts, variant):
    """Inverting W turns the tower's slices below min_gr - 2 into the
    slice homology's parity slices, in the same generator order: the
    stable cocycles count its dims, the even one is its functional, and
    the even slice's first class is its generator, bit for bit."""
    ic = staircase_sum(parts, variant)
    s = a_zero_minus(ic, verify=False)
    even = s.min_gr - 4 - s.min_gr % 2
    odd = even - 1
    hom = ic.complex.slice_homology
    assert hom.dims == (len(s.cocycles(even)), len(s.cocycles(odd)))
    assert [hom.functional] == s.cocycles(even)
    span = gf2.RowBasis(s.diff_rows(even + 1))
    assert hom.generator == next(z for z in s.cycle_basis(even) if not span.contains(z))


def test_stable_cocycles_of_an_iota_complex():
    """The homology of an iota-complex is one free tower, so the stable
    slices carry one cocycle in d's parity and none in the other, and
    the other parity has no nontorsion tests at all."""
    t = sum_tower([(palindromic_staircase([1, 2]), False), (palindromic_staircase([2]), True)])
    slices = t
    d = involutive_invariants(t).d
    low = slices.min_gr - 2
    assert {r % 2: len(slices.cocycles(r)) for r in (low, low + 1)} == {d % 2: 1, (d + 1) % 2: 0}
    for r in range(slices.max_gr, low - 1, -1):
        assert (len(slices.nontorsion_tests(r)) == 1) == ((r - d) % 2 == 0)
        if (r - d) % 2:
            assert not _d_under_hits(slices, r)


@pytest.mark.parametrize("t, stable_dims", [
    # free a, b at 0 and 2 with iota(a) = a + W b, and a W^2 torsion tower
    (UTowerComplex([("a", 0), ("b", 2), ("p", -1), ("q", 2)], {2: {3}},
                   endo={0: {0, 1}, 1: {1}, 2: {2}, 3: {3}}), {0: 2, 1: 0}),
    # the same with the free towers' gradings exchanged
    (UTowerComplex([("a", 2), ("b", 0)], {}, endo={0: {0}, 1: {0, 1}}), {0: 2, 1: 0}),
    # free a, b at 0 swapped by iota
    (UTowerComplex([("a", 0), ("b", 0)], {}, endo={0: {1}, 1: {0}}), {0: 2, 1: 0}),
    # a fixed free e at 0 over a swapped pair at -1: (1 + iota)a is
    # nontorsion, so criterion (a) must insist on x != 0
    (UTowerComplex([("e", 0), ("a", -1), ("b", -1)], {}, endo={0: {0}, 1: {2}, 2: {1}}),
     {0: 1, 1: 2}),
], ids=["free at 0 and 2", "free at 2 and 0", "swapped pair", "swapped pair below e"])
def test_oracle_with_several_stable_cocycles(t, stable_dims):
    """Towers whose homology has two free summands of one parity, so
    stable slices carry two cocycles: the oracle's answer (or its error)
    equals the reference's."""
    slices = t
    low = slices.min_gr - 2
    assert {r % 2: len(slices.cocycles(r)) for r in (low, low + 1)} == stable_dims
    assert outcome(lemma_criteria_oracle, t) == outcome(reference_oracle, t)


def test_oracle_raises_when_the_m_bound_matters(monkeypatch, hand_trefoil):
    """A criterion that first holds at m = n_power + 1 is an error, not
    an answer."""
    import iotak.invariants as inv

    monkeypatch.setattr(inv, "_d_bar_hits", lambda slices, c, m: m > slices.n_power)
    with pytest.raises(InvariantError, match="m bound 1 too small"):
        lemma_criteria_oracle(tower(hand_trefoil))


def test_oracle_d_under_combinations_modulo_boundaries():
    """A combination of cycles whose (1 + iota)-images sum to a boundary
    must count even when their reduce residues do not cancel."""
    parts = [(palindromic_staircase([3, 3]), False), (palindromic_staircase([3]), False),
             (palindromic_staircase([2, 2]), True)]
    t = sum_tower(parts)
    rep = involutive_invariants(t)
    assert (rep.d_bar, rep.d_under) == (-8, -8)
    assert lemma_criteria_oracle(t) == (-8, -8)


def test_oracle_witness_below_generator_gradings():
    # (1 + iota)v is a nonzero torsion class, so the top d_under witness
    # is W v at grading -2, below every generator grading
    t = UTowerComplex(
        [("v", 0), ("tsrc", -1), ("ttgt", 0)],
        {1: {2}},
        endo={0: {0, 2}, 1: {1}, 2: {2}},
    )
    rep = involutive_invariants(t)
    assert (rep.d, rep.d_bar, rep.d_under) == (0, 0, -2)
    assert lemma_criteria_oracle(t) == (0, -2)


def test_oracle_rejects_missing_endo():
    t = UTowerComplex([("a", 0)], {})
    with pytest.raises(InvariantError):
        lemma_criteria_oracle(t)
    with pytest.raises(InvariantError):
        involutive_cone(t)
