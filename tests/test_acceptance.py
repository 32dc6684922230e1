"""Acceptance suite: the invariant table for torus-knot sums, exact
identities, homotopy existence/infeasibility, oracle cross-validation,
and non-equivalence.

Each criterion prints one pass/fail line with its runtime; the stated
budgets are asserted.
"""

import itertools
import time

import pytest

from conftest import CORPUS_TORUS
from iotak.complexes import (
    EQUIVARIANT,
    SKEW,
    Morphism,
    compose,
    differential_morphism,
    identity_morphism,
    homotopy_solve,
    tensor,
    tensor_morphism,
)
from iotak.invariants import (
    a_zero_minus,
    involutive_invariants,
    lemma_criteria_oracle,
    obstruction_pattern,
)
from iotak.iota import (
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
from iotak.models import mirror, torus_knot


def _report(name, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def triple_of(ic):
    return involutive_invariants(a_zero_minus(ic, verify=False)).triple()


@pytest.fixture(scope="module")
def staircases():
    return {pq: torus_knot(*pq) for pq in CORPUS_TORUS}


@pytest.fixture(scope="module")
def corpus(staircases):
    """Staircases, their duals, and all pairwise products (variant 1)."""
    complexes = list(staircases.values())
    complexes += [dual_iota(ic) for ic in staircases.values()]
    for a, b in itertools.combinations_with_replacement(staircases.values(), 2):
        complexes.append(product(a, b, verify=False))
    return complexes


def test_criterion_1_trefoil():
    start = time.time()
    ok = triple_of(torus_knot(2, 3)) == (1, 1, 1)
    _report("1 trefoil (1,1,1)", ok, time.time() - start, 1)


def test_criterion_2_trefoil_square():
    start = time.time()
    tr = torus_knot(2, 3)
    ok = triple_of(product(tr, tr, verify=False)) == (1, 1, 2)
    _report("2 T_r#T_r (1,1,2)", ok, time.time() - start, 1)


def test_criterion_3_table(staircases):
    start = time.time()
    t34, t45, t56, t67 = (staircases[pq] for pq in ((3, 4), (4, 5), (5, 6), (6, 7)))

    def chain(*parts):
        acc = parts[0]
        for part in parts[1:]:
            acc = product(acc, part, verify=False)
        return acc

    rows = [
        ("T(4,5)#T(4,5)", chain(t45, t45), (4, 4, 6)),
        ("T(4,5)#T(4,5)#T(5,6)", chain(t45, t45, t56), (7, 7, 9)),
        ("T(6,7)#T(6,7)", chain(t67, t67), (9, 9, 12)),
        ("T(4,5)#T(6,7)", chain(t45, t67), (7, 7, 9)),
        ("T(3,4)^-1#T(4,5)^-1#T(5,6)", chain(mirror(t34), mirror(t45), t56), (-1, 1, 1)),
    ]
    ok = True
    for name, ic, expect in rows:
        got = triple_of(ic)
        if got != expect:
            print(f"  table row {name}: got {got}, expected {expect}")
            ok = False
    _report("3 invariants table (5 rows)", ok, time.time() - start, 120)


def test_criterion_4_t56_remark(staircases):
    start = time.time()
    t56 = staircases[(5, 6)]
    ok = triple_of(product(t56, t56, verify=False)) == (6, 6, 6)
    _report("4 T(5,6)#T(5,6) (6,6,6)", ok, time.time() - start, 30)


def test_criterion_5_obstruction_patterns(staircases):
    start = time.time()
    t34, t45, t56, t67 = (staircases[pq] for pq in ((3, 4), (4, 5), (5, 6), (6, 7)))

    def chain(*parts):
        acc = parts[0]
        for part in parts[1:]:
            acc = product(acc, part, verify=False)
        return acc

    obstructed = [
        chain(t45, t45),
        chain(t45, t45, t56),
        chain(t67, t67),
        chain(t45, t67),
        chain(mirror(t34), mirror(t45), t56),
    ]
    tr = staircases[(2, 3)]
    consistent = [identity_complex(), tr, chain(tr, tr)]
    ok = True
    for ic in obstructed:
        verdict = obstruction_pattern(involutive_invariants(a_zero_minus(ic, verify=False)))
        if verdict.pattern1 or verdict.pattern2:
            ok = False
    for ic in consistent:
        verdict = obstruction_pattern(involutive_invariants(a_zero_minus(ic, verify=False)))
        if not verdict.consistent_with_thin_or_lspace:
            ok = False
    _report("5 obstruction patterns", ok, time.time() - start, 120)


def test_criterion_6_exact_identities(staircases, corpus):
    start = time.time()
    ok = True
    for ic in corpus:
        c = ic.complex
        d = differential_morphism(c)
        phi = build_phi(c)
        if not (compose(phi, d) + compose(d, phi)).is_zero():
            ok = False
        h = phi_squared_homotopy(c)
        if compose(phi, phi).entries != (compose(d, h) + compose(h, d)).entries:
            ok = False
        witnesses = inverse_witnesses(ic)
        if not dict(witnesses.checks)["trace o cotrace = id"]:
            ok = False
        if not witnesses.passed:
            ok = False
    for ic in list(staircases.values()) + [dual_iota(x) for x in staircases.values()]:
        sq = compose(ic.iota, ic.iota)
        if sq.entries != identity_morphism(ic.complex).entries:
            ok = False
        if not compose(build_phi(ic.complex), build_psi(ic.complex)).is_zero():
            ok = False
    _report("6 exact identities over corpus", ok, time.time() - start, 60)


def test_criterion_7_homotopy_suite(staircases):
    start = time.time()
    ok = True
    pairs = list(itertools.combinations_with_replacement(staircases.values(), 2))
    for a, b in pairs:
        for variant in (1, 2):
            p = product(a, b, variant=variant, verify=False)
            if not verify_iota_complex(p).passed:
                ok = False
    for a, b in [((2, 3), (2, 3)), ((3, 4), (4, 5)), ((6, 7), (6, 7))]:
        p = product(staircases[a], staircases[b], verify=False)
        i2 = compose(p.iota, p.iota)
        if homotopy_solve(compose(i2, i2), identity_morphism(p.complex)) is None:
            ok = False
    for ic in staircases.values():
        c = ic.complex
        fwd = compose(build_phi(c), build_psi(c))
        bwd = compose(build_psi(c), build_phi(c))
        if homotopy_solve(fwd, bwd) is None:
            ok = False
    # x1/x2 equivalence through F = id|id + Psi_1|Phi_2
    for a, b in [((2, 3), (3, 4)), ((4, 5), (5, 6))]:
        ic1, ic2 = staircases[a], staircases[b]
        p1 = product(ic1, ic2, variant=1, verify=False)
        p2 = product(ic1, ic2, variant=2, verify=False)
        f = identity_morphism(p1.complex) + tensor_morphism(
            build_psi(ic1.complex), build_phi(ic2.complex), p1.complex, p1.complex)
        f12 = Morphism(p1.complex, p2.complex, f.entries, EQUIVARIANT, (0, 0))
        lhs = compose(p2.iota, f12)
        rhs = compose(f12, p1.iota)
        if homotopy_solve(lhs, rhs) is None:
            ok = False
    # associativity difference on one triple product
    tr, t34 = staircases[(2, 3)], staircases[(3, 4)]
    left = product(product(tr, tr, verify=False), t34, verify=False)
    right = product(tr, product(tr, t34, verify=False), verify=False)
    rebased = Morphism(left.complex, left.complex, right.iota.entries, SKEW, (0, 0))
    if homotopy_solve(left.iota, rebased) is None:
        ok = False
    # intertwining relations of the trace/cotrace witnesses
    wit_cases = list(staircases.values()) + [product(tr, tr, verify=False)]
    for ic in wit_cases:
        rep = inverse_witnesses(ic)
        if not rep.passed:
            ok = False
    # infeasibility proof: Phi is not filtered-null-homotopic on the trefoil
    c = staircases[(2, 3)].complex
    if homotopy_solve(build_phi(c), Morphism(c, c, {}, EQUIVARIANT, (1, -1))) is not None:
        ok = False
    _report("7 homotopy existence suite", ok, time.time() - start, 120)


def test_criterion_8_oracle_cross_validation(corpus):
    start = time.time()
    ok = True
    for ic in corpus:
        t = a_zero_minus(ic, verify=False)
        rep = involutive_invariants(t)
        if lemma_criteria_oracle(t) != (rep.d_bar, rep.d_under):
            ok = False
        if not (rep.d_under <= rep.d <= rep.d_bar):
            ok = False
        if rep.d % 2:
            ok = False
    _report("8 oracle cross-validation", ok, time.time() - start, 120)


def test_criterion_9_non_equivalence():
    start = time.time()
    ok = search_local_equivalence(identity_complex(), torus_knot(2, 3)) is None
    _report("9 unknot vs trefoil non-equivalence", ok, time.time() - start, 10)
