import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import IntSubclass
from iotak.ring import ONE, ZERO, LaurentPoly, monomial

U, V, UHAT = monomial(1, 0), monomial(0, 1), monomial(1, 1)

exponents = st.integers(min_value=-8, max_value=8)
monomials = st.tuples(exponents, exponents)
polys = st.lists(monomials, max_size=6).map(LaurentPoly)


def test_char_two_addition():
    p = U + V
    assert p + p == ZERO
    assert p + ZERO == p


def test_disjoint_terms_stay():
    assert monomial(2, 1) + monomial(1, 2) == LaurentPoly([(2, 1), (1, 2)])


def test_frobenius_square():
    assert (U + V) * (U + V) == monomial(2, 0) + monomial(0, 2)


def test_laurent_unit():
    assert U * monomial(-1, 0) == ONE
    assert UHAT * monomial(-1, -1) == ONE


def test_multiplicative_identity():
    p = LaurentPoly([(3, -2), (0, 1)])
    assert ONE * p == p


def test_swap_examples():
    assert monomial(2, 1).swap_uv() == monomial(1, 2)
    assert UHAT.swap_uv() == UHAT


def test_canonical_order_and_repr():
    p = LaurentPoly([(1, 0), (0, 1), (1, 0)])
    assert p.terms == ((0, 1),)
    assert repr(ZERO) == "0"
    assert repr(ONE) == "1"
    assert repr(monomial(2, 1)) == "U^2V"


@given(polys, polys)
def test_swap_is_ring_automorphism(p, q):
    assert (p + q).swap_uv() == p.swap_uv() + q.swap_uv()
    assert (p * q).swap_uv() == p.swap_uv() * q.swap_uv()
    assert p.swap_uv().swap_uv() == p


@given(polys, polys, polys)
def test_multiplication_associative_commutative(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@given(polys, polys, polys)
def test_addition_vector_space(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p + p == ZERO


# ---------------------------------------------------------------------------
# the fast paths against a set-based reference

nonzero_monomials = st.builds(monomial, exponents, exponents)
multi_term = st.lists(monomials, min_size=2, max_size=6).map(LaurentPoly)
any_polys = st.one_of(st.just(ZERO), nonzero_monomials, multi_term, polys)


def ref_poly(terms):
    """The canonical tuple of a monomial multiset, reduced mod 2."""
    odd = set()
    for t in terms:
        odd ^= {t}
    return tuple(sorted(odd))


def ref_add(p, q):
    return ref_poly(list(p.terms) + list(q.terms))


def ref_mul(p, q):
    return ref_poly([(i + k, j + l) for (i, j) in p.terms for (k, l) in q.terms])


def ref_swap(p):
    return ref_poly([(j, i) for (i, j) in p.terms])


def assert_canonical(p):
    assert type(p) is LaurentPoly
    assert type(p.terms) is tuple
    assert all(type(t) is tuple and len(t) == 2 and all(type(e) is int for e in t)
               for t in p.terms)
    assert list(p.terms) == sorted(set(p.terms))


@given(any_polys, any_polys)
def test_operations_match_set_reference(p, q):
    # the inputs too, monomial() among them, are as the checking constructor makes them
    for x in (p, q):
        assert_canonical(x)
        assert LaurentPoly(x.terms) == x
    before = (p.terms, q.terms)
    results = {
        "add": (p + q, ref_add(p, q)),
        "mul": (p * q, ref_mul(p, q)),
        "swap": (p.swap_uv(), ref_swap(p)),
    }
    for name, (got, want) in results.items():
        assert_canonical(got)
        assert got.terms == want, name
        assert bool(got) == bool(want), name
    assert (p.terms, q.terms) == before


@given(any_polys)
def test_sums_with_zero_leave_operands_alone(p):
    terms = p.terms
    for s in (ZERO + p, p + ZERO, p + p):
        assert_canonical(s)
    assert ZERO + p == p == p + ZERO
    assert p.terms is terms and ZERO.terms == ()



NOT_INTS = pytest.mark.parametrize("bad", [1.7, True, IntSubclass(2)],
                                   ids=["float", "bool", "int subclass"])


@NOT_INTS
def test_monomial_rejects_an_exponent_that_is_not_an_int(bad):
    """Only type int is an int: monomial(1.7, 0) is an error, not U."""
    for args in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError, match=re.escape(f"exponents must be ints, got {bad!r}")):
            monomial(*args)


@NOT_INTS
def test_laurent_poly_rejects_an_exponent_that_is_not_an_int(bad):
    """LaurentPoly([(True, 2.9)]) is an error, not U V^2."""
    for terms in ([(bad, 2)], [(0, 0), (1, bad)]):
        with pytest.raises(ValueError, match=re.escape(f"exponents must be ints, got {bad!r}")):
            LaurentPoly(terms)
