import re
from math import gcd

import pytest
from hypothesis import given, settings

from conftest import CORPUS_TORUS, IntSubclass, staircase_strategy
from iotak.complexes import compose, differential_morphism
from iotak.invariants import a_zero_minus, involutive_invariants
from iotak.iota import build_phi, build_psi, identity_complex, verify_iota_complex
from iotak.models import (
    Staircase,
    mirror,
    staircase_complex,
    torus_alexander_exponents,
    torus_knot,
)
from iotak.ring import monomial

# every coprime pair 1 <= p < q <= 16: 79 torus knots, T(1, q) the unknot
COPRIME_PAIRS = [(p, q) for q in range(2, 17) for p in range(1, q) if gcd(p, q) == 1]


def semigroup_exponents(p, q):
    """Independent oracle: the staircase exponents of a torus knot are the
    jumps of the semigroup generated by p and q, read off its indicator
    up to twice the genus."""
    g = (p - 1) * (q - 1) // 2
    members = {a * p + b * q for a in range(2 * g + 1) for b in range(2 * g + 1)}
    indicator = [1 if n in members else 0 for n in range(2 * g + 1)]
    # alternating expansion: coefficient at n is indicator[n] - indicator[n-1]
    coeffs = [indicator[0]] + [indicator[n] - indicator[n - 1] for n in range(1, 2 * g + 1)]
    return [n for n, c in enumerate(coeffs) if c]


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_alexander_exponents_match_semigroup_oracle(p, q):
    assert torus_alexander_exponents(p, q) == semigroup_exponents(p, q)


@pytest.mark.parametrize("p,q", COPRIME_PAIRS)
def test_torus_triple_counts_semigroup_gaps(p, q):
    """An L-space knot has V0_bar = V0 = V0_under = V, the number of gaps
    of the semigroup <p, q> at or above the genus g; its mirror has
    (-V, 0, 0). The gaps come from the set {a p + b q}, not from iotak."""
    g = (p - 1) * (q - 1) // 2
    members = {a * p + b * q for a in range(2 * g + 1) for b in range(2 * g + 1)}
    v = sum(1 for n in range(g, 2 * g) if n not in members)
    ic = torus_knot(p, q)
    assert involutive_invariants(a_zero_minus(ic)).triple() == (v, v, v)
    assert involutive_invariants(a_zero_minus(mirror(ic))).triple() == (-v, 0, 0)


def test_exponent_examples():
    assert torus_alexander_exponents(2, 3) == [0, 1, 2]
    assert torus_alexander_exponents(3, 4) == [0, 1, 3, 5, 6]
    assert torus_alexander_exponents(1, 5) == [0]


def test_trefoil_matches_hand_built_model(hand_trefoil):
    ic = torus_knot(2, 3)
    assert [(x.gr_u, x.gr_v) for x in ic.complex.basis] == [(0, -2), (-1, -1), (-2, 0)]
    assert ic.complex.diff == {1: {0: monomial(1, 0), 2: monomial(0, 1)}}
    assert ic.iota.entries == hand_trefoil.iota.entries


def test_t34_staircase_shape():
    ic = torus_knot(3, 4)
    assert len(ic.complex) == 5
    assert ic.complex.basis[0].alexander == 3
    s = Staircase((1, 2), (2, 1))
    assert staircase_complex(s).complex == ic.complex


def test_empty_staircase_is_unknot():
    s = Staircase((), ())
    ic = staircase_complex(s)
    assert len(ic.complex) == 1
    assert ic.complex.diff == {}


def test_torus_one_strand_unknot():
    for n in (1, 2, 9):
        ic = torus_knot(1, n)
        assert len(ic.complex) == 1


@pytest.mark.parametrize("build,value", [
    (lambda: Staircase((2.0,), (2.0,)), "2.0"),
    (lambda: Staircase((1.5,), (1.5,)), "1.5"),
    (lambda: Staircase((True,), (True,)), "True"),
    (lambda: torus_knot(True, 3), "True"),
    (lambda: torus_knot(2.0, 3), "2.0"),
    (lambda: torus_knot(3, 4.0), "4.0"),
], ids=["float step", "fractional step", "bool step", "bool p", "float p", "float q"])
def test_rejects_non_int_inputs(build, value):
    """A step, p or q that is not an int (a bool is not) is a ValueError
    naming it, not a model serialize.load rejects or a bool read as 1."""
    with pytest.raises(ValueError, match=f"must be ints, got {re.escape(value)}$"):
        build()


def test_rejects_int_subclass_inputs():
    """Only type int is an int: a subclass is rejected, not read through int()."""
    for build in (lambda: Staircase((IntSubclass(2),), (2,)), lambda: torus_knot(IntSubclass(3), 4)):
        with pytest.raises(ValueError, match="must be ints, got [23]$"):
            build()


def test_rejects_non_palindromic():
    with pytest.raises(ValueError):
        Staircase((1, 2), (1, 2))
    with pytest.raises(ValueError):
        Staircase((1,), (1, 1))
    with pytest.raises(ValueError):
        Staircase((0,), (0,))


def test_rejects_non_coprime():
    with pytest.raises(ValueError):
        torus_knot(4, 6)
    with pytest.raises(ValueError):
        torus_knot(0, 5)


@pytest.mark.parametrize("p,q", CORPUS_TORUS)
def test_genus_closed_form(p, q):
    ic = torus_knot(p, q)
    assert max(x.alexander for x in ic.complex.basis) == (p - 1) * (q - 1) // 2


@given(staircase_strategy)
@settings(max_examples=25, deadline=None)
def test_staircase_axioms_and_symmetry(s):
    ic = staircase_complex(s)
    assert verify_iota_complex(ic).passed
    basis = ic.complex.basis
    n = len(basis) - 1
    for m, x in enumerate(basis):
        mate = basis[n - m]
        assert x.alexander == -mate.alexander
        assert mate.gr_u == x.gr_v


@given(staircase_strategy)
@settings(max_examples=25, deadline=None)
def test_staircase_strict_involution(s):
    # reflection squares to the identity exactly and Phi Psi = 0 exactly
    ic = staircase_complex(s)
    sq = compose(ic.iota, ic.iota)
    n = len(ic.complex)
    assert sq.entries == {i: {i: monomial(0, 0)} for i in range(n)}
    assert compose(build_phi(ic.complex), build_psi(ic.complex)).is_zero()


def test_mirror_involution_and_unknot():
    ic = torus_knot(3, 4)
    mm = mirror(mirror(ic))
    assert [(x.gr_u, x.gr_v) for x in mm.complex.basis] == [
        (x.gr_u, x.gr_v) for x in ic.complex.basis
    ]
    assert mm.complex.diff == ic.complex.diff
    assert mm.iota.entries == ic.iota.entries
    unk = mirror(identity_complex())
    assert len(unk.complex) == 1
    assert verify_iota_complex(unk).passed


def test_mirror_passes_verification():
    for p, q in CORPUS_TORUS:
        assert verify_iota_complex(mirror(torus_knot(p, q))).passed
