import functools

import pytest
from hypothesis import strategies as st

from iotak.complexes import SKEW, BasisElement, FreeComplex, Morphism
from iotak.iota import IotaComplex, product
from iotak.models import Staircase, mirror, staircase_complex, torus_knot
from iotak.ring import ONE, monomial

CORPUS_TORUS = [(2, 3), (2, 5), (3, 4), (4, 5), (5, 6), (6, 7)]


def palindromic_staircase(steps):
    return Staircase(tuple(steps), tuple(reversed(steps)))


# random palindromic staircases; the sampler for "random valid complex"
staircase_strategy = st.lists(
    st.integers(min_value=1, max_value=3), min_size=1, max_size=3
).map(palindromic_staircase)
# one or two staircases for staircase_sum, each with its mirror flag
parts_strategy = st.lists(st.tuples(staircase_strategy, st.booleans()), min_size=1, max_size=2)


class IntSubclass(int):
    """An int subclass other than bool: iotak takes only type int as an int."""


def normal_form(basis, vec):
    """The one vector of vec + span(basis) with no pivot column set.

    Unlike RowBasis.reduce, which stops at the first lowest bit without
    a pivot, this clears every pivot column, so it is linear in vec and
    zero exactly on the span.
    """
    out = 0
    while vec:
        low = vec & -vec
        piv = basis.pivots.get(low.bit_length() - 1)
        if piv is None:
            out |= low
            vec ^= low
        else:
            vec ^= piv
    return out


def staircase_sum(parts, variant=1):
    """The product of staircases, each mirrored when its flag is set,
    folded left to right."""
    ics = [mirror(staircase_complex(s)) if flip else staircase_complex(s) for s, flip in parts]
    return functools.reduce(lambda a, b: product(a, b, variant=variant, verify=False), ics)


@pytest.fixture(scope="session")
def corpus_staircases():
    return [torus_knot(p, q) for p, q in CORPUS_TORUS]


@pytest.fixture
def hand_trefoil():
    """The trefoil exactly as pictured: a(0,-2), b(-1,-1), c(-2,0),
    db = Ua + Vc, iota the reflection a <-> c."""
    basis = [BasisElement("a", 0, -2), BasisElement("b", -1, -1), BasisElement("c", -2, 0)]
    cx = FreeComplex(basis, {1: {0: monomial(1, 0), 2: monomial(0, 1)}})
    iota = Morphism(cx, cx, {0: {2: ONE}, 1: {1: ONE}, 2: {0: ONE}}, SKEW, (0, 0))
    return IotaComplex(cx, iota)


def t23_with(diff=None, iota=None):
    """T(2,3), generators x0, x1, x2 with dx1 = U x0 + V x2, with its
    differential or its involution's entries replaced."""
    t = torus_knot(2, 3)
    cx = t.complex if diff is None else FreeComplex(t.complex.basis, diff)
    entries = t.iota.entries if iota is None else iota
    return IotaComplex(cx, Morphism(cx, cx, entries, SKEW, (0, 0)))


# dx0 = V x1 beside dx1 = U x0 + V x2: homogeneous and filtered, but d^2 != 0
T23_D_SQUARED_NONZERO = {1: {0: monomial(1, 0), 2: monomial(0, 1)}, 0: {1: monomial(0, 1)}}
