import functools

import pytest
from hypothesis import strategies as st

from iotak.complexes import (
    EQUIVARIANT,
    SKEW,
    BasisElement,
    FreeComplex,
    Morphism,
    _HomEquations,
    compose,
    differential_morphism,
    identity_morphism,
)
from iotak.iota import IotaComplex, product
from iotak.models import Staircase, mirror, staircase_complex, torus_knot
from iotak.ring import ONE, monomial
from iotak.serialize import morphism_to_list

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


def iota_complex_to_dict(name, ic):
    """The document of a complex file, the specification of
    serialize.dumps: its text is json.dumps of this, indent=2, plus a
    newline."""
    cx = ic.complex
    return {
        "name": name,
        "generators": [
            {"name": x.name, "gr_u": x.gr_u, "gr_v": x.gr_v} for x in cx.basis
        ],
        "differential": morphism_to_list(differential_morphism(cx)),
        "iota": morphism_to_list(ic.iota),
    }


def staircase_sum(parts, variant=1):
    """The product of staircases, each mirrored when its flag is set,
    folded left to right."""
    ics = [mirror(staircase_complex(s)) if flip else staircase_complex(s) for s, flip in parts]
    return functools.reduce(lambda a, b: product(a, b, variant=variant, verify=False), ics)


def perturbed(ic, bits):
    """ic with iota + dK + Kd in place of iota, for K the filtered skew map
    of bidegree (1, 1) whose _HomEquations unknowns are the bits set in
    bits. It is still a filtered, homogeneous skew chain map, homotopic
    to iota, so axiom (6) still holds, but its witness may be nonzero."""
    c = ic.complex
    k = _HomEquations(c, c, SKEW, (1, 1)).morphism(bits)
    d = differential_morphism(c)
    return IotaComplex(c, ic.iota + compose(d, k) + compose(k, d))


def conjugated(ic, bits):
    """ic in another basis: d' = A d A^-1 and iota' = A iota A^-1, for
    A = 1 + N and N the filtered equivariant (0, 0) map whose
    _HomEquations unknowns are the bits set in bits, less those whose
    monomial is 1. Each factor of N raises the exponent sum, so N is
    nilpotent and A^-1 = sum of N^k. A is a filtered graded isomorphism,
    so the result is an iota-complex isomorphic to ic; but d' may have
    entries U^a V^b with a and b both odd, and Phi Psi != Psi Phi."""
    c = ic.complex
    hom = _HomEquations(c, c, EQUIVARIANT, (0, 0))
    n = hom.morphism(sum(1 << v for v, (_, _, m) in enumerate(hom.unknowns)
                         if m != (0, 0) and bits >> v & 1))
    a = identity_morphism(c) + n
    inverse, power = identity_morphism(c), n
    while not power.is_zero():
        inverse, power = inverse + power, compose(power, n)
    d = compose(a, compose(differential_morphism(c), inverse))
    cx = FreeComplex(c.basis, d.entries)
    return IotaComplex(cx, Morphism(cx, cx, compose(a, compose(ic.iota, inverse)).entries,
                                    SKEW, (0, 0)))


# T(2,3) # S^-1, for S the staircase of one step 2, conjugated with seed 0: Phi Psi != Psi Phi,
# the trace composites of the two variants differ and iota o cotrace is not symmetric in (a, b)
CONJUGATED_PARTS = [(palindromic_staircase([1]), False), (palindromic_staircase([2]), True)]


def conjugated_draw(ic, rnd):
    """conjugated(ic, bits), each unknown of N drawn with probability 1/2."""
    c = ic.complex
    return conjugated(ic, rnd.getrandbits(len(_HomEquations(c, c, EQUIVARIANT, (0, 0)).unknowns)))


def perturbed_t34_mirror_t23():
    """T(3,4) # T(2,3)^-1 perturbed by its first K unknown: its axiom-6
    witness has the two entries 3 -> 8 and 11 -> 6, by basis index."""
    return perturbed(product(torus_knot(3, 4), mirror(torus_knot(2, 3))), 1)


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
