import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import normal_form
from iotak import gf2


def dot(row, vec):
    return (row & vec).bit_count() & 1


def test_rank_small():
    assert gf2.rank([0b11, 0b01, 0b10]) == 2
    assert gf2.rank([]) == 0
    assert gf2.rank([0, 0]) == 0


def test_solve_and_nullspace_random():
    rng = random.Random(7)
    for _ in range(200):
        nvars = rng.randrange(1, 9)
        nrows = rng.randrange(0, 9)
        rows = [rng.getrandbits(nvars) for _ in range(nrows)]
        secret = rng.getrandbits(nvars)
        rhs = [dot(r, secret) for r in rows]
        sol = gf2.solve(rows, rhs, nvars)
        assert sol is not None
        assert all(dot(r, sol) == b for r, b in zip(rows, rhs))

        null = gf2.nullspace(rows, nvars)
        for v in null:
            assert all(dot(r, v) == 0 for r in rows)
        # dimension count: rank-nullity
        assert len(null) == nvars - gf2.rank(rows)


def nullspace_by_back_substitution(rows, nvars):
    """Reference null basis: for each free column f, set e_f and back
    substitute through the pivots, highest first."""
    basis = gf2.RowBasis(rows)
    pivots = sorted(basis.pivots.items(), reverse=True)
    out = []
    for free in range(nvars):
        if free in basis.pivots:
            continue
        sol = 1 << free
        for col, row in pivots:
            if dot(row, sol):
                sol |= 1 << col
        out.append(sol)
    return out


def test_nullspace_basis_pinned():
    rng = random.Random(23)
    for _ in range(300):
        width = rng.randrange(0, 65)
        rows = []
        for _ in range(rng.randrange(0, 70)):
            pick = rng.random()
            if pick < 0.1:
                rows.append(0)
            elif pick < 0.25 and rows:
                rows.append(rng.choice(rows))
            else:
                density = rng.random()
                rows.append(sum(1 << b for b in range(width) if rng.random() < density))
        nvars = width + rng.randrange(0, 4)
        null = gf2.nullspace(rows, nvars)
        assert null == nullspace_by_back_substitution(rows, nvars)
        assert all(dot(r, v) == 0 for r in rows for v in null)


def test_solve_infeasible():
    # x = 0 and x = 1
    assert gf2.solve([0b1, 0b1], [0, 1], 1) is None


def test_apply_and_transpose():
    rows = [0b011, 0b100]
    assert gf2.apply_rows(rows, 0b11) == 0b111
    t = gf2.transpose(rows, 3)
    assert t == [0b01, 0b01, 0b10]


def test_support_rows_rejects_an_entry_outside_the_target_slice():
    """An entry into a target of position -1 is an error, not bit -1."""
    with pytest.raises(ValueError) as exc:
        gf2.support_rows({0: {1: None}}, [0], [0, -1])
    assert str(exc.value) == "map image left the target slice"


def test_row_basis_membership():
    basis = gf2.RowBasis([0b101, 0b011])
    assert basis.contains(0b110)
    assert not basis.contains(0b001)
    assert basis.rank == 2


def test_normal_form_is_the_linear_projection():
    rng = random.Random(31)
    for _ in range(300):
        width = rng.randrange(1, 40)
        basis = gf2.RowBasis(rng.getrandbits(width) for _ in range(rng.randrange(0, width + 3)))
        pivmask = sum(1 << col for col in basis.pivots)
        for _ in range(10):
            a, b = rng.getrandbits(width), rng.getrandbits(width)
            na = normal_form(basis, a)
            assert normal_form(basis, a ^ b) == na ^ normal_form(basis, b)
            assert (na == 0) == basis.contains(a)
            assert normal_form(basis, na) == na
            assert na & pivmask == 0 and basis.contains(a ^ na)


def test_reduce_is_not_linear():
    # 0b110 stops at its unpivoted bit 1, so the pivot column 2 stays set
    basis = gf2.RowBasis([0b101, 0b100])
    a, b = 0b110, 0b010
    assert basis.reduce(a) ^ basis.reduce(b) == 0b100 != basis.reduce(a ^ b)
    assert normal_form(basis, a) ^ normal_form(basis, b) == 0 == normal_form(basis, a ^ b)


@given(st.lists(st.integers(min_value=0, max_value=(1 << 70) - 1), max_size=40),
       st.integers(min_value=0, max_value=(1 << 70) - 1), st.integers(min_value=0))
@settings(max_examples=200, deadline=None)
def test_pullback_is_the_transpose_pairing(rows, phi, v):
    """pullback(rows, phi) . v = phi . apply_rows(rows, v) (mod 2)."""
    v &= (1 << len(rows)) - 1
    assert dot(gf2.pullback(rows, phi), v) == dot(phi, gf2.apply_rows(rows, v))
    assert gf2.pullback(rows, phi) >> len(rows) == 0
