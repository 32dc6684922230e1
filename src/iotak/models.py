"""Benchmark complexes: staircases of L-space knots, torus knots, mirrors.

A staircase alternates U-power and V-power arrows along a chain of
generators; its involution is reflection across the diagonal, which is
a strict involution (iota^2 = id exactly) with Phi o Psi = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import List, Tuple

from .complexes import SKEW, BasisElement, FreeComplex, Morphism
from .iota import IotaComplex, dual_iota, identity_complex
from .ring import ONE, monomial


@dataclass(frozen=True)
class Staircase:
    """Step data (a_1..a_k, b_1..b_k); palindromic so the reflection
    involution is skew-graded."""

    u_steps: Tuple[int, ...]
    v_steps: Tuple[int, ...]

    def __post_init__(self):
        a, b = self.u_steps, self.v_steps
        if len(a) != len(b):
            raise ValueError("u_steps and v_steps must have equal length")
        if any(s < 1 for s in a + b):
            raise ValueError("steps must be positive")
        k = len(a)
        if any(b[m] != a[k - 1 - m] for m in range(k)):
            raise ValueError("steps must be palindromic: b_m = a_{k+1-m}")

    @property
    def genus(self) -> int:
        return sum(self.u_steps)


def unknot_complex() -> IotaComplex:
    return identity_complex()


def staircase_complex(s: Staircase) -> IotaComplex:
    """The staircase model with reflection involution.

    Generators x_0..x_{2k}; dx_{2m-1} = U^{a_m} x_{2m-2} + V^{b_m} x_{2m}.
    The top-Alexander generator x_0 is normalized to gr_u = 0, the unique
    shift under which the unknot gets invariants (0, 0, 0) and the
    trefoil (1, 1, 1).
    """
    k = len(s.u_steps)
    if k == 0:
        return unknot_complex()
    alex = [s.genus]
    gr_u = [0]
    for m in range(1, k + 1):
        a, b = s.u_steps[m - 1], s.v_steps[m - 1]
        alex.append(alex[-1] - a)
        gr_u.append(gr_u[-1] - 2 * a + 1)
        alex.append(alex[-1] - b)
        gr_u.append(gr_u[-1] - 1)
    basis = [
        BasisElement(f"x{n}", gr_u[n], gr_u[n] - 2 * alex[n])
        for n in range(2 * k + 1)
    ]
    diff = {
        2 * m - 1: {
            2 * m - 2: monomial(s.u_steps[m - 1], 0),
            2 * m: monomial(0, s.v_steps[m - 1]),
        }
        for m in range(1, k + 1)
    }
    cx = FreeComplex(basis, diff)
    reflection = Morphism(cx, cx, {n: {2 * k - n: ONE} for n in range(2 * k + 1)},
                          SKEW, (0, 0))
    return IotaComplex(cx, reflection)


def torus_alexander_exponents(p: int, q: int) -> List[int]:
    """Exponents n_0 < n_1 < ... of the Alexander polynomial of T(p,q),
    normalized so n_0 = 0 and the signs alternate starting with +."""
    if p < 1 or q < 1:
        raise ValueError("torus knot parameters must be positive")
    if gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")

    def poly_mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return out

    def one_minus_t_power(n):
        out = [0] * (n + 1)
        out[0], out[n] = 1, -1
        return out

    num = poly_mul(one_minus_t_power(1), one_minus_t_power(p * q))
    den = poly_mul(one_minus_t_power(p), one_minus_t_power(q))
    quot = [0] * (len(num) - len(den) + 1)
    work = list(num)
    for i in range(len(quot)):
        c = work[i]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                work[i + j] -= c * d
    if any(work[len(quot):]):
        raise ArithmeticError("Alexander polynomial division left a remainder")

    exponents = [i for i, c in enumerate(quot) if c]
    for pos, e in enumerate(exponents):
        expected = 1 if pos % 2 == 0 else -1
        if quot[e] != expected:
            raise ArithmeticError("Alexander polynomial is not of staircase form")
    if len(exponents) % 2 == 0:
        raise ArithmeticError("Alexander polynomial has an even number of terms")
    return exponents


def torus_knot(p: int, q: int) -> IotaComplex:
    """Staircase model of the (p, q) torus knot; (1, n) gives the unknot."""
    exps = torus_alexander_exponents(p, q)
    k = len(exps) // 2
    u_steps = tuple(exps[2 * m + 1] - exps[2 * m] for m in range(k))
    v_steps = tuple(exps[2 * m + 2] - exps[2 * m + 1] for m in range(k))
    return staircase_complex(Staircase(u_steps, v_steps))


def mirror(ic: IotaComplex) -> IotaComplex:
    """The mirror knot's complex: algebraically the dual."""
    return dual_iota(ic)
