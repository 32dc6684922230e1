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
from .ring import ONE, monomial, require_ints


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
        require_ints("steps", a + b)
        if any(s < 1 for s in a + b):
            raise ValueError("steps must be positive")
        k = len(a)
        if any(b[m] != a[k - 1 - m] for m in range(k)):
            raise ValueError("steps must be palindromic: b_m = a_{k+1-m}")

    @property
    def genus(self) -> int:
        return sum(self.u_steps)


def staircase_complex(s: Staircase) -> IotaComplex:
    """The staircase model with reflection involution.

    Generators x_0..x_{2k}; dx_{2m-1} = U^{a_m} x_{2m-2} + V^{b_m} x_{2m}.
    The top-Alexander generator x_0 is normalized to gr_u = 0, the unique
    shift under which the unknot gets invariants (0, 0, 0) and the
    trefoil (1, 1, 1).
    """
    k = len(s.u_steps)
    if k == 0:
        return identity_complex()
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
    normalized so n_0 = 0 and the signs alternate starting with +.

    Delta = (1 - t) sum_{s in S} t^s for the semigroup S = <p, q>, whose
    largest gap is 2g - 1 = (p - 1)(q - 1) - 1. So the exponents are 0
    and the n <= 2g where membership in S flips, and S is sieved on 0..2g:
    n is in S iff n - p or n - q is.
    """
    require_ints("torus knot parameters", (p, q))
    if p < 1 or q < 1:
        raise ValueError("torus knot parameters must be positive")
    if gcd(p, q) != 1:
        raise ValueError(f"torus knot parameters must be coprime, got ({p}, {q})")
    top = (p - 1) * (q - 1)
    member = [True] + [False] * top
    for n in range(1, top + 1):
        member[n] = (n >= p and member[n - p]) or (n >= q and member[n - q])
    return [0] + [n for n in range(1, top + 1) if member[n] != member[n - 1]]


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
