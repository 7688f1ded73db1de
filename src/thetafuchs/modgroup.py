"""Exact PSL2(Z) arithmetic: membership, generator tables, cosets, reduction.

Matrices are integer quadruples (a, b, c, d) with ad - bc = 1, normalized to
the sign representative whose first nonzero entry of (a, c) is positive.  All
identities here are exact; no floating point is involved except in the Mobius
action on points.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache

from .numerics import NumericsError, check_tau

INFINITY = "oo"  # cusp marker for Mobius images of poles


class ProjMatrix(namedtuple("ProjMatrix", "a b c d")):
    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * d - b * c != 1:
            raise ValueError(f"determinant must be 1: [[{a},{b}],[{c},{d}]]")
        # canonical sign: first nonzero of (a, c) positive
        if (a if a != 0 else c) < 0:
            a, b, c, d = -a, -b, -c, -d
        return super().__new__(cls, a, b, c, d)

    def __matmul__(self, other: "ProjMatrix") -> "ProjMatrix":
        return ProjMatrix(self.a * other.a + self.b * other.c,
                          self.a * other.b + self.b * other.d,
                          self.c * other.a + self.d * other.c,
                          self.c * other.b + self.d * other.d)

    def inv(self) -> "ProjMatrix":
        return ProjMatrix(self.d, -self.b, -self.c, self.a)

    def trace(self) -> int:
        return self.a + self.d

    def entries(self):
        return tuple(self)

    def __repr__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = ProjMatrix(1, 0, 0, 1)
S = ProjMatrix(0, -1, 1, 0)
T = ProjMatrix(1, 1, 0, 1)


def mobius(m: ProjMatrix, tau):
    """Apply the fractional linear map; cusps map to cusps (INFINITY marker)."""
    if tau == INFINITY:
        if m.c == 0:
            return INFINITY
        from fractions import Fraction
        return Fraction(m.a, m.c)
    denom = m.c * tau + m.d
    if denom == 0:
        return INFINITY
    return (m.a * tau + m.b) / denom


def mobius_real(mat, x):
    """Mobius action with real (not necessarily integer) matrix entries."""
    a, b, c, d = mat
    if x == INFINITY:
        return INFINITY if c == 0 else a / c
    denom = c * x + d
    if denom == 0:
        return INFINITY
    return (a * x + b) / denom


def reduce_fundamental(tau: complex):
    """Reduce into |Re| <= 1/2, |tau| >= 1; returns (tau0, M) with tau0 = M tau.

    Boundary ties resolve to the Re <= 0 side.
    """
    tau = check_tau(tau)
    m = IDENTITY
    for _ in range(10000):
        shift = -round(tau.real)
        if shift:
            tau = tau + shift
            m = ProjMatrix(1, shift, 0, 1) @ m
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
            m = S @ m
            continue
        break
    else:
        raise NumericsError("fundamental domain reduction did not terminate")
    # boundary conventions
    if abs(tau.real - 0.5) < 1e-15:
        tau = tau - 1.0
        m = ProjMatrix(1, -1, 0, 1) @ m
    if abs(abs(tau) - 1.0) < 1e-15 and tau.real > 1e-15:
        tau = -1.0 / tau
        m = S @ m
    return tau, m


# ---------------------------------------------------------------------------
# Membership

_BURNSIDE_MOD8 = frozenset({
    (1, 0, 0, 1), (1, 4, 4, 1), (5, 4, 0, 5), (5, 0, 4, 5),
})


def membership(m: ProjMatrix, group: str) -> bool:
    """Membership in Gamma(1), Gamma(2), Gamma(4), or the even-length subgroup.

    The last is the rank-9, index-2 subgroup of Gamma(4) singled out by its
    four residue classes modulo 8 (taken up to global sign).
    """
    if group == "Gamma1":
        return True
    if group == "Gamma2":
        return _is_pm_identity_mod(m, 2)
    if group == "Gamma4":
        return _is_pm_identity_mod(m, 4)
    if group == "G_burnside":
        for sign in (1, -1):
            cls = tuple((sign * v) % 8 for v in m.entries())
            if cls in _BURNSIDE_MOD8:
                return True
        return False
    raise ValueError(f"unknown group id: {group}")


def _is_pm_identity_mod(m: ProjMatrix, n: int) -> bool:
    for sign in (1, -1):
        a, b, c, d = (sign * v % n for v in m.entries())
        if a == 1 % n and d == 1 % n and b == 0 and c == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# Generator tables

V_TABLE = (
    ProjMatrix(1, 4, 0, 1),
    ProjMatrix(1, 0, -4, 1),
    ProjMatrix(3, -4, 4, -5),
    ProjMatrix(7, -16, 4, -9),
    ProjMatrix(11, -36, 4, -13),
)

T_TABLE = (
    ProjMatrix(1, 8, 0, 1),
    ProjMatrix(15, -4, 4, -1),
    ProjMatrix(19, -24, 4, -5),
    ProjMatrix(23, -52, 4, -9),
    ProjMatrix(27, -88, 4, -13),
    ProjMatrix(17, 4, 4, 1),
    ProjMatrix(21, -16, 4, -3),
    ProjMatrix(25, -44, 4, -7),
    ProjMatrix(29, -80, 4, -11),
)


def burnside_tables():
    """(V generators, T generators, relations); consistency checked exactly.

    The relations are T0 = V0^2, Tk = V0 Vk, T(k+4) = V0 Vk^-1 for k = 1..4,
    all verified by integer multiplication in PSL2(Z).
    """
    v = V_TABLE
    relations = []
    products = [v[0] @ v[0]]
    relations.append(("T0", "V0*V0"))
    for k in range(1, 5):
        products.append(v[0] @ v[k])
        relations.append((f"T{k}", f"V0*V{k}"))
    for k in range(1, 5):
        products.append(v[0] @ v[k].inv())
        relations.append((f"T{k + 4}", f"V0*V{k}^-1"))
    order = [0, 1, 2, 3, 4, 5, 6, 7, 8]
    for idx, prod in zip(order, products):
        if prod != T_TABLE[idx]:
            raise NumericsError(f"generator table inconsistency at T{idx}")
    return v, T_TABLE, relations


def nielsen_schreier(rank: int, index: int) -> int:
    """Rank of an index-m subgroup of a free group of rank k: (k-1)m + 1."""
    return (rank - 1) * index + 1


# ---------------------------------------------------------------------------
# Cosets of Gamma(4) in Gamma(1)


def _mod4_key(m: ProjMatrix):
    best = None
    for sign in (1, -1):
        key = tuple(sign * v % 4 for v in m.entries())
        if best is None or key < best:
            best = key
    return best


@lru_cache(maxsize=1)
def coset_reps():
    """24 coset representatives of Gamma(4) in Gamma(1).

    Breadth-first search over words in S and T (S expanded before T at each
    node) in SL2(Z/4)/{+-1}; deterministic, cached after the first call.
    """
    seen = {_mod4_key(IDENTITY): IDENTITY}
    queue = [IDENTITY]
    while queue:
        current = queue.pop(0)
        for gen in (S, T, T.inv()):
            nxt = current @ gen
            key = _mod4_key(nxt)
            if key not in seen:
                seen[key] = nxt
                queue.append(nxt)
    reps = sorted(seen.values(), key=lambda m: (abs(m.a) + abs(m.b) + abs(m.c)
                                                + abs(m.d), m.entries()))
    if len(reps) != 24:
        raise NumericsError(f"expected 24 cosets, found {len(reps)}")
    return tuple(reps)


def coset_orbit(tau: complex):
    """Images of tau under the 24 Gamma(4)\\Gamma(1) coset representatives."""
    tau = check_tau(tau)
    return [mobius(m, tau) for m in coset_reps()]


def gamma4_equivalent(m1: ProjMatrix, m2: ProjMatrix) -> bool:
    return membership(m1 @ m2.inv(), "Gamma4")


# The five parabolic generators of Gamma(4) and their inverses, as the
# sign-normalized integer quadruples of their ProjMatrix forms.
_GAMMA4_STEPS = tuple(g.entries() for v in V_TABLE for g in (v, v.inv()))


def gamma4_reduce(tau: complex):
    """Height-maximizing representative of the Gamma(4) orbit.

    Greedy ascent over the five parabolic generators and their inverses,
    followed by translation into Re in [-1/2, 7/2].  Useful before theta
    evaluation: orbit points hugging the real axis are moved up.

    Each step applies (a tau + b)/(c tau + d) with the integer entries, the
    float operations of mobius, and the word is kept as four integers; one
    ProjMatrix is built at the end, which fixes the sign once.
    """
    tau = check_tau(tau)
    ma, mb, mc, md = 1, 0, 0, 1
    for _ in range(500):
        floor = tau.imag * (1 + 1e-12)
        best = None
        for g in _GAMMA4_STEPS:
            a, b, c, d = g
            img = (a * tau + b) / (c * tau + d)
            if img.imag > floor and (best is None or img.imag > best.imag):
                best, step = img, g
        if best is None:
            break
        a, b, c, d = step
        tau = best
        ma, mb, mc, md = (a * ma + b * mc, a * mb + b * md,
                          c * ma + d * mc, c * mb + d * md)
    shift = -int(math.floor((tau.real + 0.5) / 4.0))
    if shift:
        b = 4 * shift
        tau = (1 * tau + b) / (0 * tau + 1)   # as mobius, to the last bit
        ma, mb = ma + b * mc, mb + b * md
    return tau, ProjMatrix(ma, mb, mc, md)


# ---------------------------------------------------------------------------
# Disc model


def disc_map(tau):
    """Half-plane to unit disc: tau -> i (tau-1-i)/(tau-1+i), so 1+i -> 0."""
    if tau == INFINITY:
        return 1j
    tau = complex(tau)
    return 1j * (tau - 1 - 1j) / (tau - 1 + 1j)
