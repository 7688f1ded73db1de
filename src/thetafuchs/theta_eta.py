"""Jacobi theta constants, Dedekind eta, and the Weierstrass eta-constant.

Conventions (nome q = exp(pi*i*tau) throughout):

    theta2(tau) = 2 exp(pi*i*tau/4) * sum_{k>=0} exp((k^2+k) pi*i*tau)
    theta3(tau) = 1 + 2 sum_{k>=1} exp(k^2 pi*i*tau)
    theta4(tau) = 1 + 2 sum_{k>=1} (-1)^k exp(k^2 pi*i*tau)
    eta(tau)    = exp(pi*i*tau/12) * prod_{k>=1} (1 - exp(2 pi*i*k*tau))

The infinite product for eta is summed through Euler's pentagonal-number
series, which converges like a theta series and so shares the same term cap.

eta_w is the Weierstrass zeta-value at 1 on the lattice with half-periods
(1, tau).  It equals c * E2(tau) with E2 the weight-2 Eisenstein series in
exp(2 pi*i*tau); the constant c is fixed once at import time by forcing the
theta3 member of the closed derivative system at tau = 2i and is checked
against the analytic value pi^2/12.

Every series here is generic over the scalar type of tau: a complex tau is
summed in doubles, a ddnum.CDD tau in double-double.  arithmetic(tau) picks
the exp for the nome, pi, the stopping threshold and the constant c.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from .ddnum import CDD, DD_PI, DD_PI_SQ_12, DD_SERIES_EPS, cdd_exp
from .numerics import TOL, NumericsError, check_tau

_MAX_TERMS = 64


class SeriesTruncationError(NumericsError):
    """Raised when a q-series still moves at the term cap (Im tau too small)."""


class Arithmetic(NamedTuple):
    """What the scalar type of tau fixes for the series and jets."""

    exp: Callable
    pi: object
    series_eps: float
    eta_w_scale: Callable  # c in eta_w = c * E2


def arithmetic(z) -> Arithmetic:
    """Double-double for a ddnum.CDD, doubles for anything else."""
    return _DOUBLE_DOUBLE if isinstance(z, CDD) else _DOUBLE


def _sum_capped(terms, what: str, eps: float, cap: int = _MAX_TERMS):
    """Sum terms until |term| < eps * |partial sum|, cap the count.

    The default cap suits the theta series, whose exponents grow
    quadratically; linear-exponent sums pass a larger cap explicitly.
    """
    total = 0.0 + 0.0j
    for k, t in enumerate(terms):
        total = total + t
        if abs(t) < eps * max(abs(total), 1e-300):
            return total
        if k + 1 >= cap:
            raise SeriesTruncationError(
                f"{what}: series needs more than {cap} terms")
    return total


def theta_series(tau):
    """(theta2, theta3 - 1, theta4 - 1) from one pass over the powers q^{k^2}.

    q^{(k+1)^2} = q^{k^2} q^{2k+1} builds the powers by multiplication, and
    theta2 = 2 q^{1/4} sum_{k>=0} q^{k^2+k} reuses them as q^{k^2} q^k.  The
    pass stops once q^{k^2} is negligible against both tails, the smallest
    of the three sums.
    """
    tau = check_tau(tau)
    exp, pi, eps, _ = arithmetic(tau)
    q = exp(1j * pi * tau)
    q2 = q * q
    power, odd, qk = q, q2 * q, q     # q^{k^2}, q^{2k+1}, q^k at k = 1
    s2 = 1.0 + 0.0j                   # sum_{k>=0} q^{k^2+k}
    s3 = s4 = 0.0 + 0.0j              # sum_{k>=1} q^{k^2}, (-1)^k q^{k^2}
    for k in range(1, _MAX_TERMS):
        s2 = s2 + power * qk
        s3 = s3 + power
        s4 = s4 - power if k % 2 else s4 + power
        if abs(power) < eps * max(min(abs(s3), abs(s4)), 1e-300):
            return 2.0 * exp(0.25j * pi * tau) * s2, 2.0 * s3, 2.0 * s4
        power = power * odd
        odd = odd * q2
        qk = qk * q
    raise SeriesTruncationError(
        f"theta: series needs more than {_MAX_TERMS} terms")


def theta2(tau):
    return theta_series(tau)[0]


def theta3(tau):
    return 1.0 + theta_series(tau)[1]


def theta4(tau):
    return 1.0 + theta_series(tau)[2]


def theta3_tail(tau):
    """theta3(tau) - 1, summed without the constant term."""
    return theta_series(tau)[1]


def theta4_tail(tau):
    """theta4(tau) - 1."""
    return theta_series(tau)[2]


def euler_product(x):
    """prod_{k>=1} (1 - x^k) via the pentagonal-number series.

    The exponents k(3k-1)/2 and k(3k+1)/2 are reached by multiplication:
    x^{k(3k-1)/2} grows by x^{3k-2} from one k to the next.
    """

    def terms():
        yield 1.0 + 0.0j
        pent, xk, step, x3 = 1.0 + 0.0j, 1.0 + 0.0j, x, x * x * x
        k = 1
        while True:
            pent = pent * step            # x^{k(3k-1)/2}
            xk = xk * x
            step = step * x3
            term = -pent if k % 2 else pent
            yield term
            yield term * xk               # x^{k(3k+1)/2}
            k += 1

    return _sum_capped(terms(), "eta product", arithmetic(x).series_eps)


def eta(tau):
    tau = check_tau(tau)
    exp, pi, _, _ = arithmetic(tau)
    return exp(1j * pi * tau / 12.0) * euler_product(exp(2j * pi * tau))


def lambert_series(power: int, tau):
    """sum_{k>=1} k^power qb^k/(1-qb^k), qb = exp(2 pi*i*tau): the q-series
    of E2 (power 1), E4 (3) and E6 (5)."""
    tau = check_tau(tau)
    exp, pi, eps, _ = arithmetic(tau)
    qb = exp(2j * pi * tau)

    def terms():
        qk = qb
        k = 1
        while True:
            yield k ** power * qk / (1.0 - qk)
            qk = qk * qb
            k += 1

    return _sum_capped(terms(), f"Lambert series k^{power}", eps, cap=512)


def e2_tail(tau):
    """E2(tau) - 1 = -24 sum k qb^k/(1-qb^k)."""
    return -24.0 * lambert_series(1, tau)


def eisenstein_e2(tau):
    """E2(tau) = 1 - 24 sum k*qb^k/(1-qb^k), qb = exp(2 pi*i*tau)."""
    return 1.0 + e2_tail(tau)


def _theta3_deriv_series(tau: complex) -> complex:
    """d theta3 / d tau by term-wise differentiation (calibration oracle)."""
    q = cmath.exp(1j * math.pi * tau)

    def terms():
        k = 1
        while True:
            yield 2j * math.pi * k * k * q ** (k * k)
            k += 1

    return _sum_capped(terms(), "theta3'", TOL.series_eps)


@lru_cache(maxsize=1)
def eta_w_scale() -> float:
    """Calibration constant c in eta_w = c * E2.

    Solved from the theta3 equation of the closed system at tau = 2i:
        theta3'/theta3 = (i/pi) eta_w + (pi*i/12)(theta2^4 - theta4^4).
    The result must agree with pi^2/12 (lattice half-periods (1, tau)).
    """
    t0 = 2j
    lhs = _theta3_deriv_series(t0) / theta3(t0)
    quartic = (math.pi * 1j / 12.0) * (theta2(t0) ** 4 - theta4(t0) ** 4)
    c = ((lhs - quartic) * math.pi / 1j / eisenstein_e2(t0)).real
    expected = math.pi ** 2 / 12.0
    if abs(c - expected) > 1e-9 * expected:
        raise NumericsError(f"eta_w calibration failed: c={c!r}")
    return c


def eta_w(tau):
    """Weierstrass eta-constant zeta(1) on the lattice with half-periods (1, tau)."""
    return arithmetic(tau).eta_w_scale() * eisenstein_e2(tau)


# Doubles calibrate c against the series; double-double takes the analytic
# pi^2/12 that the calibration is checked against.
_DOUBLE = Arithmetic(cmath.exp, math.pi, TOL.series_eps, eta_w_scale)
_DOUBLE_DOUBLE = Arithmetic(cdd_exp, CDD(DD_PI), DD_SERIES_EPS,
                            lambda: CDD(DD_PI_SQ_12))


@dataclass(frozen=True)
class ThetaFrame:
    """theta2..theta4, eta, eta_w at a common tau."""

    tau: complex
    t2: complex
    t3: complex
    t4: complex
    eta: complex
    etaw: complex

    def check(self, tol: float | None = None) -> None:
        tol = TOL.identity_tol if tol is None else tol
        quartic = abs(self.t3 ** 4 - self.t2 ** 4 - self.t4 ** 4)
        triple = abs(2.0 * self.eta ** 3 - self.t2 * self.t3 * self.t4)
        if quartic > tol or triple > tol:
            raise NumericsError(
                f"theta frame inconsistent: quartic={quartic:.3e} triple={triple:.3e}")


def theta(tau: complex) -> ThetaFrame:
    """Evaluate the full constant frame at tau and self-check the identities."""
    tau = check_tau(tau)
    t2, t3t, t4t = theta_series(tau)
    frame = ThetaFrame(tau, t2, 1.0 + t3t, 1.0 + t4t, eta(tau), eta_w(tau))
    frame.check(tol=1e-9 if tau.imag < 0.1 else None)
    return frame


# ---------------------------------------------------------------------------
# Identity corpus: half/double argument relations, the four sum relations,
# Landen, the quartic, the eta triple product, and Dedekind's two relations
# for eta1 = eta(2 tau), eta2 = eta(tau/2), eta3 = eta((tau+1)/2).


def identity_residuals(tau: complex) -> dict[str, float]:
    tau = check_tau(tau)
    t2, t3, t4 = theta2(tau), theta3(tau), theta4(tau)
    t2h, t3h, t4h = theta2(tau / 2), theta3(tau / 2), theta4(tau / 2)
    t2d, t3d, t4d = theta2(2 * tau), theta3(2 * tau), theta4(2 * tau)
    t2q, t3q = theta2(4 * tau), theta3(4 * tau)
    t3s, t4s = theta3(tau + 0.5), theta4(tau + 0.5)
    e = eta(tau)
    e1, e2_, e3 = eta(2 * tau), eta(tau / 2), eta((tau + 1) / 2)

    res = {
        "half_t2": abs(t2h ** 2 - 2.0 * t2 * t3),
        "half_t3": abs(t3h ** 2 - (t3 ** 2 + t2 ** 2)),
        "half_t4": abs(t4h ** 2 - (t3 ** 2 - t2 ** 2)),
        "double_t2": abs(2.0 * t2d ** 2 - (t3 ** 2 - t4 ** 2)),
        "double_t2_quad": abs(2.0 * t2d ** 2 - 4.0 * t2q * t3q),
        "double_t3": abs(2.0 * t3d ** 2 - (t3 ** 2 + t4 ** 2)),
        "double_t3_shift": abs(2.0 * t3d ** 2 - 2.0 * t4s * t3s),
        "double_t4_shift": abs(2.0 * t4d ** 2 - (t3s ** 2 + t4s ** 2)),
        "double_t4": abs(2.0 * t4d ** 2 - 2.0 * t4 * t3),
        "sum_plain": abs(t4 + t3 - 2.0 * t3q),
        "diff_plain": abs(t4 - t3 + 2.0 * t2q),
        "sum_i": abs(t4 + 1j * t3 - (1 + 1j) * t3s),
        "diff_i": abs(t4 - 1j * t3 - (1 - 1j) * t4s),
        "landen": abs(2.0 * t2d * t3d - t2 ** 2),
        "jacobi_quartic": abs(t3 ** 4 - t2 ** 4 - t4 ** 4),
        "eta_triple": abs(2.0 * e ** 3 - t2 * t3 * t4),
        "dedekind_sum": abs(16.0 * e1 ** 8 + e2_ ** 8
                            + cmath.exp(2j * math.pi / 3.0) * e3 ** 8),
        "dedekind_prod": abs(e1 * e2_ * e3 - cmath.exp(1j * math.pi / 24.0) * e ** 3),
    }
    return res
