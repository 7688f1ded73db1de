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
exp(2 pi*i*tau); the constant c is fixed on first use by forcing the theta3
member of the closed derivative system at tau = 2i and is checked against
the analytic value pi^2/12.

theta_series and e2_series also return the tau-derivatives of their sums to
a requested order, differentiated term by term in the same pass; these are
the base jets of the jets module.  theta1_pass returns theta1(v|tau) with
its first three v-derivatives, from which elliptic.wp takes wp, wp' and zeta.

Every series here is generic over the scalar type of tau: a complex tau is
summed in doubles, a ddnum.CDD tau in double-double.  arithmetic(tau) picks
the exp for the nome, pi, the stopping threshold and the constant c.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from .ddnum import CDD, DD_PI, DD_PI_SQ_12, DD_SERIES_EPS, cdd_exp
from .numerics import TOL, NumericsError, check_tau

_MAX_TERMS = 64           # theta-type sums, exponents quadratic in k
_MAX_LINEAR_TERMS = 512   # sums with exponents linear in n

# The caches kept per tau hold the keys of one tau: every caller
# (cli.cmd_verify, the Fuchsian and integral checks, the quintic solver)
# finishes its work at a tau before it moves on, and no later tau reuses an
# earlier one's keys.  They are theta_series here, keyed (tau, order, scale),
# and _eighth_nome, keyed by a CDD tau, whose exp serves every scale;
# jets.theta_jet, keyed (tau, scale, order); jets._quad_jets, keyed (tau,
# order, scale); jets._eta_jet, keyed (sigma, order); and
# abelian._cover_alpha, keyed (tau, sign).  A Fuchsian tau needs at most 7
# _quad_jets keys and a direct quintic 12; a quintic that continues along a
# path needs more, but uses each key within a few steps, and an inversion of
# chi sums the series at only a few of its 24 candidates (4 for a generic A:
# the anchor, the best and a pair that ties).  With 64 entries the hits and
# misses equal those of a 4096-entry cache on every verify suite and
# benchmark workload, and memory stays flat however many tau go by.  The
# order stays in every key: passes of different orders stop at different
# terms, so even their values may differ in the last bit.
JET_CACHE_SIZE = 64


class SeriesTruncationError(NumericsError):
    """Raised when a q-series still moves at the term cap (Im tau too small)."""


# What the scalar type of tau fixes for the series and jets; eta_w_scale()
# is c in eta_w = c * E2.
Arithmetic = namedtuple("Arithmetic", "exp pi series_eps eta_w_scale")


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


@lru_cache(maxsize=JET_CACHE_SIZE)
def _eighth_nome(tau):
    """r = exp(i pi tau/8) for a CDD tau, the one exp of its theta passes."""
    return _DOUBLE_DOUBLE.exp(0.125j * _DOUBLE_DOUBLE.pi * tau)


@lru_cache(maxsize=JET_CACHE_SIZE)
def theta_series(tau, order: int = 0, scale=1):
    """theta2, theta3 - 1, theta4 - 1 at sigma = scale*tau, d/dsigma to order.

    Returns a flat tuple: the m-th derivatives of the three sums are at
    3m, 3m + 1 and 3m + 2, so order 0 gives (theta2, theta3 - 1, theta4 - 1).
    In doubles q = exp(i pi sigma) and q^{1/4} are two exps.  In double-double
    both are powers of r = _eighth_nome(tau), one exp per tau for the scales
    c with 2c an integer: q^{1/4} = r^{2c} and q = (q^{1/4})^4, by squaring.
    One pass over the powers q^{k^2} builds the sums by multiplication,
    q^{(k+1)^2} = q^{k^2} q^{2k+1}.  Term by term,

        d^m/dsigma^m q^{k^2}       = (i pi k^2)^m q^{k^2},
        d^m/dsigma^m q^{(k+1/2)^2} = (i pi (2k+1)^2/4)^m q^{1/4} q^{k^2+k},

    so the derivative sums carry the integer weights k^{2m} and (2k+1)^{2m},
    and the factors (i pi)^m and 4^-m are applied once at the end; those of
    theta3 and theta4 are sums over even k plus, or minus, sums over odd k.
    The pass stops once the last term, weighted for the top order as
    q^{k^2} k^{2 order}, is negligible against both tails theta3 - 1 and
    theta4 - 1.  In these units a derivative sum is at least as large as the
    tails, save where it cancels, and no number of terms cures cancellation.
    """
    tau = check_tau(tau)
    exp, pi, eps, _ = arithmetic(tau)
    if isinstance(tau, CDD) and not 2 * scale % 1:
        quarter = _eighth_nome(tau) ** int(2 * scale)
        q = quarter ** 4
    else:
        sigma = scale * tau
        q, quarter = exp(1j * pi * sigma), exp(0.25j * pi * sigma)
    q2 = q * q
    power, step, qk = q, q2 * q, q    # q^{k^2}, q^{2k+1}, q^k at k = 1
    s2 = 1.0 + 0.0j                   # sum_{k>=0} q^{k^2+k}
    s3 = s4 = 0.0 + 0.0j              # sum_{k>=1} q^{k^2}, (-1)^k q^{k^2}
    if order:                         # the sums for m = 1..order:
        d2 = [1.0 + 0.0j] * order     # (2k+1)^{2m} q^{k^2+k}, k >= 0
        even, odd = parity = ([0.0j] * order, [0.0j] * order)  # k^{2m} q^{k^2}
    for k in range(1, _MAX_TERMS):
        a = power * qk
        s2 = s2 + a
        s3 = s3 + power
        s4 = s4 - power if k % 2 else s4 + power
        b = power                     # the term, weighted for the top order
        if order:
            sums = parity[k % 2]
            ksq, wsq = k * k, (2 * k + 1) ** 2
            for m in range(order):
                a, b = a * wsq, b * ksq
                d2[m] += a
                sums[m] += b
        if abs(b) < eps * max(min(abs(s3), abs(s4)), 1e-300):
            break
        power = power * step
        step = step * q2
        qk = qk * q
    else:
        raise SeriesTruncationError(
            f"theta: series needs more than {_MAX_TERMS} terms")
    front = 2.0 * quarter
    out = (front * s2, 2.0 * s3, 2.0 * s4)
    w = 1.0                               # (i pi)^m
    for m in range(order):
        w = w * (1j * pi)
        c = 2.0 * w
        out += (front * (w * 0.25 ** (m + 1)) * d2[m], c * (even[m] + odd[m]),
                c * (even[m] - odd[m]))
    return out


def theta1_nome(tau) -> tuple:
    """c_n = (-1)^n q^{(n+1/2)^2}, so theta1(v|tau) = 2 sum c_n sin((2n+1)v).

    The powers grow by multiplication, c_n = -c_{n-1} q^{2n}.  The list is
    long enough for the strip |Im v| <= pi Im tau / 2: there the n-th term
    weighted for the third derivative is at most |q|^{n^2} (2n+1)^3 times the
    leading one, and the list stops where that falls below the threshold.
    """
    tau = check_tau(tau)
    exp, pi, eps, _ = arithmetic(tau)
    q2 = exp(2j * pi * tau)
    size = abs(q2) ** 0.5
    out, step = [exp(0.25j * pi * tau)], q2
    while size ** (len(out) ** 2) * (2 * len(out) + 1) ** 3 >= eps:
        if len(out) == _MAX_TERMS:
            raise SeriesTruncationError(
                f"theta1: series needs more than {_MAX_TERMS} terms")
        out.append(-out[-1] * step)
        step = step * q2
    return tuple(out)


def theta1_pass(v, nome):
    """theta1 and its first three v-derivatives at v, from theta1_nome(tau).

    With d_n and t_n the difference and the sum of c_n e^{+-i(2n+1)v}, whose
    powers grow by multiplication, theta1 = -i sum d_n, theta1' = sum (2n+1)
    t_n, theta1'' = i sum (2n+1)^2 d_n and theta1''' = -sum (2n+1)^3 t_n.
    """
    e = arithmetic(v).exp(1j * v)
    f = 1.0 / e
    e2, f2 = e * e, f * f
    s0 = s1 = s2 = s3 = 0.0j
    for k, c in enumerate(nome):
        w = 2 * k + 1
        a, b = c * e, c * f
        d, t = a - b, a + b
        s0, s1 = s0 + d, s1 + w * t
        s2, s3 = s2 + w * w * d, s3 + w * w * w * t
        e, f = e * e2, f * f2
    return -1j * s0, s1, 1j * s2, -s3


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
    of E4 (power 3) and E6 (5)."""
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

    return _sum_capped(terms(), f"Lambert series k^{power}", eps,
                       cap=_MAX_LINEAR_TERMS)


@lru_cache(maxsize=1)
def _divisor_sums() -> tuple:
    """sigma_1(n) for n < _MAX_LINEAR_TERMS, sieved on first use."""
    sigma = [0] * _MAX_LINEAR_TERMS
    for d in range(1, _MAX_LINEAR_TERMS):
        for n in range(d, _MAX_LINEAR_TERMS, d):
            sigma[n] += d
    return tuple(sigma)


def e2_series(tau, order: int = 0):
    """E2 - 1 and its tau-derivatives 0..order, as a tuple of order + 1 entries.

    E2 = 1 - 24 sum_{n>=1} sigma_1(n) qb^n with qb = exp(2 pi*i*tau), so the
    m-th derivative carries the weight (2 pi*i n)^m; the sums carry n^m and
    (2 pi*i)^m is applied once at the end.  The sum stops once the last term,
    weighted for the top order as sigma_1(n) qb^n n^order, is negligible
    against E2 - 1, as in theta_series.
    """
    tau = check_tau(tau)
    exp, pi, eps, _ = arithmetic(tau)
    qb = exp(2j * pi * tau)
    sigma = _divisor_sums()
    total = 0.0j                      # sum sigma_1(n) qb^n
    if order:
        sums = [0.0j] * order         # sum sigma_1(n) n^m qb^n, m = 1..order
    power = qb
    for n in range(1, _MAX_LINEAR_TERMS):
        t = power * sigma[n]
        total = total + t
        if order:
            for m in range(order):
                t = t * n
                sums[m] += t
        if abs(t) < eps * max(abs(total), 1e-300):
            break
        power = power * qb
    else:
        raise SeriesTruncationError(
            f"E2: series needs more than {_MAX_LINEAR_TERMS} terms")
    out = (-24.0 * total,)
    w = -24.0                         # -24 (2 pi*i)^m
    for m in range(order):
        w = w * (2j * pi)
        out += (w * sums[m],)
    return out


def e2_tail(tau):
    """E2(tau) - 1."""
    return e2_series(tau)[0]


def eisenstein_e2(tau):
    """E2(tau) = 1 - 24 sum sigma_1(n) qb^n, qb = exp(2 pi*i*tau)."""
    return 1.0 + e2_tail(tau)


@lru_cache(maxsize=1)
def eta_w_scale() -> float:
    """Calibration constant c in eta_w = c * E2.

    Solved from the theta3 equation of the closed system at tau = 2i, with
    theta3' from the order-1 series:
        theta3'/theta3 = (i/pi) eta_w + (pi*i/12)(theta2^4 - theta4^4).
    The result must agree with pi^2/12 (lattice half-periods (1, tau)).
    """
    t0 = 2j
    t3 = theta_series(t0, 1)[1::3]
    lhs = t3[1] / (1.0 + t3[0])
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


class ThetaFrame(namedtuple("ThetaFrame", "tau t2 t3 t4 eta etaw")):
    """theta2..theta4, eta, eta_w at a common tau."""

    __slots__ = ()

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
    exp, pi, _, _ = arithmetic(tau)   # exact constants for a CDD tau

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
                            + exp(2j * pi / 3.0) * e3 ** 8),
        "dedekind_prod": abs(e1 * e2_ * e3 - exp(1j * pi / 24.0) * e ** 3),
    }
    return res
