"""Complete elliptic integrals, Eisenstein invariants, Weierstrass functions.

K always takes the *modulus* k, so K(k) = (pi/2) 2F1(1/2,1/2;1|k^2); sources
that write K(x^2) mean the modulus equals x^2.  The complementary integral is
K'(k) = K(sqrt(1-k^2)) on the principal branch.

Invariants follow the lattice with half-periods (1, tau):

    g2(tau) = (pi^4/12)  E4(tau)
    g3(tau) = (pi^6/216) E6(tau)
    J = g2^3 / (g2^3 - 27 g3^2)

so g2(i) = pi^4 {1/12 + 20 sum k^3/(e^{2 pi k}-1)} = 11.817045...  Weierstrass
params scale as g2 -> g2/w^4, g3 -> g3/w^6 for the lattice w*(2Z + 2 tau Z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import theta_eta as th
from .numerics import NumericsError, check_tau, poly_roots

def agm(a: complex, b: complex) -> complex:
    """Arithmetic-geometric mean with the standard branch choice.

    At each step the square root sign is taken so that
    |a1 - b1| <= |a1 + b1|, which selects the principal AGM for all moduli
    off the cut.
    """
    a, b = complex(a), complex(b)
    for _ in range(80):
        if abs(a - b) <= 1e-17 * (abs(a) + abs(b)):
            return 0.5 * (a + b)
        a, b = 0.5 * (a + b), cmath.sqrt(a * b)
        if abs(a - b) > abs(a + b):
            b = -b
    return 0.5 * (a + b)


def ellip_K(k: complex) -> complex:
    """Complete elliptic integral of the first kind, modulus convention."""
    k = complex(k)
    m = k * k
    if m.imag == 0.0 and m.real >= 1.0:
        raise NumericsError(f"K undefined on the cut k^2 in [1, inf): k^2={m}")
    kp = cmath.sqrt(1.0 - m)
    g = agm(1.0, kp)
    if g == 0:
        raise NumericsError("K pole at k^2 = 1")
    return math.pi / (2.0 * g)


def ellip_Kprime(k: complex) -> complex:
    """K'(k) = K(sqrt(1-k^2)), principal square root."""
    return ellip_K(cmath.sqrt(1.0 - complex(k) ** 2))


def hyp2f1_half(z: complex) -> complex:
    """2F1(1/2, 1/2; 1 | z) = (2/pi) K(sqrt(z)), principal branch."""
    z = complex(z)
    if z.imag == 0.0 and z.real >= 1.0:
        raise NumericsError(f"2F1 cut at z in [1, inf): z={z}")
    return (2.0 / math.pi) * ellip_K(cmath.sqrt(z))


def hyp2f1_half_series(z: complex, max_terms: int = 4000) -> complex:
    """Direct series sum of 2F1(1/2,1/2;1|z); cross-check path, |z| < 1."""
    z = complex(z)
    if abs(z) >= 0.999:
        raise NumericsError("series path needs |z| < 1")
    term = 1.0 + 0.0j
    total = term
    for n in range(max_terms):
        term *= z * ((n + 0.5) / (n + 1.0)) ** 2
        total += term
        if abs(term) < 1e-18 * abs(total):
            return total
    raise NumericsError("2F1 series did not converge")


def legendre_moduli(tau: complex):
    """(k, k') = (theta2^2/theta3^2, theta4^2/theta3^2) at tau."""
    t2, t3t, t4t = th.theta_series(tau)
    t3sq = (1.0 + t3t) ** 2
    return t2 ** 2 / t3sq, (1.0 + t4t) ** 2 / t3sq


def eisenstein_e4(tau: complex) -> complex:
    return 1.0 + 240.0 * th.lambert_series(3, tau)


def eisenstein_e6(tau: complex) -> complex:
    return 1.0 - 504.0 * th.lambert_series(5, tau)


def eisenstein(tau: complex):
    """(g2, g3, J) at tau for the lattice with half-periods (1, tau)."""
    tau = check_tau(tau)
    g2 = math.pi ** 4 / 12.0 * eisenstein_e4(tau)
    g3 = math.pi ** 6 / 216.0 * eisenstein_e6(tau)
    denom = g2 ** 3 - 27.0 * g3 ** 2
    if denom == 0:
        raise NumericsError("discriminant vanished in J")
    return g2, g3, g2 ** 3 / denom


def klein_j(tau: complex) -> complex:
    """J(tau), evaluated after reduction into the standard fundamental domain.

    J is PSL2(Z)-invariant, so moving tau up first keeps the series short and
    accurate for points close to the real axis.  The discriminant is taken in
    its product form pi^12 eta^24 rather than as g2^3 - 27 g3^2: high in the
    domain the subtraction would cancel to the size of J itself.
    """
    from .modgroup import reduce_fundamental

    tau0, _ = reduce_fundamental(tau)
    g2 = math.pi ** 4 / 12.0 * eisenstein_e4(tau0)
    disc = math.pi ** 12 * th.eta(tau0) ** 24
    return g2 ** 3 / disc


# ---------------------------------------------------------------------------
# Carlson symmetric integral


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F by the duplication algorithm, complex arguments."""
    x, y, z = complex(x), complex(y), complex(z)
    if sum(1 for v in (x, y, z) if v == 0) > 1:
        raise NumericsError("R_F needs at most one zero argument")
    for _ in range(200):
        lam = (cmath.sqrt(x) * cmath.sqrt(y) + cmath.sqrt(y) * cmath.sqrt(z)
               + cmath.sqrt(z) * cmath.sqrt(x))
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        if abs(mu) > 0 and max(abs(x - mu), abs(y - mu), abs(z - mu)) < 1e-10 * abs(mu):
            break
    mu = (x + y + z) / 3.0
    dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    s = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return s / cmath.sqrt(mu)


# ---------------------------------------------------------------------------
# Weierstrass functions


@dataclass(frozen=True)
class WeierstrassParams:
    """Invariants plus a compatible period lattice basis (full periods).

    The constants of the lattice that wp and wp_inverse need on every call
    (Laurent coefficients, branch points, shortest period, zeta at the half
    periods) are cached properties: each is computed once per instance and
    kept outside the fields, so hashing and equality are unchanged.
    """

    g2: complex
    g3: complex
    period1: complex  # 2*omega
    period2: complex  # 2*omega'

    @property
    def tau(self) -> complex:
        return self.period2 / self.period1

    @cached_property
    def laurent(self) -> tuple:
        """c_m with wp(z) = 1/z^2 + sum_{m>=2} c_m z^(2m-2) (A&S 18.5.3)."""
        c = [0.0, 0.0, self.g2 / 20.0, self.g3 / 28.0]
        for m in range(4, 24):
            s = sum(c[j] * c[m - j] for j in range(2, m - 1))
            c.append(3.0 * s / ((2 * m + 1) * (m - 3)))
        return tuple(c)

    @cached_property
    def branch_points(self) -> tuple:
        """Roots e1, e2, e3 of 4 t^3 - g2 t - g3."""
        return tuple(poly_roots([4.0, 0.0, -self.g2, -self.g3]))

    @cached_property
    def shortest(self) -> float:
        """Length of the shortest nonzero period (among |m|, |n| <= 2)."""
        p1, p2 = self.period1, self.period2
        return min(abs(m * p1 + n * p2) for m in range(-2, 3)
                   for n in range(-2, 3) if (m, n) != (0, 0))

    @cached_property
    def eta_pair(self) -> tuple:
        """zeta at both half-periods, via the ladder (no quasi-periods needed)."""
        return tuple(_wp_ladder(half, self)[2]
                     for half in (self.period1 / 2.0, self.period2 / 2.0))

    @staticmethod
    def from_periods(period1: complex, period2: complex) -> "WeierstrassParams":
        """Invariants from full periods via Eisenstein series.

        The period ratio is reduced into the standard fundamental domain
        first (the lattice is unchanged under the basis change, the half
        period picks up the cocycle factor), so skew bases do not degrade
        the series.
        """
        from .modgroup import reduce_fundamental

        w = period1 / 2.0
        tau = period2 / period1
        if tau.imag < 0:
            period2 = -period2
            tau = -tau
        if tau.imag == 0:
            raise NumericsError("degenerate period lattice")
        tau0, m = reduce_fundamental(tau)
        w_eff = w * (m.c * tau + m.d)
        g2 = math.pi ** 4 / 12.0 * eisenstein_e4(tau0)
        g3 = math.pi ** 6 / 216.0 * eisenstein_e6(tau0)
        return WeierstrassParams(g2 / w_eff ** 4, g3 / w_eff ** 6,
                                 period1, period2)

    @staticmethod
    def from_half_periods(omega: complex, omega_p: complex) -> "WeierstrassParams":
        return WeierstrassParams.from_periods(2.0 * omega, 2.0 * omega_p)

    @staticmethod
    def from_invariants(g2: complex, g3: complex) -> "WeierstrassParams":
        """Recover a period basis: solve J for the modular lambda, then scale."""
        g2, g3 = complex(g2), complex(g3)
        disc = g2 ** 3 - 27.0 * g3 ** 2
        if disc == 0:
            raise NumericsError("vanishing discriminant g2^3 - 27 g3^2")
        jj = g2 ** 3 / disc
        # 4 (l^2 - l + 1)^3 = 27 J l^2 (l - 1)^2
        coeffs = [4.0, -12.0, 24.0 - 27.0 * jj, -28.0 + 54.0 * jj,
                  24.0 - 27.0 * jj, -12.0, 4.0]
        lam = None
        for r in poly_roots(coeffs, root_tol=1e-7):
            if min(abs(r), abs(r - 1.0)) > 1e-6:
                lam = r
                break
        if lam is None:
            raise NumericsError("could not solve J for lambda")
        tau = 1j * ellip_K(cmath.sqrt(1.0 - lam)) / ellip_K(cmath.sqrt(lam))
        if tau.imag <= 0:
            tau = -tau.conjugate()
        from .modgroup import reduce_fundamental

        tau, _ = reduce_fundamental(tau)
        g2t = math.pi ** 4 / 12.0 * eisenstein_e4(tau)
        g3t = math.pi ** 6 / 216.0 * eisenstein_e6(tau)
        # w^4 = g2(tau)/g2, w^6 = g3(tau)/g3, hence w^2 is their ratio
        if abs(g3) > 1e-12 * abs(g2) ** 1.5 and abs(g3t) > 1e-14:
            w = cmath.sqrt((g3t * g2) / (g3 * g2t))
        elif abs(g2) > 0:
            w = (g2t / g2) ** 0.25
        else:
            w = (g3t / g3) ** (1.0 / 6.0)
        params = WeierstrassParams(g2, g3, 2.0 * w, 2.0 * w * tau)
        check = WeierstrassParams.from_periods(params.period1, params.period2)
        scale = max(abs(g2), abs(g3), 1e-12)
        if (abs(check.g2 - g2) > 1e-8 * scale
                or abs(check.g3 - g3) > 1e-8 * scale):
            raise NumericsError("period recovery failed the round trip")
        return params


def _lattice_reduce(z: complex, p1: complex, p2: complex):
    """z - (m p1 + n p2) of minimal modulus; returns (z0, m, n)."""
    det = p1.real * p2.imag - p1.imag * p2.real
    if det == 0:
        raise NumericsError("degenerate lattice")
    m0 = (z.real * p2.imag - z.imag * p2.real) / det
    n0 = (p1.real * z.imag - p1.imag * z.real) / det
    best = None
    for dm in (-1, 0, 1):
        for dn in (-1, 0, 1):
            m = round(m0) + dm
            n = round(n0) + dn
            cand = z - m * p1 - n * p2
            if best is None or abs(cand) < abs(best[0]):
                best = (cand, m, n)
    return best


def _wp_series(z: complex, c) -> tuple:
    """Laurent values (wp, wp', zeta) near 0 from the coefficients c_m;
    |z| must be well inside the cell."""
    z2 = z * z
    p = 1.0 / z2
    dp = -2.0 / (z2 * z)
    zeta = 1.0 / z
    zpow = z2
    for m in range(2, len(c)):
        term = c[m] * zpow  # c_m z^{2m-2}
        p += term
        dp += (2 * m - 2) * c[m] * zpow / z
        zeta -= c[m] * zpow * z / (2 * m - 1)
        zpow *= z2
    return p, dp, zeta


def _wp_duplicate(p, dp, zt, g2):
    ppp = 6.0 * p * p - 0.5 * g2
    if dp == 0:
        raise NumericsError("duplication through a half-period")
    p2 = 0.25 * (ppp / dp) ** 2 - 2.0 * p
    dp2 = 0.5 * (ppp * (12.0 * p * dp * dp - ppp * ppp) / (2.0 * dp ** 3) - 2.0 * dp)
    zt2 = 2.0 * zt + 0.5 * ppp / dp
    return p2, dp2, zt2


def _wp_ladder(z: complex, params: WeierstrassParams) -> tuple:
    """(wp, wp', zeta) at z near 0: halve into the Laurent ball, evaluate
    the series there, then climb back with the duplication formulas."""
    k = 0
    while abs(z) > 0.35 * params.shortest:
        z /= 2.0
        k += 1
    p, dp, zt = _wp_series(z, params.laurent)
    for _ in range(k):
        p, dp, zt = _wp_duplicate(p, dp, zt, params.g2)
    return p, dp, zt


def wp(z: complex, params: WeierstrassParams):
    """(wp, wp', zeta) at z.

    Lattice reduction plus halving into the Laurent ball, then the duplication
    formulas back up; zeta picks up the quasi-period increments.
    """
    z = complex(z)
    z0, m, n = _lattice_reduce(z, params.period1, params.period2)
    if abs(z0) < 1e-12 * params.shortest:
        raise NumericsError(f"z={z} is a lattice point")
    p, dp, zt = _wp_ladder(z0, params)
    if m or n:
        eta1, eta2 = params.eta_pair
        zt += 2.0 * m * eta1 + 2.0 * n * eta2
    return p, dp, zt


def wp_branch_points(params: WeierstrassParams) -> tuple:
    """Roots e1, e2, e3 of 4 t^3 - g2 t - g3, computed once per lattice."""
    return params.branch_points


def wp_inverse(w: complex, params: WeierstrassParams,
               polish: bool = True) -> complex:
    """A value alpha with wp(alpha) = w, normalized into the centered cell.

    Computed as the Carlson form of int_w^inf ds/sqrt(4s^3-g2 s-g3); of the
    pair {alpha, -alpha} the representative with Re >= 0 (ties to Im >= 0) is
    returned.

    The Newton polish stops at |wp(alpha) - w| < 1e-13 max(1, |w|), or at
    the round-off floor: once a step fails to halve the residual, the
    better of the last two alphas is kept.
    """
    return _wp_inverse_checked(w, params, polish)[0]


@lru_cache(maxsize=1)
def _wp_inverse_checked(w: complex, params: WeierstrassParams,
                        polish: bool):
    """(alpha, wp(alpha), wp'(alpha)) for wp_inverse's alpha.

    wp and wp' come from the final residual check.  The last call is kept,
    so a caller that needs them after wp_inverse(w, params) gets them with
    the same arguments and no second evaluation.
    """
    e1, e2, e3 = wp_branch_points(params)
    alpha = carlson_rf(w - e1, w - e2, w - e3)
    if polish:
        last = None              # (alpha, |residual|) before the last step
        for _ in range(6):
            p, dp, _ = wp(alpha, params)
            err = p - w
            if abs(err) < 1e-13 * max(1.0, abs(w)):
                break
            if abs(dp) < 1e-12:
                raise NumericsError("wp_inverse at a branch value: ambiguous")
            if last is not None and abs(err) > 0.5 * last[1]:
                if abs(err) > last[1]:
                    alpha = last[0]
                break
            last = (alpha, abs(err))
            alpha = alpha - err / dp
    z0, _, _ = _lattice_reduce(alpha, params.period1, params.period2)
    if z0.real < 0 or (z0.real == 0 and z0.imag < 0):
        z0 = -z0
    p, dp, _ = wp(z0, params)
    if abs(p - w) > 1e-8 * max(1.0, abs(w)):
        raise NumericsError(f"wp_inverse residual too large: {abs(p - w):.3e}")
    return z0, p, dp
