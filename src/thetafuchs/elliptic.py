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
from collections import namedtuple
from functools import cached_property, lru_cache

from . import theta_eta as th
from .modgroup import reduce_fundamental
from .numerics import POLISH_STOP, NumericsError, check_tau, polish, poly_roots

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


def burnside_psi_w(x: complex):
    """The weighted Psi pair sqrt(i/pi) sqrt(x^5 - x) (K'(x^2), i K(x^2)) on
    the x-plane of y^2 = x^5 - x, whose square matches d/dtau x(tau)."""
    x = complex(x)
    s = cmath.sqrt(x ** 5 - x)
    c = cmath.sqrt(1j / math.pi)
    return c * s * ellip_Kprime(x * x), 1j * c * s * ellip_K(x * x)


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
    """(k, k') = (theta2^2/theta3^2, theta4^2/theta3^2) at tau.

    Inside the unit circle the series are summed at sigma = -1/tau, where
    Im sigma = Im tau/|tau|^2 is larger, and (k, k')(tau) = (k', k)(sigma)
    since S swaps theta2 and theta4.  Near the cusp 0, k' is exponentially
    small and theta4(tau) = 1 + (theta4 - 1) would be pure round-off; at
    sigma it is theta2^2/theta3^2, accurate to its last bits.
    """
    tau = check_tau(tau)
    if abs(tau) < 1.0:
        kp, k = _moduli(-1.0 / tau)
        return k, kp
    return _moduli(tau)


def _moduli(tau: complex):
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
    tau0, _ = reduce_fundamental(tau)
    g2 = math.pi ** 4 / 12.0 * eisenstein_e4(tau0)
    disc = math.pi ** 12 * th.eta(tau0) ** 24
    return g2 ** 3 / disc


# ---------------------------------------------------------------------------
# Carlson symmetric integral


def carlson_rf(x: complex, y: complex, z: complex) -> complex:
    """Carlson's R_F by the duplication algorithm, complex arguments.

    The duplication stops once x, y and z are within 1e-3 |mu| of their
    mean mu; the fifth-order series below then leaves out terms of about
    (1e-3)^6 (Carlson, Numer. Algorithms 10 (1995)).
    """
    x, y, z = complex(x), complex(y), complex(z)
    if sum(1 for v in (x, y, z) if v == 0) > 1:
        raise NumericsError("R_F needs at most one zero argument")
    for _ in range(200):
        sx, sy, sz = cmath.sqrt(x), cmath.sqrt(y), cmath.sqrt(z)
        lam = sx * sy + sy * sz + sz * sx
        x, y, z = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam)
        mu = (x + y + z) / 3.0
        if abs(mu) > 0 and max(abs(x - mu), abs(y - mu), abs(z - mu)) < 1e-3 * abs(mu):
            break
    mu = (x + y + z) / 3.0
    dx, dy, dz = (mu - x) / mu, (mu - y) / mu, (mu - z) / mu
    e2 = dx * dy + dy * dz + dz * dx
    e3 = dx * dy * dz
    s = 1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0
    return s / cmath.sqrt(mu)


# ---------------------------------------------------------------------------
# Weierstrass functions


class WeierstrassParams(namedtuple("WeierstrassParams",
                                   "g2 g3 period1 period2")):
    """Invariants g2, g3 plus a compatible period lattice basis: the full
    periods period1 = 2 omega and period2 = 2 omega'.

    The lattice constants that wp and wp_inverse need on every call are
    cached properties: each is computed once per instance and kept in the
    instance's __dict__, outside the fields, so hashing and equality are
    those of the four fields.
    """

    @property
    def tau(self) -> complex:
        return self.period2 / self.period1

    @cached_property
    def reduced(self) -> tuple:
        """(omega, tau): half the first period and the period ratio, in the
        standard fundamental domain, of the basis that from_periods sums on."""
        return _reduced_basis(self.period1, self.period2)

    @cached_property
    def nome(self) -> tuple:
        """theta1's coefficients at the reduced period ratio."""
        return th.theta1_nome(self.reduced[1])

    @cached_property
    def eta_pair(self) -> tuple:
        """zeta at the reduced half periods omega and omega tau: DLMF 23.6(i)
        for eta1, then Legendre's eta1 omega tau - eta2 omega = i pi/2."""
        omega, tau = self.reduced
        _, t1, _, t3 = th.theta1_pass(0.0, self.nome)
        eta1 = -math.pi ** 2 * t3 / (12.0 * omega * t1)
        return eta1, (eta1 * omega * tau - 0.5j * math.pi) / omega

    @cached_property
    def branch_points(self) -> tuple:
        """Roots e1, e2, e3 of 4 t^3 - g2 t - g3."""
        return tuple(poly_roots([4.0, 0.0, -self.g2, -self.g3]))

    @staticmethod
    def from_periods(period1: complex, period2: complex) -> "WeierstrassParams":
        """Invariants from full periods via Eisenstein series, summed at the
        reduced period ratio so that skew bases do not degrade them."""
        if (period2 / period1).imag < 0:
            period2 = -period2
        omega, tau0 = _reduced_basis(period1, period2)
        g2, g3, _ = eisenstein(tau0)
        return WeierstrassParams(g2 / omega ** 4, g3 / omega ** 6,
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
        if not (g2 and g3):  # J = 0 or 1: the sextic's roots repeat
            tau = complex(-0.5, math.sqrt(3.0) / 2.0) if g3 else 1j  # rho or i
        else:
            jj = g2 ** 3 / disc
            # 4 (l^2 - l + 1)^3 = 27 J l^2 (l - 1)^2
            coeffs = [4.0, -12.0, 24.0 - 27.0 * jj, -28.0 + 54.0 * jj,
                      24.0 - 27.0 * jj, -12.0, 4.0]
            lam = next((r for r in poly_roots(coeffs, root_tol=1e-7)
                        if min(abs(r), abs(r - 1.0)) > 1e-6), None)
            if lam is None:
                raise NumericsError("could not solve J for lambda")
            tau = 1j * ellip_K(cmath.sqrt(1 - lam)) / ellip_K(cmath.sqrt(lam))
            if tau.imag <= 0:
                tau = -tau.conjugate()
            tau, _ = reduce_fundamental(tau)
        g2t, g3t, _ = eisenstein(tau)
        # w^4 = g2(tau)/g2, w^6 = g3(tau)/g3, hence w^2 is their ratio
        if not g2:
            w = (g3t / g3) ** (1.0 / 6.0)
        elif abs(g3) > 1e-12 * abs(g2) ** 1.5 and abs(g3t) > 1e-14:
            w = cmath.sqrt((g3t * g2) / (g3 * g2t))
        else:
            w = (g2t / g2) ** 0.25
        params = WeierstrassParams(g2, g3, 2.0 * w, 2.0 * w * tau)
        check = WeierstrassParams.from_periods(params.period1, params.period2)
        scale = max(abs(g2), abs(g3), 1e-12)
        if (abs(check.g2 - g2) > 1e-8 * scale
                or abs(check.g3 - g3) > 1e-8 * scale):
            raise NumericsError("period recovery failed the round trip")
        return params


def _reduced_basis(period1: complex, period2: complex) -> tuple:
    """(omega, tau0): the period ratio moved into the standard fundamental
    domain, and half the first period times the cocycle factor c tau + d."""
    tau = period2 / period1
    if tau.imag < 0:
        tau = -tau
    if tau.imag == 0:
        raise NumericsError("degenerate period lattice")
    tau0, m = reduce_fundamental(tau)
    return period1 / 2.0 * (m.c * tau + m.d), tau0


def lattice_cell(z: complex, params: WeierstrassParams) -> tuple:
    """(z0, w, m, n) with z = 2 omega (w + m + n tau) on the reduced basis,
    w in its centered cell |Re w| <= 1/2, |Im w| <= Im tau / 2, and
    z0 = 2 omega w; on a rectangular lattice z0 is z's translate nearest 0."""
    omega, tau = params.reduced
    w = complex(z) / (2.0 * omega)
    n = round(w.imag / tau.imag)
    w -= n * tau
    m = round(w.real)
    w -= m
    return 2.0 * omega * w, w, m, n


def wp(z: complex, params: WeierstrassParams):
    """(wp, wp', zeta) at z from one theta1 pass (DLMF 23.6(i)).

    z moves into the centered cell of the reduced basis (omega, tau), and
    zeta takes the quasi-periods of the move.  With v = pi z / (2 omega),
    s = pi / (2 omega) and -eta1 / omega = s^2 theta1'''(0) / (3 theta1'(0)),

        wp   = -s^2 (log theta1)''(v) - eta1 / omega,
        wp'  = -s^3 (log theta1)'''(v),
        zeta = eta1 z / omega + s theta1'(v) / theta1(v).
    """
    _, w, m, n = lattice_cell(z, params)
    if abs(w) < 1e-12:
        raise NumericsError(f"z={z} is a lattice point")
    t0, t1, t2, t3 = th.theta1_pass(math.pi * w, params.nome)
    r1, r2 = t1 / t0, t2 / t0
    omega = params.reduced[0]
    s = math.pi / (2.0 * omega)
    eta1, eta2 = params.eta_pair
    p = s * s * (r1 * r1 - r2) - eta1 / omega
    dp = -s * s * s * (t3 / t0 - 3.0 * r1 * r2 + 2.0 * r1 * r1 * r1)
    zeta = 2.0 * (w + m) * eta1 + s * r1 + 2.0 * n * eta2
    return p, dp, zeta


def wp_branch_points(params: WeierstrassParams) -> tuple:
    """Roots e1, e2, e3 of 4 t^3 - g2 t - g3, computed once per lattice."""
    return params.branch_points


def wp_inverse(w: complex, params: WeierstrassParams) -> complex:
    """A value alpha with wp(alpha) = w, normalized into the centered cell.

    Computed as the Carlson form of int_w^inf ds/sqrt(4s^3-g2 s-g3), then
    polished (numerics.polish) on wp(alpha) - w at scale max(1, |w|); of the
    pair {alpha, -alpha} the representative with Re >= 0 (ties to Im >= 0) is
    returned.
    """
    return _wp_inverse_checked(w, params)[0]


@lru_cache(maxsize=1)
def _wp_inverse_checked(w: complex, params: WeierstrassParams):
    """(alpha, wp(alpha), wp'(alpha)) for wp_inverse's alpha.

    wp and wp' come from the final residual check.  The last call is kept,
    so a caller that needs them after wp_inverse(w, params) gets them with
    the same arguments and no second evaluation.
    """
    scale = max(1.0, abs(w))

    def fdf(alpha):
        p, dp, _ = wp(alpha, params)
        if abs(dp) < 1e-12 and abs(p - w) > POLISH_STOP * scale:
            raise NumericsError("wp_inverse at a branch value: ambiguous")
        return p - w, dp

    e1, e2, e3 = wp_branch_points(params)
    alpha = polish(fdf, carlson_rf(w - e1, w - e2, w - e3), scale)
    z0 = lattice_cell(alpha, params)[0]
    if z0.real < 0 or (z0.real == 0 and z0.imag < 0):
        z0 = -z0
    p, dp, _ = wp(z0, params)
    if abs(p - w) > 1e-8 * max(1.0, abs(w)):
        raise NumericsError(f"wp_inverse residual too large: {abs(p - w):.3e}")
    return z0, p, dp
