"""Registry of explicitly parametrized curves and their verification sweeps.

Every entry stores the defining polynomial F with exact integer coefficients
(as an exponent -> coefficient map) together with theta-constant expressions
for the generators; substituting the expressions at any tau must annihilate
F to identity tolerance.  Also here: the Weierstrass-quotient forms of the
genus-2 pair, the level-3 complete-integral relation, and exact discriminants
of bivariate polynomials.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from . import elliptic as el
from . import theta_eta as th
# chi_burnside, k_modulus_value, octahedral_j and x_quotient are public here
from .jets import (chi_burnside, k_modulus_value, octahedral_factors,
                   octahedral_j, x_quotient, y_burnside_value, z_fermat8_value)
from .numerics import NumericsError, check_tau, max_residual
from .numerics import POLY_X as _X, POLY_Y as _Y

SQRT2 = math.sqrt(2.0)
_PUNCTURE_BOUND = 1e4


# ---------------------------------------------------------------------------
# Exact bivariate polynomials as {(i, j): int} maps (numerics.Poly)


def p_eval(poly, x, y):
    return sum(c * x ** i * y ** j for (i, j), c in poly.items())


class CurveSpec(namedtuple("CurveSpec",
                           "id poly params genus notes j_invariant",
                           defaults=("", None))):
    """poly: exact integer coefficients {(i, j): c}; params: tau -> (x, y);
    j_invariant: a Fraction, stored when the curve is elliptic."""

    __slots__ = ()

    def residual(self, tau: complex) -> float:
        x, y = self.params(tau)
        # conditioning guard: the sum of monomial magnitudes bounds the
        # roundoff of the evaluation; past it the sample is puncture-adjacent
        # (a generator is blowing up) and the residual is not certifiable.
        mags = sum(abs(c) * abs(x) ** i * abs(y) ** j
                   for (i, j), c in self.poly.items())
        if mags > _PUNCTURE_BOUND:
            raise NumericsError(f"{self.id}: sample too close to a puncture")
        return abs(p_eval(self.poly, x, y))


# ---------------------------------------------------------------------------
# Parametrizations


def phi_burnside(tau: complex) -> complex:
    """Partner of chi = -x(tau/2) with phi^2 = chi^5 - chi: phi = i y(tau/2)
    = -4 eta^3(tau)/theta3^3(tau/2), the sign fixed by the eta form."""
    return 1j * y_burnside_value(tau / 2.0)


def _p_burnside(tau):
    return (x_quotient(tau), y_burnside_value(tau))


def _p_burnside_conformal(tau):
    return (chi_burnside(tau), phi_burnside(tau))


def _p_jacobi_quartic(tau):
    return (x_quotient(tau), th.theta2(tau) / th.theta3(tau))


def _w8(tau):
    """theta2/(sqrt2 theta3(2 tau)), the partner of z on z^8 + w^8 = 1."""
    return th.theta2(tau) / (SQRT2 * th.theta3(2.0 * tau))


def _p_fermat8(tau):
    return (z_fermat8_value(2.0 * tau), _w8(tau))


def _p_z9(tau):
    y = (1j * th.theta2(tau) ** 2 / th.theta3(tau) ** 3
         * cmath.sqrt(th.theta4(2.0 * tau) * th.theta3(tau)))
    return (z_fermat8_value(tau), y)


def _p_modular3(tau):
    return (z_fermat8_value(3.0 * tau), z_fermat8_value(tau))


def _p_modular5(tau):
    return (_w8(5.0 * tau), _w8(tau))


def _p_kl3(tau):
    return (k_modulus_value(tau), k_modulus_value(3.0 * tau))


def _p_kl5(tau):
    return (k_modulus_value(tau), k_modulus_value(5.0 * tau))


def _p_kappa_mu(tau):
    k, lam = _p_kl3(tau)
    return (k * k, lam * lam)


def _p_dedekind(tau):
    t3sq = th.theta3(tau) ** 2
    e2 = 2.0 * th.eta(tau) ** 2
    den = t3sq - e2
    x = (t3sq + e2) / den
    y = 4.0 * (th.theta4(tau) ** 4 - th.theta2(tau) ** 4) * t3sq / den ** 3
    return (x, y)


def _p_lemniscatic(tau):
    t2q = th.theta2(4.0 * tau)
    return (th.theta3(4.0 * tau) / t2q,
            th.theta2(tau) ** 2 / (math.sqrt(8.0) * t2q ** 2))


def _p_cyclic3(tau):
    return (x_quotient(tau),
            -16.0 ** (1.0 / 3.0) * th.eta(2.0 * tau) ** 2 / th.theta3(tau) ** 2)


def _p_cyclic6(tau):
    return (x_quotient(tau),
            1j * 16.0 ** (1.0 / 6.0) * th.eta(2.0 * tau) / th.theta3(tau))


def _poly_hyper(coeffs):
    """y^2 - sum coeffs[d] x^d as an exact map."""
    out = {(0, 2): 1}
    for d, c in coeffs.items():
        if c:
            out[(d, 0)] = -c
    return out


def _poly_kl3():
    return (_X - _Y) ** 4 - 16 * ((_X ** 3 - _X) * (_Y ** 3 - _Y))


def _poly_kl5():
    bracket = 4 * (_X * _Y + 1) ** 2 - (_X - _Y) ** 2
    return (_X - _Y) ** 6 - 64 * ((_X ** 3 - _X) * (_Y ** 3 - _Y) * bracket)


def _poly_kappa_mu():
    bracket = 2 * (_X * _Y) - (_X + _Y) + 2
    return (_X - _Y) ** 4 - 128 * ((_X ** 2 - _X) * (_Y ** 2 - _Y) * bracket)


def _poly_modular3():
    # z^4 - w^4 - 2 z w (1 - z^2 w^2)
    return {(4, 0): 1, (0, 4): -1, (1, 1): -2, (3, 3): 2}


def _poly_modular5():
    # z^6 - w^6 + 5 z^2 w^2 (z^2 - w^2) + 4 z w (1 - z^4 w^4)
    return {(6, 0): 1, (0, 6): -1, (4, 2): 5, (2, 4): -5,
            (1, 1): 4, (5, 5): -4}


def _poly_fermat(n):
    return {(n, 0): 1, (0, n): 1, (0, 0): -1}


_REGISTRY = None


def registry():
    """All curves with explicit theta parametrizations, exact coefficients."""
    global _REGISTRY
    if _REGISTRY is None:
        from fractions import Fraction
        _REGISTRY = (
            CurveSpec("burnside", _poly_hyper({5: 1, 1: -1}), _p_burnside, 2,
                      "y^2 = x^5 - x, x = theta4/theta3 at tau"),
            CurveSpec("burnside_conformal", _poly_hyper({5: 1, 1: -1}),
                      _p_burnside_conformal, 2,
                      "same curve under chi(tau) = -theta4(tau/2)/theta3(tau/2);"
                      " x(tau) = -chi(2 tau)"),
            CurveSpec("jacobi_quartic", _poly_fermat(4), _p_jacobi_quartic, 3,
                      "z^4 + w^4 = 1"),
            CurveSpec("fermat8", _poly_fermat(8), _p_fermat8, 21,
                      "z^8 + w^8 = 1 via the doubled-argument quotients"),
            CurveSpec("z9", _poly_hyper({9: 1, 1: -1}), _p_z9, 4,
                      "y^2 = z^9 - z; y is single valued, residual uses y^2"),
            CurveSpec("modular3", _poly_modular3(), _p_modular3, 0,
                      "level-3 relation between quartic-root moduli"),
            CurveSpec("modular5", _poly_modular5(), _p_modular5, 0,
                      "level-5 relation"),
            CurveSpec("kl3", _poly_kl3(), _p_kl3, 1,
                      "(k-l)^4 = 2^4 (k^3-k)(l^3-l), l = k(3 tau)",
                      Fraction(13 ** 3, 972)),
            CurveSpec("kl5", _poly_kl5(), _p_kl5, 3,
                      "(k-l)^6 = 2^6 (k^3-k)(l^3-l)(4(kl+1)^2-(l-k)^2)"),
            CurveSpec("kappa_mu", _poly_kappa_mu(), _p_kappa_mu, 0,
                      "reducible square-moduli form of the level-3 relation"),
            CurveSpec("dedekind38", _poly_hyper({5: 3, 3: 10, 1: 3}),
                      _p_dedekind, 2, "y^2 = 3x^5 + 10x^3 + 3x"),
            CurveSpec("lemniscatic47", _poly_hyper({3: 1, 1: 1}),
                      _p_lemniscatic, 1, "y^2 = x^3 + x"),
            CurveSpec("cyclic3", {(0, 3): 1, (5, 0): -1, (1, 0): 1},
                      _p_cyclic3, 4, "z^3 = x^5 - x"),
            CurveSpec("cyclic6", {(0, 6): 1, (5, 0): -1, (1, 0): 1},
                      _p_cyclic6, 10, "w^6 = x^5 - x"),
        )
    return _REGISTRY


def get_curve(cid: str) -> CurveSpec:
    for spec in registry():
        if spec.id == cid:
            return spec
    raise KeyError(f"unknown curve: {cid}")


def serialize_registry():
    """Registry as plain data: exact coefficients keyed 'i,j', metadata."""
    out = []
    for spec in registry():
        out.append({
            "id": spec.id,
            "genus": spec.genus,
            "coeffs": {f"{i},{j}": c for (i, j), c in sorted(spec.poly.items())},
            "notes": spec.notes,
            "j_invariant": (None if spec.j_invariant is None
                            else [spec.j_invariant.numerator,
                                  spec.j_invariant.denominator]),
        })
    return out


def curve_residual(cid: str, taus) -> dict:
    spec = get_curve(cid)
    worst = 0.0
    skipped = 0
    for tau in taus:
        try:
            worst = max_residual((worst, spec.residual(tau)))
        except NumericsError:
            skipped += 1
    return {"id": cid, "max_residual": worst, "skipped": skipped}


# ---------------------------------------------------------------------------
# The J bridge: octahedral form of Klein's invariant on the Burnside generator


def j_bridge_residual(tau: complex) -> float:
    """|J(tau) - octahedral form at chi(tau)|, Eisenstein route vs theta route.

    The form is built from the factored x^4 - 1 and x^5 - x at tau/2, where
    x = -chi; near the cusp the naive x+1 factor would cost half the digits.
    """
    tau = check_tau(tau)
    num, den = octahedral_factors(tau / 2.0)
    return abs(el.klein_j(tau) - num ** 3 / (108.0 * den ** 4))


# ---------------------------------------------------------------------------
# Weierstrass-quotient forms of the genus-2 generators


def burnside_wp_forms(tau: complex) -> dict:
    """Evaluate the wp-quotient forms of (chi, phi) and compare with theta.

    wp arguments follow the half-period reading of the (2, 2 tau) label, i.e.
    full periods (4, 4 tau); the limit tau -> i*inf fixes that choice, and a
    mismatch here is reported as a convention failure.
    """
    tau = check_tau(tau)
    par = el.WeierstrassParams.from_half_periods(2.0, 2.0 * tau)
    # wp and wp' once at each point
    points = (1.0, 2.0, tau, 2.0 * tau, tau / 2.0, tau + 2.0, 0.5,
              2.0 * tau + 1.0)
    values = [el.wp(z, par) for z in points]
    p1, p2, pt, p2t, ph, pt2, pq, p2t1 = (v[0] for v in values)
    dpt, dpq = values[2][1], values[6][1]

    chi_wp = (p1 - p2) / (pt - p2)
    num = 4j * (pt - p2t) * (ph - pt) * (ph - pt2) * (pq - p2t1) * (pq - p1)
    den = (ph - p1) * (ph - p2t1) * dpq * dpt
    phi_wp = num / den

    chi_t, phi_t = _p_burnside_conformal(tau)
    return {
        "chi_wp": chi_wp,
        "phi_wp": phi_wp,
        "chi_match": abs(chi_wp - chi_t),
        "curve": abs(phi_wp ** 2 - (chi_wp ** 5 - chi_wp)),
        "phi_match": min(abs(phi_wp - phi_t), abs(phi_wp + phi_t)),
    }


def involution_residual(tau: complex) -> float:
    """|phi(V1 tau) + phi(tau)| for the first level-4 generator V1."""
    image = tau / (-4.0 * tau + 1.0)
    return abs(phi_burnside(image) + phi_burnside(tau))


# ---------------------------------------------------------------------------
# Level-3 relation between complete elliptic integrals


def kl_relation_check(tau: complex) -> dict:
    """Residuals of 3K'(k)K(l) = K'(l)K(k) and its hypergeometric form."""
    tau = check_tau(tau)
    k, lam = _p_kl3(tau)
    for m in (k, lam):
        if min(abs(m), abs(m - 1.0), abs(m + 1.0)) < 1e-8:
            raise NumericsError("modulus too close to a singular value")
    r_k = abs(3.0 * el.ellip_Kprime(k) * el.ellip_K(lam)
              - el.ellip_Kprime(lam) * el.ellip_K(k))

    kappa, mu = k * k, lam * lam

    def f21(z):
        if abs(z) < 0.95:
            return el.hyp2f1_half_series(z)
        return el.hyp2f1_half(z)

    r_hyp = abs(3.0 * f21(1.0 - kappa) * f21(mu) - f21(1.0 - mu) * f21(kappa))
    curve3 = get_curve("kl3").residual(tau)
    curve_km = get_curve("kappa_mu").residual(tau)
    return {"integral_relation": r_k, "hypergeometric_relation": r_hyp,
            "curve_kl3": curve3, "curve_kappa_mu": curve_km}


def kl3_normal_form_check(tau: complex) -> dict:
    """Reduce the level-3 moduli curve to a cubic and read off its invariant.

    With p = sqrt(k l) (theta branch) the curve (k-l)^4 = 16(k^3-k)(l^3-l)
    is equivalent to k^4 - 2k^2 [p^2 + 2p(1-p)^2] + p^4 = 0, whose
    discriminant closes over v with v^2 = p^2 - p + 1.  On the line
    v = 1 + t p through (p, v) = (0, 1) one finds p = (2t+1)/(1-t^2) and
    k^2 = -(2t+1)^3/((t-1)^3 (t+1)), so K = k (t-1)^2 (t+1)/(2t+1) lands on

        K^2 = -2t^3 - t^2 + 2t + 1,

    which is y^2 = 4x^3 - (13/12)x + 35/216 after t = -2x - 1/6, K = 2y,
    hence J = (13/12)^3 / ((13/12)^3 - 27 (35/216)^2) = 13^3/972.
    """
    tau = check_tau(tau)
    k = k_modulus_value(tau)
    p = (th.theta2(tau) * th.theta2(3.0 * tau)
         / (th.theta3(tau) * th.theta3(3.0 * tau)))
    v = (p * p + 2.0 * p * (1.0 - p) ** 2 - k * k) / (2.0 * p * (1.0 - p))
    conic = abs(v * v - (p * p - p + 1.0))
    t = (v - 1.0) / p
    line = abs(p * (1.0 - t * t) - (2.0 * t + 1.0))
    big_k = k * (t - 1.0) ** 2 * (t + 1.0) / (2.0 * t + 1.0)
    cubic = max(abs(big_k ** 2 + 2.0 * t ** 3 + t * t - 2.0 * t - 1.0), line)
    from fractions import Fraction
    g2, g3 = Fraction(13, 12), Fraction(-35, 216)
    j_exact = g2 ** 3 / (g2 ** 3 - 27 * g3 ** 2)
    return {"conic": conic, "cubic": cubic, "j_exact": j_exact}


# ---------------------------------------------------------------------------
# Exact discriminants (resultant route)


# The exact helpers below take Fractions: their integer 0 and 1 start values
# turn into Fractions at the first operation.
def _poly1_eval(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def _det_fraction(mat):
    """Exact determinant by fraction Gaussian elimination."""
    n = len(mat)
    m = [row[:] for row in mat]
    det = 1
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] * inv
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _resultant_at(fp, gp, x):
    """Resultant in y of two polynomials with coefficients evaluated at x."""
    fv = [_poly1_eval(c, x) for c in fp]
    gv = [_poly1_eval(c, x) for c in gp]
    n, m = len(fv) - 1, len(gv) - 1
    size = n + m
    mat = [[0] * size for _ in range(size)]
    for r in range(m):
        for i, c in enumerate(fv):
            mat[r][r + i] = c
    for r in range(n):
        for i, c in enumerate(gv):
            mat[m + r][r + i] = c
    return _det_fraction(mat)


def discriminant_y(poly: dict):
    """Content-normalized discriminant of F(x, y) with respect to y.

    F arrives as the exact {(i, j): coeff} map (rational coefficients); the
    result is the primitive integer coefficient list of D(x), leading term
    positive, computed through the Sylvester resultant of (F, dF/dy) by exact
    interpolation.
    """
    from fractions import Fraction
    degy = max(j for (_, j) in poly)
    degx = max(i for (i, _) in poly)
    if degy < 1:
        raise NumericsError("F must involve y")
    # coefficient polynomials in x for F and dF/dy, descending powers of y
    frows = []
    for j in range(degy, -1, -1):
        row = [Fraction(poly.get((i, j), 0)) for i in range(degx, -1, -1)]
        frows.append(row)
    grows = []
    for j in range(degy, 0, -1):
        row = [Fraction(j) * Fraction(poly.get((i, j), 0))
               for i in range(degx, -1, -1)]
        grows.append(row)
    if all(v == 0 for v in frows[0]):
        raise NumericsError("degenerate leading coefficient in y")
    bound = (2 * degy - 1) * degx + 1
    xs = [Fraction(k) for k in range(bound + 1)]
    vals = [_resultant_at(frows, grows, x) for x in xs]
    coeffs = _lagrange_exact(xs, vals)
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs.pop(0)
    from math import gcd
    denom = 1
    for c in coeffs:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in coeffs]
    g = 0
    for c in ints:
        g = gcd(g, abs(c))
    if g:
        ints = [c // g for c in ints]
    if ints[0] < 0:
        ints = [-c for c in ints]
    return ints


def _lagrange_exact(xs, vals):
    """Exact interpolating polynomial, descending coefficients (Newton form)."""
    n = len(xs)
    divided = list(vals)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    coeffs = [0] * n
    coeffs[-1] = divided[n - 1]
    for i in range(n - 2, -1, -1):
        # multiply by (x - xs[i]) and add divided[i]
        new = [0] * n
        for k in range(n - 1):
            new[k] += coeffs[k + 1]
            new[k + 1] -= coeffs[k + 1] * xs[i]
        new[-1] += divided[i]
        coeffs = new
    return coeffs
