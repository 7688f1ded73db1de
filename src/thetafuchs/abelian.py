"""Torus covers of the genus-2 curve, integral identities, Poincare metrics.

The two elliptic covers live on the lattices with invariants (5/3, -+7 sqrt2/27);
their coordinates alpha_pm(tau) come from inverting wp on a theta expression.
All integral identities are verified at derivative level (the displays omit
integration constants), with sqrt(i) = exp(i pi/4) and principal roots; the
leftover sign freedoms are tried both ways and the winning assignment is
reported rather than hidden.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from . import elliptic as el
from . import theta_eta as th
from .jets import JET_CACHE_SIZE, lambda_mixed_value, x_burnside, x_quotient
from .numerics import NumericsError, check_tau

SQRT2 = math.sqrt(2.0)
SQRT_I = cmath.exp(1j * math.pi / 4.0)
SQRT_1PI = cmath.sqrt(1.0 + 1j)

_PARAMS = {
    +1: el.WeierstrassParams.from_invariants(5.0 / 3.0, -7.0 * SQRT2 / 27.0),
    -1: el.WeierstrassParams.from_invariants(5.0 / 3.0, +7.0 * SQRT2 / 27.0),
}


def cover_params(sign: int) -> el.WeierstrassParams:
    return _PARAMS[+1 if sign >= 0 else -1]


def wp_rational(x: complex, sign: int) -> complex:
    """(1 +- sqrt2)(1-i) x / ((x-i)(x+1)) - (3 +- sqrt2)/6.

    This is the value of wp at the torus coordinate, as a rational function
    of the curve generator x; differentiating it against the cubic gives back
    the holomorphic differentials exactly, so it is the form all the checks
    build on.
    """
    s = 1.0 if sign >= 0 else -1.0
    return ((1.0 + s * SQRT2) * (1.0 - 1j) * x / ((x - 1j) * (x + 1.0))
            - (3.0 + s * SQRT2) / 6.0)


def wp_rational_slope(x: complex, sign: int) -> complex:
    """d/dx of wp_rational: -(1 +- sqrt2)(1-i)(x^2+i)/((x-i)^2 (x+1)^2)."""
    s = 1.0 if sign >= 0 else -1.0
    return (-(1.0 + s * SQRT2) * (1.0 - 1j) * (x * x + 1j)
            / ((x - 1j) ** 2 * (x + 1.0) ** 2))


def wp_argument(tau: complex, sign: int) -> complex:
    """wp(alpha_pm) at tau, through x = theta4/theta3."""
    return wp_rational(x_quotient(check_tau(tau)), sign)


def wp_argument_theta(tau: complex, sign: int) -> complex:
    """(1 +- sqrt2) theta3^2(2t)/(2 theta4(t) theta3(4t)) - (3 +- sqrt2)/6.

    The same rational expression evaluated at the Mobius image
    (x - i)/(x + i) instead of x; see mobius_bridge_residual.
    """
    s = 1.0 if sign >= 0 else -1.0
    lam = lambda_mixed_value(tau)
    return (1.0 + s * SQRT2) * lam / 2.0 - (3.0 + s * SQRT2) / 6.0


def mobius_bridge_residual(tau: complex) -> float:
    """|theta-form argument - rational form at (x-i)/(x+i)|.

    theta3^2(2t)/(theta4 theta3(4t)) equals (x^2+1)/(x(x+1)) on the nose, so
    the theta-form wp argument is the rational one precomposed with the
    Mobius map x -> (x-i)/(x+i).
    """
    tau = check_tau(tau)
    x = x_quotient(tau)
    m = (x - 1j) / (x + 1j)
    return abs(wp_argument_theta(tau, +1) - wp_rational(m, +1))


@lru_cache(maxsize=JET_CACHE_SIZE)
def _cover_alpha(tau: complex, sign: int):
    """(alpha, wp(alpha), wp'(alpha)) on the cover of this sign at tau.

    The integrals checks are separate calls at one tau, and each reads the
    same two cover points, so the wp^-1 solve runs once per (tau, sign).
    Like the jet caches, the cache holds one tau's keys and relies on
    callers walking tau in the outer loop.  The solve goes through
    el.wp_inverse, the one entry point that tests and the traced benchmark
    count; wp and wp' are those of its final check, which
    _wp_inverse_checked keeps for the last call.
    """
    par = cover_params(sign)
    w = wp_argument(tau, sign)
    alpha = el.wp_inverse(w, par)
    _, pv, dv = el._wp_inverse_checked(w, par)
    return alpha, pv, dv


def alpha_pm(tau: complex):
    """Both torus coordinates (alpha_plus, alpha_minus) at tau."""
    return _cover_alpha(tau, +1)[0], _cover_alpha(tau, -1)[0]


def _alpha_aligned(tau: complex, sign: int, base: complex) -> complex:
    """alpha at tau on the branch continuous with the base value: the
    lattice translate of +-alpha nearest to it."""
    par = cover_params(sign)
    raw = el.wp_inverse(wp_argument(tau, sign), par)
    return base + min((el.lattice_cell(flip * raw - base, par)[0]
                       for flip in (1.0, -1.0)), key=abs)


def alpha_slope(tau: complex, sign: int) -> complex:
    """d alpha/d tau by the chain rule through wp(alpha) = wp_rational(x).

    Differentiating both sides in tau gives wp'(alpha) alpha_tau =
    wp_rational_slope(x) x_tau; wp' comes from wp at the alpha that
    wp_inverse returns, x and x_tau from the Burnside jet.
    """
    dv = _cover_alpha(tau, sign)[2]
    x, x1 = x_burnside(tau, 1).d
    return wp_rational_slope(x, sign) * x1 / dv


def alpha_slope_fd(tau: complex, sign: int, h: float = 1e-4) -> complex:
    """d alpha/d tau by aligned central differences (cross-oracle path)."""
    base = _cover_alpha(tau, sign)[0]
    plus = _alpha_aligned(tau + h, sign, base)
    minus = _alpha_aligned(tau - h, sign, base)
    return (plus - minus) / (2.0 * h)


CoverPoint = namedtuple("CoverPoint", "tau x alpha_plus alpha_minus")


def cover_point(tau: complex) -> CoverPoint:
    ap, am = alpha_pm(tau)
    return CoverPoint(tau, x_quotient(tau), ap, am)


def cover_relation_residuals(tau: complex) -> dict:
    """Residuals of the algebraic cover relations at x = theta4/theta3.

    wp(alpha) must match the rational expression in x exactly; wp'(alpha)
    matches up to the sheet sign, which is reported.
    """
    tau = check_tau(tau)
    x = x_quotient(tau)
    out = {"mobius_bridge": mobius_bridge_residual(tau)}
    for sign, key in ((+1, "plus"), (-1, "minus")):
        s = 1.0 if sign > 0 else -1.0
        _, pv, dv = _cover_alpha(tau, sign)
        out[f"wp_{key}"] = abs(pv - wp_rational(x, sign))
        dp_target = (2.0 * cmath.sqrt(1.0 - 1j) / (SQRT2 - s * 2.0)
                     * (x + s * 1j * SQRT_I) * cmath.sqrt(x ** 5 - x)
                     / ((x - 1j) ** 2 * (x + 1.0) ** 2))
        out[f"wp_prime_{key}"] = min(abs(dv - dp_target), abs(dv + dp_target))
        out[f"wp_prime_sign_{key}"] = (
            1.0 if abs(dv - dp_target) <= abs(dv + dp_target) else -1.0)
    return out


# ---------------------------------------------------------------------------
# Holomorphic differentials


def holo_integrand_theta(tau: complex, sign: int) -> complex:
    """-pi (theta4 -+ i sqrt(i) theta3) eta^3(2 tau), the tau-side integrand."""
    s = 1.0 if sign >= 0 else -1.0
    return (-math.pi * (th.theta4(tau) - s * 1j * SQRT_I * th.theta3(tau))
            * th.eta(2.0 * tau) ** 3)


def holo_integrand_x(tau: complex, sign: int) -> complex:
    """(x -+ i sqrt(i)) / sqrt(x^5 - x) * dx/dtau with principal root."""
    s = 1.0 if sign >= 0 else -1.0
    x, x1 = x_burnside(tau, 1).d
    return (x - s * 1j * SQRT_I) / cmath.sqrt(x ** 5 - x) * x1


def holo_differential_check(tau: complex) -> dict:
    """Derivative-level match of the three forms of the holomorphic integrals.

    Output per sign: theta form vs x form (up to the square-root sign, which
    is recorded) and theta form vs sqrt(1+i) d alpha/d tau (up to the wp
    branch sign, recorded), the slope taken by the chain rule (alpha_slope).
    """
    tau = check_tau(tau)
    out = {}
    for sign, key in ((+1, "plus"), (-1, "minus")):
        ft = holo_integrand_theta(tau, sign)
        fx = holo_integrand_x(tau, sign)
        out[f"x_form_{key}"] = min(abs(ft - fx), abs(ft + fx))
        out[f"x_form_sign_{key}"] = 1.0 if abs(ft - fx) <= abs(ft + fx) else -1.0
        da = SQRT_1PI * alpha_slope(tau, sign)
        out[f"alpha_form_{key}"] = min(abs(ft - da), abs(ft + da))
        out[f"alpha_form_sign_{key}"] = 1.0 if abs(ft - da) <= abs(ft + da) else -1.0
    return out


# ---------------------------------------------------------------------------
# Meromorphic integrals with single poles at the branch places x = i, x = -1


def mero_integrand_i1(tau: complex) -> complex:
    return (-(1.0 + 1j) * math.pi / 32.0 * th.theta4(2.0 * tau)
            * th.theta2(tau / 2.0) ** 4 / th.theta4(tau + 0.5))


def mero_integrand_i2(tau: complex) -> complex:
    return (-math.pi / 32.0 * th.theta4(2.0 * tau)
            * th.theta2(tau / 2.0) ** 4 / th.theta3(4.0 * tau))


def mero_direct_integrand(tau: complex, pole: complex) -> complex:
    """(x - pole)^-1 (x^5 - x)^(-1/2) dx/dtau from the jets."""
    x, x1 = x_burnside(tau, 1).d
    if abs(x - pole) < 1e-8:
        raise NumericsError("sample too close to the pole")
    return x1 / ((x - pole) * cmath.sqrt(x ** 5 - x))


def alpha_slope_exact(tau: complex, sign: int) -> complex:
    """(x -+ i sqrt(i)) x_tau / (sqrt(1+i) sqrt(x^5-x)), the closed form."""
    s = 1.0 if sign >= 0 else -1.0
    x, x1 = x_burnside(tau, 1).d
    return (x - s * 1j * SQRT_I) * x1 / (SQRT_1PI * cmath.sqrt(x ** 5 - x))


def mero_identity_check(tau: complex) -> dict:
    """Derivative level of the two linear identities binding I1, I2, alpha_pm.

    With all integrands on one branch of sqrt(x^5 - x),

      -(1 +- sqrt(i)) I1' + (1 -+ i sqrt(i)) I2'
          = sqrt(1+i) [ -wp(a_pm) + (3 +- 2 sqrt2)/6 ] a_pm'
            - sqrt(1+i) (2 +- sqrt2)/2 a_mp'.

    The leading minus on the I1 coefficient is forced: the two theta-form
    integrand displays sit on a common sheet (their ratio is identically
    (1+i) theta3(4 tau)/theta4(tau + 1/2) = (x+1)/(x-i)), and with a common
    sheet only this sign closes the identity.  One overall sheet flip remains
    and is reported.
    """
    tau = check_tau(tau)
    i1 = mero_integrand_i1(tau)
    i2 = mero_integrand_i2(tau)
    d1 = mero_direct_integrand(tau, 1j)
    d2 = mero_direct_integrand(tau, -1.0)
    out = {
        "i1_vs_direct": min(abs(i1 - d1), abs(i1 + d1)),
        "i2_vs_direct": min(abs(i2 - d2), abs(i2 + d2)),
        "display_sheet": 1.0 if abs(i1 - d1) <= abs(i1 + d1) else -1.0,
    }
    wp_val = {}
    slope = {}
    for sign in (+1, -1):
        wp_val[sign] = _cover_alpha(tau, sign)[1]
        slope[sign] = alpha_slope_exact(tau, sign)
    for sign, key in ((+1, "plus"), (-1, "minus")):
        s = 1.0 if sign > 0 else -1.0
        c1 = -(1.0 + s * SQRT_I) / SQRT_1PI
        c2 = (1.0 - s * 1j * SQRT_I) / SQRT_1PI
        rhs = (-wp_val[sign] * slope[sign]
               + (3.0 + s * 2.0 * SQRT2) / 6.0 * slope[sign]
               - (2.0 + s * SQRT2) / 2.0 * slope[-sign])
        best = None
        for sheet in (1.0, -1.0):
            lhs = sheet * (c1 * d1 + c2 * d2)
            r = abs(lhs - rhs)
            if best is None or r < best[0]:
                best = (r, sheet)
        out[f"linear_{key}"] = best[0]
        out[f"linear_{key}_sheet"] = best[1]
        # cross-check the closed slope against the aligned finite difference
        fd = alpha_slope_fd(tau, sign)
        out[f"slope_fd_{key}"] = min(abs(fd - slope[sign]),
                                     abs(fd + slope[sign]))
    return out


# ---------------------------------------------------------------------------
# Poincare metrics


MetricSample = namedtuple("MetricSample", "coordinate density u")


def metric_density(model: str, psi1: complex, psi2: complex,
                   coordinate: complex = 0.0) -> MetricSample:
    """Conformal density of the constant-curvature metric from a Psi pair.

    'half_plane': 4/(Psi2* Psi1 - Psi1* Psi2)^2 up to the sign that makes it
    positive, requires Im(Psi2/Psi1) > 0; 'disc': 4/(|Psi1|^2 - |Psi2|^2)^2
    with |Psi2/Psi1| < 1.
    """
    ratio = psi2 / psi1
    if model == "half_plane":
        if ratio.imag <= 0:
            raise NumericsError(f"ratio {ratio} not in the upper half-plane")
        im = (psi2.conjugate() * psi1).imag
        density = 1.0 / (im * im)
    elif model == "disc":
        if abs(ratio) >= 1:
            raise NumericsError(f"ratio {ratio} not in the unit disc")
        diff = abs(psi1) ** 2 - abs(psi2) ** 2
        density = 4.0 / (diff * diff)
    else:
        raise ValueError(f"unknown model: {model}")
    return MetricSample(coordinate, density, 0.5 * math.log(density))


def burnside_x_density(x: complex) -> MetricSample:
    """Half-plane metric density on the x-plane of the genus-2 curve."""
    return metric_density("half_plane", *el.burnside_psi_w(x), complex(x))


def liouville_residual(x: complex, h: float | None = None) -> float:
    """Relative defect of 4 U_{x x*} = e^{2U} by a five-point Laplacian.

    The step shrinks with the distance to the nearest branch point, where U
    steepens and a fixed stencil would lose its second-order accuracy.
    """
    x = complex(x)
    if h is None:
        gap = min(abs(x - b) for b in (0.0, 1.0, -1.0, 1j, -1j))
        h = min(7e-4, gap / 3000.0)
    u0 = burnside_x_density(x).u
    lap = (burnside_x_density(x + h).u + burnside_x_density(x - h).u
           + burnside_x_density(x + 1j * h).u + burnside_x_density(x - 1j * h).u
           - 4.0 * u0) / (h * h)
    target = math.exp(2.0 * u0)
    return abs(lap - target) / target


def burnside_surface_metric(y: complex, sheet: int = 0) -> dict:
    """Density on the five-sheeted y-plane and its x-pullback cross-check.

    The closed display 4 pi^2 / (Re^2{K(x*^2) K'(x^2)} |5y^3/x + 4y|^2) must
    agree with |F_y/F_x|^2 times the x-plane density for F = y^2 - x^5 + x.
    """
    from .numerics import poly_roots, root_order

    y = complex(y)
    roots = sorted(poly_roots([1.0, 0.0, 0.0, 0.0, -1.0, -y * y]),
                   key=root_order)
    x = roots[sheet % 5]
    u = el.ellip_K(x * x)
    v = el.ellip_Kprime(x * x)
    re = (u.conjugate() * v).real
    display = 4.0 * math.pi ** 2 / (re * re * abs(5.0 * y ** 3 / x + 4.0 * y) ** 2)
    dx = burnside_x_density(x).density
    pullback = abs(2.0 * y / (5.0 * x ** 4 - 1.0)) ** 2 * dx
    return {"density": display, "pullback": pullback,
            "fractional_mismatch": abs(display - pullback) / pullback,
            "sheet_x": x,
            "all_sheets": tuple(roots)}


def torus_metric_check(tau: complex) -> dict:
    """Compare the closed alpha-coordinate density with the x-plane pullback.

    Both D-branches of the displayed density are tried; the report carries
    the winning branch and the residual of the displayed x^2 recovery.
    """
    tau = check_tau(tau)
    sign = +1
    _, pv, dv = _cover_alpha(tau, sign)
    x = x_quotient(tau)

    dx = burnside_x_density(x).density
    pullback = dx * abs(dv / wp_rational_slope(x, sign)) ** 2

    best_rel = None
    best_x2 = None
    for branch in (1.0, -1.0):
        d_val = branch * cmath.sqrt((6.0 * pv - 3.0 + SQRT2)
                                    * (6.0 * pv + 21.0 + 13.0 * SQRT2))
        x2 = ((24j * (1.0 + SQRT2) * (3.0 * pv - SQRT2)
               - (6.0 * pv - 5.0 * SQRT2 - 3.0) * d_val)
              / (6.0 * pv + 3.0 + SQRT2) ** 2)
        u = el.ellip_K(x2)
        v = el.ellip_Kprime(x2)
        re = (u.conjugate() * v).real
        denom = abs((6.0 * pv + 5.0 * SQRT2 - 3.0) * d_val
                    - 24j * (1.0 - SQRT2) * (3.0 * pv + SQRT2)) ** 2
        density = (math.pi ** 2 * 6.0 ** -4 * (3.0 + SQRT2)
                   * abs(6.0 * pv + 3.0 - SQRT2) ** 8 * abs(dv) ** 2
                   / (denom * re * re))
        rel = abs(density - pullback) / pullback
        x2_match = abs(x2 - x * x)
        if best_rel is None or rel < best_rel["relative_mismatch"]:
            best_rel = {"relative_mismatch": rel, "branch": branch,
                        "density": density, "pullback": pullback}
        if best_x2 is None or x2_match < best_x2:
            best_x2 = x2_match
    return dict(best_rel, x2_recovery=best_x2)
