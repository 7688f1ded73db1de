"""Schwarzian machinery and residual verification of the Fuchsian catalogue.

For a uniformizer x(tau) the meromorphic derivative

    [x, tau] = {x, tau} / x_tau^2,   {x, tau} = x'''/x' - (3/2)(x''/x')^2

must reproduce the rational function Q(x) attached to the curve, i.e.
[x, tau] - Q(x(tau)) vanishes identically.  All derivatives come from exact
theta jets; finite differences appear only as a cross-oracle in the tests.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from . import elliptic as el
from . import theta_eta as th
from .ddnum import CDD
# the uniformizers are also this module's public names
from .jets import (Jet, chi_half, j_invariant, k_modulus, kprime2,
                   lambda_mixed, octahedral_factors, psi1, psi1_value,
                   theta_jet, x4_minus_1, x_burnside, y_burnside, z_fermat8)
from .numerics import POLY_X, NumericsError, check_tau, max_residual

_CRITICAL_XTAU = 1e-6
# A double residual above this is evaluated again in double-double: a tenth
# of the fuchsian suite's tolerance, so no sample passes on doubles alone
# without a margin.
_REFINE_ABOVE = 1e-10


SchwarzianSample = namedtuple(
    "SchwarzianSample", "tau x x_tau x_tautau x_tautautau schwarzian mero")


def brackets_from_jet(j: Jet):
    """({x,tau}, [x,tau]) from an order-3 jet."""
    x1, x2, x3 = j.d[1], j.d[2], j.d[3]
    if not x1:
        raise NumericsError("critical point: x_tau = 0, Schwarzian is singular")
    sch = x3 / x1 - 1.5 * (x2 / x1) ** 2
    return sch, sch / (x1 * x1)


def schwarzian_jet(xfun, tau: complex) -> SchwarzianSample:
    """Schwarzian data of a jet-valued expression xfun(tau, order) -> Jet."""
    tau = check_tau(tau)
    j = xfun(tau, 3)
    sch, mero = brackets_from_jet(j)
    return SchwarzianSample(tau, j.d[0], j.d[1], j.d[2], j.d[3], sch, mero)


# ---------------------------------------------------------------------------
# Q catalogue


# evaluator: x -> Q(x); uniformizer: (tau, order) -> Jet; residual: (tau, jet)
# -> float, a stable override; same_as: the row that an exact row repeats.
QFunction = namedtuple("QFunction", "id evaluator singular_points "
                       "accessory_zero uniformizer residual notes same_as",
                       defaults=(None, "", None))


def _q(nd):
    """Q = -N/(2D) from nd(x) -> (N, D), a form written for any ring and kept
    as q.nd: complex and CDD x give Q, numerics.Poly x gives N and D exactly."""
    def q(x):
        n, d = nd(x)
        return -0.5 * n / d
    q.nd = nd
    return q


q_burnside = _q(lambda x: (x ** 8 + 14 * x ** 4 + 1, (x ** 5 - x) ** 2))


def q_burnside_dx(x: complex) -> complex:
    num = x ** 8 + 14.0 * x ** 4 + 1.0
    dnum = 8.0 * x ** 7 + 56.0 * x ** 3
    den = x ** 5 - x
    dden = 5.0 * x ** 4 - 1.0
    return -0.5 * (dnum * den - 2.0 * num * dden) / den ** 3


def q_legendre(z: complex) -> complex:
    return -0.5 * (z * z - z + 1.0) / (z * (z - 1.0)) ** 2


def q_bruns(j: complex) -> complex:
    return -(36.0 * j * j - 41.0 * j + 32.0) / (72.0 * (j * (j - 1.0)) ** 2)


def q_fermat(n: int):
    """Q of the Fermat curve z^n + w^n = 1."""
    return _q(lambda z: (z ** (2 * n) + (n * n - 2) * z ** n + 1,
                         (z * (z ** n - 1)) ** 2))


def q_hyperelliptic(p):
    """The all-parabolic Q of y^2 = P(z), P of degree 2g + 1 with integer
    coefficients p, degree 0 first: -(P'^2 - P P'' - 2g z^(2g-1) P)/(2 P^2)."""
    g = (len(p) - 2) // 2

    def nd(z):
        p0 = p1 = p2 = 0    # P, P' and P'' by Horner's rule
        for c in reversed(p):
            p2 = p2 * z + 2 * p1
            p1 = p1 * z + p0
            p0 = p0 * z + c
        return p1 * p1 - p0 * p2 - 2 * g * z ** (2 * g - 1) * p0, p0 * p0
    return _q(nd)


def q_heun(k: complex) -> complex:
    return -0.5 * (k * k + 1.0) ** 2 / (k * (k * k - 1.0)) ** 2


def q_lambda_mixed(lam: complex) -> complex:
    num = (lam ** 6 + 4.0 * lam ** 5 + 16.0 * lam ** 4 - 56.0 * lam ** 3
           + 68.0 * lam ** 2 - 48.0 * lam + 16.0)
    den = (lam * (lam - 1.0) * (lam ** 2 + 4.0 * lam - 4.0)) ** 2
    return -0.5 * num / den


_EIGHTH_ROOTS = tuple(cmath.exp(2j * math.pi * k / 8.0) for k in range(8))
_Z9_MINUS_Z = (0, -1, 0, 0, 0, 0, 0, 0, 0, 1)


# ---------------------------------------------------------------------------
# Stable residuals.  Near the cusp both [x,tau] and Q(x) grow like q^-2 and
# the naive denominators (x^5-x, z^8-1, lambda-1) lose half the digits to
# cancellation.  The factored forms below rebuild them from single theta
# series; the residual is then assembled as |{x,tau} - Q x_tau^2| / |x_tau|^2,
# which is the same number evaluated where it is well conditioned.  Each
# factored form is one of the separately verified corpus identities.  They
# keep the double-double refinements few: without the burnside, fermat8 and
# lambda_mixed forms, fuchsian-sweep refines 495 times per 500 tau at seed 3,
# not 219.


def _fused_residual(j: Jet, q_value: complex) -> float:
    x1 = j.d[1]
    sch, _ = brackets_from_jet(j)
    return abs(sch - q_value * x1 * x1) / abs(x1) ** 2


def _residual_burnside(s: complex, j: Jet) -> float:
    # Q from the factored x^8 + 14 x^4 + 1 and x^5 - x at s: s = tau for x,
    # s = tau/2 for chi = -x(tau/2), the sign dropping out of the even Q
    num, den = octahedral_factors(s)
    return _fused_residual(j, -0.5 * num / (den * den))


def _residual_fermat8(tau: complex, j: Jet) -> float:
    # z^8 - 1 = x^4 - 1 at tau, via theta4^2(2 tau) = theta3 theta4
    u = x4_minus_1(tau)
    z = j.d[0]
    num = 64.0 + 64.0 * u + u * u
    q_val = -0.5 * num / (z * z * u * u)
    return _fused_residual(j, q_val)


def _residual_lambda_mixed(tau: complex, j: Jet) -> float:
    # lambda - 1 = theta3(tau) theta2(4 tau) / (theta4(tau) theta3(4 tau))
    mu = (th.theta3(tau) * th.theta2(4.0 * tau)
          / (th.theta4(tau) * th.theta3(4.0 * tau)))
    lam = j.d[0]
    num = (1.0 + mu * (10.0 + mu * (51.0 + mu * (68.0 + mu * (51.0 + mu
           * (10.0 + mu))))))
    quad = 1.0 + 6.0 * mu + mu * mu  # lambda^2 + 4 lambda - 4
    q_val = -0.5 * num / (lam * mu * quad) ** 2
    return _fused_residual(j, q_val)


def _residual_legendre(tau: complex, j: Jet) -> float:
    # z = k'^2 = x^4, so z - 1 is the factored x^4 - 1
    u = x4_minus_1(tau)
    z = j.d[0]
    q_val = -0.5 * (u * u + u + 1.0) / (z * u) ** 2
    return _fused_residual(j, q_val)


_CATALOGUE = {
    "burnside": QFunction(
        "burnside", q_burnside, (0, 1, -1, 1j, -1j), True, x_burnside,
        _residual_burnside, "y^2 = x^5 - x, x = theta4/theta3"),
    "burnside_chi": QFunction(
        "burnside_chi", q_burnside, (0, 1, -1, 1j, -1j), True, chi_half,
        lambda tau, j: _residual_burnside(tau / 2.0, j),
        "same equation in the conformal-map normalization"),
    "legendre": QFunction(
        "legendre", q_legendre, (0, 1), True, kprime2, _residual_legendre,
        "hypergeometric form, z = k'^2"),
    "bruns": QFunction(
        "bruns", q_bruns, (0, 1), True, j_invariant, None,
        "level-one equation in Klein's J"),
    "fermat4": QFunction(
        "fermat4", q_fermat(4), (0,) + tuple(1j ** k for k in range(4)),
        True, x_burnside, None, "z^4 + w^4 = 1, exactly burnside's Q",
        "burnside"),
    "fermat8": QFunction(
        "fermat8", q_fermat(8), (0,) + _EIGHTH_ROOTS, True, z_fermat8,
        _residual_fermat8, "z^8 + w^8 = 1"),
    "z9_parabolic": QFunction(
        "z9_parabolic", q_hyperelliptic(_Z9_MINUS_Z), (0,) + _EIGHTH_ROOTS,
        True, z_fermat8, None,
        "y^2 = z^9 - z in the explicit parabolic form, exactly fermat8's Q",
        "fermat8"),
    "heun": QFunction(
        "heun", q_heun, (0, 1, -1), True, k_modulus, None,
        "k^2 = 1 - z^n tower, Heun form in k"),
    "lambda_mixed": QFunction(
        "lambda_mixed", q_lambda_mixed,
        (0, 1, -2 + 2 * math.sqrt(2), -2 - 2 * math.sqrt(2)), True,
        lambda_mixed, _residual_lambda_mixed,
        "three parabolic plus two ramified points"),
}
CATALOGUE_IDS = tuple(_CATALOGUE)


def q_catalogue(qid: str) -> QFunction:
    if qid not in _CATALOGUE:
        raise KeyError(f"unknown Q id: {qid}")
    return _CATALOGUE[qid]


# ---------------------------------------------------------------------------
# Exact rows.  fermat4 repeats burnside's x and Q, and z9_parabolic fermat8's
# z and Q: the parabolic Q of y^2 = z^9 - z is -(z^16 + 62 z^8 + 1)/(2 P^2).
# A residual at tau would repeat the partner's to every digit, so each row
# checks its identity instead, once and in integer arithmetic.


@lru_cache(maxsize=None)
def exact_mismatch(qid: str) -> float:
    """0.0 when the exact row qid shares its partner's uniformizer and Q; else
    the largest |coefficient| of N1 D2 - N2 D1 over the integer polynomials,
    at least 1 (inf for another uniformizer)."""
    qf = q_catalogue(qid)
    mate = q_catalogue(qf.same_as)
    if qf.uniformizer is not mate.uniformizer:
        return math.inf
    n1, d1 = qf.evaluator.nd(POLY_X)
    n2, d2 = mate.evaluator.nd(POLY_X)
    return float(max(map(abs, (n1 * d2 - n2 * d1).values()), default=0))


# ---------------------------------------------------------------------------
# One refinement rule.  A check reads its uniformizer's order-3 jet at each
# tau, skips the tau if |x_tau| < _CRITICAL_XTAU, and evaluates its rows,
# (tau, jet) -> {row: residual}, in doubles.  If any row exceeds
# _REFINE_ABOVE, residual_dd evaluates them all again with tau as a CDD,
# which carries the series, jets and assembly into double-double.  The
# residuals vanish identically, so a large double value is rounding: near
# the cusp, where [x,tau] and Q pass 1e6, the assembly cancels the roundings
# of the single derivatives, and ~32 digits push them below any tolerance.
Check = namedtuple("Check", "uniformizer rows rows_dd")


def residual_dd(check: Check, tau) -> dict:
    """The check's rows in double-double, at tau as a CDD."""
    dd = CDD.from_complex(tau)
    return check.rows_dd(dd, check.uniformizer(dd, 3))


def _sweep(check: Check, taus):
    """(worst of each row, skipped, samples) over taus, a NaN kept."""
    worst = {}
    skipped = count = 0
    for tau in taus:
        count += 1
        j = check.uniformizer(tau, 3)
        if abs(j.d[1]) < _CRITICAL_XTAU:
            skipped += 1
            continue
        rows = check.rows(tau, j)
        if any(r > _REFINE_ABOVE for r in rows.values()):
            rows = residual_dd(check, tau)
        for name, r in rows.items():
            worst[name] = max_residual((worst.get(name, 0.0), r))
    return worst, skipped, count


def catalogue_check(qf: QFunction) -> Check:
    """A catalogue row: its fused residual in doubles, or |[x,tau] - Q(x)|;
    in double-double the plain Q, fused, at about half the factored forms'
    cost there (0.5 against 1.0 ms a burnside refinement, 2-vCPU host)."""
    qid, q = qf.id, qf.evaluator
    double = qf.residual or (
        lambda tau, j: abs(brackets_from_jet(j)[1] - q(j.d[0])))
    return Check(qf.uniformizer, lambda tau, j: {qid: double(tau, j)},
                 lambda tau, j: {qid: _fused_residual(j, q(j.d[0]))})


def verify_fuchsian(qid: str, taus) -> dict:
    """Max |[x,tau] - Q(x)| over the sample, by the one refinement rule.

    The exact rows fermat4 and z9_parabolic evaluate nothing at tau: every
    sample reads exact_mismatch, 0.0 while the row's Q is its partner's.
    """
    qf = q_catalogue(qid)
    if qf.same_as:
        count = sum(1 for _ in taus)
        return {"id": qid, "max_residual": exact_mismatch(qid) if count else 0.0,
                "skipped": 0, "samples": count}
    worst, skipped, count = _sweep(catalogue_check(qf), taus)
    return {"id": qid, "max_residual": worst.get(qid, 0.0), "skipped": skipped,
            "samples": count}


# ---------------------------------------------------------------------------
# Change of variable law


def _change_of_var_rows(tau, xj: Jet) -> dict:
    """The four change-of-variable residuals at one tau, given x's jet there.

    Generic over complex and CDD tau, like the catalogue rows.
    """
    x = xj.d[0]
    _, mero_x = brackets_from_jet(xj)
    rows = {}

    zj = kprime2(tau, 3)  # z = x^4 as its own theta expression
    _, mero_z = brackets_from_jet(zj)
    z_x = 4.0 * x ** 3
    mero_zx = -15.0 / (32.0 * x ** 8)
    rows["z_x4_law"] = abs(mero_z - (mero_zx + mero_x / z_x ** 2))
    rows["z_x4_is_legendre"] = _residual_legendre(tau, zj)

    # Mobius change w = (x+1)/(x-1): [w,x] = 0, w_x = -2/(x-1)^2
    wj = (xj + 1.0) / (xj - 1.0)
    _, mero_w = brackets_from_jet(wj)
    w_x = -2.0 / (x - 1.0) ** 2
    rows["mobius"] = abs(mero_w - mero_x / w_x ** 2)

    # hyperelliptic partner y(tau), bracket via implicit derivatives
    yj = y_burnside(tau, 3)
    y = yj.d[0]
    _, mero_y = brackets_from_jet(yj)
    p = 5.0 * x ** 4 - 1.0
    dp = 20.0 * x ** 3
    ddp = 60.0 * x * x
    y1 = p / (2.0 * y)
    y2 = dp / (2.0 * y) - p * p / (4.0 * y ** 3)
    y3 = (ddp / (2.0 * y) - 0.75 * p * dp / y ** 3
          + 0.375 * p ** 3 / y ** 5)
    sch_yx = y3 / y1 - 1.5 * (y2 / y1) ** 2
    mero_yx = sch_yx / y1 ** 2
    rows["pair_lemma"] = abs(mero_y - (mero_yx + mero_x / y1 ** 2))
    return rows


_CHANGE_OF_VAR = Check(x_burnside, _change_of_var_rows, _change_of_var_rows)


def change_of_var_check(taus) -> dict:
    """Residuals of [z,tau] = [z,x] + Q(x)/z_x^2 for three instructive pairs.

    z = x^4 uses the closed forms [z,x] = -15/(32 x^8), z_x = 4 x^3; the
    Mobius pair has [z,x] = 0; the hyperelliptic partner y recovers its
    bracket from implicit differentiation of y^2 = x^5 - x.  The four rows
    follow the one refinement rule of verify_fuchsian, refined together:
    near y_x = 0 (tau about 0.7352559i) the pair lemma loses its digits to
    rounding alone.
    """
    worst, skipped, _ = _sweep(_CHANGE_OF_VAR, taus)
    return {**dict.fromkeys(("z_x4_law", "z_x4_is_legendre", "mobius",
                             "pair_lemma"), 0.0), **worst, "skipped": skipped}


# ---------------------------------------------------------------------------
# Psi solution families


def psi(family: str, point):
    """Fundamental-solution pairs (Psi1, Psi2).

    'burnside_x'   -- point is x: (2/pi) sqrt(x^5-x) (K(x^2), K'(x^2))
    'burnside_x_w' -- the weighted normalization sqrt(i/pi) sqrt(x^5-x)
                      (K'(x^2), i K(x^2)), whose square matches d/dtau x(tau)
    'legendre'     -- point is tau: (pi/2) theta3^2 (1, -i tau)
    'burnside_tau' -- point is tau: 2i sqrt(i pi) eta^3(2 tau)/theta3 (1, tau)
    """
    if family == "burnside_x":
        x = complex(point)
        s = cmath.sqrt(x ** 5 - x)
        return ((2.0 / math.pi) * s * el.ellip_K(x * x),
                (2.0 / math.pi) * s * el.ellip_Kprime(x * x))
    if family == "burnside_x_w":
        return el.burnside_psi_w(point)
    if family == "legendre":
        tau = check_tau(point)
        phi1 = (math.pi / 2.0) * th.theta3(tau) ** 2
        return phi1, -1j * tau * phi1
    if family == "burnside_tau":
        tau = check_tau(point)
        p1 = psi1_value(tau)
        return p1, tau * p1
    raise KeyError(f"unknown psi family: {family}")


# ---------------------------------------------------------------------------
# Modular ODE residuals


def _theorema_residual(yj: Jet) -> float:
    y, y1, y2, y3 = yj.d[0], yj.d[1], yj.d[2], yj.d[3]
    a = y * y * y3 - 15.0 * y * y1 * y2 + 30.0 * y1 ** 3
    b = y * y2 - 3.0 * y1 * y1
    return abs(a * a + 32.0 * b ** 3 + math.pi ** 2 * y ** 10 * b * b)


def closed_system(t2: Jet, t3: Jet, t4: Jet, w: Jet):
    """Right-hand sides of the closed first-order system, as jets.

    Jacobi's equations for theta2, theta3 and theta4, and Ramanujan's
    E2' = (pi i/6)(E2^2 - E4) written in eta_w = (pi^2/12) E2, with
    E4 = (theta2^8 + theta3^8 + theta4^8)/2.  Jets of order n give the
    derivatives of theta2', theta3', theta4', eta_w' to order n, in the
    arithmetic of the jets.
    """
    pi = th.arithmetic(t2.value).pi
    ip, pf = 1j / pi, pi * 1j / 12.0
    f2, f3, f4 = t2.pow(4), t3.pow(4), t4.pow(4)
    return (t2 * (ip * w + pf * (f3 + f4)),
            t3 * (ip * w + pf * (f2 - f4)),
            t4 * (ip * w - pf * (f2 + f3)),
            ip * (2.0 * w * w - pi ** 4 / 144.0 * (f2 * f2 + f3 * f3 + f4 * f4)))


def modular_ode_residuals(tau: complex) -> dict:
    """Residuals of the third-order and weight-2 identities at one tau."""
    tau = check_tau(tau)
    res = {}
    base = theta_jet(tau, (1, 0), 3)
    # the closed system, which the series jets must satisfy
    jets = (base.t2, base.t3, base.t4, base.etaw)
    rhs = closed_system(*(j.truncate(0) for j in jets))
    for name, lhs, r in zip(("jacobi_theta2", "jacobi_theta3", "jacobi_theta4",
                             "ramanujan_e2"), jets, rhs):
        res[name] = abs(lhs.d[1] - r.d[0])
    res["theorema_theta3"] = _theorema_residual(base.t3)
    res["theorema_theta4"] = _theorema_residual(base.t4)

    # log-eta equation
    w = base.etaw
    ip = 1j / math.pi
    l1, l2, l3 = ip * w.d[0], ip * w.d[1], ip * w.d[2]
    lhs = ((l3 - 12.0 * l2 * l1 + 16.0 * l1 ** 3) ** 2
           + 32.0 * (l2 - 2.0 * l1 * l1) ** 3)
    res["log_eta_equation"] = abs(lhs - (4.0 / 27.0) * math.pi ** 6
                                  * base.eta.d[0] ** 24)

    # weight-2 elimination pair for the Gamma(4) Psi
    pj = psi1(tau, 3)
    xj = x_burnside(tau, 1)
    x = xj.d[0]
    p0, p1, p2, p3 = pj.d[0], pj.d[1], pj.d[2], pj.d[3]
    res["elimination_second"] = abs(2.0 * p0 * p2 - 4.0 * p1 * p1
                                    - q_burnside(x) * p0 ** 6)
    res["elimination_third"] = abs(2.0 * p0 * p0 * p3 - 18.0 * p0 * p1 * p2
                                   + 24.0 * p1 ** 3 - q_burnside_dx(x) * p0 ** 9)
    res["psi1_sq_is_x_tau"] = abs(p0 * p0 - xj.d[1])

    # octahedral ground forms against g2, g3 at 2 tau
    t3v, t4v = base.t3.d[0], base.t4.d[0]
    eta2 = theta_jet(tau, (2, 0), 0).eta.d[0]
    g2d, g3d, _ = el.eisenstein(2 * tau)
    res["ground_form_eta"] = abs(t4v * t3v * (t4v ** 4 - t3v ** 4)
                                 + 16.0 * eta2 ** 6)
    res["ground_form_g2"] = abs(t4v ** 8 + 14.0 * t4v ** 4 * t3v ** 4 + t3v ** 8
                                - 192.0 / math.pi ** 4 * g2d)
    res["ground_form_g3"] = abs(t4v ** 12 - 33.0 * t4v ** 8 * t3v ** 4
                                - 33.0 * t4v ** 4 * t3v ** 8 + t3v ** 12
                                + 27.0 * 512.0 / math.pi ** 6 * g3d)

    # level-one equation for eta^2 as a function of J
    jj = j_invariant(tau, 2)
    e2j = base.eta.pow(2)
    jv, j1, j2 = jj.d[0], jj.d[1], jj.d[2]
    f1 = e2j.d[1] / j1
    f2 = (e2j.d[2] * j1 - e2j.d[1] * j2) / j1 ** 3
    res["eta2_in_J"] = abs(jv * (jv - 1.0) * f2 + (7.0 * jv - 4.0) / 6.0 * f1
                           + e2j.d[0] / 144.0)

    # solvable linear equations
    coeff = (math.pi ** 2 / 288.0) * (7.0 * base.t4.d[0] ** 4 + base.t3.d[0] ** 4
                                      + 48.0 / math.pi ** 2 * w.d[0]) ** 2 \
        - 3.0 / math.pi ** 2 * g2d
    res["ode_weight2"] = abs(p2 + coeff * p0)

    lg = x_burnside(tau, 3).log()
    psi_log = base.t2.pow(-2) * (1.0 + lg)
    t4d8 = theta_jet(tau, (2, 0), 0).t4.d[0] ** 8
    res["ode_log_solution"] = abs(psi_log.d[2]
                                  + math.pi ** 2 / 4.0 * t4d8 * psi_log.d[0])
    return res
