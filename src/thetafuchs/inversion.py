"""Inversion of the genus-2 uniformizer and the theta solution of the quintic.

Given A, the ratio tau' = i K(A^2)/K'(A^2) (K in the modulus convention) is a
half-plane representative with k'(tau') = A^2.  The 24 coset images of
2 tau', each reduced by Gamma(4), are candidate points c_i, and at one of them
chi = -theta4(./2)/theta3(./2) takes the value A; the minimizer of |chi - A|
is returned, and the level-one invariant there must match the octahedral
expression in A.

Gamma(1)/Gamma(4) acts on chi by the 24 rotations of the octahedron, so
chi(c_i) = R_i(chi(c_0)) for a fixed table of Mobius maps R_i.  chi is summed
at the anchor c_0 only (or, where that raises, at the first candidate that
evaluates, mapped back through its inverse row), and the table predicts the
other residuals.  chi is summed again only at the predicted best and at each
candidate whose predicted residual is within 1e-9 max(1, r) of a neighbour's
in the ranking, so every residual that decides an order, or is reported, is
an exact one; the candidates are ranked by (exact residual where summed,
predicted elsewhere, index).

The Bring-form quintic x^5 - x + a = 0 is solved by inverting the modular
expression 16 eta^6(2 tau)/theta3^6(tau) = a (Newton with a q-expansion seed
plus straight-segment continuation), after which one root is the quotient
theta4/theta3 at the solution point and the others follow by deflation and
per-root inversion.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache

from . import elliptic as el
# modular_quintic_rhs is public here
from .jets import (chi_burnside, chi_half, modular_quintic_rhs,
                   modular_quintic_rhs_jet, octahedral_j, x_quotient)
from .modgroup import coset_reps, gamma4_reduce, mobius
from .numerics import (POLISH_STOP, TOL, NumericsError, fd_jet, max_residual,
                       newton_solve, polish, poly_roots, root_order)


# Marker for inversion at a branch value of the curve.
BranchPointResult = namedtuple("BranchPointResult", "value tau_class")
InversionResult = namedtuple("InversionResult",
                             "tau0 orbit residual matrix j_residual")


def _is_branch_point(a: complex) -> bool:
    return abs(a) < 1e-13 or abs(a ** 4 - 1.0) < 1e-13


# Gamma(1)/Gamma(4) acts on chi by the 24 rotations of the octahedron with
# vertices 0, +-1, +-i, oo.  Row i is the Mobius map (p, q, r, s) of
# coset_reps()[i]: chi(c_i) = (p chi(c_0) + q)/(r chi(c_0) + s), where c_i is
# the Gamma(4)-reduced image of 2 tau' under that representative.
_OCTAHEDRAL = (
    (1, 0, 0, 1), (1, 1, 1, -1), (1, 0, 0, 1j), (1, 0, 0, -1j),
    (1, 1j, 1, -1j), (1, 1j, 1j, 1), (1, 1, -1j, 1j), (1, 1, 1j, -1j),
    (1, -1j, -1j, 1), (1, -1j, 1, 1j), (1, 0, 0, -1), (1, 1, -1, 1),
    (1, -1, 1, 1), (0, 1, 1, 0), (1, -1, 1j, 1j), (1, 1j, -1j, -1),
    (1, -1j, -1, -1j), (1, -1j, 1j, -1), (1, -1, -1j, -1j), (0, 1, 1j, 0),
    (1, 1j, -1, 1j), (0, 1, -1j, 0), (1, -1, -1, -1), (0, 1, -1, 0),
)
# Neighbours in the predicted ranking closer than this, relative to
# max(1, r), are ordered by exact sums.  Over |Re A|, |Im A| <= 1.6 the
# predictions agree with the sums to 2e-14 relative; tests check the table.
_TIE_GAP = 1e-9


def invert_chi(a: complex) -> InversionResult | BranchPointResult:
    """Solve chi(tau0) = A for the conformal-map generator chi.

    Branch values A in {0, +-1, +-i, oo} correspond to the cusp class and
    return a marker instead of a point.
    """
    a = complex(a)
    if _is_branch_point(a):
        return BranchPointResult(a, "oo")
    m = a * a
    m2 = m * m
    if m2.imag == 0.0 and (m2.real >= 1.0 or m2.real <= 0.0):
        # A^4 real and >= 1 puts K on its cut, and A^4 real and <= 0 puts K';
        # take the upper-side branch
        m *= cmath.exp(5e-15j)
    tau_prime = 1j * el.ellip_K(m) / el.ellip_Kprime(m)
    if tau_prime.imag <= 0:
        raise NumericsError(f"inversion ratio left the half-plane: {tau_prime}")
    doubled = 2.0 * tau_prime
    reps = coset_reps()
    points = [gamma4_reduce(mobius(rep, doubled))[0] for rep in reps]
    exact = {}

    def evaluate(i):
        """chi at candidate i (None where it raises); records |chi - A|."""
        try:
            value = chi_burnside(points[i])
        except NumericsError:
            exact[i] = math.inf
            return None
        exact[i] = abs(value - a)
        return value

    def predict(row):
        """|R(chi(c_0)) - A| for the octahedral row R (inf at its pole)."""
        p, q, r, s = row
        den = r * chi0 + s
        return math.inf if den == 0 else abs((p * chi0 + q) / den - a)

    # the anchor: the first candidate where chi evaluates, taken back to
    # chi(c_0) through the inverse of its row; if none does, all are exact
    for k, (p, q, r, s) in enumerate(_OCTAHEDRAL):
        value = evaluate(k)
        if value is not None:
            chi0 = (s * value - q) / (p - r * value)
            break
    predicted = [exact[i] if i in exact else predict(row)
                 for i, row in enumerate(_OCTAHEDRAL)]
    ranking = sorted(range(len(points)), key=lambda i: (predicted[i], i))
    tied = {n for i, j in zip(ranking, ranking[1:])
            if not (predicted[j] - predicted[i]
                    > _TIE_GAP * max(1.0, predicted[j]))
            for n in (i, j)}
    for n in tied.difference(exact):
        evaluate(n)
    while True:
        ranking.sort(key=lambda i: (exact.get(i, predicted[i]), i))
        best = ranking[0]
        if best in exact:
            break
        evaluate(best)
    tau0, residual, scale = points[best], exact[best], max(1.0, abs(a))
    if residual > POLISH_STOP * scale:
        tau0 = polish(lambda t: (chi_half(t, 1) - a).d, tau0, scale)
        residual = abs(chi_burnside(tau0) - a)
    if residual > TOL.root_tol:
        raise NumericsError(f"inversion failed: best residual {residual:.3e}")
    j_res = abs(el.klein_j(tau0) - octahedral_j(a))
    return InversionResult(tau0, tuple(points[i] for i in ranking),
                           residual, reps[best], j_res)


# ---------------------------------------------------------------------------
# Exact values


SQRT2 = math.sqrt(2.0)


def exact_value_suite() -> dict:
    """Residuals of the table of special values of chi and theta quotients."""
    out = {}
    out["chi_sqrt2_abs"] = abs(abs(chi_burnside(1j * SQRT2))
                               - math.sqrt(SQRT2 - 1.0))
    out["t4_over_t3_half_i"] = abs(x_quotient(0.5j) - (SQRT2 - 1.0))
    chi_i = chi_burnside(1j)
    out["chi_at_i_in_class"] = min(abs(chi_i - v) for v in
                                   (1 + SQRT2, 1 - SQRT2, -1 + SQRT2, -1 - SQRT2))
    # chi on the 24 level-one images of i sqrt(2) produces 24 distinct roots
    # of (A^8 + 14 A^4 + 1)^3 = 500 (A^4 - 1)^4 A^4, i.e. J = 125/27 there
    worst = 0.0
    values = []
    for rep in coset_reps():
        sigma, _ = gamma4_reduce(mobius(rep, 1j * SQRT2))
        av = chi_burnside(sigma)
        values.append(av)
        worst = max_residual((worst, abs(octahedral_j(av) - 125.0 / 27.0)))
    out["octahedral_orbit_j"] = worst
    separation = min(abs(v1 - v2) for i, v1 in enumerate(values)
                     for v2 in values[i + 1:])
    out["octahedral_orbit_distinct"] = 0.0 if separation > 1e-6 else 1.0
    for probe in (0.0, 1.0, -1.0, 1j, -1j):
        res = invert_chi(probe)
        key = f"branch_marker_{probe}"
        out[key] = 0.0 if isinstance(res, BranchPointResult) else 1.0
    return out


def series_at_i() -> dict:
    """Taylor data of J and chi at tau = i against the closed-form targets.

    J derivatives come from central differences on the Eisenstein route (the
    theta route would not be independent), chi' from the exact jet.
    """
    g2, _, _ = el.eisenstein(1j)
    g2 = g2.real

    def jfun(t):
        return el.eisenstein(t)[2]

    d1, d2, d3 = fd_jet(jfun, 1j, order=3, h=0.005)
    out = {
        "j_first_deriv": abs(d1),
        "j_coeff2": abs(d2 / 2.0 + 12.0 * g2 / math.pi ** 2),
        "j_coeff3": abs(d3 / 6.0 + 12j * g2 / math.pi ** 2),
    }
    chi1 = chi_half(1j, 1).d[1]
    out["chi_slope_sq"] = abs(chi1 ** 2 - (4.0 * SQRT2 - 6.0) * g2 / math.pi ** 2)
    return out


# ---------------------------------------------------------------------------
# Quintic


# taus: half-plane points, or 'oo' markers at a = 0; theta_residuals:
# |rhs(tau_1) - a|, then |x(sigma) - root| per root.
QuinticSolution = namedtuple(
    "QuinticSolution", "a roots taus poly_residuals theta_residuals "
    "vieta_residual newton_iterations")


# Newton evaluates f and f' at the same iterate, and the solver reads the
# value at its last iterate again: one entry serves all three.
@lru_cache(maxsize=1)
def _rhs_and_slope(tau: complex):
    """16 eta^6(2 tau)/theta3^6(tau) and its tau-derivative, from the jets."""
    return modular_quintic_rhs_jet(tau, 1).d


def _damped_newton(target: complex, start: complex, max_iter: int = 80):
    """Newton with step halving; keeps the continuation on the half-plane."""
    tau = start
    fval = _rhs_and_slope(tau)[0] - target
    for it in range(1, max_iter + 1):
        if abs(fval) <= 1e-13:
            return tau, it - 1
        slope = _rhs_and_slope(tau)[1]
        if abs(slope) < 1e-300:
            raise NumericsError("derivative underflow in quintic continuation")
        step = fval / slope
        for _ in range(30):
            cand = tau - step
            if cand.imag > 0:
                cand_val = _rhs_and_slope(cand)[0] - target
                if abs(cand_val) < abs(fval):
                    tau, fval = cand, cand_val
                    break
            step *= 0.5
        else:
            raise NumericsError("quintic continuation stalled")
    raise NumericsError("quintic continuation did not converge")


def _vieta_residual(a: complex, roots) -> float:
    """Expand prod (x - r) and compare against x^5 + 0 x^4 + ... - x + a."""
    coeffs = [1.0 + 0.0j]
    for r in roots:
        coeffs = [c for c in coeffs] + [0.0]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] = coeffs[i] - r * coeffs[i - 1]
    target = [1.0, 0.0, 0.0, 0.0, -1.0, complex(a)]
    return max(abs(c - t) for c, t in zip(coeffs, target))


def quintic_solve(a: complex, seed_scale: float = 1e-3,
                  steps: int = 16) -> QuinticSolution:
    """All five roots of x^5 - x + a = 0 through the modular parametrization."""
    a = complex(a)
    if a == 0:
        roots = (0.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, 1j, -1j)
        return QuinticSolution(a, roots, ("oo",) * 5,
                               tuple(abs(r ** 5 - r) for r in roots),
                               (0.0,) * 5, _vieta_residual(0.0, roots), 0)

    def solve_at(target, start):
        def f(t):
            return _rhs_and_slope(t)[0] - target

        def df(t):
            return _rhs_and_slope(t)[1]

        return newton_solve(f, df, start, root_tol=1e-13)

    def seed_for(value):
        s = cmath.log(value / 16.0) / (1j * math.pi)
        if s.imag <= 0:
            raise NumericsError("seed left the half-plane; |a| too large")
        return s

    total_iter = 0
    try:
        tau, total_iter = solve_at(a, seed_for(a))
    except NumericsError:
        # straight-segment continuation from a small multiple of a,
        # each step warm-started with a damped Newton
        a0 = a * seed_scale
        tau, its = solve_at(a0, seed_for(a0))
        total_iter = its
        for step in range(1, steps + 1):
            target = a0 + (a - a0) * step / steps
            tau, its = _damped_newton(target, tau)
            total_iter += its
    x1 = x_quotient(tau)
    rest = poly_roots([1.0, x1, x1 ** 2, x1 ** 3, x1 ** 4 - 1.0])  # deflated
    roots = [x1] + sorted(rest, key=root_order)
    taus = [tau]
    theta_res = [abs(_rhs_and_slope(tau)[0] - a)]
    for r in roots[1:]:
        inv = invert_chi(-r)
        if isinstance(inv, BranchPointResult):
            taus.append("oo")
            theta_res.append(abs(r ** 5 - r + a))
            continue
        taus.append(inv.tau0 / 2.0)
        theta_res.append(inv.residual)
    poly_res = tuple(abs(r ** 5 - r + a) for r in roots)
    return QuinticSolution(a, tuple(roots), tuple(taus), poly_res,
                           tuple(theta_res), _vieta_residual(a, roots),
                           total_iter)
