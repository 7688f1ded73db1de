"""Shared numerical conventions: tolerances, finite differences, root finding.

Everything here is plain double precision on Python complex scalars, except
that check_tau also admits a double-double ddnum.CDD point, and Poly is exact.
NaN or infinite intermediate values are treated as errors, never returned as
results.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple

from .ddnum import CDD


class ToleranceConfig(namedtuple(
        "ToleranceConfig", "identity_tol derivative_tol root_tol series_eps",
        defaults=(1e-10, 1e-6, 1e-9, 1e-16))):
    """Default tolerances used across the verification suites."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, value in zip(self._fields, self):
            if value <= 0.0:
                raise ValueError(f"{name} must be strictly positive")
        return self


TOL = ToleranceConfig()
POLISH_STOP = 1e-13             # polish's stop on |f|, relative to its scale


class NumericsError(ValueError):
    pass


def check_finite(z: complex, what: str = "value") -> complex:
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise NumericsError(f"non-finite {what}: {z}")
    return z


def check_tau(tau):
    """Validate a point of the upper half-plane (Im strictly positive).

    Numbers come back as complex; a CDD is checked on its leading part and
    comes back unchanged, so the point keeps its arithmetic.
    """
    z = tau.to_complex() if isinstance(tau, CDD) else complex(tau)
    check_finite(z, "tau")
    if z.imag <= 0.0:
        raise NumericsError(f"tau must have positive imaginary part, got {z}")
    return tau if isinstance(tau, CDD) else z


def max_residual(values) -> float:
    """The largest of the residuals in values, NaN if any of them is NaN.

    max() keeps a NaN only when it comes first: max(0.0, nan) is 0.0 because
    every comparison with NaN is false.
    """
    return max(values, key=lambda v: (math.isnan(v), v))


# ---------------------------------------------------------------------------
# Finite differences


def fd_jet(f, tau: complex, order: int = 1, h: float = 1e-3):
    """Central-difference tau-derivatives of f at tau, orders 1..order.

    One Richardson extrapolation step (h against h/2) is applied, so the
    truncation error is O(h^4) for functions analytic near tau.  The step
    must stay well inside the half-plane: h < Im(tau)/10.
    """
    tau = check_tau(tau)
    if not 1 <= order <= 3:
        raise NumericsError("fd_jet supports orders 1..3")
    if not 0.0 < h < tau.imag / 10.0:
        raise NumericsError(f"step h={h} too large for Im tau={tau.imag}")

    def stencil(k: int, hh: float) -> complex:
        if k == 1:
            v = (f(tau + hh) - f(tau - hh)) / (2.0 * hh)
        elif k == 2:
            v = (f(tau + hh) - 2.0 * f(tau) + f(tau - hh)) / (hh * hh)
        else:
            v = (f(tau + 2 * hh) - 2.0 * f(tau + hh)
                 + 2.0 * f(tau - hh) - f(tau - 2 * hh)) / (2.0 * hh ** 3)
        return check_finite(complex(v), "function value in fd_jet")

    out = []
    for k in range(1, order + 1):
        coarse = stencil(k, h)
        fine = stencil(k, h / 2.0)
        out.append((4.0 * fine - coarse) / 3.0)
    return out


# ---------------------------------------------------------------------------
# Exact polynomials


class Poly(dict):
    """A polynomial in x and y with exact coefficients, {(i, j): c}, for +,
    - and * with numbers and ** n; no coefficient is zero."""

    def __add__(self, other):
        out = Poly(self)
        for k, v in (other if isinstance(other, Poly) else {(0, 0): other}
                     ).items():
            out[k] = out.get(k, 0) + v
            if not out[k]:
                del out[k]
        return out

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return Poly({k: other * v for k, v in self.items() if other * v})
        out = {}
        for (i1, j1), v1 in self.items():
            for (i2, j2), v2 in other.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, 0) + v1 * v2
        return Poly({k: v for k, v in out.items() if v})

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):
        return self + -1 * other

    def __pow__(self, n: int):
        out = Poly({(0, 0): 1})
        for _ in range(n):
            out = out * self
        return out


POLY_X, POLY_Y = Poly({(1, 0): 1}), Poly({(0, 1): 1})


# ---------------------------------------------------------------------------
# Polynomial roots: Aberth-Ehrlich simultaneous iteration


def _horner(coeffs, z):
    """p(z) and p'(z) by Horner's rule."""
    p = dp = 0j
    for c in coeffs:
        dp = dp * z + p
        p = p * z + c
    return p, dp


def poly_roots(coeffs, root_tol: float | None = None, max_iter: int = 200):
    """All complex roots of sum(coeffs[k] * x^(n-k)), leading coefficient first.

    Aberth-Ehrlich simultaneous iteration started on a circle of the Cauchy
    root bound, then polish at scale 0; returns the full multiset (multiple
    roots come out as clusters).  Each root r satisfies |p(r)| <= root_tol *
    scale where scale is the largest coefficient magnitude.
    """
    if root_tol is None:
        root_tol = TOL.root_tol
    coeffs = [complex(c) for c in coeffs]
    if not coeffs or coeffs[0] == 0:
        raise NumericsError("zero leading coefficient")
    if len(coeffs) < 2:
        raise NumericsError("degree must be >= 1")
    # strip trailing zero coefficients: x=0 roots split off exactly
    roots = []
    while coeffs[-1] == 0:
        coeffs.pop()
        roots.append(0j)
    n = len(coeffs) - 1
    if n == 0:
        return roots
    monic = [c / coeffs[0] for c in coeffs]
    # Cauchy bound: 1 + max |a_k| over the monic tail
    bound = 1.0 + max(abs(c) for c in monic[1:])
    zs = [bound * cmath.exp(2j * math.pi * (k + 0.25) / n + 0.35j) for k in range(n)]
    scale = max(abs(c) for c in coeffs)
    for _ in range(max_iter):
        converged = True
        new = list(zs)
        for i, z in enumerate(zs):
            p, dp = _horner(monic, z)
            if abs(p) <= (root_tol * 1e-3) * max(1.0, abs(z)) ** n:
                continue        # in a cluster the steps never settle
            if dp == 0:
                new[i] = z * (1.0 + 1e-6) + 1e-6
                converged = False
                continue
            newton = p / dp
            s = sum(1.0 / (z - zj) for j, zj in enumerate(zs) if j != i)
            denom = 1.0 - newton * s
            step = newton if denom == 0 else newton / denom
            new[i] = z - step
            if abs(step) > 1e-14 * max(1.0, abs(z)):
                converged = False
        zs = new
        if converged:
            break
    else:
        raise NumericsError("poly_roots did not converge")
    zs = [polish(lambda z: _horner(monic, z), z, 0.0) for z in zs]
    residuals = [abs(_horner(coeffs, z)[0]) for z in zs]
    if max(residuals) > root_tol * max(1.0, scale):
        raise NumericsError(f"poly_roots residual too large: {max(residuals):.3e}")
    return roots + sorted(zs, key=lambda z: (round(z.real, 12), round(z.imag, 12)))


def root_order(z: complex) -> tuple:
    """The sort key (arg, |z|) of roots to 9 digits, a round-off imaginary part
    read as +0 (+ 0.0 turns -0.0 into 0.0): a real root's arg is 0 or pi."""
    return (round(cmath.phase(complex(z.real, round(z.imag, 9) + 0.0)), 9),
            round(abs(z), 9))


def polish(fdf, z, scale: float):
    """z after at most 6 Newton steps on f, fdf(z) giving f(z) and f'(z): until
    |f| <= POLISH_STOP * scale, or until a step fails to halve |f| (the round-off
    floor), keeping the better of the last two iterates.  Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed. 2002, ch. 25."""
    last = None                  # (z, |f|) before the last step
    for _ in range(6):
        f, df = fdf(z)
        if abs(f) <= POLISH_STOP * scale:
            break
        if last is not None and abs(f) > 0.5 * last[1]:
            if abs(f) > last[1]:
                z = last[0]
            break
        last = (z, abs(f))
        z = z - f / df
    return z


def newton_solve(f, df, z0: complex, root_tol: float | None = None,
                 max_iter: int = 60):
    """Newton iteration for f(z)=0 from z0; returns (root, iterations).

    Deterministic: identical inputs give bitwise-identical iterates.
    """
    if root_tol is None:
        root_tol = TOL.root_tol
    z = complex(z0)
    for it in range(1, max_iter + 1):
        fz = check_finite(complex(f(z)), "f(z) in newton_solve")
        if abs(fz) <= root_tol:
            return z, it - 1
        dfz = complex(df(z))
        if abs(dfz) < 1e-300:
            raise NumericsError("derivative underflow in newton_solve")
        step = fz / dfz
        if not (math.isfinite(step.real) and math.isfinite(step.imag)):
            raise NumericsError("divergent step in newton_solve")
        z = z - step
    fz = complex(f(z))
    if abs(fz) <= root_tol:
        return z, max_iter
    raise NumericsError(f"newton_solve failed to converge, |f|={abs(fz):.3e}")


# ---------------------------------------------------------------------------
# Seeded sample grids
#
# The grid expansion is a fixed 64-bit linear congruential generator so that
# any implementation can reproduce the same tau samples from a named seed:
#   state <- (6364136223846793005 * state + 1442695040888963407) mod 2^64
#   u = (state >> 11) / 2^53   in [0, 1)
# Draws alternate Re, Im for successive points.

_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class SeededGrid:
    """Deterministic stream of tau samples from a 64-bit seed."""

    def __init__(self, seed: int):
        self.state = seed & _LCG_MASK

    def uniform(self) -> float:
        self.state = (_LCG_MULT * self.state + _LCG_INC) & _LCG_MASK
        return (self.state >> 11) / float(1 << 53)

    def tau(self, re_range=(-1.0, 1.0), im_range=(0.3, 3.0)) -> complex:
        re = re_range[0] + (re_range[1] - re_range[0]) * self.uniform()
        im = im_range[0] + (im_range[1] - im_range[0]) * self.uniform()
        return complex(re, im)


def tau_grid(n: int, seed: int = 7, re_range=(-1.0, 1.0), im_range=(0.3, 3.0),
             accept=None, max_draws: int = 10000):
    """n seeded tau samples; optional accept predicate skips bad draws."""
    gen = SeededGrid(seed)
    out = []
    draws = 0
    while len(out) < n:
        draws += 1
        if draws > max_draws:
            raise NumericsError("tau_grid exhausted draws under accept predicate")
        t = gen.tau(re_range, im_range)
        if accept is None or accept(t):
            out.append(t)
    return out
