"""Exact tau-derivatives of theta-constant expressions.

A Jet holds the derivatives (f, f', f'', ...) of a function at one point and
supports field arithmetic, exp/log, and rational powers via Leibniz and chain
rules.  The base jets of theta2, theta3, theta4 and of E2, hence of
eta_w = (pi^2/12) E2, are the term-wise differentiated q-series of theta_eta
(theta_series, e2_series), summed in the same pass as the values.  Dedekind's
eta follows from pi * eta' = i * eta * eta_w, so any finite expression in
these constants at affine arguments c*tau + d differentiates exactly to the
requested order.  The jets are generic over the scalar type: a complex
argument gives double jets, a ddnum.CDD argument double-double ones.

The closed first-order system

    theta2'/theta2 = (i/pi) eta_w + (pi i/12)(theta3^4 + theta4^4)
    theta3'/theta3 = (i/pi) eta_w + (pi i/12)(theta2^4 - theta4^4)
    theta4'/theta4 = (i/pi) eta_w - (pi i/12)(theta2^4 + theta3^4)
    eta_w'        = (i/pi)(2 eta_w^2 - (pi^4/144)(theta2^8 + theta3^8 + theta4^8))

is not used to build the jets; it checks them, as four rows of
fuchsian.modular_ode_residuals and in the tests up to order 6.

The uniformizers (x, chi, y, k^2, z, lambda, J), the weight-2 Psi1 and the
factored forms of x^4 - 1 and x^5 - x are stated here once, each with a
value and a jet route.
"""

from __future__ import annotations

import cmath
from collections import namedtuple
from functools import lru_cache
from math import comb

from . import theta_eta as th
from .ddnum import CDD, as_cdd
from .numerics import NumericsError, check_tau
from .theta_eta import JET_CACHE_SIZE


@lru_cache(maxsize=None)
def _pascal(n: int) -> tuple:
    """Rows 0..n-1 of Pascal's triangle: _pascal(n)[k][j] = comb(k, j)."""
    return tuple(tuple(comb(k, j) for j in range(k + 1)) for k in range(n))


class Jet:
    """Derivatives (d[0]=value, d[k]=k-th derivative) at a fixed point.

    The scalars are complex, or ddnum.CDD for double-double: a jet whose value
    is a CDD holds CDD throughout, any other jet holds complex.  exp works on
    both; log and non-integer powers are complex only.
    """

    __slots__ = ("d",)

    def __init__(self, derivs):
        d = tuple(derivs)
        self.d = tuple(map(as_cdd if isinstance(d[0], CDD) else complex, d))

    @property
    def order(self) -> int:
        return len(self.d) - 1

    @property
    def value(self):
        return self.d[0]

    def __getitem__(self, k: int):
        return self.d[k]

    @staticmethod
    def const(c, order: int) -> "Jet":
        return Jet([c] + [0.0] * order)

    @staticmethod
    def variable(x, order: int) -> "Jet":
        d = [x] + [0.0] * order
        if order >= 1:
            d[1] = 1.0
        return Jet(d)

    def _coerce(self, other, order):
        if isinstance(other, Jet):
            return other
        return Jet.const(other, order)

    def __add__(self, other):
        o = self._coerce(other, self.order)
        return _jet(tuple(a + b for a, b in zip(self.d, o.d)))

    __radd__ = __add__

    def __neg__(self):
        return _jet(tuple(-a for a in self.d))

    def __sub__(self, other):
        return self + (-self._coerce(other, self.order))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return _jet(tuple(other * a for a in self.d))
        a, b = self.d, other.d
        n = min(len(a), len(b))
        rows = _pascal(n)
        out = []
        for k in range(n):   # Leibniz; a binomial 1 is left out
            row = rows[k]
            acc = a[0] * b[k]
            for j in range(1, k + 1):
                c = row[j]
                acc += c * a[j] * b[k - j] if c > 1 else a[j] * b[k - j]
            out.append(acc)
        return _jet(tuple(out))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other, self.order)
        n = min(self.order, o.order)
        if not o.d[0]:
            raise NumericsError("jet division by zero value")
        rows = _pascal(n + 1)
        h = [self.d[0] / o.d[0]]
        for k in range(1, n + 1):
            row = rows[k]
            acc = self.d[k]
            for j in range(k):
                acc -= row[j] * h[j] * o.d[k - j]
            h.append(acc / o.d[0])
        return _jet(tuple(h))

    def __rtruediv__(self, other):
        return Jet.const(other, self.order) / self

    def exp(self) -> "Jet":
        rows = _pascal(self.order)
        h = [th.arithmetic(self.d[0]).exp(self.d[0])]
        for k in range(1, self.order + 1):
            row = rows[k - 1]
            acc = 0.0
            for j in range(k):
                acc += row[j] * self.d[k - j] * h[j]
            h.append(acc)
        return _jet(tuple(h))

    def log(self) -> "Jet":
        """Principal-branch logarithm jet."""
        if not self.d[0]:
            raise NumericsError("jet log of zero value")
        g = self.deriv_jet() / self
        h = [cmath.log(self.d[0])]
        for k in range(1, self.order + 1):
            h.append(g.d[k - 1])
        return Jet(h)

    def deriv_jet(self) -> "Jet":
        """Jet of f' (one order lower)."""
        return Jet(self.d[1:]) if self.order >= 1 else Jet([0.0])

    def pow(self, a) -> "Jet":
        """f^a on the principal branch, a any rational or complex constant."""
        if isinstance(a, int) and a >= 0:
            # square-and-multiply from the lowest set bit, with no unit
            # factor and no squaring after the top bit
            if not a:
                return Jet.const(1.0, self.order)
            base = self
            while not a & 1:
                base = base * base
                a >>= 1
            out = base
            a >>= 1
            while a:
                base = base * base
                if a & 1:
                    out = out * base
                a >>= 1
            return out
        if not isinstance(a, (int, float, complex)):  # a Fraction
            a = a.numerator / a.denominator
        if not self.d[0]:
            raise NumericsError("jet power of zero value")
        # h = f^a from h' = a h f'/f
        g = self.deriv_jet() / self
        rows = _pascal(self.order)
        h = [cmath.exp(a * cmath.log(self.d[0]))]
        for k in range(1, self.order + 1):
            row = rows[k - 1]
            acc = 0.0
            for j in range(k):
                acc += row[j] * (a * g.d[k - 1 - j]) * h[j]
            h.append(acc)
        return _jet(tuple(h))

    def __pow__(self, a):
        return self.pow(a)

    def sqrt(self) -> "Jet":
        return self.pow(0.5)

    def truncate(self, order: int) -> "Jet":
        return _jet(self.d[: order + 1])

    def __repr__(self):
        return f"Jet({self.d!r})"


def _jet(d: tuple) -> Jet:
    """The Jet of d, whose scalars already share one arithmetic: the results
    of Jet arithmetic skip the coercion of Jet.__init__."""
    jet = object.__new__(Jet)
    jet.d = d
    return jet


# ---------------------------------------------------------------------------
# Base jets from the series


def _with_one(tail) -> Jet:
    """Jet of 1 + f from the derivatives of the tail f."""
    return Jet([1.0 + tail[0], *tail[1:]])


@lru_cache(maxsize=JET_CACHE_SIZE)
def _quad_jets(tau, order: int, scale=1):
    """Jets in sigma = scale*tau of (theta2, theta3, theta4), to the order.

    tau is complex or a CDD, and the jets are in the same arithmetic.
    eta_w, the fourth constant, is built on first use by _eta_jet.
    """
    d = th.theta_series(check_tau(tau), order, scale)
    return Jet(d[0::3]), _with_one(d[1::3]), _with_one(d[2::3])


@lru_cache(maxsize=JET_CACHE_SIZE)
def _eta_jet(sigma, order: int):
    """Jets of (eta, eta_w) at sigma: eta_w from the E2 series, then eta from
    pi*eta' = i*eta*eta_w."""
    ar = th.arithmetic(check_tau(sigma))
    w = ar.eta_w_scale() * _with_one(th.e2_series(sigma, order))
    ip = 1j / ar.pi
    rows = _pascal(order)
    b = w.d
    a = [th.eta(sigma)]
    for m in range(order):   # eta^(m+1) = ip (eta eta_w)^(m), as __mul__ sums
        row = rows[m]
        acc = a[0] * b[m]
        for j in range(1, m + 1):
            c = row[j]
            acc += c * a[j] * b[m - j] if c > 1 else a[j] * b[m - j]
        a.append(ip * acc)
    return Jet(a), w


def _rescale(jet: Jet, c: float) -> Jet:
    """Chain rule for sigma = c*tau + d: d^k/dtau^k = c^k d^k/dsigma^k."""
    if c == 1.0:
        return jet
    return _jet(tuple(jet.d[k] * c ** k for k in range(jet.order + 1)))


class ThetaJet(namedtuple("ThetaJet", "tau scale order t2 t3 t4")):
    """Jets (in tau) of the constants evaluated at the argument c*tau + d.

    The eta and eta_w jets are built on first use: the uniformizers of the
    Fuchsian catalogue need only the theta triple.  sigma = c*tau + d is
    kept beside the fields, out of the comparison and the repr.
    """

    def __new__(cls, tau, scale, order, t2, t3, t4, sigma):
        self = super().__new__(cls, tau, scale, order, t2, t3, t4)
        self.sigma = sigma
        return self

    def __getnewargs__(self):  # copy and pickle pass sigma back
        return (*self, self.sigma)

    @property
    def eta(self) -> Jet:
        return _rescale(_eta_jet(self.sigma, self.order)[0], self.scale[0])

    @property
    def etaw(self) -> Jet:
        return _rescale(_eta_jet(self.sigma, self.order)[1], self.scale[0])


@lru_cache(maxsize=JET_CACHE_SIZE)
def theta_jet(tau, scale=(1, 0), order: int = 1) -> ThetaJet:
    """Jets of theta2..4, eta, eta_w at c*tau+d, derivatives taken in tau.

    tau is complex, or a ddnum.CDD for jets in double-double.  scale is the
    pair (c, d) with c > 0; ints, Fractions and floats are accepted.  order
    runs from 0 to 6, and the tests check every order up to 6.
    """
    tau = check_tau(tau)
    if order < 0 or order > 6:
        raise NumericsError("theta_jet order out of range")
    c, d = scale
    cf, df = float(c), float(d)
    if cf <= 0:
        raise NumericsError(f"scale {cf} takes tau out of the half-plane")
    sigma = cf * tau + df
    t2, t3, t4 = _quad_jets(sigma, order) if df else _quad_jets(tau, order, cf)
    return ThetaJet(tau, (cf, df), order, _rescale(t2, cf), _rescale(t3, cf),
                    _rescale(t4, cf), sigma)


# ---------------------------------------------------------------------------
# Uniformizers and factored forms, each one expression over a theta source:
# t(c) holds theta2..theta4 and eta at c*tau, as numbers on the value route
# (complex, or CDD for a CDD tau) and as theta_jet(tau, (c, 0), order) on
# the jet route.


class ThetaValues:
    """theta2..theta4 and eta at sigma = scale*tau, read when used from one
    cached theta_series pass: at (tau, scale) for a CDD, at sigma for complex."""

    __slots__ = ("sigma", "key")

    def __init__(self, tau, scale):
        self.sigma = tau if scale == 1 else scale * tau
        self.key = (tau, 0, scale) if isinstance(tau, CDD) else (self.sigma,)

    t2 = property(lambda self: th.theta_series(*self.key)[0])
    t3 = property(lambda self: 1.0 + th.theta_series(*self.key)[1])
    t4 = property(lambda self: 1.0 + th.theta_series(*self.key)[2])
    eta = property(lambda self: th.eta(self.sigma))


def _routes(expr):
    """(value(tau), jet(tau, order=3)); the series under each validates tau."""
    def value(tau):
        return expr(lambda c: ThetaValues(tau, c))

    def jet(tau, order=3) -> Jet:
        return expr(lambda c: theta_jet(tau, (c, 0), order))

    value.__doc__ = jet.__doc__ = expr.__doc__
    return value, jet


def _x(t):
    """x = theta4/theta3, the uniformizer of y^2 = x^5 - x."""
    s = t(1)
    return s.t4 / s.t3


def _chi(t):
    """chi = -theta4(tau/2)/theta3(tau/2) = -x(tau/2), the conformal-map
    normalization of x."""
    s = t(0.5)
    return -(s.t4 / s.t3)


def _y(t):
    """y = 4i eta^3(2 tau)/theta3^3, with y^2 = x^5 - x."""
    return 4j * t(2).eta ** 3 / t(1).t3 ** 3


def _k2(t):
    """k^2 = (theta2/theta3)^2, the square of the Legendre modulus."""
    s = t(1)
    return (s.t2 / s.t3) ** 2


def _z(t):
    """z = theta4(2 tau)/theta3(tau), with z^8 + w^8 = 1."""
    return t(2).t4 / t(1).t3


def _lambda(t):
    """lambda = theta3^2(2 tau)/(theta4 theta3(4 tau)) = (x^2+1)/(x(x+1))."""
    return t(2).t3 ** 2 / (t(1).t4 * t(4).t3)


def _quintic_rhs(t):
    """16 eta^6(2 tau)/theta3^6(tau) = x - x^5 at x = theta4/theta3: the
    factored form of x^5 - x, and the a of x^5 - x + a = 0 that x solves."""
    return 16.0 * t(2).eta ** 6 / t(1).t3 ** 6


def _psi1(t):
    """Psi1 = 2i sqrt(i pi) eta^3(2 tau)/theta3, with Psi1^2 = x_tau."""
    return 2j * cmath.sqrt(1j * cmath.pi) * t(2).eta ** 3 / t(1).t3


x_quotient, x_burnside = _routes(_x)
chi_burnside, chi_half = _routes(_chi)
y_burnside_value, y_burnside = _routes(_y)
k_modulus_value, k_modulus = _routes(_k2)
z_fermat8_value, z_fermat8 = _routes(_z)
lambda_mixed_value, lambda_mixed = _routes(_lambda)
modular_quintic_rhs, modular_quintic_rhs_jet = _routes(_quintic_rhs)
psi1_value, psi1 = _routes(_psi1)


def kprime2(tau, order=3) -> Jet:
    """k'^2 = x^4 as a jet."""
    return x_burnside(tau, order) ** 4


def octahedral_j(x):
    """Klein's J as the octahedral form in x, a number or a Jet."""
    x4 = x ** 4
    # a division by 108, exact in double-double, unlike a product by 1/108
    return (x4 * x4 + 14.0 * x4 + 1.0) ** 3 / (108.0 * (x ** 5 - x) ** 4)


def j_invariant(tau, order=3) -> Jet:
    """Klein's J as a jet, the octahedral form at chi."""
    return octahedral_j(chi_half(tau, order))


def x4_minus_1(tau):
    """x^4 - 1 = -(theta2/theta3)^4 at x = theta4/theta3 (tau), which keeps
    the digits that x^4 - 1 loses near the cusp, where x -> 1."""
    return -k_modulus_value(tau) ** 2


def octahedral_factors(tau):
    """(num, den) = (x^8 + 14 x^4 + 1, x^5 - x) at x = theta4/theta3 (tau)
    from the factored forms, so J = num^3/(108 den^4), Q = -num/(2 den^2)."""
    v = x4_minus_1(tau)
    return 16.0 + 16.0 * v + v * v, -modular_quintic_rhs(tau)
