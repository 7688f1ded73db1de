"""Double-double arithmetic for ill-conditioned residual assembly.

A double-double is an unevaluated sum hi + lo of two floats carrying about 32
significant digits.  CDD is the complex scalar built from two of them, with
the field operations, integer powers and exp; values enter as ordinary
doubles and leave through to_complex or abs.  Error-free transforms follow
Dekker and Knuth (no fma required).
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1


def _two_sum(a: float, b: float):
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _quick_two_sum(a: float, b: float):
    s = a + b
    return s, b - (s - a)


def _split(a: float):
    t = _SPLITTER * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a: float, b: float):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def dd_add(x, y):
    s1, s2 = _two_sum(x[0], y[0])
    t1, t2 = _two_sum(x[1], y[1])
    s2 += t1
    s1, s2 = _quick_two_sum(s1, s2)
    s2 += t2
    return _quick_two_sum(s1, s2)


def dd_sub(x, y):
    return dd_add(x, (-y[0], -y[1]))


def dd_mul(x, y):
    p1, p2 = _two_prod(x[0], y[0])
    p2 += x[0] * y[1] + x[1] * y[0]
    return _quick_two_sum(p1, p2)


def dd_div(x, y):
    if y[0] == 0.0:
        raise ZeroDivisionError("double-double division by zero")
    q1 = x[0] / y[0]
    r = dd_sub(x, dd_mul((q1, 0.0), y))
    q2 = r[0] / y[0]
    r = dd_sub(r, dd_mul((q2, 0.0), y))
    q3 = r[0] / y[0]
    s, e = _quick_two_sum(q1, q2)
    return dd_add((s, e), (q3, 0.0))


DD_ZERO = (0.0, 0.0)
DD_ONE = (1.0, 0.0)


class CDD:
    """Complex number with double-double components re = (rh, rl), im = (ih, il).

    int, float and complex operands enter exactly as doubles, and operands of
    any other type are left to their own reflected methods, so code written
    for complex scalars (jets, q-series, uniformizers, Q) runs on CDD as is.
    The parts are four float slots rather than two pairs, which halves the
    size of the cached double-double jets.
    """

    __slots__ = ("rh", "rl", "ih", "il")

    def __init__(self, re=DD_ZERO, im=DD_ZERO):
        self.rh, self.rl = re
        self.ih, self.il = im

    @property
    def re(self):
        return (self.rh, self.rl)

    @property
    def im(self):
        return (self.ih, self.il)

    @staticmethod
    def from_complex(z) -> "CDD":
        z = complex(z)
        return CDD((z.real, 0.0), (z.imag, 0.0))

    def to_complex(self) -> complex:
        return complex(self.rh + self.rl, self.ih + self.il)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return self.rh != 0.0 or self.ih != 0.0

    # Equal only to another CDD, so a CDD key never meets a complex key in
    # the jet caches.
    def __eq__(self, other):
        if not isinstance(other, CDD):
            return NotImplemented
        return (self.rh, self.rl, self.ih, self.il) == (
            other.rh, other.rl, other.ih, other.il)

    def __hash__(self):
        return hash((self.rh, self.rl, self.ih, self.il))

    def __add__(self, other):
        o = as_cdd(other)
        if o is None:
            return NotImplemented
        return CDD(dd_add(self.re, o.re), dd_add(self.im, o.im))

    __radd__ = __add__

    def __sub__(self, other):
        o = as_cdd(other)
        if o is None:
            return NotImplemented
        return CDD(dd_sub(self.re, o.re), dd_sub(self.im, o.im))

    def __rsub__(self, other):
        o = as_cdd(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "CDD":
        return CDD((-self.rh, -self.rl), (-self.ih, -self.il))

    def __mul__(self, other):
        if isinstance(other, complex) and other.imag == 0.0:
            other = other.real
        if isinstance(other, (int, float)):
            c = (float(other), 0.0)
            return CDD(dd_mul(self.re, c), dd_mul(self.im, c))
        o = as_cdd(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        return CDD(dd_sub(dd_mul(a, c), dd_mul(b, d)),
                   dd_add(dd_mul(a, d), dd_mul(b, c)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            c = (float(other), 0.0)
            return CDD(dd_div(self.re, c), dd_div(self.im, c))
        o = as_cdd(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        den = dd_add(dd_mul(c, c), dd_mul(d, d))
        return CDD(dd_div(dd_add(dd_mul(a, c), dd_mul(b, d)), den),
                   dd_div(dd_sub(dd_mul(b, c), dd_mul(a, d)), den))

    def __rtruediv__(self, other):
        o = as_cdd(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int) -> "CDD":
        """Integer powers by repeated squaring."""
        if n < 0:
            return 1.0 / self ** -n
        out = CDD(DD_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def as_cdd(v):
    """v as a CDD when it is a CDD or a number, else None."""
    if isinstance(v, CDD):
        return v
    if isinstance(v, (int, float, complex)):
        return CDD.from_complex(v)
    return None


# ---------------------------------------------------------------------------
# Constants and the exponential, carried in double-double.

DD_PI = (3.141592653589793, 1.2246467991473532e-16)
DD_HALF_PI = (1.5707963267948966, 6.123233995736766e-17)
DD_LN2 = (0.6931471805599453, 2.3190468138462996e-17)
DD_PI_SQ_12 = (0.8224670334241132, 1.520336175199238e-17)  # pi^2/12

# Relative size of the last q-series term kept, as TOL.series_eps is for
# doubles: a little below the double-double rounding unit 2^-106 ~ 1.2e-32.
DD_SERIES_EPS = 1e-33


def cdd_exp(z: CDD) -> CDD:
    """exp z = 2^k i^n exp(r)^256 with r = (z - k ln2 - n i pi/2) / 256.

    Both reductions are exact scalings, so |r| < 0.004 and twelve Taylor
    terms reach the double-double unit; the eight squarings cost about two
    of its 32 digits.
    """
    k = round(z.rh / DD_LN2[0])
    n = round(z.ih / DD_HALF_PI[0])
    shift = CDD(dd_mul((float(k), 0.0), DD_LN2),
                dd_mul((float(n), 0.0), DD_HALF_PI))
    r = (z - shift) * 2.0 ** -8
    out = term = CDD(DD_ONE)
    for m in range(1, 13):
        term = term * r / m
        out = out + term
    for _ in range(8):
        out = out * out
    return out * ((1, 1j, -1, -1j)[n % 4] * 2.0 ** k)
