"""Double-double arithmetic for ill-conditioned residual assembly.

A double-double is an unevaluated sum hi + lo of two floats carrying about 32
significant digits.  CDD is the complex scalar built from two of them, with
the field operations, integer powers and exp; values enter as ordinary
doubles and leave through to_complex or abs.

The kernels are written flat.  Each operation spells out the error-free
transforms it needs on float locals: Knuth's two-sum, the quick two-sum of
an ordered pair, Dekker's split and Dekker's two-product (Dekker, Numer.
Math. 18, 1971; the same sequences as Hida, Li & Bailey's QD library,
ARITH-15, 2001).  A result is built from its four floats, with no pair
tuples and no helper calls in between, because in CPython those calls and
tuples cost more than the arithmetic they wrap.  There is no fma (math.fma
needs Python 3.13), so two-product keeps the 2^27 + 1 split.  Each kernel
runs the float operations of the textbook pair forms in the same order (an
operand split twice there is split once here), so its results are
bit-identical to them; tests/test_ddnum.py keeps the pair forms as its
reference.
"""

from __future__ import annotations

_SPLITTER = 134217729.0  # 2**27 + 1
_new = object.__new__


def _add(a0, a1, b0, b1, c0, c1, d0, d1):
    """(a + ib) + (c + id), each part summed as a double-double."""
    s = a0 + c0
    v = s - a0
    e = (a0 - (s - v)) + (c0 - v)
    t = a1 + c1
    v = t - a1
    f = (a1 - (t - v)) + (c1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    rh = h + e
    rl = e - (rh - h)

    s = b0 + d0
    v = s - b0
    e = (b0 - (s - v)) + (d0 - v)
    t = b1 + d1
    v = t - b1
    f = (b1 - (t - v)) + (d1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    ih = h + e

    z = _new(CDD)
    z.rh, z.rl, z.ih, z.il = rh, rl, ih, e - (ih - h)
    return z


def _div2(a0, a1, b0, b1, y0, y1):
    """(a + ib) / y for a double-double y: three quotient digits per part."""
    if y0 == 0.0:
        raise ZeroDivisionError("double-double division by zero")
    t = _SPLITTER * y0
    yh = t - (t - y0)
    yl = y0 - yh

    # real part: q1 = a / y, r = a - q1 y, q2 = r / y, r -= q2 y, q3 = r / y
    q1 = a0 / y0
    p = q1 * y0
    t = _SPLITTER * q1
    qh = t - (t - q1)
    ql = q1 - qh
    e = ((qh * yh - p) + qh * yl + ql * yh) + ql * yl + (q1 * y1 + 0.0 * y0)
    m0 = p + e
    m1 = e - (m0 - p)
    s = a0 - m0
    v = s - a0
    e = (a0 - (s - v)) + (-m0 - v)
    t = a1 - m1
    v = t - a1
    f = (a1 - (t - v)) + (-m1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    r0 = h + e
    r1 = e - (r0 - h)
    q2 = r0 / y0
    p = q2 * y0
    t = _SPLITTER * q2
    qh = t - (t - q2)
    ql = q2 - qh
    e = ((qh * yh - p) + qh * yl + ql * yh) + ql * yl + (q2 * y1 + 0.0 * y0)
    m0 = p + e
    m1 = e - (m0 - p)
    s = r0 - m0
    v = s - r0
    e = (r0 - (s - v)) + (-m0 - v)
    t = r1 - m1
    v = t - r1
    f = (r1 - (t - v)) + (-m1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    q3 = (h + e) / y0
    s = q1 + q2
    g = q2 - (s - q1)
    h = s + q3
    v = h - s
    e = (s - (h - v)) + (q3 - v)
    t = g + 0.0
    v = t - g
    f = (g - (t - v)) + (0.0 - v)
    e += t
    s = h + e
    e = e - (s - h)
    e += f
    rh = s + e
    rl = e - (rh - s)

    # imaginary part, the same sequence on b
    q1 = b0 / y0
    p = q1 * y0
    t = _SPLITTER * q1
    qh = t - (t - q1)
    ql = q1 - qh
    e = ((qh * yh - p) + qh * yl + ql * yh) + ql * yl + (q1 * y1 + 0.0 * y0)
    m0 = p + e
    m1 = e - (m0 - p)
    s = b0 - m0
    v = s - b0
    e = (b0 - (s - v)) + (-m0 - v)
    t = b1 - m1
    v = t - b1
    f = (b1 - (t - v)) + (-m1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    r0 = h + e
    r1 = e - (r0 - h)
    q2 = r0 / y0
    p = q2 * y0
    t = _SPLITTER * q2
    qh = t - (t - q2)
    ql = q2 - qh
    e = ((qh * yh - p) + qh * yl + ql * yh) + ql * yl + (q2 * y1 + 0.0 * y0)
    m0 = p + e
    m1 = e - (m0 - p)
    s = r0 - m0
    v = s - r0
    e = (r0 - (s - v)) + (-m0 - v)
    t = r1 - m1
    v = t - r1
    f = (r1 - (t - v)) + (-m1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    q3 = (h + e) / y0
    s = q1 + q2
    g = q2 - (s - q1)
    h = s + q3
    v = h - s
    e = (s - (h - v)) + (q3 - v)
    t = g + 0.0
    v = t - g
    f = (g - (t - v)) + (0.0 - v)
    e += t
    s = h + e
    e = e - (s - h)
    e += f
    ih = s + e

    z = _new(CDD)
    z.rh, z.rl, z.ih, z.il = rh, rl, ih, e - (ih - s)
    return z


def _cdiv(a0, a1, b0, b1, c0, c1, d0, d1):
    """(a + ib) / (c + id) = ((ac + bd) + i(bc - ad)) / (c^2 + d^2)."""
    t = _SPLITTER * a0
    ah = t - (t - a0)
    al = a0 - ah
    t = _SPLITTER * b0
    bh = t - (t - b0)
    bl = b0 - bh
    t = _SPLITTER * c0
    ch = t - (t - c0)
    cl = c0 - ch
    t = _SPLITTER * d0
    dh = t - (t - d0)
    dl = d0 - dh

    # den = c c + d d
    p = c0 * c0
    e = ((ch * ch - p) + ch * cl + cl * ch) + cl * cl + (c0 * c1 + c1 * c0)
    x0 = p + e
    x1 = e - (x0 - p)
    p = d0 * d0
    e = ((dh * dh - p) + dh * dl + dl * dh) + dl * dl + (d0 * d1 + d1 * d0)
    w0 = p + e
    w1 = e - (w0 - p)
    s = x0 + w0
    v = s - x0
    e = (x0 - (s - v)) + (w0 - v)
    t = x1 + w1
    v = t - x1
    f = (x1 - (t - v)) + (w1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    y0 = h + e
    y1 = e - (y0 - h)

    # re = a c + b d
    p = a0 * c0
    e = ((ah * ch - p) + ah * cl + al * ch) + al * cl + (a0 * c1 + a1 * c0)
    x0 = p + e
    x1 = e - (x0 - p)
    p = b0 * d0
    e = ((bh * dh - p) + bh * dl + bl * dh) + bl * dl + (b0 * d1 + b1 * d0)
    w0 = p + e
    w1 = e - (w0 - p)
    s = x0 + w0
    v = s - x0
    e = (x0 - (s - v)) + (w0 - v)
    t = x1 + w1
    v = t - x1
    f = (x1 - (t - v)) + (w1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    n0 = h + e
    n1 = e - (n0 - h)

    # im = b c - a d
    p = b0 * c0
    e = ((bh * ch - p) + bh * cl + bl * ch) + bl * cl + (b0 * c1 + b1 * c0)
    x0 = p + e
    x1 = e - (x0 - p)
    p = a0 * d0
    e = ((ah * dh - p) + ah * dl + al * dh) + al * dl + (a0 * d1 + a1 * d0)
    w0 = p + e
    w1 = e - (w0 - p)
    s = x0 - w0
    v = s - x0
    e = (x0 - (s - v)) + (-w0 - v)
    t = x1 - w1
    v = t - x1
    f = (x1 - (t - v)) + (-w1 - v)
    e += t
    h = s + e
    e = e - (h - s)
    e += f
    m0 = h + e
    return _div2(n0, n1, m0, e - (m0 - h), y0, y1)


class CDD:
    """Complex number with double-double components rh + rl and ih + il.

    int, float and complex operands enter exactly as doubles, and operands of
    any other type are left to their own reflected methods, so code written
    for complex scalars (jets, q-series, uniformizers, Q) runs on CDD as is.
    The parts are four float slots rather than two pairs, which halves the
    size of the cached double-double jets.  Each operation tests for a CDD
    operand first, then for an int or float, then falls back to as_cdd.
    """

    __slots__ = ("rh", "rl", "ih", "il")

    def __init__(self, re=(0.0, 0.0), im=(0.0, 0.0)):
        self.rh, self.rl = re
        self.ih, self.il = im

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
        if type(other) is not CDD:
            if isinstance(other, (int, float)):
                return _add(self.rh, self.rl, self.ih, self.il,
                            float(other), 0.0, 0.0, 0.0)
            other = as_cdd(other)
            if other is None:
                return NotImplemented
        return _add(self.rh, self.rl, self.ih, self.il,
                    other.rh, other.rl, other.ih, other.il)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not CDD:
            if isinstance(other, (int, float)):
                return _add(self.rh, self.rl, self.ih, self.il,
                            -float(other), -0.0, -0.0, -0.0)
            other = as_cdd(other)
            if other is None:
                return NotImplemented
        return _add(self.rh, self.rl, self.ih, self.il,
                    -other.rh, -other.rl, -other.ih, -other.il)

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _add(float(other), 0.0, 0.0, 0.0,
                        -self.rh, -self.rl, -self.ih, -self.il)
        other = as_cdd(other)
        if other is None:
            return NotImplemented
        return _add(other.rh, other.rl, other.ih, other.il,
                    -self.rh, -self.rl, -self.ih, -self.il)

    def __neg__(self) -> "CDD":
        z = _new(CDD)
        z.rh, z.rl, z.ih, z.il = -self.rh, -self.rl, -self.ih, -self.il
        return z

    def __mul__(self, other):
        a0 = self.rh
        b0 = self.ih
        t = _SPLITTER * a0
        ah = t - (t - a0)
        al = a0 - ah
        t = _SPLITTER * b0
        bh = t - (t - b0)
        bl = b0 - bh
        if type(other) is not CDD:
            if isinstance(other, complex) and other.imag == 0.0:
                other = other.real
            if isinstance(other, (int, float)):
                # (a + ib) c for a double c, each part times (c, 0)
                c0 = float(other)
                t = _SPLITTER * c0
                ch = t - (t - c0)
                cl = c0 - ch
                p = a0 * c0
                e = (((ah * ch - p) + ah * cl + al * ch) + al * cl
                     + (a0 * 0.0 + self.rl * c0))
                rh = p + e
                rl = e - (rh - p)
                p = b0 * c0
                e = (((bh * ch - p) + bh * cl + bl * ch) + bl * cl
                     + (b0 * 0.0 + self.il * c0))
                ih = p + e
                z = _new(CDD)
                z.rh, z.rl, z.ih, z.il = rh, rl, ih, e - (ih - p)
                return z
            other = as_cdd(other)
            if other is None:
                return NotImplemented
        a1 = self.rl
        b1 = self.il
        c0, c1, d0, d1 = other.rh, other.rl, other.ih, other.il
        t = _SPLITTER * c0
        ch = t - (t - c0)
        cl = c0 - ch
        t = _SPLITTER * d0
        dh = t - (t - d0)
        dl = d0 - dh

        # re = a c - b d
        p = a0 * c0
        e = ((ah * ch - p) + ah * cl + al * ch) + al * cl + (a0 * c1 + a1 * c0)
        x0 = p + e
        x1 = e - (x0 - p)
        p = b0 * d0
        e = ((bh * dh - p) + bh * dl + bl * dh) + bl * dl + (b0 * d1 + b1 * d0)
        w0 = p + e
        w1 = e - (w0 - p)
        s = x0 - w0
        v = s - x0
        e = (x0 - (s - v)) + (-w0 - v)
        t = x1 - w1
        v = t - x1
        f = (x1 - (t - v)) + (-w1 - v)
        e += t
        h = s + e
        e = e - (h - s)
        e += f
        rh = h + e
        rl = e - (rh - h)

        # im = a d + b c
        p = a0 * d0
        e = ((ah * dh - p) + ah * dl + al * dh) + al * dl + (a0 * d1 + a1 * d0)
        x0 = p + e
        x1 = e - (x0 - p)
        p = b0 * c0
        e = ((bh * ch - p) + bh * cl + bl * ch) + bl * cl + (b0 * c1 + b1 * c0)
        w0 = p + e
        w1 = e - (w0 - p)
        s = x0 + w0
        v = s - x0
        e = (x0 - (s - v)) + (w0 - v)
        t = x1 + w1
        v = t - x1
        f = (x1 - (t - v)) + (w1 - v)
        e += t
        h = s + e
        e = e - (h - s)
        e += f
        ih = h + e

        z = _new(CDD)
        z.rh, z.rl, z.ih, z.il = rh, rl, ih, e - (ih - h)
        return z

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is not CDD:
            if isinstance(other, (int, float)):
                return _div2(self.rh, self.rl, self.ih, self.il,
                             float(other), 0.0)
            other = as_cdd(other)
            if other is None:
                return NotImplemented
        return _cdiv(self.rh, self.rl, self.ih, self.il,
                     other.rh, other.rl, other.ih, other.il)

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return _cdiv(float(other), 0.0, 0.0, 0.0,
                         self.rh, self.rl, self.ih, self.il)
        other = as_cdd(other)
        if other is None:
            return NotImplemented
        return _cdiv(other.rh, other.rl, other.ih, other.il,
                     self.rh, self.rl, self.ih, self.il)

    def __pow__(self, n: int) -> "CDD":
        """Integer powers by repeated squaring."""
        if n < 0:
            return 1.0 / self ** -n
        out = CDD((1.0, 0.0))
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
    # the shift k ln2 + i n pi/2, each part a double times a double-double
    c0, c1 = DD_LN2
    d0, d1 = DD_HALF_PI
    x = float(k)
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * c0
    ch = t - (t - c0)
    cl = c0 - ch
    p = x * c0
    e = ((xh * ch - p) + xh * cl + xl * ch) + xl * cl + (x * c1 + 0.0 * c0)
    s0 = p + e
    s1 = e - (s0 - p)
    x = float(n)
    t = _SPLITTER * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLITTER * d0
    dh = t - (t - d0)
    dl = d0 - dh
    p = x * d0
    e = ((xh * dh - p) + xh * dl + xl * dh) + xl * dl + (x * d1 + 0.0 * d0)
    w0 = p + e
    r = _add(z.rh, z.rl, z.ih, z.il,
             -s0, -s1, -w0, -(e - (w0 - p))) * 2.0 ** -8
    out = term = CDD((1.0, 0.0))
    for m in range(1, 13):
        term = term * r / m
        out = out + term
    for _ in range(8):
        out = out * out
    return out * ((1, 1j, -1, -1j)[n % 4] * 2.0 ** k)
