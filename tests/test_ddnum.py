"""The flat double-double kernels of ddnum against the pair forms, and
against mpmath.

The reference below is the tuple-pair implementation that the flat kernels
replaced, kept verbatim: Dekker/Knuth error-free transforms on (hi, lo)
tuples and a CDD built on them.  Every flat operation must reproduce its
four floats bit for bit (signed zeros included).
"""

import random

import mpmath as mp
import pytest

from thetafuchs.ddnum import CDD, DD_HALF_PI, DD_LN2, cdd_exp

# ---------------------------------------------------------------------------
# Reference: the pair forms.

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


class PairCDD:
    """The pair-form CDD, with every operation built on the helpers above."""

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
    def from_complex(z) -> "PairCDD":
        z = complex(z)
        return PairCDD((z.real, 0.0), (z.imag, 0.0))

    def to_complex(self) -> complex:
        return complex(self.rh + self.rl, self.ih + self.il)

    def __abs__(self) -> float:
        return abs(self.to_complex())

    def __bool__(self) -> bool:
        return self.rh != 0.0 or self.ih != 0.0

    # Equal only to another PairCDD, so a PairCDD key never meets a complex key in
    # the jet caches.
    def __eq__(self, other):
        if not isinstance(other, PairCDD):
            return NotImplemented
        return (self.rh, self.rl, self.ih, self.il) == (
            other.rh, other.rl, other.ih, other.il)

    def __hash__(self):
        return hash((self.rh, self.rl, self.ih, self.il))

    def __add__(self, other):
        o = pair_as_cdd(other)
        if o is None:
            return NotImplemented
        return PairCDD(dd_add(self.re, o.re), dd_add(self.im, o.im))

    __radd__ = __add__

    def __sub__(self, other):
        o = pair_as_cdd(other)
        if o is None:
            return NotImplemented
        return PairCDD(dd_sub(self.re, o.re), dd_sub(self.im, o.im))

    def __rsub__(self, other):
        o = pair_as_cdd(other)
        return NotImplemented if o is None else o - self

    def __neg__(self) -> "PairCDD":
        return PairCDD((-self.rh, -self.rl), (-self.ih, -self.il))

    def __mul__(self, other):
        if isinstance(other, complex) and other.imag == 0.0:
            other = other.real
        if isinstance(other, (int, float)):
            c = (float(other), 0.0)
            return PairCDD(dd_mul(self.re, c), dd_mul(self.im, c))
        o = pair_as_cdd(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        return PairCDD(dd_sub(dd_mul(a, c), dd_mul(b, d)),
                   dd_add(dd_mul(a, d), dd_mul(b, c)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            c = (float(other), 0.0)
            return PairCDD(dd_div(self.re, c), dd_div(self.im, c))
        o = pair_as_cdd(other)
        if o is None:
            return NotImplemented
        a, b, c, d = self.re, self.im, o.re, o.im
        den = dd_add(dd_mul(c, c), dd_mul(d, d))
        return PairCDD(dd_div(dd_add(dd_mul(a, c), dd_mul(b, d)), den),
                   dd_div(dd_sub(dd_mul(b, c), dd_mul(a, d)), den))

    def __rtruediv__(self, other):
        o = pair_as_cdd(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, n: int) -> "PairCDD":
        """Integer powers by repeated squaring."""
        if n < 0:
            return 1.0 / self ** -n
        out = PairCDD(DD_ONE)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out


def pair_as_cdd(v):
    """v as a PairCDD when it is a PairCDD or a number, else None."""
    if isinstance(v, PairCDD):
        return v
    if isinstance(v, (int, float, complex)):
        return PairCDD.from_complex(v)
    return None


def pair_exp(z: PairCDD) -> PairCDD:
    """The pair-form cdd_exp."""
    k = round(z.rh / DD_LN2[0])
    n = round(z.ih / DD_HALF_PI[0])
    shift = PairCDD(dd_mul((float(k), 0.0), DD_LN2),
                    dd_mul((float(n), 0.0), DD_HALF_PI))
    r = (z - shift) * 2.0 ** -8
    out = term = PairCDD(DD_ONE)
    for m in range(1, 13):
        term = term * r / m
        out = out + term
    for _ in range(8):
        out = out * out
    return out * ((1, 1j, -1, -1j)[n % 4] * 2.0 ** k)


# ---------------------------------------------------------------------------
# Seeded operands, as the same four floats in both forms.

def _dd(rng, lo_exp=-30, hi_exp=30):
    """A normalized double-double of magnitude 10^lo_exp to 10^hi_exp."""
    hi = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(lo_exp, hi_exp)
    if rng.random() < 0.2:  # an operand that entered as a double
        return hi, 0.0
    return _quick_two_sum(hi, hi * rng.uniform(-1.0, 1.0) * 2.0 ** -53)


def _operand(rng):
    """(flat, pair) forms of one seeded CDD; a few are real or imaginary."""
    u = rng.random()
    re = (0.0, 0.0) if u < 0.05 else _dd(rng)
    im = (0.0, 0.0) if 0.05 <= u < 0.1 else _dd(rng)
    return CDD(re, im), PairCDD(re, im)


def _scalar(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice((-7, -3, -1, 1, 2, 3, 5, 12))
    if kind == 1:
        return _dd(rng)[0]
    if kind == 2:
        return complex(_dd(rng)[0], _dd(rng)[0])
    return complex(_dd(rng)[0], rng.choice((0.0, -0.0)))  # zero imaginary


def _bits(z):
    """The four floats of a CDD as hex strings, so -0.0 differs from 0.0."""
    return tuple(float.hex(x) for x in (z.rh, z.rl, z.ih, z.il))


_BINARY = (lambda x, y: x + y, lambda x, y: x - y,
           lambda x, y: x * y, lambda x, y: x / y)

_WITH_SCALAR = (lambda x, s: x + s, lambda x, s: s + x,
                lambda x, s: x - s, lambda x, s: s - x,
                lambda x, s: x * s, lambda x, s: s * x,
                lambda x, s: x / s, lambda x, s: s / x)


def test_field_operations_bit_identical_to_pair_forms():
    rng = random.Random(18)
    for _ in range(2000):
        (x, xp), (y, yp) = _operand(rng), _operand(rng)
        for op in _BINARY:
            assert _bits(op(x, y)) == _bits(op(xp, yp))
        assert _bits(-x) == _bits(-xp)
        s = _scalar(rng)
        for op in _WITH_SCALAR:
            assert _bits(op(x, s)) == _bits(op(xp, s))


def test_signed_zeros_bit_identical_to_pair_forms():
    rng = random.Random(19)
    signs = (0.0, -0.0)
    zeros = [((a, b), (c, d)) for a in signs for b in signs
             for c in signs for d in signs]
    for _ in range(30):
        x, xp = _operand(rng)
        for re, im in zeros:
            y, yp = CDD(re, im), PairCDD(re, im)
            for op in _BINARY[:3]:
                assert _bits(op(x, y)) == _bits(op(xp, yp))
                assert _bits(op(y, x)) == _bits(op(yp, xp))
            assert _bits(y / x) == _bits(yp / xp)
            for s in (0, 0.0, -0.0, 0j, complex(-0.0, -0.0)):
                for op in _WITH_SCALAR[:6]:
                    assert _bits(op(x, s)) == _bits(op(xp, s))
                    assert _bits(op(y, s)) == _bits(op(yp, s))


def test_powers_bit_identical_to_pair_forms():
    rng = random.Random(20)
    for _ in range(300):
        x, xp = _operand(rng)
        for n in range(-3, 8):
            assert _bits(x ** n) == _bits(xp ** n)


def test_exp_bit_identical_to_pair_form():
    rng = random.Random(21)
    for _ in range(300):
        re, im = _dd(rng, -3, 1.6), _dd(rng, -3, 1.6)  # |Re z|, |Im z| < 40
        assert _bits(cdd_exp(CDD(re, im))) == _bits(pair_exp(PairCDD(re, im)))


def test_division_by_zero_and_foreign_operands():
    z = CDD((1.5, 1e-17), (-2.0, 3e-17))
    for zero in (0, 0.0, CDD()):
        with pytest.raises(ZeroDivisionError):
            z / zero
    with pytest.raises(ZeroDivisionError):
        1.0 / CDD()
    with pytest.raises(TypeError):
        z + "x"
    with pytest.raises(TypeError):
        "x" * z


# ---------------------------------------------------------------------------
# Accuracy against mpmath at 40 digits.

def _mp(z):
    return mp.mpc(mp.mpf(z.rh) + mp.mpf(z.rl), mp.mpf(z.ih) + mp.mpf(z.il))


def _component_error(got, want):
    return max(abs(got.real - want.real) / abs(want.real),
               abs(got.imag - want.imag) / abs(want.imag))


def test_exp_relative_error_against_mpmath():
    # The eight squarings multiply the rounding of the reduced exp by 256:
    # over this set the median relative error is 1.5e-30 and the largest
    # 1.49e-29 (at z = 0.276+0.124i), and 6 000 draws reach no further.
    rng = random.Random(22)
    worst = 0.0
    with mp.workdps(40):
        for _ in range(400):
            z = CDD(_dd(rng, -3, 1.6), _dd(rng, -3, 1.6))
            want = mp.exp(_mp(z))
            worst = max(worst, abs(_mp(cdd_exp(z)) - want) / abs(want))
    assert worst < 2e-29


def test_division_relative_error_against_mpmath():
    # Operands in the first quadrant whose arguments differ by 0.5 to 1.3
    # radians: no part of the quotient cancels.  The largest component-wise
    # relative error over this set is 4.3e-32 (by a CDD) and 5.7e-33 (by a
    # double).
    rng = random.Random(23)
    worst_complex = worst_scalar = 0.0
    with mp.workdps(40):
        for _ in range(400):
            a, b = rng.uniform(0.1, 0.4), rng.uniform(0.9, 1.4)
            if rng.random() < 0.5:
                a, b = b, a
            x, y = (CDD.from_complex(10.0 ** rng.uniform(-30, 30)
                                     * complex(mp.cos(t), mp.sin(t)))
                    * CDD(_dd(rng, 0, 0.3)) for t in (a, b))
            want = _mp(x) / _mp(y)
            worst_complex = max(worst_complex,
                                _component_error(_mp(x / y), want))
            d = _dd(rng)[0]
            worst_scalar = max(worst_scalar,
                               _component_error(_mp(x / d), _mp(x) / d))
    assert worst_complex < 1e-29
    assert worst_scalar < 1e-29
