import cmath
import math
import random
from fractions import Fraction

import pytest

from thetafuchs import jets
from thetafuchs import theta_eta as th
from thetafuchs.ddnum import CDD
from thetafuchs.jets import Jet, theta_jet
from thetafuchs.numerics import NumericsError, fd_jet, tau_grid


def test_jet_orders_against_fd():
    tau = 1 / 3 + 1j
    j = theta_jet(tau, (1, 0), 3)
    for fn, jet in ((th.theta2, j.t2), (th.theta3, j.t3), (th.theta4, j.t4)):
        fd = fd_jet(fn, tau, order=3, h=0.012)
        for k in range(3):
            assert abs(jet.d[k + 1] - fd[k]) / max(1.0, abs(fd[k])) < 1e-6


def test_eta_relation_exact():
    j = theta_jet(1j, (1, 0), 1)
    assert abs(math.pi * j.eta.d[1] - 1j * j.eta.d[0] * j.etaw.d[0]) < 1e-12


def test_scaled_jet_against_fd():
    tau = 0.21 + 0.9j
    j = theta_jet(tau, (2, 0), 2)
    fd = fd_jet(lambda t: th.theta4(2 * t), tau, order=2, h=0.02)
    assert abs(j.t4.d[1] - fd[0]) < 1e-6
    assert abs(j.t4.d[2] - fd[1]) < 1e-5


def test_half_scaled_jet():
    tau = 0.3 + 1.3j
    j = theta_jet(tau, (Fraction(1, 2), Fraction(1, 2)), 2)
    fd = fd_jet(lambda t: th.theta2(0.5 * t + 0.5), tau, order=2, h=0.02)
    assert abs(j.t2.d[1] - fd[0]) < 1e-7


def test_closed_system_residuals_fd():
    # all four members of the closed system, derivatives from fd only
    cases = ((2j, th.theta2, "t2", 0.01), (1 / 3 + 1j, th.theta4, "t4", 0.004))
    for tau, fn, name, h in cases:
        d1, = fd_jet(fn, tau, order=1, h=h)
        j = theta_jet(tau, (1, 0), 1)
        exact = getattr(j, name).d[1]
        assert abs(d1 - exact) < 1e-10
    # eta_w equation at i
    d1, = fd_jet(th.eta_w, 1j, order=1, h=1e-3)
    j = theta_jet(1j, (1, 0), 1)
    assert abs(d1 - j.etaw.d[1]) < 1e-10


def test_order_zero_prefix():
    tau = 0.1 + 1.2j
    j1 = theta_jet(tau, (1, 0), 1)
    j3 = theta_jet(tau, (1, 0), 3)
    assert j3.t3.d[:2] == j1.t3.d[:2]
    assert abs(j3.t3.d[0] - th.theta3(tau)) < 1e-15


def test_jet_log_and_pow():
    tau = 0.17 + 0.8j
    j = theta_jet(tau, (1, 0), 3)
    x = j.t4 / j.t3
    fd_log = fd_jet(lambda t: cmath.log(th.theta4(t) / th.theta3(t)), tau,
                    order=2, h=0.02)
    lg = x.log()
    assert abs(lg.d[1] - fd_log[0]) < 1e-7
    half = x.pow(0.5)
    fd_half = fd_jet(lambda t: (th.theta4(t) / th.theta3(t)) ** 0.5, tau,
                     order=2, h=0.02)
    assert abs(half.d[1] - fd_half[0]) < 1e-7


def test_jet_variable_and_arithmetic():
    v = Jet.variable(2.0 + 1j, 3)
    sq = v * v
    assert sq.d[0] == (2 + 1j) ** 2
    assert sq.d[1] == 2 * (2 + 1j)
    assert sq.d[2] == 2.0
    assert sq.d[3] == 0.0
    inv = 1.0 / v
    assert abs(inv.d[1] + 1.0 / (2 + 1j) ** 2) < 1e-15


def test_order_six_against_termwise_series():
    # The jets are the term-wise differentiated series; the closed system
    # (Jacobi's equations and Ramanujan's) must hold for them through order 6,
    # in doubles and in double-double.
    from thetafuchs.fuchsian import closed_system

    for tau, bound in ((0.1 + 1.0j, 1e-13), (-0.3 + 0.45j, 1e-13),
                       (CDD.from_complex(0.1 + 1.0j), 1e-26),
                       (CDD.from_complex(-0.3 + 0.45j), 1e-26)):
        j = theta_jet(tau, (1, 0), 6)
        base = (j.t2, j.t3, j.t4, j.etaw)
        rhs = closed_system(*(b.truncate(5) for b in base))
        for lhs, r in zip(base, rhs):
            size = max(abs(v) for v in lhs.d)
            for k in range(6):
                assert abs(lhs.d[k + 1] - r.d[k]) < bound * size, (tau, k)


def test_double_double_jets_match_complex():
    # The double jets are accurate relative to their largest entry: near the
    # cusp a derivative such as theta3''(4 tau) is exponentially small.
    for tau in (0.3 + 1.1j, 0.1 + 0.7j, -0.4 + 2.5j):
        for c in (Fraction(1, 2), 1, 2, 4):
            plain = theta_jet(tau, (c, 0), 3)
            dd = theta_jet(CDD.from_complex(tau), (c, 0), 3)
            for name in ("t2", "t3", "t4", "etaw", "eta"):
                ref = getattr(plain, name).d
                size = max(abs(v) for v in ref)
                for a, b in zip(ref, getattr(dd, name).d):
                    assert isinstance(b, CDD)
                    assert abs(b.to_complex() - a) < 1e-13 * size, (tau, c, name)


def _keys_left_by(work):
    caches = (jets.theta_jet, jets._quad_jets, jets._eta_jet)
    for cache in caches:
        cache.cache_clear()
    work()
    return max(cache.cache_info().currsize for cache in caches)


def test_jet_caches_hold_one_tau(monkeypatch):
    # Every caller finishes its work at one tau before the next, so the
    # caches need room for one tau's keys only; a quarter of it is plenty.
    from thetafuchs import cli
    from thetafuchs import fuchsian as fu
    from thetafuchs import inversion as iv

    limit = jets._quad_jets.cache_info().maxsize // 4
    refined = []
    real = fu.residual_dd

    def counted(check, tau):
        refined.append(tau)
        return real(check, tau)

    monkeypatch.setattr(fu, "residual_dd", counted)
    assert _keys_left_by(lambda: cli._fuchsian_rows()(2.5j)) <= limit
    assert refined  # the tau took the double-double route too
    assert _keys_left_by(lambda: iv.quintic_solve(0.3 + 0.2j)) <= limit


def _leibniz_reference(f, g):
    """The product as it was summed before: every binomial, from int 0."""
    n = min(f.order, g.order)
    return [sum(math.comb(k, j) * f.d[j] * g.d[k - j] for j in range(k + 1))
            for k in range(n + 1)]


def test_product_matches_the_full_leibniz_sum():
    # CDD products agree in all four floats; complex ones in both parts,
    # except that an exactly zero part may keep the sign of its terms
    # (-0.0) where the sum from int 0 gave +0.0
    def bits(z):
        if isinstance(z, CDD):
            return tuple(v.hex() for v in (z.rh, z.rl, z.ih, z.il))
        return tuple(v.hex() if v else 0.0 for v in (z.real, z.imag))

    for n, tau in enumerate(tau_grid(24, seed=19, im_range=(0.3, 2.5))):
        if n % 3 == 0:
            tau = CDD.from_complex(tau)
        tj = theta_jet(tau, (1 + n % 2, 0), n % 7)
        factors = (tj.t2, tj.t3, -tj.t4, tj.t3.pow(3))
        for f in factors:
            for g in factors:
                assert ([bits(z) for z in (f * g).d]
                        == [bits(z) for z in _leibniz_reference(f, g)])


# ---------------------------------------------------------------------------
# The kernels as they were before the binomial tables, the unit-free powers
# and the one-sum eta recurrence, kept verbatim: the new ones must give the
# same bits.

def _mul_reference(self, other):
    if not isinstance(other, Jet):
        return Jet([other * a for a in self.d])
    a, b = self.d, other.d
    out = []
    for k in range(min(len(a), len(b))):   # Leibniz; a binomial 1 is left out
        acc = a[0] * b[k]
        for j in range(1, k + 1):
            c = math.comb(k, j)
            acc += c * a[j] * b[k - j] if c > 1 else a[j] * b[k - j]
        out.append(acc)
    return Jet(out)


def _truediv_reference(self, other):
    o = self._coerce(other, self.order)
    n = min(self.order, o.order)
    h = [self.d[0] / o.d[0]]
    for k in range(1, n + 1):
        acc = self.d[k]
        for j in range(k):
            acc -= math.comb(k, j) * h[j] * o.d[k - j]
        h.append(acc / o.d[0])
    return Jet(h)


def _pow_reference(self, a):
    out = Jet.const(1.0, self.order)
    base = self
    k = a
    while k:
        if k & 1:
            out = _mul_reference(out, base)
        base = _mul_reference(base, base)
        k >>= 1
    return out


def _eta_jet_reference(sigma, order):
    ar = th.arithmetic(sigma)
    w = _mul_reference(jets._with_one(th.e2_series(sigma, order)),
                       ar.eta_w_scale())
    ip = 1j / ar.pi
    vals = [th.eta(sigma)]
    for m in range(order):
        vals.append(_mul_reference(
            _mul_reference(Jet(vals), Jet(w.d[:m + 1])), ip).d[m])
    return Jet(vals), w


def _hex(jet, signed_zeros=True):
    """Every float of a jet as hex; -0.0 reads as 0.0 unless signed_zeros."""
    parts = []
    for z in jet.d:
        floats = ((z.rh, z.rl, z.ih, z.il) if isinstance(z, CDD)
                  else (z.real, z.imag))
        parts.append(tuple(v.hex() if v or signed_zeros else "0"
                           for v in floats))
    return parts


def _seeded_jets(rng, order, dd):
    def scalar():
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if not dd:
            return z
        # a product, so the low parts are not zero
        return CDD.from_complex(z) * CDD.from_complex(
            complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)))

    return [Jet([scalar() for _ in range(order + 1)]) for _ in range(3)]


def _assert_kernels_match(f, g, signed_zeros=True):
    def same(new, ref):
        assert _hex(new, signed_zeros) == _hex(ref, signed_zeros)

    same(f * g, _mul_reference(f, g))
    same(f / g, _truediv_reference(f, g))
    for n in range(13):
        same(f.pow(n), _pow_reference(f, n))


def test_kernels_bit_identical_to_references_on_seeded_jets():
    rng = random.Random(20)
    for dd in (False, True):
        for order in range(7):
            for _ in range(4):
                f, g, h = _seeded_jets(rng, order, dd)
                _assert_kernels_match(f, g)
                _assert_kernels_match(g, h.truncate(max(order - 1, 0)))


def test_kernels_at_signed_zero_real_part():
    # At tau = +-0.0 + i the theta jets have exactly zero parts.  Products
    # and quotients keep every bit.  The unit factor of the old powers turned
    # a -0.0 part into +0.0 (and the old rescaling by 1.0 did the same for
    # complex jets), so complex powers agree up to the sign of a zero part;
    # double-double ones keep every bit.
    for re in (0.0, -0.0):
        for dd in (False, True):
            tau = CDD((re, 0.0), (1.0, 0.0)) if dd else complex(re, 1.0)
            for order in range(7):
                tj = theta_jet(tau, (1 + order % 2, 0), order)
                constants = (tj.t2, tj.t3, tj.t4, tj.eta, tj.etaw)
                for f, g in zip(constants, constants[1:]):
                    assert _hex(f * g) == _hex(_mul_reference(f, g))
                    assert _hex(f / g) == _hex(_truediv_reference(f, g))
                    for n in range(13):
                        assert (_hex(f.pow(n), signed_zeros=dd)
                                == _hex(_pow_reference(f, n),
                                        signed_zeros=dd)), (re, order, n)


def test_eta_recurrence_bit_identical_to_jet_products():
    sigmas = [1j, complex(-0.0, 1.0), 0.5 + 0.8j]
    sigmas += list(tau_grid(6, seed=23, im_range=(0.4, 2.5)))
    for sigma in sigmas:
        for dd in (False, True):
            s = CDD.from_complex(sigma) if dd else sigma
            for order in range(7):
                eta, etaw = jets._eta_jet.__wrapped__(s, order)
                ref_eta, ref_etaw = _eta_jet_reference(s, order)
                assert _hex(eta) == _hex(ref_eta), (sigma, dd, order)
                assert _hex(etaw) == _hex(ref_etaw), (sigma, dd, order)


def _fresh(work):
    for cache in (th.theta_series, jets.theta_jet, jets._quad_jets,
                  jets._eta_jet):
        cache.cache_clear()
    return work()


def test_signed_zero_keys_share_cache_entries_safely():
    # The caches treat -0.0 + i and 0.0 + i as one key, so an answer at
    # either one may come from the other's entry: they must agree bit for bit.
    def answers(tau):
        def work():
            out = [_hex(Jet(th.theta_series(tau, order)))
                   for order in range(7)]
            for order in range(7):
                for scale in ((1, 0), (2, 0), (Fraction(1, 2), 0),
                              (1, Fraction(1, 2))):
                    tj = theta_jet(tau, scale, order)
                    out += [_hex(getattr(tj, name)) for name in
                            ("t2", "t3", "t4", "eta", "etaw")]
            return out
        return work

    for dd in (False, True):
        plus, minus = ((CDD((re, 0.0), (1.0, 0.0)) if dd else complex(re, 1.0))
                       for re in (0.0, -0.0))
        fresh = _fresh(answers(minus))
        assert _fresh(answers(plus)) == fresh
        assert answers(minus)() == fresh    # from the entries of +0.0 + i


def test_complex_series_at_a_scale_is_the_series_at_the_product():
    # a complex (tau, c) is summed at sigma = c*tau with today's two exps
    series = th.theta_series.__wrapped__
    for tau in (0.3 + 1.1j, complex(-0.0, 1.0), -0.45 + 0.6j, 0.1 + 0.05j):
        for c in (0.5, 1, 2, 4, Fraction(1, 2)):
            for order in range(7):
                assert (_hex(Jet(series(tau, order, c)))
                        == _hex(Jet(series(c * tau, order)))), (tau, c, order)


def test_one_double_double_exp_per_refined_tau(monkeypatch):
    # The theta passes of a refinement at every scale share r = exp(i pi
    # tau/8), and these rows read no eta, E2 or Jet.exp.
    from thetafuchs import fuchsian as fu

    calls = []
    dd = th._DOUBLE_DOUBLE

    def counted(z):
        calls.append(z)
        return dd.exp(z)

    monkeypatch.setattr(th, "_DOUBLE_DOUBLE", dd._replace(exp=counted))
    for qid in ("burnside", "fermat8", "lambda_mixed"):
        for cache in (th.theta_series, th._eighth_nome, jets.theta_jet,
                      jets._quad_jets, jets._eta_jet):
            cache.cache_clear()
        del calls[:]
        rows = fu.residual_dd(fu.catalogue_check(fu.q_catalogue(qid)),
                              0.3 + 1.1j)
        assert rows[qid] < 1e-25 and len(calls) == 1, (qid, calls)


def test_caches_kept_per_tau_stay_bounded():
    # Each cache holds one tau's keys, so peak memory stays flat however
    # many tau go by.
    from thetafuchs import abelian as ab
    from thetafuchs import cli

    caches = (th.theta_series, th._eighth_nome, jets.theta_jet,
              jets._quad_jets, jets._eta_jet, ab._cover_alpha)
    assert jets.JET_CACHE_SIZE is th.JET_CACHE_SIZE
    for cache in caches:
        assert cache.cache_info().maxsize == jets.JET_CACHE_SIZE == 64
    fuchsian_rows, integral_rows = cli._fuchsian_rows(), cli._integral_rows()
    for tau in tau_grid(300, seed=29, im_range=(0.4, 2.5)):
        fuchsian_rows(tau)
    for tau in tau_grid(300, seed=31, im_range=(0.5, 1.8)):
        integral_rows(tau)
    for cache in caches:
        info = cache.cache_info()
        assert info.misses > info.maxsize      # many tau went by
        assert info.currsize <= 64, cache


# Each uniformizer and factored form of jets as (value route, jet route).
ROUTES = {
    "x": (jets.x_quotient, jets.x_burnside),
    "chi": (jets.chi_burnside, jets.chi_half),
    "y": (jets.y_burnside_value, jets.y_burnside),
    "k2": (jets.k_modulus_value, jets.k_modulus),
    "kprime2": (lambda tau: jets.x_quotient(tau) ** 4, jets.kprime2),
    "z": (jets.z_fermat8_value, jets.z_fermat8),
    "lambda": (jets.lambda_mixed_value, jets.lambda_mixed),
    "J": (lambda tau: jets.octahedral_j(jets.chi_burnside(tau)),
          jets.j_invariant),
    "quintic_rhs": (jets.modular_quintic_rhs, jets.modular_quintic_rhs_jet),
    "x4_minus_1": (jets.x4_minus_1,
                   lambda tau, order: -jets.k_modulus(tau, order) ** 2),
}


@pytest.mark.parametrize("name", ROUTES)
def test_value_and_jet_routes_agree(name):
    value, jet = ROUTES[name]
    taus = tau_grid(12, seed=23, im_range=(0.4, 2.5))
    for tau in taus:
        v = value(tau)
        assert type(v) is complex, name
        d0 = jet(tau, 3).d[0]
        assert abs(v - d0) <= 1e-14 * abs(d0), (name, tau)
    for tau in taus[:2]:
        dd = CDD.from_complex(tau)
        vd, jd = value(dd), jet(dd, 3)
        assert isinstance(vd, CDD) and isinstance(jd.d[0], CDD), name
        assert abs((vd - jd.d[0]).to_complex()) <= 1e-28 * abs(vd), (name, tau)
    for bad in (0.3 - 0.2j, 0.3 + 0j, complex(math.nan, 1.0),
                complex(0.3, math.nan)):
        with pytest.raises(NumericsError):
            value(bad)


def test_octahedral_factors_are_the_forms_they_factor():
    # away from the cusp, where the plain forms keep their digits
    for tau in tau_grid(8, seed=29, im_range=(0.4, 1.2)):
        x = jets.x_quotient(tau)
        num, den = jets.octahedral_factors(tau)
        assert abs(num - (x ** 8 + 14.0 * x ** 4 + 1.0)) <= 1e-12 * abs(num)
        assert abs(den - (x ** 5 - x)) <= 1e-12 * abs(den)
        assert abs(jets.x4_minus_1(tau) - (x ** 4 - 1.0)) <= 1e-12
