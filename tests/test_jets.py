import cmath
import math
from fractions import Fraction

from thetafuchs import jets
from thetafuchs import theta_eta as th
from thetafuchs.ddnum import CDD
from thetafuchs.jets import Jet, theta_jet
from thetafuchs.numerics import fd_jet, tau_grid


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
    jets._quad_jets.cache_clear()
    jets._eta_jet.cache_clear()
    work()
    return jets._quad_jets.cache_info().currsize


def test_jet_caches_hold_one_tau(monkeypatch):
    # Every caller finishes its work at one tau before the next, so the
    # caches need room for one tau's keys only; a quarter of it is plenty.
    from thetafuchs import cli
    from thetafuchs import fuchsian as fu
    from thetafuchs import inversion as iv

    limit = jets._quad_jets.cache_info().maxsize // 4
    refined = []
    real = fu.residual_dd

    def counted(qid, tau):
        refined.append(qid)
        return real(qid, tau)

    monkeypatch.setattr(fu, "residual_dd", counted)
    assert _keys_left_by(lambda: cli._fuchsian_rows(2.5j)) <= limit
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
