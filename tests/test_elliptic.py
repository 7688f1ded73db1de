import math
import random

import mpmath as mp
import pytest

from thetafuchs import elliptic as el
from thetafuchs import theta_eta as th
from thetafuchs.numerics import NumericsError, tau_grid

COVER_G3 = 7 * math.sqrt(2) / 27


def test_k_at_zero():
    assert abs(el.ellip_K(0) - math.pi / 2) < 1e-15


def test_k_lemniscatic_agm():
    mp.mp.dps = 25
    assert abs(el.ellip_K(1 / math.sqrt(2)) - complex(mp.ellipk(0.5))) < 1e-14


def test_k_equals_kprime_at_i():
    k, _ = el.legendre_moduli(1j)
    assert abs(el.ellip_K(k) - el.ellip_Kprime(k)) < 1e-12


def test_k_complex_vs_mpmath():
    mp.mp.dps = 25
    for k in (0.3 + 0.2j, 0.8 - 0.4j):
        assert abs(el.ellip_K(k) - complex(mp.ellipk(mp.mpc(k.real, k.imag) ** 2))) < 1e-12


def test_k_cut_flagged():
    with pytest.raises(NumericsError):
        el.ellip_K(1.2)


def test_hyp2f1_values():
    assert abs(el.hyp2f1_half(0) - 1) < 1e-15
    target = (2 / math.pi) * el.ellip_K(1 / math.sqrt(2))
    assert abs(el.hyp2f1_half(0.5) - target) < 1e-13


def test_hyp2f1_series_agreement():
    for z in (0.3 + 0.1j, -0.6, 0.72j):
        assert abs(el.hyp2f1_half(z) - el.hyp2f1_half_series(z)) < 1e-12


def test_legendre_ode_residual():
    z0 = 0.3

    def phi(z):
        return el.hyp2f1_half(z)

    def stencil(h):
        d1 = (phi(z0 + h) - phi(z0 - h)) / (2 * h)
        d2 = (phi(z0 + h) - 2 * phi(z0) + phi(z0 - h)) / h ** 2
        return d1, d2

    c1, c2 = stencil(0.01)
    f1, f2 = stencil(0.005)
    d1 = (4 * f1 - c1) / 3
    d2 = (4 * f2 - c2) / 3
    resid = z0 * (z0 - 1) * d2 + (2 * z0 - 1) * d1 + phi(z0) / 4
    assert abs(resid) < 1e-8


def test_legendre_moduli_pythagoras():
    for tau in tau_grid(10, seed=3):
        k, kp = el.legendre_moduli(tau)
        assert abs(k * k + kp * kp - 1) < 1e-12


def test_moduli_special_values():
    k, kp = el.legendre_moduli(1j)
    assert abs(k - 1 / math.sqrt(2)) < 1e-12
    assert abs(kp - 1 / math.sqrt(2)) < 1e-12
    k2, _ = el.legendre_moduli(1j * math.sqrt(2))
    assert abs(k2 - (math.sqrt(2) - 1)) < 1e-12


def test_eisenstein_values():
    g2, g3, jj = el.eisenstein(1j)
    assert abs(g2 - 11.817045) < 5e-7
    assert abs(jj - 1) < 1e-10
    assert abs(th.theta4(2j) ** 8 - 8 * g2 / math.pi ** 4) < 1e-10


def test_stable_j_matches_series_j():
    for tau in (0.2 + 0.9j, 1.1j, -0.3 + 1.4j):
        assert abs(el.klein_j(tau) - el.eisenstein(tau)[2]) < 1e-12 * max(
            1.0, abs(el.klein_j(tau)))


def test_carlson_rf_vs_mpmath():
    mp.mp.dps = 25
    cases = ((1, 2, 3), (1 + 1j, 2, 3 - 0.5j), (0, 1, 2))
    for x, y, z in cases:
        ref = complex(mp.elliprf(x, y, z))
        assert abs(el.carlson_rf(x, y, z) - ref) < 1e-12
    # the arguments w - e_i of wp_inverse on both cover lattices
    from thetafuchs import abelian as ab

    rng = random.Random(2)
    for sign in (+1, -1):
        e1, e2, e3 = el.wp_branch_points(ab.cover_params(sign))
        for _ in range(100):
            w = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
            x, y, z = w - e1, w - e2, w - e3
            ref = complex(mp.elliprf(x, y, z))
            assert abs(el.carlson_rf(x, y, z) - ref) <= 2e-15 * abs(ref)


def test_wp_laurent_leading():
    par = el.WeierstrassParams.from_invariants(5 / 3, -COVER_G3)
    p, _, _ = el.wp(1e-3, par)
    assert abs(p * 1e-6 - 1) < 1e-5


def test_wp_differential_equation():
    par = el.WeierstrassParams.from_invariants(5 / 3, -COVER_G3)
    p, dp, _ = el.wp(0.3 + 0.2j, par)
    assert abs(dp ** 2 - (4 * p ** 3 - par.g2 * p - par.g3)) < 1e-9


def test_wp_periodicity():
    par = el.WeierstrassParams.from_invariants(5 / 3, COVER_G3)
    z = 0.31 + 0.17j
    p1, dp1, _ = el.wp(z, par)
    p2, dp2, _ = el.wp(z + par.period1, par)
    assert abs(p1 - p2) < 1e-9
    assert abs(dp1 - dp2) < 1e-9


def test_wp_duplication_vs_direct():
    par = el.WeierstrassParams.from_half_periods(2.0, 2.0 * (0.2 + 1.3j))
    z = 0.4 + 0.3j
    p, dp, _ = el.wp(z, par)
    ppp = 6 * p * p - par.g2 / 2
    dup = 0.25 * (ppp / dp) ** 2 - 2 * p
    direct, _, _ = el.wp(2 * z, par)
    assert abs(dup - direct) < 1e-9


def test_wp_inverse_round_trip():
    par = el.WeierstrassParams.from_invariants(5 / 3, COVER_G3)
    w = 2 + 1j
    alpha = el.wp_inverse(w, par)
    assert abs(el.wp(alpha, par)[0] - w) < 1e-9


def test_wp_inverse_asymptotic():
    par = el.WeierstrassParams.from_invariants(5 / 3, -COVER_G3)
    alpha = el.wp_inverse(1e6, par)
    assert abs(alpha - 1e-3) < 1e-5


def test_wp_inverse_derivative_fd():
    par = el.WeierstrassParams.from_invariants(5 / 3, -COVER_G3)
    w = 2 + 1j
    h = 1e-5
    base = el.wp_inverse(w, par)
    plus = el.wp_inverse(w + h, par)
    minus = el.wp_inverse(w - h, par)
    fd = (plus - minus) / (2 * h)
    dp = el.wp(base, par)[1]
    assert abs(fd - 1 / dp) < 1e-6


def _fresh_cover_params():
    """The +1 cover lattice as a new instance, with none of its constants
    computed yet."""
    from thetafuchs import abelian as ab

    return ab.cover_params(+1)._replace()


def test_lattice_constants_computed_once(monkeypatch):
    calls = []
    real = el.poly_roots

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(el, "poly_roots", counted)
    par = _fresh_cover_params()
    for k in range(100):
        el.wp_inverse(0.3 + 0.01 * k + 0.4j, par)
    assert len(calls) <= 1


def test_cached_constants_leave_hash_and_equality_alone():
    par = _fresh_cover_params()
    before = hash(par)
    el.wp_inverse(0.3 + 0.4j, par)
    assert hash(par) == before
    assert par == _fresh_cover_params()


def _close(got, want, rtol=1e-14):
    return all(abs(g - w) <= rtol * max(abs(w), 1.0)
               for g, w in zip(got, want))


def test_cached_lattice_constants_keep_the_values():
    # values computed before the constants were cached, on the +1 cover;
    # eta2, e1, zeta(2.9 - 1.7j) and the wp_inverse alpha are mpmath's at 40
    # digits, which the earlier values missed by 2.0e-14, 2.4e-13, 4.1e-14
    # and 4.8e-14
    par = _fresh_cover_params()
    assert _close(par.eta_pair,
                  ((1.6584220707434465e-16 + 0.5473062856450119j),
                   (0.2747536442247463 - 2.916051869272202e-16j)))
    assert _close(el.wp_branch_points(par),
                  ((-0.7357022603955159 + 0j),
                   (0.26429773960448405 - 1.6155871338926322e-27j),
                   (0.47140452079103173 + 0j)))
    assert _close(el.wp(0.37 + 0.81j, par),
                  ((-0.8666381605246783 - 0.8944928821492905j),
                   (2.8213928628091463 - 0.6571599858093208j),
                   (0.48665076513461075 - 1.0168635888578195j)))
    # reduced by a nonzero period, so zeta takes the quasi-period pair
    assert _close(el.wp(2.9 - 1.7j, par),
                  ((0.13365369864230642 + 0.08403278090364497j),
                   (-0.4068153338328553 + 0.1529133400889644j),
                   (0.09566183109546865 + 0.572258450148322j)))
    assert _close([el.wp_inverse(0.3 + 0.4j, par)],
                  [1.1277178017740304 - 0.7356703395892366j])


def test_period_invariant_round_trip():
    par = el.WeierstrassParams.from_half_periods(1.0, 0.25 + 1.2j)
    back = el.WeierstrassParams.from_invariants(par.g2, par.g3)
    check = el.WeierstrassParams.from_periods(back.period1, back.period2)
    assert abs(check.g2 - par.g2) < 1e-10 * max(1, abs(par.g2))
    assert abs(check.g3 - par.g3) < 1e-10 * max(1, abs(par.g3))


@pytest.mark.parametrize("g2, g3", [(0, 1), (0, 2 - 1j), (1, 0)])
def test_invariants_at_j_zero_and_one_round_trip(g2, g3):
    # J = 0 and J = 1 take tau = rho and tau = i exactly
    par = el.WeierstrassParams.from_invariants(g2, g3)
    check = el.WeierstrassParams.from_periods(par.period1, par.period2)
    assert abs(check.g2 - g2) < 1e-12 and abs(check.g3 - g3) < 1e-12


def test_cover_lattices_keep_their_bits():
    p, q = float.fromhex("0x1.7f6d6515a8444p+1"), float.fromhex(
        "0x1.0f1fc270944c1p+2")
    for g3, periods in ((-COVER_G3, (-p * 1j, complex(q, 0))),
                        (COVER_G3, (complex(p, 0), q * 1j))):
        par = el.WeierstrassParams.from_invariants(5 / 3, g3)
        assert (par.period1, par.period2) == periods


def test_agm_series_paths_agree():
    for k in (0.1, 0.4 + 0.3j, 0.85, 0.6 - 0.5j):
        if abs(k) <= 0.9:
            direct = el.ellip_K(k)
            series = (math.pi / 2) * el.hyp2f1_half_series(k * k)
            assert abs(direct - series) < 1e-12


def test_wp_lattice_point_error():
    par = el.WeierstrassParams.from_half_periods(2.0, 2.6j)
    with pytest.raises(NumericsError):
        el.wp(0.0, par)


def test_moduli_cusp_limits():
    k, kp = el.legendre_moduli(25j)
    assert abs(k) < 1e-12
    assert abs(kp - 1) < 1e-12


def test_moduli_near_cusp_zero_against_mpmath():
    # k' is exponentially small toward the cusp 0; at these points the
    # direct series gave theta4 = 1 + (theta4 - 1) as pure round-off
    mp.mp.dps = 40
    for tau in (0.0021836 + 0.0152496j, 0.00051 + 0.01555j, 0.3 + 0.05j):
        q = mp.expjpi(mp.mpc(tau.real, tau.imag))
        t2, t3, t4 = (mp.jtheta(n, 0, q) for n in (2, 3, 4))
        k, kp = el.legendre_moduli(tau)
        assert abs(kp - (t4 / t3) ** 2) <= 1e-12 * abs((t4 / t3) ** 2)
        assert abs(k - (t2 / t3) ** 2) <= 1e-12 * abs((t2 / t3) ** 2)


def test_phi_satisfies_legendre_ode_in_modulus_square():
    # Phi1 = (pi/2) theta3^2 against the hypergeometric equation in z = k^2,
    # all derivatives through exact jets and the chain rule
    from thetafuchs.jets import theta_jet

    for tau in (0.3 + 1.1j, 0.1 + 0.8j):
        j = theta_jet(tau, (1, 0), 2)
        phi = (math.pi / 2) * j.t3.pow(2)
        z = (j.t2 / j.t3).pow(4)
        z1, z2 = z.d[1], z.d[2]
        phi_z = phi.d[1] / z1
        phi_zz = (phi.d[2] * z1 - phi.d[1] * z2) / z1 ** 3
        zv = z.d[0]
        resid = zv * (zv - 1) * phi_zz + (2 * zv - 1) * phi_z + phi.d[0] / 4
        assert abs(resid) < 1e-9


def test_wp_inverse_polish_stops_at_round_off(monkeypatch):
    # Over the 200-sample `verify integrals` grid at seed 7, no call takes
    # more than two Newton steps.  A call of n steps evaluates wp n + 2
    # times: once per step, once to test the last step and once for the
    # final residual check.
    from thetafuchs import abelian as ab
    from thetafuchs import cli

    evaluations = []             # wp calls of each wp_inverse call
    inside = [False]
    real_wp, real_inverse = el.wp, el.wp_inverse

    def counted_wp(*args, **kwargs):
        if inside[0]:
            evaluations[-1] += 1
        return real_wp(*args, **kwargs)

    def counted_inverse(*args, **kwargs):
        evaluations.append(0)
        inside[0] = True
        try:
            return real_inverse(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(el, "wp", counted_wp)
    monkeypatch.setattr(el, "wp_inverse", counted_inverse)
    ab._cover_alpha.cache_clear()
    integral_rows = cli._integral_rows()
    for tau in tau_grid(200, seed=7, im_range=cli.SUITES["integrals"].im_range):
        integral_rows(tau)
    assert len(evaluations) == 200 * 6
    assert max(evaluations) - 2 <= 2


def _wp_reference(z, par):
    """(wp, wp', zeta) at z from mpmath's theta1 on the basis as given."""
    p1, p2, z = mp.mpc(par.period1), mp.mpc(par.period2), mp.mpc(z)
    q = mp.expjpi(p2 / p1)
    s = mp.pi / p1
    eta1 = -s ** 2 * p1 * mp.jtheta(1, 0, q, 3) / (6 * mp.jtheta(1, 0, q, 1))
    t0, t1, t2, t3 = (mp.jtheta(1, s * z, q, d) for d in range(4))
    r1, r2 = t1 / t0, t2 / t0
    return (s ** 2 * (r1 * r1 - r2) - 2 * eta1 / p1,
            -s ** 3 * (t3 / t0 - 3 * r1 * r2 + 2 * r1 ** 3),
            2 * eta1 * z / p1 + s * r1)


@pytest.mark.parametrize("par", [
    el.WeierstrassParams.from_invariants(5 / 3, -COVER_G3),
    el.WeierstrassParams.from_invariants(5 / 3, COVER_G3),
    el.WeierstrassParams.from_half_periods(1, 0.25 + 1.2j),
    el.WeierstrassParams.from_periods(1, 3.1 + 0.2j),      # reduced to 4i
], ids=["cover+", "cover-", "skew", "reduced"])
def test_wp_against_mpmath_theta1(par):
    # z is spread over 5 x 5 cells, so zeta takes its quasi-period
    # increments.  Each value is held to 1e-14 relative to itself or to the
    # lattice's own size s^k, s = pi / period1 in the reduced basis, plus
    # what rounding z by one unit costs: |z| 2^-52 |f'(z)|, with
    # f' = wp', wp'' = 6 wp^2 - g2/2 and zeta' = -wp.
    mp.mp.dps = 40
    rng = random.Random(21)
    size = abs(math.pi / (2 * par.reduced[0]))
    for _ in range(60):
        z = (rng.uniform(-2.5, 2.5) * par.period1
             + rng.uniform(-2.5, 2.5) * par.period2)
        want = [complex(v) for v in _wp_reference(z, par)]
        slope = (want[1], 6 * want[0] ** 2 - par.g2 / 2, -want[0])
        for k, (g, w, d) in enumerate(zip(el.wp(z, par), want, slope)):
            bound = (1e-14 * max(abs(w), size ** (2, 3, 1)[k])
                     + abs(z) * 2.0 ** -52 * abs(d))
            assert abs(g - w) <= bound, (k, z, g, w)


@pytest.mark.parametrize("half", [(1.0, 0.25 + 1.2j), (1.0, 1.55 + 0.1j),
                                  (0.7 - 0.3j, -0.2 + 1.1j)])
def test_legendre_relation(half):
    par = el.WeierstrassParams.from_half_periods(*half)
    omega, tau = par.reduced
    eta1, eta2 = par.eta_pair
    assert abs(eta1 * omega * tau - eta2 * omega - 0.5j * math.pi) < 1e-14
    # eta_pair is zeta at the reduced half periods
    assert abs(el.wp(omega * tau, par)[2] - eta2) < 1e-14 * abs(eta2)


def test_theta1_pass_in_double_double():
    from thetafuchs.ddnum import CDD

    mp.mp.dps = 40
    tau, v = 0.1 + 1.3j, 0.4 + 0.35j
    got = th.theta1_pass(CDD.from_complex(v),
                         th.theta1_nome(CDD.from_complex(tau)))
    q = mp.expjpi(mp.mpc(tau.real, tau.imag))
    for d, g in enumerate(got):
        want = mp.jtheta(1, mp.mpc(v.real, v.imag), q, d)
        exact = mp.mpc(g.rh, g.ih) + mp.mpc(g.rl, g.il)
        # cdd_exp's squarings cost about two of the 32 digits
        assert abs(exact - want) < 1e-29 * abs(want)
