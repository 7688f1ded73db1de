import cmath
import math

import mpmath as mp
import pytest

from thetafuchs import theta_eta as th
from thetafuchs.numerics import tau_grid


def test_cusp_limits():
    tau = 40j
    assert abs(th.theta2(tau)) < 1e-12
    assert abs(th.theta3(tau) - 1) < 1e-12
    assert abs(th.theta4(tau) - 1) < 1e-12


def test_quartic_identity_at_i():
    f = th.theta(1j)
    assert abs(f.t3 ** 4 - f.t2 ** 4 - f.t4 ** 4) < 1e-14


def test_lemniscate_value_matches_agm():
    # 2^(1/4) (pi/2) theta4^2(2i) is the lemniscatic complete integral
    from thetafuchs.elliptic import ellip_K

    value = 2 ** 0.25 * (math.pi / 2) * th.theta4(2j) ** 2
    assert abs(value - ellip_K(1 / math.sqrt(2))) < 1e-13
    mp.mp.dps = 25
    ref = 2 ** mp.mpf("0.25") * (mp.pi / 2) * mp.jtheta(4, 0, mp.exp(-2 * mp.pi)) ** 2
    assert abs(value - complex(ref)) < 1e-14


def test_against_mpmath_generic_point():
    mp.mp.dps = 25
    tau = 0.31 + 0.77j
    q = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag))
    assert abs(th.theta2(tau) - complex(mp.jtheta(2, 0, q))) < 1e-13
    assert abs(th.theta3(tau) - complex(mp.jtheta(3, 0, q))) < 1e-13
    assert abs(th.theta4(tau) - complex(mp.jtheta(4, 0, q))) < 1e-13
    eta_ref = mp.exp(1j * mp.pi * mp.mpc(tau.real, tau.imag) / 12)
    for k in range(1, 60):
        eta_ref *= 1 - mp.exp(2j * mp.pi * k * mp.mpc(tau.real, tau.imag))
    assert abs(th.eta(tau) - complex(eta_ref)) < 1e-13


def test_eta_w_calibration_constant():
    assert abs(th.eta_w_scale() - math.pi ** 2 / 12) < 1e-12


def test_identity_corpus_spot():
    for tau in (1j, 0.2 + 2j):
        res = th.identity_residuals(tau)
        assert len(res) >= 18
        assert max(res.values()) < 1e-12


def test_identity_corpus_stress_near_real_axis():
    # close to the real axis the residuals either stay small or the series
    # reports truncation; silent junk is the failure mode being excluded
    try:
        res = th.identity_residuals(0.123 + 0.05j)
    except th.SeriesTruncationError:
        return
    assert max(res.values()) < 1e-9


def test_identity_corpus_seeded_sweep():
    worst = 0.0
    for tau in tau_grid(100, seed=2026, im_range=(0.3, 3.0)):
        worst = max(worst, max(th.identity_residuals(tau).values()))
    assert worst < 1e-11


def test_dedekind_relations_in_double_double():
    # both constants come from the arithmetic of tau, so a CDD tau keeps
    # Dedekind's relations far below the double rounding unit
    from thetafuchs.ddnum import CDD

    for tau in (1j, 0.3 + 0.8j, -0.4 + 1.7j):
        res = th.identity_residuals(CDD.from_complex(tau))
        assert res["dedekind_sum"] < 1e-25, tau
        assert res["dedekind_prod"] < 1e-25, tau


def test_modular_shift_consistency():
    for tau in (0.3 + 0.8j, 1.2j):
        assert abs(th.theta4(tau + 1) - th.theta3(tau)) < 1e-12
        assert abs(th.theta3(tau + 1) - th.theta4(tau)) < 1e-12


def test_eta_nonvanishing_on_grid():
    for tau in tau_grid(30, seed=5):
        assert abs(th.eta(tau)) > 1e-4


def test_truncation_reported_for_tiny_im():
    with pytest.raises(th.SeriesTruncationError):
        th.theta3(1e-4 + 1e-4j)


def test_theta_frame_self_check():
    frame = th.theta(0.4 + 0.9j)
    assert abs(2 * frame.eta ** 3 - frame.t2 * frame.t3 * frame.t4) < 1e-13


def test_theta_inversion_formula():
    # theta4(-1/tau) = sqrt(-i tau) theta2(tau);  theta3 maps to itself
    for tau in (0.2 + 1.1j, 1.4j):
        factor = cmath.sqrt(-1j * tau)
        assert abs(th.theta4(-1 / tau) - factor * th.theta2(tau)) < 1e-12
        assert abs(th.theta3(-1 / tau) - factor * th.theta3(tau)) < 1e-12


def _theta_sums_mp(sigma):
    """theta2, theta3 - 1 and theta4 - 1 at sigma, summed term by term."""
    s2 = s3 = s4 = mp.mpc(0)
    k = 0
    while True:
        s2 += mp.exp(1j * mp.pi * sigma * (k + mp.mpf(0.5)) ** 2)
        k += 1
        term = mp.exp(1j * mp.pi * sigma * k * k)
        s3 += term
        s4 += -term if k % 2 else term
        if abs(term) < mp.mpf(10) ** -60:
            return 2 * s2, 2 * s3, 2 * s4


def test_double_double_series_at_every_scale_against_mpmath():
    # The double-double passes take q^{1/4} = r^{2c} and q = r^{8c} from the
    # one exp r = exp(i pi tau/8); they must keep ~28 digits of the sums.
    # c = 3/4, no multiple of 1/2, takes the two exps at sigma instead.
    from thetafuchs.ddnum import CDD

    taus = [0.3 + 0.05j, -0.7 + 5j] + [
        complex(t.real, 0.05 * 100 ** t.imag)
        for t in tau_grid(10, seed=43, im_range=(0.0, 1.0))]
    with mp.workdps(45):
        for tau in taus:
            for c in (0.5, 0.75, 1, 2, 4):
                got = th.theta_series(CDD.from_complex(tau), 0, c)
                ref = _theta_sums_mp(c * mp.mpc(tau.real, tau.imag))
                size = max(abs(ref[0]), abs(1 + ref[1]), abs(1 + ref[2]))
                for g, r in zip(got, ref):
                    value = mp.mpc(mp.mpf(g.rh) + g.rl, mp.mpf(g.ih) + g.il)
                    assert abs(value - r) < 1e-28 * size, (tau, c)
