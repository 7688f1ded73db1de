import cmath
import io
import json
import math
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from thetafuchs import cli, jets
from thetafuchs import fuchsian as fu
from thetafuchs.jets import Jet, psi1, theta_jet
from thetafuchs.numerics import newton_solve, tau_grid
from thetafuchs.report import RunReport

GRID = tau_grid(12, seed=11, im_range=(0.4, 2.5))


def test_schwarzian_trivial_cases():
    tau = 0.4 + 1.1j
    s = fu.schwarzian_jet(lambda t, o: Jet.variable(t, o), tau)
    assert abs(s.schwarzian) < 1e-14
    assert abs(s.mero) < 1e-14
    # Mobius image of tau
    mob = fu.schwarzian_jet(
        lambda t, o: (Jet.variable(t, o) + 2.0) / (Jet.variable(t, o) - 1.5j),
        tau)
    assert abs(mob.schwarzian) < 1e-12


def test_burnside_equation_pointwise():
    s = fu.schwarzian_jet(fu.x_burnside, 1 / 3 + 1j)
    x = s.x
    target = -0.5 * (x ** 8 + 14 * x ** 4 + 1) / (x ** 2 * (x ** 4 - 1) ** 2)
    assert abs(s.mero - target) < 1e-9


def test_catalogue_sweeps():
    for qid in fu.CATALOGUE_IDS:
        res = fu.verify_fuchsian(qid, GRID)
        assert res["max_residual"] < 1e-9, (qid, res)


def test_fermat4_is_burnside_form():
    q4 = fu.q_fermat(4)
    for x in (0.3 + 0.2j, 1.7 - 0.4j):
        assert abs(q4(x) - fu.q_burnside(x)) < 1e-12 * abs(fu.q_burnside(x))


def test_parabolic_form_equals_fermat8_exactly():
    # the nine-pole explicit form and the closed n = 8 form agree as rational
    # functions; checked in exact rational arithmetic on the real axis
    def fermat8_exact(z: Fraction) -> Fraction:
        return Fraction(-1, 2) * (z ** 16 + 62 * z ** 8 + 1) / (z * (z ** 8 - 1)) ** 2

    def parabolic_exact(z: Fraction) -> Fraction:
        # sum over 0 and the eighth roots collapses to rational combinations
        s = 1 / z ** 2 + (8 * z ** 14 + 56 * z ** 6) / (z ** 8 - 1) ** 2
        return Fraction(-1, 2) * (s - 8 * z ** 6 / (z ** 8 - 1))

    # the catalogue's parabolic form, built from P = z^9 - z
    nd = fu.q_catalogue("z9_parabolic").evaluator.nd
    for z in (Fraction(1, 3), Fraction(7, 5), Fraction(-4, 9)):
        assert fermat8_exact(z) == parabolic_exact(z)
        num, den = nd(z)
        assert (num, den) == (z ** 16 + 62 * z ** 8 + 1, (z ** 9 - z) ** 2)
        assert Fraction(-1, 2) * num / den == fermat8_exact(z)


def test_q_parabolic_matches_closed_form_numerically():
    qp = fu.q_catalogue("z9_parabolic").evaluator
    qf = fu.q_fermat(8)
    for z in (0.4 + 0.1j, 1.3 - 0.7j):
        assert abs(qp(z) - qf(z)) < 1e-10 * abs(qf(z))


def test_exact_rows_are_identities(monkeypatch):
    # fermat4 repeats burnside's x and Q, and z9_parabolic fermat8's: the
    # parabolic Q of y^2 = z^9 - z is the closed Fermat form at n = 8
    for qid, mate in (("fermat4", "burnside"), ("z9_parabolic", "fermat8")):
        qf = fu.q_catalogue(qid)
        assert qf.same_as == mate
        assert qf.uniformizer is fu.q_catalogue(mate).uniformizer
        assert fu.exact_mismatch(qid) == 0.0
    # no jet, Q or refinement at any tau: every sample reads 0.0, even at a
    # tau outside the half-plane
    misses = jets._quad_jets.cache_info().misses
    monkeypatch.setattr(fu, "residual_dd", None)
    for qid in ("fermat4", "z9_parabolic"):
        res = fu.verify_fuchsian(qid, [-1j, 0.3 + 1.1j])
        assert res == {"id": qid, "max_residual": 0.0, "skipped": 0,
                       "samples": 2}
    assert jets._quad_jets.cache_info().misses == misses


@pytest.mark.parametrize("qid", ["fermat4", "z9_parabolic"])
def test_exact_row_goes_red_when_its_identity_breaks(qid, monkeypatch):
    qf = fu.q_catalogue(qid)
    nd = qf.evaluator.nd
    # one coefficient moves: z^3 gains 1 in the numerator
    broken = fu._q(lambda z: (nd(z)[0] + z ** 3, nd(z)[1]))
    monkeypatch.setitem(fu._CATALOGUE, qid, qf._replace(evaluator=broken))
    fu.exact_mismatch.cache_clear()
    try:
        buf = io.StringIO()
        with redirect_stdout(buf):
            status = cli.main(["verify", "fuchsian", "--samples", "3"])
    finally:
        monkeypatch.undo()
        fu.exact_mismatch.cache_clear()
    rows = {c["name"]: c for c in json.loads(buf.getvalue())["checks"]}
    assert status == 1
    assert rows[qid]["residual"] >= 1 and rows[qid]["pass"] is False
    assert all(c["pass"] for name, c in rows.items() if name != qid)


def test_change_of_variable_law():
    out = fu.change_of_var_check(GRID)
    assert out["z_x4_law"] < 1e-9
    assert out["z_x4_is_legendre"] < 1e-9
    assert out["mobius"] < 1e-12
    assert out["pair_lemma"] < 1e-9


def test_pair_lemma_refined_near_y_critical():
    # y_tau = 0 near 0.7352559i, where the pair lemma loses its digits in
    # doubles; change_of_var_check evaluates such a tau in double-double
    tau_c = 0.7352559285991116j
    for angle in (0.3, 2.0, 4.1):
        out = fu.change_of_var_check([tau_c + 0.002 * cmath.exp(1j * angle)])
        assert out["pair_lemma"] < 1e-12
        assert out["skipped"] == 0
        assert all(type(out[name]) is float for name in
                   ("z_x4_law", "z_x4_is_legendre", "mobius", "pair_lemma"))


def test_closed_system_rows():
    for tau in (1j, 0.3 + 0.45j, -0.2 + 2.4j):
        res = fu.modular_ode_residuals(tau)
        for name in ("jacobi_theta2", "jacobi_theta3", "jacobi_theta4",
                     "ramanujan_e2"):
            assert res[name] < 1e-12, (tau, name)


def test_y_side_pole_structure():
    # [y, tau] must blow up at 5 x^4 = 1 exactly like the double pole of the
    # algebraic-coefficient equation: Q2 y^2 (y^8 - 2^8 5^-5)^2 stays bounded
    def f(t):
        j = fu.x_burnside(t, 1)
        return 5 * j.d[0] ** 4 - 1

    def df(t):
        j = fu.x_burnside(t, 1)
        return 20 * j.d[0] ** 3 * j.d[1]

    tau_star, _ = newton_solve(f, df, 0.75j, root_tol=1e-12)
    c = 2 ** 8 * 5 ** -5
    bounded = []
    growth = []
    for delta in (0.04, 0.02, 0.01):
        t = tau_star + delta * (0.6 + 0.8j)
        yj = fu.y_burnside(t, 3)
        _, q2 = fu.brackets_from_jet(yj)
        growth.append(abs(q2))
        bounded.append(abs(q2 * yj.d[0] ** 2 * (yj.d[0] ** 8 - c) ** 2))
    assert growth[2] > 20 * growth[0]
    assert max(bounded) / min(bounded) < 1.2


def test_psi_families():
    tau = 0.3 + 1.1j
    p1, p2 = fu.psi("burnside_tau", tau)
    assert abs(p2 / p1 - tau) < 1e-12
    xj = fu.x_burnside(tau, 1)
    assert abs(p1 ** 2 - xj.d[1]) < 1e-10
    f1, f2 = fu.psi("legendre", tau)
    assert abs(f2 / f1 - (-1j * tau)) < 1e-12
    x = 0.4 + 0.25j
    a1, a2 = fu.psi("burnside_x", x)
    b1, b2 = fu.psi("burnside_x_w", x)
    # (K/K', K'/K) pairs: a2/a1 = K'/K and b1/b2 = K'/(iK)
    assert abs(a2 / a1 - 1j * (b1 / b2)) < 1e-10


def test_wronskians_constant():
    w50 = []
    w16 = []
    for tau in (0.2 + 1.1j, 0.4 + 0.9j, 1.3j):
        xj = fu.x_burnside(tau, 1)
        x, x1 = xj.d[0], xj.d[1]
        p1 = psi1(tau, 1)
        w50.append((p1.d[0] * (p1.d[0] + tau * p1.d[1])
                    - tau * p1.d[0] * p1.d[1]) / x1)
        t3 = theta_jet(tau, (1, 0), 1).t3
        phi1 = (math.pi / 2) * t3.pow(2)
        phi2v = -1j * tau * phi1.d[0]
        phi2d = -1j * (phi1.d[0] + tau * phi1.d[1])
        w16.append((x ** 5 - x) * (phi1.d[0] * phi2d - phi2v * phi1.d[1]) / x1)
    for w in w50:
        assert abs(w - 1) < 1e-9
    for w in w16:
        assert abs(w + math.pi) < 1e-9


def test_modular_ode_residuals_on_grid():
    for tau in tau_grid(8, seed=9, im_range=(0.5, 1.8)):
        res = fu.modular_ode_residuals(tau)
        worst = max(res.values())
        assert worst < 1e-8, (tau, res)


def test_ground_form_at_i():
    res = fu.modular_ode_residuals(1j)
    assert res["ground_form_eta"] < 1e-11


def test_theorema_at_quarter_shift():
    res = fu.modular_ode_residuals(0.25 + 1j)
    assert res["theorema_theta3"] < 1e-8
    assert res["theorema_theta4"] < 1e-8


def test_log_solution_ode():
    res = fu.modular_ode_residuals(0.3 + 0.8j)
    assert res["ode_log_solution"] < 1e-8
    assert res["ode_weight2"] < 1e-8


def test_dd_refinement_agrees_with_double():
    for tau in (0.3 + 1.1j, 0.1 + 0.7j, -0.4 + 2.5j):
        for qid in fu.CATALOGUE_IDS:
            qf = fu.q_catalogue(qid)
            if qf.same_as:
                continue  # an exact row has no residual at tau
            check = fu.catalogue_check(qf)
            assert fu.residual_dd(check, tau)[qid] < 1e-12, (qid, tau)


def test_every_refinement_passes_through_residual_dd(monkeypatch):
    # the pair-lemma probe refines the change-of-variable rows, and bruns
    # next to i refines a catalogue row, both by the one helper
    seen = []
    real = fu.residual_dd

    def counted(check, tau):
        seen.append((check.uniformizer, tau))
        return real(check, tau)

    monkeypatch.setattr(fu, "residual_dd", counted)
    probe = 0.7352559285991116j + 0.002 * cmath.exp(0.3j)
    assert fu.change_of_var_check([probe])["pair_lemma"] < 1e-12
    assert seen == [(fu.x_burnside, probe)]
    assert fu.verify_fuchsian("bruns", [1j + 0.002])["max_residual"] < 1e-9
    assert seen[1:] == [(fu.j_invariant, 1j + 0.002)]


def test_bruns_refined_near_orbit_of_i():
    # J' vanishes at i, where Q_bruns has its double pole: in doubles the
    # residual loses most of its digits, the double-double route keeps them
    tau = 1j + 0.002
    j = fu.j_invariant(tau, 3)
    _, mero = fu.brackets_from_jet(j)
    assert abs(mero - fu.q_bruns(j.d[0])) > 1e-9
    assert fu.verify_fuchsian("bruns", [tau])["max_residual"] < 1e-9


def test_nan_residual_survives_the_maximum(monkeypatch):
    qf = fu.q_catalogue("heun")
    nan_at = 0.2 + 1.3j

    def residual(tau, j):
        return math.nan if tau == nan_at else 0.0

    monkeypatch.setattr(fu, "q_catalogue",
                        lambda qid: qf._replace(residual=residual))
    res = fu.verify_fuchsian("heun", [0.1 + 0.9j, nan_at, 0.3 + 1.1j])
    assert math.isnan(res["max_residual"])
    row = RunReport("demo")
    row.add("heun", res["max_residual"], 1e-9)
    assert row.exit_status == 1


def test_accessory_metadata():
    for qid in fu.CATALOGUE_IDS:
        assert fu.q_catalogue(qid).accessory_zero
