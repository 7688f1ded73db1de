import pytest

from thetafuchs import abelian as ab
from thetafuchs.fuchsian import x_burnside
from thetafuchs.numerics import NumericsError, tau_grid

GRID = tau_grid(8, seed=21, im_range=(0.6, 1.5))


def test_wp_round_trip_on_cover():
    par = ab.cover_params(+1)
    from thetafuchs import elliptic as el

    alpha = el.wp_inverse(ab.wp_argument(1.2j, +1), par)
    assert abs(el.wp(alpha, par)[0] - ab.wp_argument(1.2j, +1)) < 1e-9


def test_cover_relations_grid():
    for tau in GRID:
        out = ab.cover_relation_residuals(tau)
        assert out["mobius_bridge"] < 1e-12
        assert out["wp_plus"] < 1e-8
        assert out["wp_minus"] < 1e-8
        assert out["wp_prime_plus"] < 1e-8
        assert out["wp_prime_minus"] < 1e-8


def test_holo_differentials():
    for tau in (0.2 + 1.1j, 0.35 + 0.9j):
        out = ab.holo_differential_check(tau)
        assert out["x_form_plus"] < 1e-7
        assert out["x_form_minus"] < 1e-7
        assert out["alpha_form_plus"] < 1e-7
        assert out["alpha_form_minus"] < 1e-7


def test_mero_identities():
    for tau in (0.15 + 1.4j, 0.3 + 0.9j):
        out = ab.mero_identity_check(tau)
        assert out["i1_vs_direct"] < 1e-8
        assert out["i2_vs_direct"] < 1e-8
        assert out["linear_plus"] < 1e-6
        assert out["linear_minus"] < 1e-6
        assert out["slope_fd_plus"] < 1e-6
        assert out["slope_fd_minus"] < 1e-6


SLOPE_TAUS = (0.2 + 1.1j, 0.35 + 0.9j, -0.4 + 0.7j, 0.1 + 1.6j,
              0.45 + 0.55j)


def test_chain_rule_slope_against_fd_and_closed_form():
    for tau in SLOPE_TAUS:
        for sign in (+1, -1):
            slope = ab.alpha_slope(tau, sign)
            fd = ab.alpha_slope_fd(tau, sign)
            exact = ab.alpha_slope_exact(tau, sign)
            assert abs(slope - fd) < 1e-6 * abs(fd)
            # the closed form fixes no branch of wp^-1, so agree up to sign
            assert min(abs(slope - exact), abs(slope + exact)) < 1e-9 * abs(exact)


@pytest.mark.parametrize("tau", [0.49935 + 0.50652j, 0.50345 + 0.50207j])
def test_alpha_form_near_half_plus_half_i(tau):
    # within 0.007 of (1 + i)/2, where a central difference in tau is off by 1e-7
    out = ab.holo_differential_check(tau)
    assert out["alpha_form_plus"] < 1e-9
    assert out["alpha_form_minus"] < 1e-9


def test_translation_by_group_period():
    tau = 0.2 + 1.1j
    a = ab.holo_differential_check(tau)
    b = ab.holo_differential_check(tau + 4)
    assert abs(a["x_form_plus"] - b["x_form_plus"]) < 1e-7


def test_metric_density_half_plane():
    sample = ab.metric_density("half_plane", 1.0, 0.3 + 1.2j)
    assert abs(sample.density - 1 / 1.2 ** 2) < 1e-12


def test_metric_density_domain_errors():
    with pytest.raises(NumericsError):
        ab.metric_density("half_plane", 1.0, 0.3 - 0.2j)
    with pytest.raises(NumericsError):
        ab.metric_density("disc", 1.0, 2.0)


def test_disc_model_density():
    sample = ab.metric_density("disc", 1.0, 0.25 + 0.1j)
    assert sample.density > 0


def test_metric_positive_on_grid():
    for tau in GRID:
        x = x_burnside(tau, 0).d[0]
        assert ab.burnside_x_density(x).density > 1e-12


def test_liouville():
    for x in (0.4 + 0.3j, -0.2 + 0.45j, 0.1 - 0.55j):
        assert ab.liouville_residual(x) < 1e-5


def test_surface_metric_and_sheets():
    out = ab.burnside_surface_metric(0.5 + 0.2j)
    assert out["fractional_mismatch"] < 1e-6
    assert out["density"] > 0
    for sheet in range(5):
        d = ab.burnside_surface_metric(0.5 + 0.2j, sheet=sheet)
        assert d["density"] > 0


def test_real_sheets_do_not_follow_the_sign_of_round_off(monkeypatch):
    # For real y the real roots x may come back with an imaginary part of
    # either sign below the rounding; the sheet numbering must not see it.
    from thetafuchs import numerics

    real = numerics.poly_roots

    def nudged(sign):
        def roots(coeffs, *args, **kwargs):
            return [complex(z.real, sign * 1e-18) if abs(z.imag) < 1e-12
                    else z for z in real(coeffs, *args, **kwargs)]
        return roots

    for y in (0.5, 0.05):
        sheets = []
        for sign in (1.0, -1.0):
            monkeypatch.setattr(numerics, "poly_roots", nudged(sign))
            sheets.append([round(x.real, 12) for x in
                           ab.burnside_surface_metric(y)["all_sheets"]])
        assert sheets[0] == sheets[1], y


def test_torus_metric_x2_recovery_and_defect():
    out = ab.torus_metric_check(1.3j)
    # the sheet-recovery formula inside the display is exact
    assert out["x2_recovery"] < 1e-8
    # the displayed density itself does not reduce to the verified pullback;
    # the defect is reported rather than hidden
    assert out["relative_mismatch"] > 1e-5
    assert out["pullback"] > 0 and out["density"] > 0


def test_metric_tau_route_cross_check():
    for tau in (0.2 + 1.1j, 1.45j):
        j = x_burnside(tau, 1)
        via_tau = (1.0 / tau.imag ** 2) / abs(j.d[1]) ** 2
        via_psi = ab.burnside_x_density(j.d[0]).density
        assert abs(via_tau - via_psi) / via_psi < 1e-12


def test_liouville_wider_sample():
    from thetafuchs.numerics import SeededGrid

    gen = SeededGrid(31)
    checked = 0
    while checked < 10:
        x = complex(-0.8 + 1.6 * gen.uniform(), -0.8 + 1.6 * gen.uniform())
        if min(abs(x - b) for b in (0, 1, -1, 1j, -1j)) < 0.15:
            continue
        assert ab.liouville_residual(x) < 1e-5
        checked += 1


def test_residuals_are_path_independent():
    taus = list(GRID[:4])
    forward = [ab.holo_differential_check(t)["x_form_plus"] for t in taus]
    backward = [ab.holo_differential_check(t)["x_form_plus"]
                for t in reversed(taus)]
    assert forward == list(reversed(backward))


# ---------------------------------------------------------------------------
# One cover point per (tau, sign), shared by the three integrals checks

INTEGRAL_KEYS = {
    "mobius_bridge", "wp_plus", "wp_minus", "wp_prime_plus", "wp_prime_minus",
    "wp_prime_sign_plus", "wp_prime_sign_minus",
    "x_form_plus", "x_form_minus", "x_form_sign_plus", "x_form_sign_minus",
    "alpha_form_plus", "alpha_form_minus",
    "alpha_form_sign_plus", "alpha_form_sign_minus",
    "i1_vs_direct", "i2_vs_direct", "display_sheet",
    "linear_plus", "linear_minus", "linear_plus_sheet", "linear_minus_sheet",
    "slope_fd_plus", "slope_fd_minus"}


def _integral_parts(tau):
    return (ab.cover_relation_residuals(tau), ab.holo_differential_check(tau),
            ab.mero_identity_check(tau))


def test_cover_point_solved_once_per_sign(monkeypatch):
    from thetafuchs import elliptic as el

    tau, h = 0.23 + 1.07j, 1e-4
    solved = []
    real_inverse = el.wp_inverse

    def counted(w, params, *args, **kwargs):
        solved.append(w)
        return real_inverse(w, params, *args, **kwargs)

    monkeypatch.setattr(el, "wp_inverse", counted)
    ab._cover_alpha.cache_clear()
    _integral_parts(tau)
    # two solves at tau, and the four off-tau solves of the finite difference
    expected = [ab.wp_argument(t, s) for t in (tau, tau + h, tau - h)
                for s in (+1, -1)]
    assert sorted(solved, key=lambda w: (w.real, w.imag)) == sorted(
        expected, key=lambda w: (w.real, w.imag))


def test_cached_cover_point_keeps_the_rows(monkeypatch):
    tau = -0.31 + 0.82j
    ab._cover_alpha.cache_clear()
    first = _integral_parts(tau)
    warm = _integral_parts(tau)
    ab._cover_alpha.cache_clear()
    cold = _integral_parts(tau)
    # and with every cover point solved afresh, as before the cache
    monkeypatch.setattr(ab, "_cover_alpha", ab._cover_alpha.__wrapped__)
    uncached = _integral_parts(tau)
    assert first == warm == cold == uncached
    assert set().union(*first) == INTEGRAL_KEYS


def test_cover_point_cache_holds_one_tau():
    from thetafuchs import cli
    from thetafuchs.jets import JET_CACHE_SIZE

    ab._cover_alpha.cache_clear()
    cli._integral_rows()(0.4 + 1.3j)
    assert ab._cover_alpha.cache_info().maxsize == JET_CACHE_SIZE
    assert ab._cover_alpha.cache_info().currsize <= JET_CACHE_SIZE // 4


def test_cover_point_reuses_the_final_check(monkeypatch):
    # wp and wp' at the cover point are those of wp_inverse's final check:
    # no wp call outside wp_inverse, and the same bits as a fresh wp call
    from thetafuchs import elliptic as el

    tau = 0.37 + 0.91j
    outside, inside = [], [False]
    real_wp, real_inverse = el.wp, el.wp_inverse

    def counted_wp(*args, **kwargs):
        if not inside[0]:
            outside.append(args)
        return real_wp(*args, **kwargs)

    def marked_inverse(*args, **kwargs):
        inside[0] = True
        try:
            return real_inverse(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(el, "wp", counted_wp)
    monkeypatch.setattr(el, "wp_inverse", marked_inverse)
    ab._cover_alpha.cache_clear()
    points = [ab._cover_alpha(tau, sign) for sign in (+1, -1)]
    assert outside == []
    for sign, (alpha, pv, dv) in zip((+1, -1), points):
        assert (pv, dv) == real_wp(alpha, ab.cover_params(sign))[:2]
