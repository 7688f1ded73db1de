import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from thetafuchs import curves as cv
from thetafuchs.numerics import NumericsError, tau_grid

GRID = tau_grid(20, seed=7, im_range=(0.4, 2.5))


def test_registry_size_and_metadata():
    specs = cv.registry()
    assert len(specs) >= 12
    assert cv.get_curve("burnside").genus == 2
    assert cv.get_curve("kl5").genus == 3
    assert cv.get_curve("kl3").j_invariant == Fraction(2197, 972)


def test_every_curve_on_grid():
    for spec in cv.registry():
        out = cv.curve_residual(spec.id, GRID)
        assert out["max_residual"] < 1e-10, out
        assert out["skipped"] < len(GRID)


def test_jacobi_quartic_at_i():
    assert cv.get_curve("jacobi_quartic").residual(1j) < 1e-13


def test_burnside_residual_spot():
    assert cv.get_curve("burnside").residual(1 / 3 + 1j) < 1e-11


def test_level3_spot():
    assert cv.get_curve("modular3").residual(0.2 + 0.8j) < 1e-11


def test_z9_squared_identity():
    spec = cv.get_curve("z9")
    for tau in (0.15 + 0.9j, 1.2j):
        z, y = spec.params(tau)
        assert abs(y * y - (z ** 9 - z)) < 1e-10


def test_wp_forms():
    out = cv.burnside_wp_forms(0.2 + 1.3j)
    assert out["chi_match"] < 1e-9
    assert out["curve"] < 1e-8
    assert out["phi_match"] < 1e-8


def test_wp_forms_spot_second_point():
    out = cv.burnside_wp_forms(1 / 5 + 1.3j)
    assert out["curve"] < 1e-8


def test_involution():
    for tau in (0.25 + 0.55j, 0.2 + 1.3j):
        assert cv.involution_residual(tau) < 1e-8


def test_kl_relations():
    out = cv.kl_relation_check(0.1 + 1.2j)
    assert out["integral_relation"] < 1e-9
    assert out["hypergeometric_relation"] < 1e-9
    assert out["curve_kl3"] < 1e-10
    assert out["curve_kappa_mu"] < 1e-10


def test_kl3_normal_form():
    out = cv.kl3_normal_form_check(0.1 + 1.2j)
    assert out["conic"] < 1e-12
    assert out["cubic"] < 1e-9
    assert out["j_exact"] == Fraction(2197, 972)


def test_j_bridge():
    for tau in GRID[:10]:
        assert cv.j_bridge_residual(tau) < 1e-9


def test_chi_special_value_sign():
    # the wp-quotient normalization carries the minus sign; the positive
    # table value is its absolute value
    val = cv.chi_burnside(1j * math.sqrt(2))
    assert val.real < 0
    assert abs(abs(val) - math.sqrt(math.sqrt(2) - 1)) < 1e-12


def test_chi_is_the_theta_quotient_bit_for_bit():
    from thetafuchs import theta_eta as th

    rng = random.Random(19)
    for _ in range(300):
        tau = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0))
        want = -th.theta4(tau / 2.0) / th.theta3(tau / 2.0)
        got = cv.chi_burnside(tau)
        assert (got.real.hex(), got.imag.hex()) == (want.real.hex(),
                                                    want.imag.hex())


def test_discriminant_hyperelliptic():
    d = cv.discriminant_y({(0, 2): 1, (5, 0): -1, (1, 0): 1})
    assert d == [1, 0, 0, 0, -1, 0]


def test_discriminant_cubic():
    d = cv.discriminant_y({(0, 2): 1, (3, 0): -1, (2, 0): 6, (1, 0): -11,
                           (0, 0): 6})
    assert d == [1, -6, 11, -6]


def test_discriminant_degenerate_leading():
    with pytest.raises(NumericsError):
        cv.discriminant_y({(1, 0): 1})


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.lists(st.integers(-4, 4), min_size=3, max_size=4),
       st.integers(-3, 3))
def test_discriminant_degree_bound_and_shift(coeffs, shift):
    if all(c == 0 for c in coeffs):
        coeffs[0] = 1
    # F = y^2 - p(x) with p of degree <= 3
    poly = {(0, 2): 1}
    nonzero = False
    for d, c in enumerate(coeffs):
        if c:
            poly[(d, 0)] = -c
            nonzero = True
    if not nonzero or coeffs[-1] == 0:
        return
    disc = cv.discriminant_y(poly)
    degx = max(i for (i, j) in poly if j == 0)
    assert len(disc) - 1 <= (2 * 2 - 1) * degx
    # x -> x + shift changes the discriminant only by the same shift
    shifted = {}
    for (i, j), c in poly.items():
        if j == 2:
            shifted[(i, j)] = c
            continue
        # expand c*(x+shift)^i
        for k in range(i + 1):
            key = (k, 0)
            shifted[key] = shifted.get(key, 0) + c * math.comb(i, k) * shift ** (i - k)
    shifted = {k: v for k, v in shifted.items() if v != 0}
    if not any(j == 0 for (_, j) in shifted):
        return
    disc2 = cv.discriminant_y(shifted)
    assert len(disc2) == len(disc)


def test_dedekind_curve_high_in_plane():
    assert cv.get_curve("dedekind38").residual(2.5j) < 1e-11


def test_lemniscatic_curve_moderate():
    assert cv.get_curve("lemniscatic47").residual(0.2 + 0.7j) < 1e-11


def test_cyclic_covers():
    assert cv.get_curve("cyclic3").residual(0.3 + 1.1j) < 1e-12
    assert cv.get_curve("cyclic6").residual(0.3 + 1.1j) < 1e-12


def test_puncture_reported():
    # the quintic-with-middle-terms parametrization has a pole curve near
    # tau = 0.9i; the conditioning guard must flag it instead of reporting junk
    with pytest.raises(NumericsError):
        cv.get_curve("dedekind38").residual(0.9j)
