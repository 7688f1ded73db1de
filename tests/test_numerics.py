import cmath
import math

import pytest
from hypothesis import given, settings, strategies as st

import mpmath as mp
from thetafuchs import numerics as nm


def test_fd_jet_polynomial():
    d1, = nm.fd_jet(lambda t: t * t, 1j, order=1, h=0.02)
    assert abs(d1 - 2j) < 1e-10


def test_fd_jet_exponential_second_order():
    f = lambda t: cmath.exp(1j * math.pi * t)
    d1, d2 = nm.fd_jet(f, 2j, order=2, h=0.05)
    target = (1j * math.pi) ** 2 * math.exp(-2 * math.pi)
    assert abs(d2 - target) < 1e-8


def test_fd_jet_matches_theta_jet():
    from thetafuchs import theta_eta as th
    from thetafuchs.jets import theta_jet

    tau = 1 / 3 + 1j
    d1, = nm.fd_jet(th.theta3, tau, order=1, h=0.01)
    exact = theta_jet(tau, (1, 0), 1).t3.d[1]
    assert abs(d1 - exact) < nm.TOL.derivative_tol


def test_fd_jet_step_guard():
    with pytest.raises(nm.NumericsError):
        nm.fd_jet(lambda t: t, 0.5j, order=1, h=0.2)


def test_fd_jet_polynomial_degree5_relative():
    f = lambda t: t ** 5 - 3 * t ** 3 + 2
    tau = 0.4 + 1.1j
    d1, d2, d3 = nm.fd_jet(f, tau, order=3, h=0.005)
    e1 = 5 * tau ** 4 - 9 * tau ** 2
    e2 = 20 * tau ** 3 - 18 * tau
    e3 = 60 * tau ** 2 - 18
    assert abs(d1 - e1) / abs(e1) < 1e-9
    assert abs(d2 - e2) / abs(e2) < 1e-9
    assert abs(d3 - e3) / abs(e3) < 1e-8


def test_poly_roots_quintic_factors():
    roots = nm.poly_roots([1, 0, 0, 0, -1, 0])
    expected = [0, 1, -1, 1j, -1j]
    for e in expected:
        assert min(abs(r - e) for r in roots) < 1e-10


def test_poly_roots_quadratic():
    roots = nm.poly_roots([1, 0, 1])
    assert min(abs(r - 1j) for r in roots) < 1e-12
    assert min(abs(r + 1j) for r in roots) < 1e-12


def test_poly_roots_residual_selfcheck():
    roots = nm.poly_roots([1, 0, 0, 0, -1, 0.1])
    assert len(roots) == 5
    for r in roots:
        assert abs(r ** 5 - r + 0.1) < 1e-12


def _relative_errors(coeffs):
    """|r - ref|/|ref| of each root r against the nearest of mpmath's roots at
    40 digits; no two roots share their nearest one."""
    with mp.workdps(40):
        ref = [complex(r) for r in mp.polyroots(coeffs, maxsteps=100)]
    roots = nm.poly_roots(coeffs)
    nearest = [min(ref, key=lambda z: abs(r - z)) for r in roots]
    assert len(set(nearest)) == len(ref)
    return [abs(r - z) / abs(z) for r, z in zip(roots, nearest)]


def test_poly_roots_to_round_off_against_mpmath():
    from thetafuchs import abelian as ab

    for sign in (+1, -1):
        par = ab.cover_params(sign)
        assert max(_relative_errors([4.0, 0.0, -par.g2, -par.g3])) <= 1e-15
    # Bring quintics x^5 - x + a, away from the ring |a| = 4 5^(-5/4) = 0.535
    # where two roots collide
    gen = nm.SeededGrid(29)
    checked = 0
    while checked < 200:
        a = complex(-1.0 + 2.0 * gen.uniform(), -1.0 + 2.0 * gen.uniform())
        if abs(abs(a) - 0.535) < 0.05:
            continue
        checked += 1
        assert max(_relative_errors([1, 0, 0, 0, -1, a])) <= 1e-15, a


def test_poly_roots_keeps_clusters():
    # multiple roots come out as clusters around them: the simultaneous
    # iteration stops moving a root once |p| is small, as around a multiple
    # root its steps never settle (without that stop (x - 1/2)^2 (x + 0.7i)
    # does not converge), and the polish then tightens each cluster
    for coeffs, roots, spread in (([1, -2, 1], (1, 1), 1e-6),
                                  ([1, -3, 0, 4], (-1, 2, 2), 1e-6),
                                  ([1, -3, 3, -1], (1, 1, 1), 1e-4),
                                  ([1, 0, 2, 0, 1], (1j, 1j, -1j, -1j), 1e-6),
                                  ([1, -1 + 0.7j, 0.25 - 0.7j, 0.175j],
                                   (0.5, 0.5, -0.7j), 1e-6)):
        got = nm.poly_roots(coeffs, root_tol=1e-7)
        assert len(got) == len(roots)
        for root in roots:
            near = [z for z in got if abs(z - root) <= spread]
            assert len(near) == roots.count(root)


def test_poly_roots_leading_zero():
    with pytest.raises(nm.NumericsError):
        nm.poly_roots([0, 1, 2])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.complex_numbers(max_magnitude=3, allow_nan=False,
                                   allow_infinity=False),
                min_size=3, max_size=7))
def test_poly_roots_vieta(coeffs):
    coeffs = [c if abs(c) > 0.1 else c + 0.5 for c in coeffs]
    roots = nm.poly_roots(coeffs, root_tol=1e-7)
    n = len(coeffs) - 1
    total = sum(roots)
    assert abs(total - (-coeffs[1] / coeffs[0])) < 1e-6 * max(
        1.0, abs(coeffs[1] / coeffs[0]))
    prod = 1.0
    for r in roots:
        prod *= r
    assert abs(prod - (-1) ** n * coeffs[-1] / coeffs[0]) < 1e-6 * max(
        1.0, abs(coeffs[-1] / coeffs[0]))


def test_newton_sqrt2():
    root, _ = nm.newton_solve(lambda z: z * z - 2, lambda z: 2 * z, 1.0,
                              root_tol=1e-13)
    assert abs(root - math.sqrt(2)) < 1e-12


def test_newton_exp():
    root, _ = nm.newton_solve(lambda z: cmath.exp(z) - 1, cmath.exp, 0.5,
                              root_tol=1e-13)
    assert abs(root) < 1e-12


def test_newton_modular_seed():
    # solve 16 eta^6(2 tau)/theta3^6(tau) = 0.01 from the q-expansion seed
    from thetafuchs.inversion import _rhs_and_slope

    seed = cmath.log(0.01 / 16) / (1j * math.pi)
    root, _ = nm.newton_solve(lambda t: _rhs_and_slope(t)[0] - 0.01,
                              lambda t: _rhs_and_slope(t)[1], seed)
    from thetafuchs.inversion import modular_quintic_rhs
    assert abs(modular_quintic_rhs(root) - 0.01) < 1e-10


def test_newton_deterministic():
    runs = [nm.newton_solve(lambda z: z ** 3 - 2, lambda z: 3 * z * z,
                            1.1 + 0.1j)[0] for _ in range(2)]
    assert runs[0] == runs[1]


def test_seeded_grid_is_reproducible():
    a = nm.tau_grid(5, seed=42)
    b = nm.tau_grid(5, seed=42)
    assert a == b
    assert all(t.imag >= 0.3 for t in a)


def test_max_residual_keeps_nan():
    assert max(0.0, math.nan) == 0.0
    assert math.isnan(nm.max_residual([0.0, 1e-12, math.nan, 1e-14]))
    assert nm.max_residual([3e-12, 1e-11, 2e-13]) == 1e-11
