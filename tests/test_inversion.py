import math
import time

from thetafuchs import inversion as iv
from thetafuchs import jets
from thetafuchs.jets import chi_burnside, theta_jet, x_quotient
from thetafuchs.numerics import SeededGrid, tau_grid


def test_round_trip():
    tau0 = 0.3 + 1.1j
    res = iv.invert_chi(chi_burnside(tau0))
    assert res.residual < 1e-9
    assert res.j_residual < 1e-8


def test_round_trip_seeded():
    for tau in tau_grid(20, seed=13, im_range=(0.6, 1.6)):
        a = chi_burnside(tau)
        res = iv.invert_chi(a)
        assert res.residual < 1e-9
        assert abs(chi_burnside(res.tau0) - a) < 1e-9


def test_table_value_sqrt2():
    a = math.sqrt(math.sqrt(2) - 1)
    res = iv.invert_chi(a)
    assert res.residual < 1e-9
    assert res.j_residual < 1e-8
    assert abs(abs(chi_burnside(res.tau0)) - a) < 1e-10


def test_orbit_has_24_candidates():
    res = iv.invert_chi(0.37 + 0.21j)
    assert len(res.orbit) == 24


def test_branch_points_return_markers():
    for a in (0.0, 1.0, -1.0, 1j, -1j):
        res = iv.invert_chi(a)
        assert isinstance(res, iv.BranchPointResult)
        assert res.tau_class == "oo"


def test_exact_value_suite():
    out = iv.exact_value_suite()
    assert out["chi_sqrt2_abs"] < 1e-10
    assert out["t4_over_t3_half_i"] < 1e-12
    assert out["chi_at_i_in_class"] < 1e-10
    assert out["octahedral_orbit_j"] < 1e-8
    assert out["octahedral_orbit_distinct"] == 0.0


def test_series_at_i():
    out = iv.series_at_i()
    assert out["j_first_deriv"] < 1e-6
    assert out["j_coeff2"] < 1e-4
    assert out["j_coeff3"] < 1e-4
    assert out["chi_slope_sq"] < 1e-6


def test_quintic_trivial():
    sol = iv.quintic_solve(0)
    assert sorted((round(r.real, 9), round(r.imag, 9)) for r in sol.roots) == \
        sorted((round(r.real, 9), round(r.imag, 9))
               for r in (0, 1, -1, 1j, -1j))
    assert all(t == "oo" for t in sol.taus)


def test_quintic_small_real():
    sol = iv.quintic_solve(0.01)
    assert max(sol.poly_residuals) < 1e-10
    assert max(sol.theta_residuals) < 1e-10
    assert sol.vieta_residual < 1e-9
    assert abs(x_quotient(sol.taus[0]) - sol.roots[0]) < 1e-10


def test_quintic_evaluates_each_newton_iterate_once(monkeypatch):
    taus = []

    def counting(tau, scale=(1, 0), order=1):
        taus.append(tau)
        return theta_jet(tau, scale, order)

    iv._rhs_and_slope.cache_clear()
    monkeypatch.setattr(jets, "theta_jet", counting)
    for a in (0.01, 0.3 + 0.2j, 1.5 + 0.5j):  # 1.5+0.5j continues a path
        taus.clear()
        sol = iv.quintic_solve(a)
        # theta_jet at tau and at 2 tau, once per iterate; a Newton step
        # that leaves the half-plane fails at its first jet
        inside = [t for t in taus if t.imag > 0]
        assert len(inside) == 2 * len(set(inside))
        # the first root's theta residual is the modular equation's own
        rhs = iv.modular_quintic_rhs(sol.taus[0])
        assert sol.theta_residuals[0] == abs(iv._rhs_and_slope(sol.taus[0])[0]
                                             - a)
        assert 0.0 < sol.theta_residuals[0] <= 1e-13
        assert abs(rhs - a) < 1e-12


def test_quintic_complex():
    sol = iv.quintic_solve(0.3 + 0.2j)
    assert max(sol.poly_residuals) < 1e-10
    assert sol.vieta_residual < 1e-9
    finite_taus = [t for t in sol.taus if not isinstance(t, str)]
    assert len(set(round(t.real, 6) + 1j * round(t.imag, 6)
                   for t in finite_taus)) == len(finite_taus)


def test_quintic_odd_symmetry():
    sol_p = iv.quintic_solve(0.07)
    sol_m = iv.quintic_solve(-0.07)
    key = lambda z: (round(z.real, 8), round(z.imag, 8))
    left = sorted(key(r) for r in sol_p.roots)
    right = sorted(key(-r) for r in sol_m.roots)
    for a, b in zip(left, right):
        assert abs(complex(*a) - complex(*b)) < 1e-9


def test_quintic_real_root_count_stable():
    # inside the distinct-root window |a| < 2 * 5^(-5/4) the number of real
    # roots of x^5 - x + a never changes
    counts = set()
    for a in (-0.25, -0.1, 0.05, 0.2, 0.26):
        sol = iv.quintic_solve(a)
        counts.add(sum(1 for r in sol.roots if abs(r.imag) < 1e-8))
    assert counts == {3}


def test_quintic_seeded_batch_runtime():
    gen = SeededGrid(99)
    start = time.monotonic()
    for _ in range(20):
        a = complex(-0.5 + gen.uniform(), -0.5 + gen.uniform())
        if abs(a) > 0.5:
            a *= 0.5 / abs(a)
        if a == 0:
            a = 0.1
        sol = iv.quintic_solve(a)
        assert max(sol.poly_residuals) < 1e-10
        assert sol.vieta_residual < 1e-9
        assert max(sol.theta_residuals) < 1e-10
    assert time.monotonic() - start < 10.0
