import cmath
import math
import time

from thetafuchs import elliptic as el
from thetafuchs import inversion as iv
from thetafuchs import jets
from thetafuchs.cli import tolerance
from thetafuchs.jets import chi_burnside, octahedral_j, theta_jet, x_quotient
from thetafuchs.modgroup import coset_reps, gamma4_reduce, mobius
from thetafuchs.numerics import (POLISH_STOP, TOL, NumericsError, SeededGrid,
                                 polish, tau_grid)


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
        if scale[0] in (1, 2):   # the polish of invert_chi reads scale 1/2
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


def _circle(centre, radius, n, offset=0.0):
    return [centre + radius * cmath.exp(2j * math.pi * (k + offset) / n)
            for k in range(n)]


def test_quintic_small_a_passes_every_tolerance():
    # one root is r ~ a, and invert_chi(-r) lands next to the branch value 0,
    # where the search's tau0 misses by up to 2.2e-8 until it is polished
    for radius in (1e-3, 2e-3, 3e-3, 1e-2):
        for a in _circle(0, radius, 16):
            sol = iv.quintic_solve(a)
            for name, residual in (
                    ("max_poly_residual", max(sol.poly_residuals)),
                    ("max_theta_residual", max(sol.theta_residuals)),
                    ("vieta", sol.vieta_residual)):
                assert residual <= tolerance("quintic", name), (a, name)


def test_quintic_theta_residuals_are_the_inversions():
    sol = iv.quintic_solve(0.3 + 0.2j)
    for root, sigma, residual in zip(sol.roots[1:], sol.taus[1:],
                                     sol.theta_residuals[1:]):
        assert residual == abs(x_quotient(sigma) - root)


def test_quintic_real_roots_keep_their_place():
    # a real root's round-off imaginary part has either sign (-9e-22 at
    # a = 0.01 before the polish, +1.9e-37 after it); the negative ones sort
    # last, at arg pi, by modulus
    for a in (0.001, 0.003, 0.01, 0.07, 0.4, -0.01, -0.4):
        rest = iv.quintic_solve(a).roots[1:]
        negative = [r for r in rest if abs(r.imag) < 1e-12 and r.real < 0]
        assert len(negative) == (1 if a > 0 else 2)
        assert list(rest[-len(negative):]) == sorted(negative, key=abs)


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


# ---------------------------------------------------------------------------
# invert_chi against the 24-evaluation search it replaces


def _chi_candidates(tau_prime):
    return [gamma4_reduce(mobius(rep, 2.0 * tau_prime))[0]
            for rep in coset_reps()]


def _tau_prime(a):
    m = a * a
    m2 = m * m
    if m2.imag == 0.0 and (m2.real >= 1.0 or m2.real <= 0.0):
        m *= cmath.exp(5e-15j)
    return 1j * el.ellip_K(m) / el.ellip_Kprime(m)


def _reference_invert(a):
    """chi at all 24 candidates, ranked by (|chi - A|, index); the best one
    polished where its residual misses the polish's stop."""
    a = complex(a)
    if iv._is_branch_point(a):
        return iv.BranchPointResult(a, "oo")
    tau_prime = _tau_prime(a)
    if tau_prime.imag <= 0:
        raise NumericsError(f"inversion ratio left the half-plane: {tau_prime}")
    ranked = []
    for index, (rep, point) in enumerate(zip(coset_reps(),
                                             _chi_candidates(tau_prime))):
        try:
            residual = abs(iv.chi_burnside(point) - a)
        except NumericsError:
            residual = math.inf
        ranked.append((residual, index, point, rep))
    ranked.sort(key=lambda item: item[:2])
    residual, _, point, rep = ranked[0]
    if residual > POLISH_STOP * max(1.0, abs(a)):
        point = polish(lambda t: (jets.chi_half(t, 1) - a).d, point,
                       max(1.0, abs(a)))
        residual = abs(iv.chi_burnside(point) - a)
    if residual > TOL.root_tol:
        raise NumericsError(f"inversion failed: best residual {residual:.3e}")
    return iv.InversionResult(point, tuple(item[2] for item in ranked),
                              residual, rep,
                              abs(el.klein_j(point) - octahedral_j(a)))


def _outcome(fn, a):
    try:
        return repr(fn(a))
    except NumericsError as exc:
        return f"NumericsError: {exc}"


def _reference_values():
    gen = SeededGrid(24)
    values = [complex(-1.6 + 3.2 * gen.uniform(), -1.6 + 3.2 * gen.uniform())
              for _ in range(300)]
    for radius in (0.015, 0.05):
        values += [radius * cmath.exp(2j * math.pi * (k + 0.3) / 40)
                   for k in range(40)]
    # fixed points of octahedral rotations (edge midpoints, face centres),
    # where candidates tie
    r = math.sqrt(2.0 - math.sqrt(3.0))
    centres = []
    for k in range(4):
        w = cmath.exp(1j * math.pi * (2 * k + 1) / 4)
        centres += [(iv.SQRT2 - 1.0) * 1j ** k, (iv.SQRT2 + 1.0) * 1j ** k,
                    r * w, w / r, w]
    for centre in centres:
        for e in range(-15, -2):
            for direction in (1.0, cmath.exp(0.7j)):
                a = centre + 10.0 ** e * direction
                if abs(a.real) != abs(a.imag):
                    values.append(a)
    return values


def test_octahedral_table_maps_the_anchor_to_every_candidate():
    for tau in tau_grid(32, seed=5, im_range=(0.3, 1.5)):
        values = [chi_burnside(c) for c in _chi_candidates(tau)]
        for (p, q, r, s), value in zip(iv._OCTAHEDRAL, values):
            predicted = (p * values[0] + q) / (r * values[0] + s)
            assert abs(predicted - value) <= 1e-12 * abs(value)


def test_invert_chi_matches_the_24_evaluation_search():
    values = _reference_values()
    assert len(values) > 800
    for a in values:
        assert _outcome(iv.invert_chi, a) == _outcome(_reference_invert, a), a


def test_invert_chi_evaluates_chi_four_times_at_most(monkeypatch):
    points = []

    def counting(tau):
        points.append(tau)
        return chi_burnside(tau)

    monkeypatch.setattr(iv, "chi_burnside", counting)
    gen = SeededGrid(3)
    for _ in range(40):
        a = complex(-1.6 + 3.2 * gen.uniform(), -1.6 + 3.2 * gen.uniform())
        points.clear()
        iv.invert_chi(a)
        # the anchor, the best candidate, and the pair iA, -iA (rotations of
        # the solution about the axis 0-oo), whose residuals are both
        # sqrt(2)|A|, so round-off orders them
        assert len(points) <= 4
        assert len(set(points)) == len(points)


def test_invert_chi_polishes_near_branch_values():
    # chi(tau0) - A from the search alone reaches 4.8e-11 on these circles
    for centre in (0, 1, -1, 1j, -1j):
        for a in _circle(centre, 0.01, 24, 0.5):
            res = iv.invert_chi(a)
            assert res.residual <= 1e-15, a
            assert abs(chi_burnside(res.tau0) - a) == res.residual


def test_generic_values_evaluate_no_chi_jet(monkeypatch):
    # the search's exact residual already meets the polish's stop, so a
    # generic inversion pays for no chi_half jet
    calls = []

    def counting(tau, order=3):
        calls.append(tau)
        return jets.chi_half(tau, order)

    monkeypatch.setattr(iv, "chi_half", counting)
    gen = SeededGrid(24)
    for _ in range(300):
        iv.invert_chi(complex(-1.6 + 3.2 * gen.uniform(),
                              -1.6 + 3.2 * gen.uniform()))
    assert calls == []


def test_invert_chi_re_anchors_where_chi_raises(monkeypatch):
    for a, failing in ((0.37 + 0.21j, 1), (-0.8 + 1.1j, 1), (1.3 - 0.2j, 3)):
        bad = _chi_candidates(_tau_prime(a))[:failing]

        def raising(tau, bad=bad):
            if tau in bad:
                raise NumericsError("forced")
            return chi_burnside(tau)

        monkeypatch.setattr(iv, "chi_burnside", raising)
        result = iv.invert_chi(a)
        assert repr(result) == repr(_reference_invert(a))
        assert result.orbit[-failing:] == tuple(bad)


def test_invert_chi_on_the_diagonals():
    # A^4 is exactly real and negative at t(+-1 +- i)
    for t in (0.3, 0.5, 0.9, 1.3):
        for a in (complex(t, t), complex(t, -t), complex(-t, t),
                  complex(-t, -t)):
            res = iv.invert_chi(a)
            assert res.residual < 1e-13
            assert res.j_residual < 1e-13
            assert abs(chi_burnside(res.tau0) - a) < 1e-13
            assert repr(res) == repr(_reference_invert(a))
