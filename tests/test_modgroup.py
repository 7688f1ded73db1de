import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from thetafuchs import elliptic as el
from thetafuchs import modgroup as mg


def test_mobius_basics():
    tau = 0.3 + 0.9j
    assert mg.mobius(mg.IDENTITY, tau) == tau
    assert abs(mg.mobius(mg.ProjMatrix(1, 4, 0, 1), tau) - (tau + 4)) < 1e-15
    assert abs(mg.mobius(mg.S, 1j) - 1j) < 1e-15


def test_mobius_cusp():
    assert mg.mobius(mg.S, 0.0) == mg.INFINITY


def test_reduce_translation_boundary():
    tau0, _ = mg.reduce_fundamental(0.5 + 2j)
    assert abs(tau0 - (-0.5 + 2j)) < 1e-12


def test_reduce_inversion():
    tau0, m = mg.reduce_fundamental(0.5j)
    assert abs(tau0 - 2j) < 1e-12
    assert abs(mg.mobius(m, 0.5j) - tau0) < 1e-12


def test_reduce_preserves_j():
    for tau in (0.37 + 0.11j, -0.8 + 0.2j, 0.1 + 0.05j):
        tau0, _ = mg.reduce_fundamental(tau)
        assert abs(el.klein_j(tau0) - el.klein_j(tau)) < 1e-9 * max(
            1.0, abs(el.klein_j(tau)))


def test_generators_in_gamma4():
    for v in mg.V_TABLE:
        assert mg.membership(v, "Gamma4")
        assert mg.membership(v, "Gamma2")


def test_t_table_in_even_subgroup():
    for t in mg.T_TABLE:
        assert mg.membership(t, "G_burnside")
    assert not mg.membership(mg.V_TABLE[0], "G_burnside")


def test_burnside_tables_relations():
    v, t, relations = mg.burnside_tables()
    assert len(v) == 5 and len(t) == 9 and len(relations) == 9
    assert v[0] @ v[1] == mg.ProjMatrix(15, -4, 4, -1)
    assert v[0] @ v[4].inv() == mg.ProjMatrix(29, -80, 4, -11)


def test_nielsen_schreier():
    assert mg.nielsen_schreier(5, 2) == 9
    assert mg.nielsen_schreier(9, 2) == 17


def test_coset_orbit():
    orbit = mg.coset_orbit(0.3 + 1.4j)
    assert len(orbit) == 24
    reps = mg.coset_reps()
    for i, m1 in enumerate(reps):
        for m2 in reps[i + 1:]:
            assert not mg.gamma4_equivalent(m1, m2)
    j0 = el.klein_j(0.3 + 1.4j)
    for point in orbit:
        assert abs(el.klein_j(point) - j0) < 1e-9 * max(1.0, abs(j0))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 8), st.booleans()), min_size=1,
                max_size=6))
def test_membership_closed_under_words(word):
    # products and inverses of even-length generators stay in the subgroup
    acc = mg.IDENTITY
    for idx, invert in word:
        m = mg.T_TABLE[idx]
        acc = acc @ (m.inv() if invert else m)
    assert mg.membership(acc, "G_burnside")
    assert mg.membership(acc, "Gamma4")


def test_gamma4_reduce_fixes_chi():
    from thetafuchs.curves import chi_burnside

    tau = 0.23 + 0.81j
    image = mg.mobius(mg.V_TABLE[2], tau)
    reduced, word = mg.gamma4_reduce(image)
    assert abs(chi_burnside(reduced) - chi_burnside(tau)) < 1e-11
    assert abs(mg.mobius(word, image) - reduced) < 1e-10


def _gamma4_reduce_reference(tau):
    """The ProjMatrix ascent that gamma4_reduce's integer form replaced."""
    m = mg.IDENTITY
    gens = []
    for v in mg.V_TABLE:
        gens.extend((v, v.inv()))
    for _ in range(500):
        best = None
        for g in gens:
            img = mg.mobius(g, tau)
            if img != mg.INFINITY and img.imag > tau.imag * (1 + 1e-12):
                if best is None or img.imag > best[0].imag:
                    best = (img, g)
        if best is None:
            break
        tau, m = best[0], best[1] @ m
    shift = -int(math.floor((tau.real + 0.5) / 4.0))
    if shift:
        t4 = mg.ProjMatrix(1, 4 * shift, 0, 1)
        tau, m = mg.mobius(t4, tau), t4 @ m
    return tau, m


def _bits(z):
    return z.real.hex(), z.imag.hex()


def test_gamma4_reduce_matches_the_projmatrix_ascent():
    rng = random.Random(4)
    for n in range(500):
        tau = complex(rng.uniform(-4.0, 4.0),
                      math.exp(rng.uniform(math.log(1e-3), math.log(3.0))))
        if n % 5 == 0:  # orbit points of a reduced point, as invert_chi feeds
            tau = mg.mobius(mg.coset_reps()[n % 24], 2.0 * tau)
        point, word = mg.gamma4_reduce(tau)
        ref_point, ref_word = _gamma4_reduce_reference(tau)
        assert _bits(point) == _bits(ref_point)
        assert word.entries() == ref_word.entries()
        assert mg.membership(word, "Gamma4")
        assert point.imag >= tau.imag
        assert -0.5 <= point.real < 3.5


def test_disc_map():
    assert abs(mg.disc_map(1 + 1j)) < 1e-15
    assert abs(mg.disc_map(mg.INFINITY) - 1j) < 1e-15
    assert abs(abs(mg.disc_map(2.0)) - 1) < 1e-12
    assert abs(mg.disc_map(0.4 + 1.7j)) < 1


def test_projmatrix_sign_normalization():
    m = mg.ProjMatrix(-3, 4, -4, 5)
    assert (m.a, m.b, m.c, m.d) == (3, -4, 4, -5)
    with pytest.raises(ValueError):
        mg.ProjMatrix(1, 1, 1, 1)
