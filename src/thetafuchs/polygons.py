"""Hyperbolic polygons with parabolic side pairings and genus counting.

The polygon layout on the boundary R u {oo} is

    omega1 < omega2 < eps1 < omega3 < eps2 < ... < omega_{2g+1} < eps_{2g} < omega_{2g+2}

with omega_{2g+2} allowed to be oo.  Generator V_k (k = 1..2g) is the
parabolic fixing omega_{k+1} that carries eps_k to eps_{k-1} (eps_0 means
omega1); V_0 fixes omega_{2g+2} and carries omega1 to eps_{2g}.  Doubling the
polygon across V_0 and re-pairing with T_0 = V_0^2, T_k = V_0 V_k,
T_{k+2g} = V_0 V_k^-1 produces the (8g+2)-gon whose quotient has genus g.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

from .modgroup import INFINITY, mobius_real
from .numerics import NumericsError

_MATCH_TOL = 1e-9


def make_parabolic(fix, frm, to):
    """Real parabolic matrix (a, b, c, d) with P(fix)=fix and P(frm)=to."""
    if frm == fix or to == fix:
        raise NumericsError("parabolic source/target must differ from the fixed point")
    if frm == to:
        raise NumericsError("parabolic must move its source point")
    if fix == INFINITY:
        return (1.0, float(to) - float(frm), 0.0, 1.0)
    f, p, t = float(fix), float(frm), float(to)
    c = (t - p) / ((f - t) * (p - f))
    return (1.0 + c * f, -c * f * f, c, 1.0 - c * f)


def _mat_mul(m1, m2):
    a1, b1, c1, d1 = m1
    a2, b2, c2, d2 = m2
    return (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
            c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)


def _mat_inv(m):
    a, b, c, d = m
    det = a * d - b * c
    return (d / det, -b / det, -c / det, a / det)


class Pairing(SimpleNamespace):
    """Side pairing: src and dst are side indices in the vertex cycle."""

    def __init__(self, name: str, matrix: tuple, src: int, dst: int):
        super().__init__(name=name, matrix=matrix, src=src, dst=dst)


class GeodesicPolygon(SimpleNamespace):
    """Corner list (boundary order) plus side pairings.

    corners are values in R or INFINITY, consecutive corners bound a side;
    genus_parameter is the g of the construction.
    """

    def __init__(self, corners: list, pairings: list | None = None,
                 genus_parameter: int = 0):
        super().__init__(corners=corners,
                         pairings=[] if pairings is None else pairings,
                         genus_parameter=genus_parameter)

    @property
    def n_sides(self) -> int:
        return len(self.corners)

    def side(self, i: int):
        return (self.corners[i], self.corners[(i + 1) % self.n_sides])

    def side_pair_count(self) -> int:
        return len(self.pairings)

    def cycles(self):
        """Vertex cycles: corner equivalence classes under the pairings."""
        n = self.n_sides
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        def union(i, j):
            parent[find(i)] = find(j)

        def locate(value):
            for idx, v in enumerate(self.corners):
                if v == INFINITY and value == INFINITY:
                    return idx
                if v != INFINITY and value != INFINITY:
                    if abs(float(v) - float(value)) <= _MATCH_TOL * max(
                            1.0, abs(float(v))):
                        return idx
            raise NumericsError(f"pairing image {value} is not a polygon corner")

        for pr in self.pairings:
            for corner in self.side(pr.src):
                union(locate(corner), locate(mobius_real(pr.matrix, corner)))
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        return list(groups.values())


def _check_ordering(omega, eps):
    g2 = len(eps)
    if len(omega) != g2 + 2:
        raise NumericsError("need 2g+2 omega points and 2g eps points")
    finite = [float(w) for w in omega[:-1]]
    merged = [finite[0], finite[1]]
    for k in range(g2):
        merged.append(float(eps[k]))
        if k + 2 < len(finite):
            merged.append(finite[k + 2])
    if any(a >= b for a, b in zip(merged, merged[1:])):
        raise NumericsError("boundary points must interleave strictly")
    if omega[-1] != INFINITY and float(omega[-1]) <= merged[-1]:
        raise NumericsError("omega_{2g+2} must lie beyond eps_{2g}")


def build_polygon(omega, eps) -> GeodesicPolygon:
    """The (4g+2)-gon with parabolic pairings V_0..V_{2g}.

    omega has 2g+2 increasing boundary points (the last may be INFINITY), eps
    the 2g points interleaved as in the module docstring.  The closure
    identity V0 (V1 ... V_{2g}) eps_{2g} = eps_{2g} is verified numerically.
    """
    _check_ordering(omega, eps)
    g = len(eps) // 2
    if len(eps) != 2 * g:
        raise NumericsError("need an even number of eps points")
    corners = [omega[0], omega[1]]
    for k in range(2 * g):
        corners.append(eps[k])
        corners.append(omega[k + 2])
    poly = GeodesicPolygon(corners=corners, genus_parameter=g)

    # V_k fixes omega_{k+1}: side [omega_{k+1}, eps_k] -> side [eps_{k-1}, omega_{k+1}]
    mats = []
    for k in range(1, 2 * g + 1):
        source = eps[k - 1]
        target = omega[0] if k == 1 else eps[k - 2]
        mats.append(make_parabolic(omega[k], source, target))
    v0 = make_parabolic(omega[-1], omega[0], eps[-1])

    for k in range(1, 2 * g + 1):
        src = 2 * k - 1      # side [omega_{k+1}, eps_k]
        dst = 2 * k - 2      # side [eps_{k-1}, omega_{k+1}]
        poly.pairings.append(Pairing(f"V{k}", mats[k - 1], src, dst))
    poly.pairings.append(Pairing("V0", v0, 4 * g + 1, 4 * g))

    for pr in poly.pairings:
        _check_parabolic_pairing(poly, pr)
    closure = v0
    for m in mats:
        closure = _mat_mul(closure, m)
    image = mobius_real(closure, eps[-1])
    if image == INFINITY or abs(image - float(eps[-1])) > 1e-9:
        raise NumericsError("closure identity failed")
    return poly


def _check_parabolic_pairing(poly: GeodesicPolygon, pr: Pairing) -> None:
    a, b, c, d = pr.matrix
    tr = a + d
    det = a * d - b * c
    if abs(tr * tr - 4.0 * det) > 1e-12 * max(1.0, tr * tr):
        raise NumericsError(f"{pr.name} is not parabolic")
    src = set()
    for corner in poly.side(pr.src):
        img = mobius_real(pr.matrix, corner)
        src.add(INFINITY if img == INFINITY else round(float(img), 9))
    dst = {INFINITY if v == INFINITY else round(float(v), 9)
           for v in poly.side(pr.dst)}
    if src != dst:
        raise NumericsError(f"{pr.name} does not map its side onto its partner")


def double_polygon(poly: GeodesicPolygon) -> GeodesicPolygon:
    """P union V0(P) with the even-word pairings; an (8g+2)-gon."""
    g = poly.genus_parameter
    v = {pr.name: pr.matrix for pr in poly.pairings}
    v0 = v["V0"]
    base = poly.corners  # omega1, omega2, eps1, ..., eps_{2g}, omega_{2g+2}
    first = base[: 4 * g + 1]  # up to eps_{2g}
    copy = [mobius_real(v0, x) for x in base[1: 4 * g + 1]]
    corners = first + copy + [base[-1]]
    doubled = GeodesicPolygon(corners=corners, genus_parameter=g)

    n_first = 4 * g + 1
    # T0 = V0^2 pairs the closing side [omega_{2g+2}, omega1]
    # with [V0 eps_{2g}, omega_{2g+2}]
    doubled.pairings.append(Pairing("T0", _mat_mul(v0, v0),
                                    len(corners) - 1, len(corners) - 2))
    for k in range(1, 2 * g + 1):
        vk = v[f"V{k}"]
        # T_k = V0 V_k maps [omega_{k+1}, eps_k] into the copy
        doubled.pairings.append(Pairing(
            f"T{k}", _mat_mul(v0, vk), 2 * k - 1,
            n_first + (2 * k - 2) - 1))
        # T_{k+2g} = V0 V_k^-1 maps [eps_{k-1}, omega_{k+1}] into the copy
        doubled.pairings.append(Pairing(
            f"T{k + 2 * g}", _mat_mul(v0, _mat_inv(vk)), 2 * k - 2,
            n_first + (2 * k - 1) - 1))
    return doubled


def genus_of(poly: GeodesicPolygon, doubled: bool = False) -> int:
    """Genus from the Euler count E = c - s + 1 = 2 - 2*genus."""
    target = double_polygon(poly) if doubled else poly
    c = len(target.cycles())
    s = target.side_pair_count()
    if target.n_sides != 2 * s:
        raise NumericsError("pairings do not cover the polygon sides")
    euler = c - s + 1
    if (2 - euler) % 2:
        raise NumericsError("inconsistent cycle decomposition")
    return (2 - euler) // 2


def default_polygon(genus: int) -> GeodesicPolygon:
    """Integer/half-integer model data; at genus 2 this is the standard
    level-4 ten-gon with fixed points 0, 1, 2, 3, oo."""
    if genus < 1:
        raise NumericsError("genus must be >= 1")
    omega = [-0.5] + [float(k) for k in range(2 * genus)] + [INFINITY]
    eps = [k + 0.5 for k in range(2 * genus)]
    return build_polygon(omega, eps)


# ---------------------------------------------------------------------------
# Geometry emission


def _halfplane_arc(e1, e2):
    if e1 == INFINITY or e2 == INFINITY:
        x = float(e2 if e1 == INFINITY else e1)
        return {"kind": "vertical", "x": x}
    a, b = float(e1), float(e2)
    return {"kind": "arc", "center": 0.5 * (a + b), "radius": 0.5 * abs(b - a)}


def _disc_arc(u: complex, v: complex):
    # circle orthogonal to the unit circle through boundary points u, v:
    # solve Re(u conj(c)) = 1, Re(v conj(c)) = 1
    det = u.real * v.imag - u.imag * v.real
    if abs(det) < 1e-12:
        return {"kind": "diameter"}
    cx = (v.imag - u.imag) / det
    cy = (u.real - v.real) / det
    r2 = cx * cx + cy * cy - 1.0
    return {"kind": "arc", "center_re": cx, "center_im": cy,
            "radius": math.sqrt(max(r2, 0.0))}
