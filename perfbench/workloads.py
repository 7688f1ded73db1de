"""Seeded inputs of the three workloads, and the tolerances of their rows.

An item is one unit of work the way a single `thetafuchs` call does it: a
sweep item is one tau run through every row of its suite, a point-queries
item is one answered query (items.py).  A run attempts whole rounds of a fixed
make-up, so the share of fault probes among the items is the same in every
run, whatever the seed and however many rounds fit in the time.

The seeded draws stay out of the small neighbourhoods where a named fault
of the program makes a check fail; each fault is instead exercised by one
probe item per round, at inputs that do not depend on the seed (see
README.md, "Faults").
"""

from __future__ import annotations

import cmath
import math
import random

# Rotation per round for the probe inputs, so no probe input repeats.
GOLDEN_TURN = (math.sqrt(5.0) - 1.0) / 2.0

# --------------------------------------------------------------------------
# fuchsian-sweep: every `verify fuchsian` row for one tau.

FUCHSIAN_BOX = ((-1.0, 1.0), (0.4, 2.5))    # the CLI's default grid
FUCHSIAN_TOL = 1e-9                         # the CLI's default, every row
CATALOGUE_IDS = ("burnside", "burnside_chi", "legendre", "bruns", "fermat4",
                 "fermat8", "z9_parabolic", "heun", "lambda_mixed")
CHANGE_OF_VAR_ROWS = ("z_x4_law", "z_x4_is_legendre", "mobius", "pair_lemma")

# Q_bruns has a double pole where J' = 0, on the orbits of i and rho; the
# row loses digits within about 0.04 of them (measured 3.7e-10 at 0.04).
ELLIPTIC_POINTS = (1j, complex(-0.5, math.sqrt(3.0) / 2.0),
                   complex(0.5, math.sqrt(3.0) / 2.0))
ELLIPTIC_RADIUS = 0.08
# y'(tau) = 0 here (mpmath findroot), so [y, tau] has a pole and the pair
# lemma loses digits: 9e-10 at distance 0.05, 4e-11 at 0.1.
Y_CRITICAL = 0.7352559285991116j
Y_CRITICAL_RADIUS = 0.12
# Probes: at distance 0.002 from Y_CRITICAL the pair lemma reads at least
# 1.5e-5 on every probe angle, and at distance 0.002 from i bruns reads at
# least 3e-6; every other row passes at both.
PAIR_LEMMA_PROBE_RADIUS = 0.002
BRUNS_PROBE_RADIUS = 0.002


def reduce_to_fundamental(tau: complex) -> complex:
    """The PSL2(Z) image of tau in |Re| <= 1/2, |tau| >= 1.

    Kept apart from modgroup.reduce_fundamental so that the inputs do not
    depend on the program under test.
    """
    for _ in range(1000):
        tau = complex(tau.real - round(tau.real), tau.imag)
        if abs(tau) >= 1.0:
            return tau
        tau = -1.0 / tau
    raise ValueError(f"reduction of {tau} did not terminate")


def fuchsian_well_conditioned(tau: complex) -> bool:
    tau0 = reduce_to_fundamental(tau)
    return (min(abs(tau0 - p) for p in ELLIPTIC_POINTS) >= ELLIPTIC_RADIUS
            and abs(tau - Y_CRITICAL) >= Y_CRITICAL_RADIUS)


def probe_point(centre: complex, radius: float, round_index: int) -> complex:
    turn = 2.0 * math.pi * GOLDEN_TURN * round_index
    return centre + radius * cmath.exp(1j * turn)


# --------------------------------------------------------------------------
# integrals-sweep: every `verify integrals` row for one tau.

INTEGRALS_BOX = ((-1.0, 1.0), (0.5, 1.8))
# The CLI's default tolerances; rows not named here use 1e-6.
INTEGRALS_TOLS = {"mobius_bridge": 1e-12, "wp_plus": 1e-8, "wp_minus": 1e-8,
                  "wp_prime_plus": 1e-8, "wp_prime_minus": 1e-8,
                  "x_form_plus": 1e-7, "x_form_minus": 1e-7,
                  "alpha_form_plus": 1e-7, "alpha_form_minus": 1e-7,
                  "i1_vs_direct": 1e-8, "i2_vs_direct": 1e-8,
                  "linear_plus": 1e-6, "linear_minus": 1e-6,
                  "slope_fd_plus": 1e-6, "slope_fd_minus": 1e-6}
INTEGRALS_DEFAULT_TOL = 1e-6
# alpha_form_plus has a spike at (1 + i)/2: 1.7e-7 against 1e-7 at distance
# 0.005, 5e-8 at 0.015, and 2.8e-8 at 0.03, the level of the rest of the box.
ALPHA_FORM_POINT = complex(0.5, 0.5)
ALPHA_FORM_RADIUS = 0.03


def integrals_well_conditioned(tau: complex) -> bool:
    return abs(tau - ALPHA_FORM_POINT) >= ALPHA_FORM_RADIUS


def row_tolerance(workload: str, row: str) -> float:
    if workload == "fuchsian-sweep":
        return FUCHSIAN_TOL
    return INTEGRALS_TOLS.get(row, INTEGRALS_DEFAULT_TOL)


# --------------------------------------------------------------------------
# point-queries: independent single answers in a fixed mix.

INVERT_BOX = ((-1.5, 1.5), (-1.5, 1.5))
# The j_octahedral check compares |J|, which is infinite at the branch
# values 0, +-1, +-i: 3e-10 at |A| = 0.1, 1.7e-11 at 0.15; 8e-11 at
# distance 0.1 from +-1.
INVERT_ZERO_RADIUS = 0.15
INVERT_UNIT_RADIUS = 0.1
# Probe: at |A| = 0.015 j_octahedral reads at least 3e-7 on every probe
# angle, while chi(tau0) = A holds to 4e-11.
INVERT_PROBE_RADIUS = 0.015
# The roots collide at |a| = 0.535.  Toward |a| = 0 the quintic's per-root
# inversion nears the branch values and the theta residual grows: worst of
# 80 draws 7.9e-11 at |a| = 0.01 against 1e-10, 4.7e-12 at 0.03; below 0.01
# some draws fail (see CHANGES.md).
QUINTIC_RADII = (0.03, 0.4)
# Smallest Im tau where theta, eta, klein_j and legendre_moduli all
# succeed is about 0.0133; the draws stay at or above EVAL_IM[0].
EVAL_IM = (0.015, 2.5)
EVAL_RE = (-1.0, 1.0)

# One round: 40 items, probe first.  Latency order is eval < invert <
# quintic, so p50 lands among the theta items and p95 among the quintics.
POINT_MIX = (("invert-probe", 1), ("quintic", 4), ("invert", 7),
             ("theta", 10), ("eta", 6), ("j", 6), ("k", 6))


def invert_well_conditioned(a: complex) -> bool:
    return (abs(a) >= INVERT_ZERO_RADIUS
            and min(abs(a - u) for u in (1, -1, 1j, -1j)) >= INVERT_UNIT_RADIUS)



# --------------------------------------------------------------------------
# Rounds


ROUND_SIZE = {"fuchsian-sweep": 50, "integrals-sweep": 50,
              "point-queries": sum(n for _, n in POINT_MIX)}
# Probe kind -> (the item it runs as, the one row its fault fails).
PROBES = {"pair-lemma-probe": ("fuchsian", "change_of_var.pair_lemma"),
          "bruns-probe": ("fuchsian", "bruns"),
          "invert-probe": ("invert", "j_residual")}
WORKLOADS = tuple(ROUND_SIZE)


class Inputs:
    """The seeded stream of (kind, argument) items, one round at a time.

    Draws are stratified: each round puts one point in every cell of a
    fixed grid over the input range, so every round sees the same spread of
    easy and hard inputs and the seed moves only the points inside cells.
    """

    def __init__(self, workload: str, seed: int):
        if workload not in ROUND_SIZE:
            raise KeyError(f"unknown workload {workload!r}")
        self.workload = workload
        self.rng = random.Random(seed)

    def _cell_point(self, re_range, im_range, accept):
        for _ in range(10000):
            z = complex(self.rng.uniform(*re_range), self.rng.uniform(*im_range))
            if accept is None or accept(z):
                return z
        raise ValueError(f"no acceptable point in {re_range} x {im_range}")

    def _grid(self, box, n_re, n_im, accept=None):
        (re_lo, re_hi), (im_lo, im_hi) = box
        dre, dim = (re_hi - re_lo) / n_re, (im_hi - im_lo) / n_im
        return [self._cell_point((re_lo + i * dre, re_lo + (i + 1) * dre),
                                 (im_lo + j * dim, im_lo + (j + 1) * dim),
                                 accept)
                for i in range(n_re) for j in range(n_im)]

    def _eval_taus(self, n):
        """Re uniform, log Im in n equal strata: series length is ~1/Im."""
        lo, hi = math.log(EVAL_IM[0]), math.log(EVAL_IM[1])
        step = (hi - lo) / n
        return [complex(self.rng.uniform(*EVAL_RE),
                        math.exp(self.rng.uniform(lo + k * step,
                                                  lo + (k + 1) * step)))
                for k in range(n)]

    def _quintic_as(self, n):
        """|a|^2 in n equal strata of the annulus, argument uniform."""
        lo, hi = QUINTIC_RADII[0] ** 2, QUINTIC_RADII[1] ** 2
        step = (hi - lo) / n
        return [cmath.rect(math.sqrt(self.rng.uniform(lo + k * step,
                                                      lo + (k + 1) * step)),
                           self.rng.uniform(-math.pi, math.pi))
                for k in range(n)]

    def round(self, index: int):
        if self.workload == "fuchsian-sweep":
            return [("pair-lemma-probe", probe_point(
                        Y_CRITICAL, PAIR_LEMMA_PROBE_RADIUS, index)),
                    ("bruns-probe", probe_point(1j, BRUNS_PROBE_RADIUS, index))
                    ] + [("fuchsian", tau) for tau in
                         self._grid(FUCHSIAN_BOX, 6, 8,
                                    fuchsian_well_conditioned)]
        if self.workload == "integrals-sweep":
            return [("integrals", tau) for tau in
                    self._grid(INTEGRALS_BOX, 5, 10,
                               integrals_well_conditioned)]
        items = []
        for kind, count in POINT_MIX:
            if kind == "invert-probe":
                args = [probe_point(0j, INVERT_PROBE_RADIUS, index)] * count
            elif kind == "invert":
                args = [self._cell_point(*INVERT_BOX, invert_well_conditioned)
                        for _ in range(count)]
            elif kind == "quintic":
                args = self._quintic_as(count)
            else:
                args = self._eval_taus(count)
            items += [(kind, arg) for arg in args]
        return items
