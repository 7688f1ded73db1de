"""Command-line verification surface.

Every sweep draws its tau grid from a named 64-bit seed through the fixed
linear congruential generator documented in numerics.SeededGrid, so reports
are byte-identical across runs for fixed (seed, tolerance, format).

Exit status: 0 all checks passed, 1 a check failed, 2 usage error,
3 numerical failure while evaluating.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys
import time

from . import abelian as ab
from . import curves as cv
from . import elliptic as el
from . import fuchsian as fu
from . import inversion as iv
from . import theta_eta as th
from .modgroup import INFINITY, disc_map
from .numerics import NumericsError, max_residual, tau_grid
from .polygons import (_disc_arc, _halfplane_arc, build_polygon,
                       default_polygon, double_polygon, genus_of)
from .report import RunReport

# Gamma(1/4)^2/(4 sqrt(pi)) = K(1/sqrt2) = 2^(1/4) (pi/2) theta4^2(2i)
LEMNISCATE_REF = "1.85407467730137191843385"


def _complex_arg(text: str) -> complex:
    re, im = text.split(",")
    return complex(float(re), float(im))


def _grid(args, im_range=(0.4, 2.5), accept=None):
    return tau_grid(args.samples, seed=args.seed, im_range=im_range,
                    accept=accept)


def _tol(args, default: float) -> float:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("THETAFUCHS_TOL")
    if env:
        return float(env)
    return default


def cmd_verify_identities(args) -> RunReport:
    rep = RunReport("verify identities",
                    {"samples": args.samples, "seed": args.seed})
    tol = _tol(args, 1e-11)
    taus = _grid(args, im_range=(0.3, 3.0))
    worst = {}
    for tau in taus:
        for name, value in th.identity_residuals(tau).items():
            worst[name] = max_residual((worst.get(name, 0.0), value))
    for name in sorted(worst):
        rep.add(name, worst[name], tol)
    return rep


def cmd_verify_curves(args) -> RunReport:
    rep = RunReport("verify curves",
                    {"samples": args.samples, "seed": args.seed})
    tol = _tol(args, 1e-10)
    taus = _grid(args)
    for spec in cv.registry():
        res = cv.curve_residual(spec.id, taus)
        note = f"skipped {res['skipped']} puncture-adjacent" if res["skipped"] else ""
        rep.add(spec.id, res["max_residual"], tol, note)
    worst_bridge = max_residual(cv.j_bridge_residual(tau) for tau in taus)
    rep.add("j_bridge_octahedral", worst_bridge, 1e-9)
    if args.emit:
        rep.extra["registry"] = cv.serialize_registry()
    return rep


def cmd_verify_fuchsian(args) -> RunReport:
    rep = RunReport("verify fuchsian",
                    {"samples": args.samples, "seed": args.seed})
    tol = _tol(args, 1e-9)
    taus = _grid(args)
    cov_rows = ("z_x4_law", "z_x4_is_legendre", "mobius", "pair_lemma")
    worst = dict.fromkeys(fu.CATALOGUE_IDS + cov_rows, 0.0)
    skipped = dict.fromkeys(fu.CATALOGUE_IDS, 0)
    # tau in the outer loop: every row at one tau shares its cached jets,
    # which at large sample counts would be evicted between rows
    for tau in taus:
        for qid in fu.CATALOGUE_IDS:
            res = fu.verify_fuchsian(qid, [tau])
            worst[qid] = max_residual((worst[qid], res["max_residual"]))
            skipped[qid] += res["skipped"]
        cov = fu.change_of_var_check([tau])
        for name in cov_rows:
            worst[name] = max_residual((worst[name], cov[name]))
    for qid in fu.CATALOGUE_IDS:
        note = f"skipped {skipped[qid]} critical" if skipped[qid] else ""
        rep.add(qid, worst[qid], tol, note)
    for name in cov_rows:
        rep.add(f"change_of_var.{name}", worst[name], tol)
    return rep


def cmd_verify_modular_odes(args) -> RunReport:
    rep = RunReport("verify modular-odes",
                    {"samples": args.samples, "seed": args.seed})
    tol = _tol(args, 1e-8)
    taus = _grid(args)
    worst = {}
    for tau in taus:
        for name, value in fu.modular_ode_residuals(tau).items():
            worst[name] = max_residual((worst.get(name, 0.0), value))
    for name in sorted(worst):
        rep.add(name, worst[name], tol)
    return rep


def cmd_verify_integrals(args) -> RunReport:
    rep = RunReport("verify integrals",
                    {"samples": args.samples, "seed": args.seed})
    taus = _grid(args, im_range=(0.5, 1.8))
    worst = {}
    for tau in taus:
        rel = ab.cover_relation_residuals(tau)
        hol = ab.holo_differential_check(tau)
        mer = ab.mero_identity_check(tau)
        for src in (rel, hol, mer):
            for name, value in src.items():
                if "sign" in name or "sheet" in name:
                    continue
                worst[name] = max_residual((worst.get(name, 0.0), value))
    tols = {"mobius_bridge": 1e-12, "wp_plus": 1e-8, "wp_minus": 1e-8,
            "wp_prime_plus": 1e-8, "wp_prime_minus": 1e-8,
            "x_form_plus": 1e-7, "x_form_minus": 1e-7,
            "alpha_form_plus": 1e-7, "alpha_form_minus": 1e-7,
            "i1_vs_direct": 1e-8, "i2_vs_direct": 1e-8,
            "linear_plus": 1e-6, "linear_minus": 1e-6,
            "slope_fd_plus": 1e-6, "slope_fd_minus": 1e-6}
    for name in sorted(worst):
        rep.add(name, worst[name], _tol(args, tols.get(name, 1e-6)))
    return rep


def cmd_verify_metrics(args) -> RunReport:
    rep = RunReport("verify metrics",
                    {"samples": args.samples, "seed": args.seed})
    taus = _grid(args, im_range=(0.5, 1.4))
    worst_liouville = 0.0
    worst_surface = 0.0
    worst_torus = 1.0
    positive = True
    for tau in taus:
        j = fu.x_burnside(tau, 1)
        x = j.d[0]
        worst_liouville = max_residual((worst_liouville,
                                        ab.liouville_residual(x)))
        y = cmath.sqrt(x ** 5 - x)
        bm = ab.burnside_surface_metric(y)
        worst_surface = max_residual((worst_surface,
                                      bm["fractional_mismatch"]))
        positive = positive and bm["density"] > 0
        tm = ab.torus_metric_check(tau)
        worst_torus = min(worst_torus, tm["relative_mismatch"])
    rep.add("liouville_relative", worst_liouville, _tol(args, 1e-5))
    rep.add("surface_vs_pullback", worst_surface, _tol(args, 1e-6))
    rep.add("densities_positive", 0.0 if positive else 1.0, 0.5)
    rep.add("torus_display_vs_pullback", worst_torus, _tol(args, 1e-5),
            "printed alpha-coordinate density does not reduce to the "
            "verified pullback; see the x2-recovery row for the consistent part")
    tm_x2 = max_residual(ab.torus_metric_check(tau)["x2_recovery"]
                         for tau in taus[:5])
    rep.add("torus_display_x2_recovery", tm_x2, 1e-8)
    rep.extra["densities"] = [
        {"x": [x.real, x.imag], "density": ab.burnside_x_density(x).density}
        for x in (0.4 + 0.3j, -0.2 + 0.45j, 0.1 - 0.55j)]
    return rep


def cmd_exact_values(args) -> RunReport:
    rep = RunReport("exact-values", {})
    lem = 2.0 ** 0.25 * (math.pi / 2.0) * th.theta4(2j).real ** 2
    agm_value = el.ellip_K(1.0 / math.sqrt(2.0)).real
    rep.add(f"lemniscate omega = {LEMNISCATE_REF} (reference digits)",
            abs(lem - float(LEMNISCATE_REF)) / lem, 0.5e-13,
            f"computed {lem!r}")
    rep.add("lemniscate theta form vs AGM of K(1/sqrt2)",
            abs(lem - agm_value), 1e-13)
    g2 = el.eisenstein(1j)[0].real
    rep.add("g2(i) = 11.817045 (6 decimals)", abs(g2 - 11.817045), 0.5e-6)
    rep.add("theta4^8(2i) = 8 g2(i)/pi^4",
            abs(th.theta4(2j).real ** 8 - 8.0 * g2 / math.pi ** 4), 1e-10)
    for name, value in iv.exact_value_suite().items():
        tol = {"chi_sqrt2_abs": 1e-10, "t4_over_t3_half_i": 1e-12,
               "chi_at_i_in_class": 1e-10, "octahedral_orbit_j": 1e-8}.get(name, 0.5)
        rep.add(name, value, tol)
    for name, value in iv.series_at_i().items():
        tol = {"j_first_deriv": 1e-6, "j_coeff2": 1e-4, "j_coeff3": 1e-4,
               "chi_slope_sq": 1e-6}[name]
        rep.add(name, value, tol)
    return rep


def cmd_invert(args) -> RunReport:
    rep = RunReport("invert", {"value": [args.value.real, args.value.imag]})
    res = iv.invert_chi(args.value)
    if isinstance(res, iv.BranchPointResult):
        rep.extra["branch_point"] = True
        rep.extra["tau_class"] = res.tau_class
        return rep
    rep.add("chi_residual", res.residual, 1e-9)
    rep.add("j_octahedral", res.j_residual, 1e-8)
    rep.extra["tau0"] = res.tau0
    rep.extra["matrix"] = res.matrix.entries()
    rep.extra["orbit"] = list(res.orbit)
    return rep


def cmd_quintic(args) -> RunReport:
    rep = RunReport("quintic", {"a": [args.a.real, args.a.imag]})
    sol = iv.quintic_solve(args.a)
    rep.add("max_poly_residual", max_residual(sol.poly_residuals), 1e-10)
    rep.add("max_theta_residual", max_residual(sol.theta_residuals), 1e-10)
    rep.add("vieta", sol.vieta_residual, 1e-9)
    rep.extra["roots"] = list(sol.roots)
    rep.extra["taus"] = [t if isinstance(t, str) else t for t in sol.taus]
    rep.extra["newton_iterations"] = sol.newton_iterations
    return rep


def cmd_polygon(args) -> RunReport:
    rep = RunReport("polygon", {"genus": args.genus})
    if args.omega:
        omega = [INFINITY if v == "oo" else float(v) for v in args.omega]
        eps = [float(v) for v in args.epsilon]
        poly = build_polygon(omega, eps)
    else:
        poly = default_polygon(args.genus)
    doubled = double_polygon(poly)
    rep.add("single_genus_is_zero", float(genus_of(poly)), 0.5)
    rep.add("doubled_genus", float(abs(genus_of(poly, doubled=True) - args.genus)), 0.5)
    if args.emit:
        rep.extra["polygon"] = emit_polygon(poly)
        rep.extra["doubled"] = emit_polygon(doubled)
    return rep


def emit_polygon(poly) -> dict:
    """Structured arcs in both models plus pairings and vertex cycles."""
    sides = []
    for i in range(poly.n_sides):
        a, b = poly.side(i)
        entry = {"index": i,
                 "endpoints": [None if v == INFINITY else float(v)
                               for v in (a, b)],
                 "half_plane": _halfplane_arc(a, b)}
        da = disc_map(a) if a != INFINITY else 1j
        db = disc_map(b) if b != INFINITY else 1j
        entry["disc"] = dict(_disc_arc(da, db),
                             endpoints=[[da.real, da.imag], [db.real, db.imag]])
        sides.append(entry)
    return {
        "sides": sides,
        "pairings": [{"name": p.name, "matrix": list(p.matrix),
                      "src": p.src, "dst": p.dst} for p in poly.pairings],
        "cycles": sorted(sorted(c) for c in poly.cycles()),
        "n_sides": poly.n_sides,
    }


def cmd_discriminant(args) -> RunReport:
    rep = RunReport("discriminant", {"poly": args.poly})
    with open(args.poly, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    poly = {}
    for key, value in data["coeffs"].items():
        i, j = (int(p) for p in key.split(","))
        poly[(i, j)] = value
    disc = cv.discriminant_y(poly)
    rep.extra["discriminant"] = disc
    rep.add("computed", 0.0, 1.0)
    return rep


def cmd_eval(args) -> RunReport:
    rep = RunReport(f"eval {args.function}", {"tau": [args.tau.real, args.tau.imag]})
    tau = args.tau
    if args.function == "theta":
        frame = th.theta(tau)
        rep.extra["theta2"] = frame.t2
        rep.extra["theta3"] = frame.t3
        rep.extra["theta4"] = frame.t4
    elif args.function == "eta":
        rep.extra["eta"] = th.eta(tau)
        rep.extra["eta_w"] = th.eta_w(tau)
    elif args.function == "j":
        rep.extra["j"] = el.klein_j(tau)
    elif args.function == "k":
        k, kp = el.legendre_moduli(tau)
        rep.extra["k"] = k
        rep.extra["k_prime"] = kp
    rep.add("evaluated", 0.0, 1.0)
    return rep


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetafuchs",
        description="verification suites for the theta-constant uniformization toolkit")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--seed", type=int, default=7)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("json", "jsonl"), default="json")

    verify = sub.add_parser("verify", help="run a residual sweep")
    verify.add_argument("suite", choices=("identities", "curves", "fuchsian",
                                          "modular-odes", "integrals", "metrics"))
    verify.add_argument("--emit", action="store_true",
                        help="include the serialized curve registry")
    common(verify)

    inv = sub.add_parser("invert", help="solve chi(tau) = A")
    inv.add_argument("--value", type=_complex_arg, required=True,
                     metavar="RE,IM")
    common(inv)

    qui = sub.add_parser("quintic", help="solve x^5 - x + a = 0")
    qui.add_argument("--a", type=_complex_arg, required=True, metavar="RE,IM")
    common(qui)

    exv = sub.add_parser("exact-values", help="special-value table")
    common(exv)

    pol = sub.add_parser("polygon", help="build and emit a fundamental polygon")
    pol.add_argument("--genus", type=int, default=2)
    pol.add_argument("--omega", nargs="*", default=None)
    pol.add_argument("--epsilon", nargs="*", default=None)
    pol.add_argument("--emit", action="store_true")
    common(pol)

    dis = sub.add_parser("discriminant", help="exact discriminant in y of F(x,y)")
    dis.add_argument("--poly", required=True,
                     help="JSON file with {'coeffs': {'i,j': int}}")
    common(dis)

    ev = sub.add_parser("eval", help="evaluate a named function")
    ev.add_argument("function", choices=("theta", "eta", "j", "k"))
    ev.add_argument("--tau", type=_complex_arg, required=True, metavar="RE,IM")
    common(ev)
    return parser


_HANDLERS = {
    "identities": cmd_verify_identities,
    "curves": cmd_verify_curves,
    "fuchsian": cmd_verify_fuchsian,
    "modular-odes": cmd_verify_modular_odes,
    "integrals": cmd_verify_integrals,
    "metrics": cmd_verify_metrics,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.samples < 1:  # a check over no samples cannot pass
        parser.error(f"--samples must be at least 1, got {args.samples}")
    start = time.monotonic()
    try:
        if args.command == "verify":
            report = _HANDLERS[args.suite](args)
        elif args.command == "invert":
            report = cmd_invert(args)
        elif args.command == "quintic":
            report = cmd_quintic(args)
        elif args.command == "exact-values":
            report = cmd_exact_values(args)
        elif args.command == "polygon":
            report = cmd_polygon(args)
        elif args.command == "discriminant":
            report = cmd_discriminant(args)
        elif args.command == "eval":
            report = cmd_eval(args)
        else:
            parser.print_usage(sys.stderr)
            return 2
    except NumericsError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    print(report.render(args.format))
    print(f"wall time: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return report.exit_status


if __name__ == "__main__":
    sys.exit(main())
