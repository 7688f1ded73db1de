"""The timed items: one call of the program's public functions each."""

from __future__ import annotations

from thetafuchs import abelian as ab
from thetafuchs import elliptic as el
from thetafuchs import fuchsian as fu
from thetafuchs import inversion as iv
from thetafuchs import theta_eta as th

from workloads import CATALOGUE_IDS, CHANGE_OF_VAR_ROWS, PROBES


def fuchsian_item(tau: complex) -> dict:
    rows = {qid: fu.verify_fuchsian(qid, [tau])["max_residual"]
            for qid in CATALOGUE_IDS}
    cov = fu.change_of_var_check([tau])
    for name in CHANGE_OF_VAR_ROWS:
        rows["change_of_var." + name] = cov[name]
    return rows


def integrals_item(tau: complex) -> dict:
    rows = {}
    for part in (ab.cover_relation_residuals(tau),
                 ab.holo_differential_check(tau),
                 ab.mero_identity_check(tau)):
        for name, value in part.items():
            if "sign" in name or "sheet" in name:
                continue
            rows[name] = value
    return rows


def point_item(kind: str, arg: complex):
    if kind == "theta":
        f = th.theta(arg)
        return [f.t2, f.t3, f.t4, f.eta, f.etaw]
    if kind == "eta":
        return [th.eta(arg)]
    if kind == "j":
        return [el.klein_j(arg)]
    if kind == "k":
        return list(el.legendre_moduli(arg))
    if kind == "invert":
        res = iv.invert_chi(arg)
        if isinstance(res, iv.BranchPointResult):
            return {"branch_point": res.tau_class}
        return {"tau0": res.tau0, "chi_residual": res.residual,
                "j_residual": res.j_residual}
    if kind == "quintic":
        sol = iv.quintic_solve(arg)
        return {"roots": list(sol.roots),
                "poly_residuals": list(sol.poly_residuals),
                "theta_residuals": list(sol.theta_residuals),
                "vieta_residual": sol.vieta_residual}
    raise KeyError(kind)


def run_item(kind: str, arg: complex):
    kind = PROBES.get(kind, (kind,))[0]
    if kind == "fuchsian":
        return fuchsian_item(arg)
    if kind == "integrals":
        return integrals_item(arg)
    return point_item(kind, arg)
