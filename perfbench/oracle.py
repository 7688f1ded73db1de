"""Checks of the program's answers, computed apart from the program.

Point answers are recomputed with mpmath at DPS digits.  Sweep rows are
residuals of identities that vanish exactly, so each row is held to the
tolerance the CLI uses for it by default (THETAFUCHS_TOL plays no part).
Every check returns the list of reasons an item fails, each starting with
the name of the row or value that failed; empty means it passed.
"""

from __future__ import annotations

import mpmath

from workloads import (CATALOGUE_IDS, CHANGE_OF_VAR_ROWS, INTEGRALS_TOLS,
                       PROBES, row_tolerance)

mp = mpmath.mp
DPS = 30

# A theta-type series summed in doubles is accurate to some ulps of the sum
# of the moduli of its terms (powers q^(k^2) lose about k^2 ulps); derived
# quantities get the first-order propagation of those bounds.  Over the
# seeded inputs the worst error measured is below 1/100 of each bound.
SERIES_RTOL = 1e-12
J_RTOL = 1e-11
CHI_TOL = 1e-10
ROOT_RTOL = 1e-10
JET_RTOL = 1e-11

# The CLI's own tolerances for the checks the program reports.
INVERT_TOLS = {"chi_residual": 1e-9, "j_residual": 1e-8}
QUINTIC_TOLS = {"poly_residuals": 1e-10, "theta_residuals": 1e-10,
                "vieta_residual": 1e-9}

FUCHSIAN_ROWS = CATALOGUE_IDS + tuple(
    "change_of_var." + name for name in CHANGE_OF_VAR_ROWS)
SWEEP_ROWS = {"fuchsian-sweep": frozenset(FUCHSIAN_ROWS),
              "integrals-sweep": frozenset(INTEGRALS_TOLS)}


def _mpc(z) -> mpmath.mpc:
    return mpmath.mpc(*z) if isinstance(z, (list, tuple)) else mpmath.mpc(z)


def _c(z) -> complex:
    return complex(*z) if isinstance(z, (list, tuple)) else complex(z)


def _thetas(tau: mpmath.mpc):
    q = mpmath.expjpi(tau)
    return (mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q),
            mpmath.jtheta(4, 0, q), q)


def _theta_dtau(n: int, q, order: int):
    """order-th tau-derivative of theta_n by the heat equation."""
    return (-1j * mpmath.pi / 4) ** order * mpmath.jtheta(n, 0, q, 2 * order)


def _eta_w(t2, t3, t4, q):
    """zeta(1) on the lattice (1, tau) from theta3'/theta3 (Jacobi)."""
    return (-1j * mpmath.pi * _theta_dtau(3, q, 1) / t3
            - mpmath.pi ** 2 / 12 * (t2 ** 4 - t4 ** 4))


def _thetas_at_iy(y):
    """theta2, theta3, theta4 at i*y: the sums of the moduli of the terms of
    the three series at any tau with Im tau = y (theta4's equal theta3's)."""
    return _thetas(mpmath.mpc(0, y))


def _scale_eta(y):
    """Sum of the moduli of the pentagonal-series terms of eta.

    sum_k x^(k(3k-1)/2) with x = exp(-2 pi y) is theta3 at nome
    exp(-3 pi y) and z = -i pi y/2, after completing the square.
    """
    return mpmath.exp(-mpmath.pi * y / 12) * mpmath.re(mpmath.jtheta(
        3, -0.5j * mpmath.pi * y, mpmath.exp(-3 * mpmath.pi * y)))


def _scale_eta_w(at_iy):
    """(pi^2/12) times the sum of the moduli of the terms of E2: 2 - E2(iy)."""
    return mpmath.pi ** 2 / 6 - mpmath.re(_eta_w(*at_iy))


def _close(name, got, want, bound, reasons):
    err = abs(_mpc(got) - want)
    if not err <= bound:
        reasons.append(f"{name}: |error| {mpmath.nstr(err, 3)} > "
                       f"{mpmath.nstr(bound, 3)}")


def _ratio_bound(value, parts):
    """First-order bound on prod theta_i^e_i given (e_i, theta_i, bound_i)."""
    return abs(value) * sum(abs(e) * b / abs(t) for e, t, b in parts)


def check_eval(kind: str, tau, out) -> list:
    reasons = []
    with mp.workdps(DPS):
        t = _mpc(tau)
        y = mpmath.im(t)
        if kind == "eta":
            _close("eta", out[0], mpmath.eta(t), SERIES_RTOL * _scale_eta(y),
                   reasons)
        elif kind == "j":
            want = mpmath.kleinj(t)
            _close("J", out[0], want, J_RTOL * max(1, abs(want)), reasons)
        elif kind in ("theta", "k"):
            t2, t3, t4, q = _thetas(t)
            at_iy = _thetas_at_iy(y)
            b2 = SERIES_RTOL * mpmath.re(at_iy[0])
            b3 = SERIES_RTOL * mpmath.re(at_iy[1])
            if kind == "theta":
                _close("theta2", out[0], t2, b2, reasons)
                _close("theta3", out[1], t3, b3, reasons)
                _close("theta4", out[2], t4, b3, reasons)
                _close("eta", out[3], mpmath.eta(t),
                       SERIES_RTOL * _scale_eta(y), reasons)
                _close("eta_w", out[4], _eta_w(t2, t3, t4, q),
                       SERIES_RTOL * _scale_eta_w(at_iy), reasons)
            else:
                k = t2 ** 2 / t3 ** 2
                kp = t4 ** 2 / t3 ** 2
                _close("k", out[0], k,
                       _ratio_bound(k, ((2, t2, b2), (2, t3, b3))), reasons)
                _close("k'", out[1], kp,
                       _ratio_bound(kp, ((2, t4, b3), (2, t3, b3))), reasons)
        else:
            raise KeyError(kind)
    return reasons


def _program_checks(out: dict, tols: dict, reasons: list):
    """Residuals the program reports, each against the CLI's tolerance.

    A NaN fails, since no comparison with it holds."""
    for name, tol in tols.items():
        values = out[name] if isinstance(out[name], list) else [out[name]]
        bad = [v for v in values if not v <= tol]
        if bad:
            reasons.append(f"{name}: program reports {bad[0]:.3e} > {tol:g}")


def check_invert(a, out: dict) -> list:
    if "branch_point" in out:
        return [f"branch_point: marker for A={_c(a)}, not a branch value"]
    reasons = []
    _program_checks(out, INVERT_TOLS, reasons)
    with mp.workdps(DPS):
        _, t3, t4, _ = _thetas(_mpc(out["tau0"]) / 2)
        a_mp = _mpc(a)
        _close("chi(tau0) - A", -t4 / t3, a_mp, CHI_TOL * max(1, abs(a_mp)),
               reasons)
    return reasons


def check_quintic(a, out: dict) -> list:
    reasons = []
    _program_checks(out, QUINTIC_TOLS, reasons)
    with mp.workdps(DPS):
        want = list(mpmath.polyroots([1, 0, 0, 0, -1, _mpc(a)],
                                     maxsteps=100, extraprec=DPS))
        roots = [_mpc(r) for r in out["roots"]]
        if len(roots) != 5:
            return reasons + [f"roots: {len(roots)}, not 5"]
        for r in roots:
            nearest = min(range(len(want)), key=lambda i: abs(want[i] - r))
            _close("root", r, want.pop(nearest),
                   ROOT_RTOL * max(1, abs(r)), reasons)
    return reasons


def check_rows(workload: str, rows: dict) -> list:
    reasons = []
    expected = SWEEP_ROWS[workload]
    if set(rows) != expected:
        reasons.append(f"rows: {sorted(set(rows) ^ expected)} missing or "
                       "extra")
    for name, value in rows.items():
        tol = row_tolerance(workload, name)
        if not value <= tol:
            reasons.append(f"{name}: residual {value:.3e} > {tol:g}")
    return reasons


def check_x_jet(tau, derivs) -> list:
    """x = theta4/theta3 and its first three tau-derivatives."""
    reasons = []
    with mp.workdps(DPS):
        t = _mpc(tau)
        q = mpmath.expjpi(t)
        n = [[_theta_dtau(k, q, m) for m in range(4)] for k in (3, 4)]
        num, den = n[1], n[0]
        # quotient rule, order by order: x = num/den
        x = []
        for m in range(4):
            acc = num[m]
            for j in range(m):
                acc -= mpmath.binomial(m, j) * x[j] * den[m - j]
            x.append(acc / den[0])
        for m in range(4):
            _close(f"x^({m})", derivs[m], x[m],
                   JET_RTOL * (1 + abs(x[m])), reasons)
    return reasons


def check_item(workload: str, kind: str, arg, out, err) -> list:
    """Reasons the item fails; an empty list means it passed."""
    if err is not None:
        return [f"error: {err}"]
    kind = PROBES.get(kind, (kind,))[0]
    if workload in SWEEP_ROWS:
        return check_rows(workload, out)
    if kind == "invert":
        return check_invert(arg, out)
    if kind == "quintic":
        return check_quintic(arg, out)
    return check_eval(kind, arg, out)


def expected_fault(kind: str, reasons: list) -> bool:
    """True when a probe item fails on its named row and on nothing else."""
    if kind not in PROBES or not reasons:
        return False
    row = PROBES[kind][1] + ":"
    return all(reason.startswith(row) for reason in reasons)
