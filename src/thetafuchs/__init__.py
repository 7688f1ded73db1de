"""Theta-constant machinery for explicit uniformization of algebraic curves.

Evaluation of Jacobi theta constants with an exact closed derivative system,
elliptic integrals and Weierstrass functions, exact modular-group and
hyperbolic-polygon algebra, a registry of explicitly parametrized curves with
Fuchsian residual verification, inversion of the genus-2 uniformizer, the
theta solution of the Bring quintic, torus covers with their integral
identities, and Poincare metrics.

Submodules load on first use (PEP 562): each name in _EXPORTS, and each
submodule, is imported when it is first read from the package.
"""

import sys
import time

_START = time.monotonic()  # cli reports the start-up time from here

_EXPORTS = {
    "numerics": ("ToleranceConfig", "TOL", "NumericsError", "fd_jet",
                 "newton_solve", "poly_roots", "tau_grid"),
    "theta_eta": ("ThetaFrame", "eta", "eta_w", "identity_residuals", "theta",
                  "theta2", "theta3", "theta4"),
    "jets": ("Jet", "ThetaJet", "theta_jet"),
    "elliptic": ("WeierstrassParams", "carlson_rf", "eisenstein", "ellip_K",
                 "ellip_Kprime", "hyp2f1_half", "klein_j", "legendre_moduli",
                 "wp", "wp_inverse"),
    "modgroup": ("ProjMatrix", "burnside_tables", "coset_orbit", "coset_reps",
                 "disc_map", "gamma4_reduce", "membership", "mobius",
                 "nielsen_schreier", "reduce_fundamental"),
    "polygons": ("GeodesicPolygon", "build_polygon", "default_polygon",
                 "double_polygon", "genus_of", "make_parabolic"),
    "fuchsian": ("modular_ode_residuals", "psi", "q_catalogue",
                 "schwarzian_jet", "verify_fuchsian", "change_of_var_check"),
    "curves": ("CurveSpec", "burnside_wp_forms", "chi_burnside",
               "curve_residual", "discriminant_y", "j_bridge_residual",
               "kl_relation_check", "registry"),
    "inversion": ("InversionResult", "QuinticSolution", "exact_value_suite",
                  "invert_chi", "quintic_solve", "series_at_i"),
    "abelian": ("alpha_pm", "burnside_surface_metric", "cover_point",
                "holo_differential_check", "liouville_residual",
                "mero_identity_check", "metric_density", "torus_metric_check"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}
_SUBMODULES = (*_EXPORTS, "ddnum")

__all__ = sorted({*_ORIGIN, *_SUBMODULES})
__version__ = "0.1.0"


def __getattr__(name):
    module = _ORIGIN.get(name, name if name in _SUBMODULES else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")
    value = sys.modules[f"{__name__}.{module}"]
    if name in _ORIGIN:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
