"""Spans and counts at the layer boundaries of thetafuchs, for the traced run.

The program has no instrumentation of its own, so the traced run wraps the
public entry points of each module from here.  A wrapper is installed on
every module attribute bound to the wrapped function, which covers calls
inside the defining module and calls through `from ... import` names.

A span is recorded where control crosses into another layer: (item, layer,
name, start_ns, end_ns, parent).  Calls that stay inside one layer add to
the counts but open no span.  A layer's self time is the time of its spans
minus the time of their child spans.
"""

from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import Counter

from thetafuchs import (abelian, curves, elliptic, fuchsian, inversion, jets,
                        modgroup, numerics, theta_eta)

# layer -> (module, entry points).  Validators such as check_tau run on
# every call and are left out; their time stays with the caller.
ENTRY_POINTS = {
    "theta_eta": (theta_eta, ("theta2", "theta3", "theta4", "eta", "eta_w",
                              "theta", "theta3_tail", "theta4_tail",
                              "e2_tail", "eisenstein_e2", "euler_product")),
    "jets": (jets, ("theta_jet",)),
    "ddnum": (fuchsian, ("residual_dd",)),
    "modgroup": (modgroup, ("reduce_fundamental", "gamma4_reduce",
                            "coset_reps", "coset_orbit", "mobius",
                            "membership")),
    "elliptic": (elliptic, ("agm", "ellip_K", "ellip_Kprime", "hyp2f1_half",
                            "legendre_moduli", "eisenstein_e4",
                            "eisenstein_e6", "eisenstein", "klein_j",
                            "carlson_rf", "wp", "wp_branch_points",
                            "wp_inverse")),
    "numerics": (numerics, ("fd_jet", "poly_roots", "newton_solve")),
    "inversion": (inversion, ("invert_chi", "quintic_solve",
                              "modular_quintic_rhs")),
    "fuchsian": (fuchsian, ("verify_fuchsian", "change_of_var_check",
                            "brackets_from_jet", "x_burnside", "chi_half",
                            "y_burnside", "k_modulus", "kprime2",
                            "z_fermat8", "lambda_mixed", "j_invariant",
                            "q_catalogue")),
    "curves": (curves, ("chi_burnside", "phi_burnside", "x_quotient",
                        "k_modulus_value", "octahedral_j",
                        "j_bridge_residual")),
    "abelian": (abelian, ("cover_relation_residuals",
                          "holo_differential_check", "mero_identity_check",
                          "alpha_pm", "alpha_slope_fd", "alpha_slope_exact",
                          "wp_argument", "wp_argument_theta", "wp_rational",
                          "mobius_bridge_residual", "holo_integrand_theta",
                          "holo_integrand_x", "mero_integrand_i1",
                          "mero_integrand_i2", "mero_direct_integrand")),
}
# Jet arithmetic that loops over orders belongs to the jets layer wherever it
# is called from; addition and negation are too cheap to wrap.
JET_METHODS = ("__mul__", "__rmul__", "__truediv__", "__rtruediv__", "pow",
               "exp", "log")
JET_CACHES = (jets._quad_jets, jets._eta_jet)
LAYERS = tuple(ENTRY_POINTS) + ("bench",)


class Tracer:
    """Spans kept flat in memory: FIELDS values per span, names as ids."""

    FIELDS = 5                   # item, name id, start_ns, end_ns, parent

    def __init__(self):
        self.spans = array("q")
        self.names = []          # name id -> (layer, name)
        self._ids = {}
        self.stack = []          # (span index, layer) of the open spans
        self.counts = Counter()
        self.jet_keys = set()
        self.item = -1
        self._installed = []

    # -- spans -------------------------------------------------------------

    def name_id(self, layer, name):
        key = (layer, name)
        if key not in self._ids:
            self._ids[key] = len(self.names)
            self.names.append(key)
        return self._ids[key]

    def call(self, layer, name_id, fn, args, kwargs):
        self.counts[layer] += 1
        stack = self.stack
        if stack and stack[-1][1] == layer:
            return fn(*args, **kwargs)
        spans = self.spans
        index = len(spans) // self.FIELDS
        parent = stack[-1][0] if stack else -1
        stack.append((index, layer))
        spans.extend((self.item, name_id, time.perf_counter_ns(), 0, parent))
        try:
            return fn(*args, **kwargs)
        finally:
            spans[index * self.FIELDS + 3] = time.perf_counter_ns()
            stack.pop()

    def item_span(self, index, kind, fn, *args):
        """Run one item under a root span of the 'bench' layer."""
        self.item = index
        return self.call("bench", self.name_id("bench", kind), fn, args, {})

    # -- installation ------------------------------------------------------

    def _wrapper(self, layer, name, fn):
        tracer = self
        observe = _OBSERVERS.get(name)
        name_id = self.name_id(layer, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(layer, name_id, fn, args, kwargs)
            if observe is not None:
                observe(tracer, result)
            return result
        return wrapper

    def _bind(self, original, wrapper):
        for module in [m for n, m in sys.modules.items()
                       if n == "thetafuchs" or n.startswith("thetafuchs.")]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._installed.append((module, attr, original))

    def install(self):
        for layer, (module, names) in ENTRY_POINTS.items():
            for name in names:
                original = getattr(module, name)
                self._bind(original, self._wrapper(layer, name, original))
        for name in JET_METHODS:
            original = vars(jets.Jet)[name]
            setattr(jets.Jet, name, self._wrapper("jets", name, original))
            self._installed.append((jets.Jet, name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _rows(self):
        spans, f = self.spans, self.FIELDS
        for i in range(0, len(spans), f):
            yield spans[i:i + f]

    def self_ns(self):
        """Self time per layer: span time minus the time of child spans."""
        child = array("q", bytes(8 * (len(self.spans) // self.FIELDS)))
        for _, _, start, end, parent in self._rows():
            if parent >= 0:
                child[parent] += end - start
        total = Counter()
        for index, (_, name_id, start, end, _) in enumerate(self._rows()):
            total[self.names[name_id][0]] += end - start - child[index]
        return total

    def write(self, path):
        """The spans as gzipped JSON lines [item, layer, name, start_ns,
        end_ns, parent], parent being the line index of the parent span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for item, name_id, start, end, parent in self._rows():
                layer, name = self.names[name_id]
                out.write(f'[{item},"{layer}","{name}",{start},{end},'
                          f'{parent}]\n')


def _add(key, amount=lambda result: 1):
    def observe(tracer, result):
        tracer.counts[key] += amount(result)
    return observe


def _theta_jet(tracer, result):
    tracer.counts["jets.theta_jet_calls"] += 1
    tracer.jet_keys.add((result.tau, result.scale, result.order))


# entry point -> what its result adds to the counts
_OBSERVERS = {
    "verify_fuchsian": _add("fuchsian.residuals",
                            lambda r: r["samples"] - r["skipped"]),
    "theta_jet": _theta_jet,
    "newton_solve": _add("numerics.newton_iterations", lambda r: r[1]),
    "quintic_solve": _add("inversion.quintic_newton_iterations",
                          lambda r: r.newton_iterations),
    "residual_dd": _add("ddnum.refined"),
    "gamma4_reduce": _add("modgroup.gamma4_reduce_calls"),
    "wp": _add("elliptic.wp_calls"),
    "wp_inverse": _add("elliptic.wp_inverse_calls"),
    "fd_jet": _add("numerics.fd_jet_calls"),
    "alpha_slope_fd": _add("abelian.alpha_slope_fd_calls"),
    "poly_roots": _add("numerics.poly_roots_calls"),
}
COUNTED = ("ddnum.refined", "jets.theta_jet_calls", "fuchsian.residuals",
           "modgroup.gamma4_reduce_calls", "elliptic.wp_inverse_calls",
           "elliptic.wp_calls", "numerics.newton_iterations",
           "numerics.fd_jet_calls", "abelian.alpha_slope_fd_calls",
           "numerics.poly_roots_calls",
           "inversion.quintic_newton_iterations")


def cache_counts():
    """Hits and misses of the jet caches so far."""
    hits = sum(c.cache_info().hits for c in JET_CACHES)
    misses = sum(c.cache_info().misses for c in JET_CACHES)
    return hits, misses


def layer_metrics(tracer: Tracer, items: int, cache_delta) -> dict:
    """Per-item figures for every per-layer metric of the benchmark."""
    c = tracer.counts
    out = {key: c[key] / items for key in COUNTED}
    out["theta_eta.calls"] = c["theta_eta"] / items
    out["jets.theta_jet_distinct"] = len(tracer.jet_keys) / items
    residuals = c["fuchsian.residuals"]
    out["ddnum.refined_share"] = (c["ddnum.refined"] / residuals
                                  if residuals else 0.0)
    hits, misses = cache_delta
    out["jets.cache_hit_share"] = hits / (hits + misses) if hits + misses else 0.0
    self_ns = tracer.self_ns()
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ns[layer] / 1e6 / items
    return out
