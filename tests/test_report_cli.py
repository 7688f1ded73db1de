import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import thetafuchs
from thetafuchs import cli, inversion, theta_eta
from thetafuchs.jets import JET_CACHE_SIZE, Jet
from thetafuchs.report import RunReport


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        status = cli.main(argv)
    return status, buf.getvalue()


def test_report_exit_contract():
    rep = RunReport("demo")
    rep.add("good", 1e-12, 1e-10)
    assert rep.exit_status == 0
    rep.add("bad", 1.0, 1e-10)
    assert rep.exit_status == 1


def test_verify_identities_passes():
    status, out = run_cli(["verify", "identities", "--samples", "6"])
    assert status == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    assert doc["pass"] is True


def test_forced_failure_with_zero_tolerance():
    status, out = run_cli(["verify", "identities", "--samples", "4",
                           "--tol", "0"])
    assert status == 1
    assert json.loads(out)["pass"] is False


def test_forced_failure_with_zero_tolerance_from_environment(monkeypatch):
    monkeypatch.setenv("THETAFUCHS_TOL", "0")
    status, out = run_cli(["verify", "identities", "--samples", "4"])
    assert status == 1
    assert json.loads(out)["parameters"]["tol"] == 0.0


@pytest.mark.parametrize("route", ["flag", "env"])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1e-9"])
def test_malformed_override_is_usage_error(route, value, monkeypatch):
    argv = ["verify", "identities", "--samples", "2"]
    if route == "flag":
        argv.append(f"--tol={value}")
    else:
        monkeypatch.setenv("THETAFUCHS_TOL", value)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("route", ["flag", "env"])
def test_override_is_recorded(route, monkeypatch):
    argv = ["verify", "identities", "--samples", "2"]
    if route == "flag":
        argv += ["--tol", "1e-3"]
    else:
        monkeypatch.setenv("THETAFUCHS_TOL", "1e-3")
    status, out = run_cli(argv)
    doc = json.loads(out)
    assert status == 0
    assert doc["parameters"] == {"samples": 2, "seed": 7, "tol": 1e-3}
    assert all(c["tol"] == 1e-3 for c in doc["checks"])


@pytest.mark.parametrize("env", [None, ""])
def test_default_document_records_no_tolerance(env, monkeypatch):
    if env is None:
        monkeypatch.delenv("THETAFUCHS_TOL", raising=False)
    else:
        monkeypatch.setenv("THETAFUCHS_TOL", env)
    _, out = run_cli(["verify", "identities", "--samples", "2"])
    assert json.loads(out)["parameters"] == {"samples": 2, "seed": 7}


@pytest.mark.parametrize("suite", ["curves", "metrics"])
def test_fixed_rows_keep_their_tolerance_under_override(suite):
    fixed = {"j_bridge_octahedral": 1e-9, "densities_positive": 0.5,
             "torus_display_x2_recovery": 1e-8}
    _, out = run_cli(["verify", suite, "--samples", "2", "--tol", "1"])
    tols = {c["name"]: c["tol"] for c in json.loads(out)["checks"]}
    assert tols.keys() & fixed.keys()
    for name, tol in tols.items():
        assert tol == fixed.get(name, 1.0), name


@pytest.mark.parametrize("argv", [
    ["invert", "--value", "0.3,0.15", "--tol", "1"],
    ["invert", "--value", "0.3,0.15", "--samples", "0"],
    ["quintic", "--a", "0.01,0", "--seed", "3"],
    ["exact-values", "--tol", "1e-30"],
    ["polygon", "--genus", "2", "--samples", "5"],
    ["discriminant", "--poly", "poly.json", "--tol", "1"],
    ["eval", "theta", "--tau", "0.3,1.1", "--seed", "1"],
])
def test_sweep_flags_belong_to_verify_only(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2


def test_every_command_takes_format():
    status, out = run_cli(["eval", "k", "--tau", "0,1", "--format", "jsonl"])
    assert status == 0
    assert json.loads(out.splitlines()[-1]) == {"pass": True}


PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def test_traced_names_resolve(monkeypatch):
    # The benchmark's traced run wraps these names by hand; a renamed or
    # deleted one would raise AttributeError only there.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, names in tracing.ENTRY_POINTS.values():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
    for name in tracing.JET_METHODS:
        assert callable(getattr(Jet, name)), name
    for cache in tracing.JET_CACHES:
        assert cache.cache_info().maxsize == JET_CACHE_SIZE


def test_tracer_counts_through_the_jet_caches(monkeypatch):
    # The traced run reads the jet caches, the wrapped Jet methods and the
    # theta_jet calls; a cache or method that moved would leave its metric
    # silently at zero.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    items = importlib.import_module("items")
    from thetafuchs import jets

    theta_jet = jets.theta_jet
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert jets.theta_jet is not theta_jet       # wrapped
        tracer.item_span(0, "fuchsian", items.run_item, "fuchsian",
                         0.3 + 1.1j)
        tracer.item_span(1, "integrals", items.run_item, "integrals",
                         -0.2 + 0.9j)
    finally:
        tracer.uninstall()
    assert jets.theta_jet is theta_jet
    for module, names in tracing.ENTRY_POINTS.values():
        for name in names:
            assert callable(getattr(module, name)), (module.__name__, name)
    for cache in tracing.JET_CACHES:
        assert cache.cache_info().maxsize == JET_CACHE_SIZE
    for name in tracing.JET_METHODS:
        assert name in vars(jets.Jet), name
    assert tracer.counts["jets.theta_jet_calls"] > 0
    assert tracer.jet_keys
    metrics = tracing.layer_metrics(tracer, 2, tracing.cache_counts())
    assert metrics["jets.theta_jet_calls"] > 0
    assert metrics["jets.self_ms"] > 0 and metrics["theta_eta.calls"] > 0


def test_tolerance_table_agrees_with_the_benchmark(monkeypatch):
    # The benchmark keeps its own copy of the tolerances, so a loosened CLI
    # tolerance is caught there; the two copies must agree.
    pytest.importorskip("mpmath")  # oracle.py needs the test extra
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    oracle = importlib.import_module("oracle")

    _, out = run_cli(["verify", "fuchsian", "--samples", "1"])
    rows = [c["name"] for c in json.loads(out)["checks"]]
    assert rows == list(oracle.FUCHSIAN_ROWS)
    assert {cli.tolerance("fuchsian", r) for r in rows} == {workloads.FUCHSIAN_TOL}

    _, out = run_cli(["verify", "integrals", "--samples", "1"])
    rows = {c["name"] for c in json.loads(out)["checks"]}
    assert rows == set(workloads.INTEGRALS_TOLS)
    assert ({r: cli.tolerance("integrals", r) for r in rows}
            == workloads.INTEGRALS_TOLS)
    assert cli.TOLERANCES["integrals"]["*"] == workloads.INTEGRALS_DEFAULT_TOL

    invert_rows = {"chi_residual": "chi_residual", "j_residual": "j_octahedral"}
    assert ({invert_rows[k]: v for k, v in oracle.INVERT_TOLS.items()}
            == cli.TOLERANCES["invert"])
    quintic_rows = {"poly_residuals": "max_poly_residual",
                    "theta_residuals": "max_theta_residual",
                    "vieta_residual": "vieta"}
    assert ({quintic_rows[k]: v for k, v in oracle.QUINTIC_TOLS.items()}
            == cli.TOLERANCES["quintic"])


def test_unknown_command_status():
    assert cli.main([]) == 2
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_determinism_byte_identical():
    _, first = run_cli(["verify", "identities", "--samples", "6", "--seed", "3"])
    _, second = run_cli(["verify", "identities", "--samples", "6", "--seed", "3"])
    assert first == second


def test_jsonl_format():
    status, out = run_cli(["verify", "identities", "--samples", "4",
                           "--format", "jsonl"])
    assert status == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[0])["command"] == "verify identities"
    assert json.loads(lines[-1])["pass"] is True


def test_invert_cli():
    status, out = run_cli(["invert", "--value", "0.3,0.15"])
    assert status == 0
    doc = json.loads(out)
    assert len(doc["extra"]["orbit"]) == 24


def test_quintic_cli():
    status, out = run_cli(["quintic", "--a", "0.01,0"])
    assert status == 0
    doc = json.loads(out)
    assert len(doc["extra"]["roots"]) == 5
    worst = max(c["residual"] for c in doc["checks"]
                if c["name"] == "max_poly_residual")
    assert worst < 1e-10


def test_polygon_emission():
    status, out = run_cli(["polygon", "--genus", "2", "--emit"])
    assert status == 0
    doc = json.loads(out)
    single = doc["extra"]["polygon"]
    doubled = doc["extra"]["doubled"]
    assert single["n_sides"] == 10
    assert len(single["cycles"]) == 6
    assert doubled["n_sides"] == 18
    for side in single["sides"] + doubled["sides"]:
        for pt in side["disc"]["endpoints"]:
            assert (pt[0] ** 2 + pt[1] ** 2) ** 0.5 <= 1 + 1e-12


def test_polygon_custom_data():
    status, out = run_cli(["polygon", "--genus", "2",
                           "--omega", "-0.5", "0", "1", "2", "3", "oo",
                           "--epsilon", "0.5", "1.5", "2.5", "3.5", "--emit"])
    assert status == 0
    doc = json.loads(out)
    names = [p["name"] for p in doc["extra"]["polygon"]["pairings"]]
    assert set(names) == {"V0", "V1", "V2", "V3", "V4"}


def test_discriminant_cli(tmp_path):
    target = tmp_path / "poly.json"
    target.write_text(json.dumps({"coeffs": {"0,2": 1, "5,0": -1, "1,0": 1}}))
    status, out = run_cli(["discriminant", "--poly", str(target)])
    assert status == 0
    assert json.loads(out)["extra"]["discriminant"] == [1, 0, 0, 0, -1, 0]


def test_eval_cli():
    status, out = run_cli(["eval", "k", "--tau", "0,1"])
    assert status == 0
    doc = json.loads(out)
    assert abs(doc["extra"]["k"]["re"] - 0.7071067811865476) < 1e-9


def test_exact_values_includes_reference_row():
    status, out = run_cli(["exact-values"])
    doc = json.loads(out)
    ref_rows = [c for c in doc["checks"]
                if "1.85407467730137191843385" in c["name"]]
    assert ref_rows and ref_rows[0]["pass"]
    agm_rows = [c for c in doc["checks"]
                if c["name"].startswith("lemniscate theta form vs AGM")]
    assert agm_rows and agm_rows[0]["pass"]


def test_curve_registry_emission():
    status, out = run_cli(["verify", "curves", "--samples", "4", "--emit"])
    assert status == 0
    registry = json.loads(out)["extra"]["registry"]
    assert len(registry) >= 12
    burnside = next(e for e in registry if e["id"] == "burnside")
    assert burnside["genus"] == 2
    assert burnside["coeffs"] == {"0,2": 1, "5,0": -1, "1,0": 1}
    kl3 = next(e for e in registry if e["id"] == "kl3")
    assert kl3["j_invariant"] == [2197, 972]


@pytest.mark.parametrize("suite", ["fuchsian", "curves"])
@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_is_usage_error(suite, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", suite, "--samples", samples])
    assert exc.value.code == 2


def test_nan_residual_fails_its_row(monkeypatch):
    real = theta_eta.identity_residuals
    seen = []

    def nan_on_second_sample(tau):
        res = real(tau)
        seen.append(tau)
        if len(seen) == 2:
            res["landen"] = math.nan
        return res

    monkeypatch.setattr(theta_eta, "identity_residuals", nan_on_second_sample)
    status, out = run_cli(["verify", "identities", "--samples", "4"])
    assert status == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert math.isnan(rows["landen"]["residual"])
    assert rows["landen"]["pass"] is False
    assert all(c["pass"] for name, c in rows.items() if name != "landen")


def test_row_with_no_checked_sample_fails():
    # at seed 1 the only sample is puncture-adjacent for two curves
    status, out = run_cli(["verify", "curves", "--samples", "1", "--seed", "1"])
    assert status == 1
    unchecked = {c["name"]: c for c in json.loads(out)["checks"]
                 if c.get("note", "").startswith("no sample checked")}
    assert set(unchecked) == {"dedekind38", "lemniscatic47"}
    for row in unchecked.values():
        assert math.isnan(row["residual"])
        assert row["pass"] is False
        assert row["note"] == "no sample checked (skipped 1 puncture-adjacent)"


def test_nan_orbit_value_fails_octahedral_orbit_j(monkeypatch):
    real = inversion.octahedral_j
    calls = []

    def nan_on_second_orbit_value(a):
        calls.append(a)
        return math.nan if len(calls) == 2 else real(a)

    monkeypatch.setattr(inversion, "octahedral_j", nan_on_second_orbit_value)
    status, out = run_cli(["exact-values"])
    assert status == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert math.isnan(rows["octahedral_orbit_j"]["residual"])
    assert rows["octahedral_orbit_j"]["pass"] is False
    assert all(c["pass"] for name, c in rows.items()
               if name != "octahedral_orbit_j")


def test_runtime_imports_are_standard_library():
    # A fresh interpreter without site hooks imports the package and every
    # submodule; whatever else lands in sys.modules must be standard library.
    code = (
        "import importlib, pkgutil, sys\n"
        "import thetafuchs\n"
        "for m in pkgutil.iter_modules(thetafuchs.__path__):\n"
        "    importlib.import_module('thetafuchs.' + m.name)\n"
        "top = {name.split('.')[0] for name in sys.modules}\n"
        "print(' '.join(sorted(top - set(sys.stdlib_module_names)\n"
        "                      - {'thetafuchs', '__main__'})))\n")
    src = os.path.dirname(os.path.dirname(thetafuchs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == []


def _fresh_modules(code: str) -> set:
    """The names in sys.modules of a fresh interpreter without site hooks,
    after it has run code, which prints nothing."""
    src = os.path.dirname(os.path.dirname(thetafuchs.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code += "\nimport sys\nprint(' '.join(sorted(sys.modules)))\n"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return set(out.stdout.split())


def test_imports_load_only_what_a_command_runs():
    # the benchmark's set-up: no dataclass or typing machinery, and none of
    # the modules that no set-up call needs; the uniformizers that abelian
    # reads come from jets, without the curve registry or the Q catalogue
    loaded = _fresh_modules("import thetafuchs\n"
                            "from thetafuchs import abelian, modgroup, theta_eta\n"
                            "theta_eta.eta_w_scale()\n"
                            "modgroup.coset_reps()\n"
                            "abelian.cover_params(+1)\n"
                            "abelian.cover_params(-1)")
    assert not loaded & {"dataclasses", "inspect", "typing",
                         "thetafuchs.inversion", "thetafuchs.polygons",
                         "thetafuchs.cli", "thetafuchs.report",
                         "thetafuchs.curves", "thetafuchs.fuchsian"}
    # invert, quintic and exact-values read chi, x and J from jets as well
    for argv in (["invert", "--value", "0.5,0.3"], ["quintic", "--a", "0.3,0.2"],
                 ["exact-values"]):
        loaded = _fresh_modules(
            "import contextlib, io\n"
            "from thetafuchs import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0")
        assert "thetafuchs.inversion" in loaded
        assert not loaded & {"thetafuchs.curves", "thetafuchs.fuchsian",
                             "thetafuchs.abelian", "thetafuchs.polygons"}
    # verify fuchsian checks its exact rows without the curve registry, and
    # needs none of the integral, inversion or polygon machinery
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from thetafuchs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['verify', 'fuchsian', '--samples', '2']) == 0")
    assert "thetafuchs.fuchsian" in loaded
    assert not loaded & {"thetafuchs.curves", "thetafuchs.abelian",
                         "thetafuchs.inversion", "thetafuchs.polygons"}
    # eval theta loads the theta series and what it stands on, nothing else
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from thetafuchs import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['eval', 'theta', '--tau', '0.3,1.1']) == 0")
    assert {name for name in loaded if name.startswith("thetafuchs")} == {
        "thetafuchs", "thetafuchs.cli", "thetafuchs.report",
        "thetafuchs.theta_eta", "thetafuchs.numerics", "thetafuchs.ddnum"}


# What the package exported when it imported every submodule eagerly.
EXPORTS = {
    "numerics": "ToleranceConfig TOL NumericsError fd_jet newton_solve "
                "poly_roots tau_grid",
    "theta_eta": "ThetaFrame eta eta_w identity_residuals theta theta2 "
                 "theta3 theta4",
    "jets": "Jet ThetaJet theta_jet",
    "elliptic": "WeierstrassParams carlson_rf eisenstein ellip_K ellip_Kprime "
                "hyp2f1_half klein_j legendre_moduli wp wp_inverse",
    "modgroup": "ProjMatrix burnside_tables coset_orbit coset_reps disc_map "
                "gamma4_reduce membership mobius nielsen_schreier "
                "reduce_fundamental",
    "polygons": "GeodesicPolygon build_polygon default_polygon double_polygon "
                "genus_of make_parabolic",
    "fuchsian": "modular_ode_residuals psi q_catalogue schwarzian_jet "
                "verify_fuchsian change_of_var_check",
    "curves": "CurveSpec burnside_wp_forms chi_burnside curve_residual "
              "discriminant_y j_bridge_residual kl_relation_check registry",
    "inversion": "InversionResult QuinticSolution exact_value_suite "
                 "invert_chi quintic_solve series_at_i",
    "abelian": "alpha_pm burnside_surface_metric cover_point "
               "holo_differential_check liouville_residual mero_identity_check "
               "metric_density torus_metric_check",
}


def test_lazy_package_keeps_every_export():
    listed = dir(thetafuchs)
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"thetafuchs.{module}")
        assert getattr(thetafuchs, module) is sub
        assert module in listed
        for name in names.split():
            assert getattr(thetafuchs, name) is getattr(sub, name), name
            assert name in listed
    assert thetafuchs.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        thetafuchs.no_such_name
    # dir lists what is not loaded yet; a submodule is imported on first
    # access, by name or by from-import
    loaded = _fresh_modules("import thetafuchs\n"
                            "assert {'inversion', 'invert_chi'} <= "
                            "set(dir(thetafuchs))\n"
                            "assert thetafuchs.theta is thetafuchs.theta_eta.theta\n"
                            "from thetafuchs import inversion, polygons\n"
                            "assert polygons.genus_of\n")
    assert {"thetafuchs.inversion", "thetafuchs.polygons"} <= loaded
