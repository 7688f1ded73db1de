import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import thetafuchs
from thetafuchs import cli
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
    real = cli.th.identity_residuals
    seen = []

    def nan_on_second_sample(tau):
        res = real(tau)
        seen.append(tau)
        if len(seen) == 2:
            res["landen"] = math.nan
        return res

    monkeypatch.setattr(cli.th, "identity_residuals", nan_on_second_sample)
    status, out = run_cli(["verify", "identities", "--samples", "4"])
    assert status == 1
    rows = {c["name"]: c for c in json.loads(out)["checks"]}
    assert math.isnan(rows["landen"]["residual"])
    assert rows["landen"]["pass"] is False
    assert all(c["pass"] for name, c in rows.items() if name != "landen")


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
