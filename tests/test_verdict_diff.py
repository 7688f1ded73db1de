import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "verdict_diff.py"
spec = importlib.util.spec_from_file_location("verdict_diff", TOOL)
vd = importlib.util.module_from_spec(spec)
spec.loader.exec_module(vd)


def _report(*rows):
    return json.dumps({"schema": 1, "checks": [
        {"name": n, "residual": r, "tol": 1e-9, "pass": r < 1e-9}
        for n, r in rows]}).encode()


def test_changed_rows_names_each_moved_row():
    old = _report(("a", 1e-12), ("b", 2e-10), ("c", 3e-11))
    new = _report(("a", 1e-12), ("b", 4e-9), ("d", 5e-13))
    assert vd.changed_rows(old, new) == [
        "b: 2e-10 pass -> 4e-09 FAIL",
        "c: 3e-11 pass -> absent",
        "d: absent -> 5e-13 pass"]
    assert vd.changed_rows(_report(("a", 1e-12)), b"") == [
        "stdout: " + repr(_report(("a", 1e-12))) + " -> b''"]


def test_same_tree_shows_no_difference(monkeypatch, capsys):
    monkeypatch.setattr(vd, "SUITES", ("identities",))
    monkeypatch.setattr(vd, "SEEDS", (3,))
    monkeypatch.setattr(vd, "SAMPLES", (5,))
    assert vd.compare(vd.ROOT, jobs=2) == 0
    assert "1 (suite, seed, samples) runs per tree: 0 differ" in (
        capsys.readouterr().out)
