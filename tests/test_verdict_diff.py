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
    monkeypatch.setattr(vd, "point_cases", lambda: [])
    assert vd.compare(vd.ROOT, jobs=2) == 0
    assert "1 (suite, seed, samples) runs per tree: 0 differ" in (
        capsys.readouterr().out)


def test_point_commands_cover_every_answer():
    cases = vd.point_cases()
    assert ("exact-values",) in cases
    assert sum(c[0] == "invert" for c in cases) == 10
    assert sum(c[0] == "quintic" for c in cases) == 8
    for fn in ("theta", "k"):
        assert sum(c[:2] == ("eval", fn) for c in cases) == 6
    # a negative value is passed as --opt=value, which argparse accepts
    assert ("invert", "--value=-0.7,0.2") in cases
    assert all(arg.startswith("--") or not arg.startswith("-")
               for case in cases for arg in case)


def test_point_runs_compare_answers(monkeypatch, capsys):
    monkeypatch.setattr(vd, "verify_cases", lambda: [])
    monkeypatch.setattr(vd, "point_cases", lambda: [
        ("invert", "--value=-0.7,0.2"), ("eval", "k", "--tau=0.1,0.05")])
    assert vd.compare(vd.ROOT, jobs=2) == 0
    assert "2 point-command runs per tree: 0 differ" in capsys.readouterr().out


def test_changed_rows_names_moved_answers():
    old = json.dumps({"checks": [{"name": "evaluated", "residual": 0.0}],
                      "extra": {"k": {"re": 1.0, "im": 0.0},
                                "k_prime": {"re": 2e-44, "im": 0.0}}})
    new = json.dumps({"checks": [{"name": "evaluated", "residual": 0.0}],
                      "extra": {"k": {"re": 1.0, "im": 0.0},
                                "k_prime": {"re": 6e-44, "im": 0.0}}})
    assert vd.changed_rows(old.encode(), new.encode()) == [
        'extra.k_prime: {"re": 2e-44, "im": 0.0} -> {"re": 6e-44, "im": 0.0}']


def test_items_of_the_same_tree_are_identical(capsys):
    # one round of each workload, through perfbench's own run_item
    assert vd.compare_items(vd.ROOT, rounds=1) == 0
    out = capsys.readouterr().out
    assert "140 benchmark items (1 rounds of each workload" in out
    assert "0 differ, 140 identical" in out


def test_items_name_the_first_differing_item(monkeypatch, capsys):
    lines = ["fuchsian-sweep 0 fuchsian 1j {'a': 1e-12}",
             "fuchsian-sweep 0 fuchsian 2j {'a': 2e-12}",
             "fuchsian-sweep 1 fuchsian 3j {'a': 3e-12}",
             "point-queries 0 eta 1j [(1+0j)]"]
    moved = lines[:1] + [line.replace("e-12", "e-11") for line in lines[1:3]]
    moved.append(lines[3])
    monkeypatch.setattr(vd, "run_items", lambda tree, rounds: (
        0, lines if tree == vd.ROOT else moved))
    assert vd.compare_items(Path("base"), rounds=2) == 2
    out = capsys.readouterr().out
    assert out.count("DIFF") == 1
    assert ("DIFF fuchsian-sweep: first differing item\n"
            f"  {moved[1]}\n  -> {lines[1]}") in out
    assert "4 benchmark items" in out and "2 differ, 2 identical" in out


def test_items_count_the_moves_of_each_row(monkeypatch, capsys):
    # a move in double-double digits only reads from the summary line
    lines = ["fuchsian-sweep 0 fuchsian 1j {'a': 1e-21, 'b': 0.5}",
             "fuchsian-sweep 1 fuchsian 2j {'a': 3e-21, 'b': 0.5}",
             "point-queries 0 quintic 0.1j {'roots': [1j, (2+0j)]}",
             "point-queries 0 eta 1j [(1+0j)]",
             "point-queries 1 k 3j NumericsError('k')"]
    moved = [lines[0].replace("1e-21", "4e-22"),
             lines[1].replace("3e-21", "2e-21"),
             lines[2].replace("(2+0j)", "(2+1e-30j)"), lines[3],
             "point-queries 1 k 3j [0.5, 0.25]"]
    monkeypatch.setattr(vd, "run_items", lambda tree, rounds: (
        0, lines if tree == vd.ROOT else moved))
    assert vd.compare_items(Path("base"), rounds=2) == 4
    out = capsys.readouterr().out.splitlines()
    assert [line.strip() for line in out if "moved" in line] == [
        "fuchsian-sweep a: 2 moved, largest |old| 2e-21, |new| 3e-21",
        "point-queries roots[1]: 1 moved, largest |old| 2, |new| 2",
        "point-queries k: 1 moved, largest |old| n/a, |new| n/a",
        "point-queries k[0]: 1 moved, largest |old| 0.5, |new| n/a",
        "point-queries k[1]: 1 moved, largest |old| 0.25, |new| n/a"]
    assert "4 differ, 1 identical" in out[-1]


def test_startup_pairs_time_both_trees(monkeypatch, tmp_path, capsys):
    # one pair of the set-up and of eval theta, this tree against its copy
    monkeypatch.setattr(vd, "STARTUP_CASES", vd.STARTUP_CASES[:2])
    vd.copy_tree(tmp_path)
    assert not list(tmp_path.rglob("__pycache__"))
    vd.compare_startup(vd.ROOT, tmp_path, pairs=1)
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("cold starts in 1 alternating pairs")
    assert [line.split()[0] for line in out[1:]] == ["setup_s", "eval"]
    assert all(line.endswith("of 1") for line in out[1:])
