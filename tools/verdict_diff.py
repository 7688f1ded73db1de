"""Did any verdict or answer move?  Compare `thetafuchs` output with another
revision.

    python3 tools/verdict_diff.py REV [--jobs N]
    python3 tools/verdict_diff.py REV --items [ROUNDS]
    python3 tools/verdict_diff.py REV --startup [PAIRS]

Exports REV's files with `git archive` into a temporary directory, then runs
`thetafuchs verify SUITE --seed S --samples N` for every suite, seeds 1-7,
11 and 20, and 20 and 200 samples (108 runs), and a fixed set of point
commands
(`exact-values`, `invert --value A`, `quintic --a A`, `eval theta|k --tau T`),
once from that copy and once from this working tree (uncommitted edits
included), each run in a fresh interpreter with only that tree's `src/` on
the path.  The two stdouts of every run are compared byte for byte.  Each
run that differs is printed with its changed rows and report fields, and the
exit status is 1 if any differs, else 0 (2 if REV cannot be exported).  The
copy is removed on exit.  Standard library only, and no network.

With --items, it runs the benchmark's own items instead: `items.run_item`
from each tree's perfbench/ on ROUNDS rounds (default 10) of every workload
at seed ITEMS_SEED, one fresh interpreter per tree.  The CLI runs a suite
over all of its tau at once, the benchmark one tau at a time, so this mode
checks the path that the benchmark times, the double-double refinement of
single tau included.  The repr of every answer (or of its NumericsError) is
compared, and the first differing item of each workload is printed, then one
line per (workload, row) that moved: how many answers moved and the largest
|old| and |new| among them.

With --startup, it times cold starts instead, in PAIRS alternating pairs
(default 10) of REV's copy and a copy of this tree's src/ and perfbench/:
`perfbench/worker.py --setup-only` (its own setup_s, the benchmark's
start-up), and the wall time of `eval theta`, `invert`, `quintic` and
`exact-values` at fixed arguments.  Neither copy holds bytecode, and none is
written.  It prints each side's median and quartiles, and in how many pairs
this tree was faster.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUITES = ("identities", "curves", "fuchsian", "modular-odes", "integrals",
          "metrics")
SEEDS = (1, 2, 3, 4, 5, 6, 7, 11, 20)
SAMPLES = (20, 200)
# Point commands, each one answer that no verify suite prints: the inversion
# of chi (two values near branch values, where tau0 needs the polish and
# j_octahedral subtracts large values of J, one on a diagonal, and two next
# to fixed points of octahedral rotations, where candidates tie), the quintic
# (two values near a = 0, where one root's inversion nears the branch value
# 0), the special-value table, and theta and the Legendre moduli at fixed tau
# (three inside the unit circle, one of them near the cusp 0).
INVERT_VALUES = ("0.5,0.3", "-0.7,0.2", "0.3,-0.9", "1.2,0.4", "-0.4,-0.45",
                 "0.9,0.9", "0.999999999,0", "0.02,0.01",
                 "0.41421356237309503,1e-12",
                 "0.3660254037844391,0.3660254037844381")
QUINTIC_AS = ("0.01,0", "0.3,0.2", "-0.2,0.35", "0.1,-0.1", "0.4,0",
              "0,0.25", "0.001,0", "0.003,0")
EVAL_TAUS = ("0.3,1.1", "-0.45,0.6", "1.7,0.2", "0.5,2", "0.1,0.05",
             "0.0021836,0.0152496")
# Start-up cases: the benchmark's set-up, then four short commands.
CLI = ("-m", "thetafuchs.cli")
STARTUP_CASES = (("setup_s", ("perfbench/worker.py", "--setup-only")),
                 ("eval theta", (*CLI, "eval", "theta", "--tau=0.3,1.1")),
                 ("invert", (*CLI, "invert", "--value=0.5,0.3")),
                 ("quintic", (*CLI, "quintic", "--a=0.3,0.2")),
                 ("exact-values", (*CLI, "exact-values")))
ROOT = Path(__file__).resolve().parent.parent
ITEMS_SEED = 11
# Run in a fresh interpreter with a tree's src/ and perfbench/ on the path:
# one line per item, "workload round kind arg answer" with reprs.
ITEMS_SCRIPT = """
import sys
import items, workloads
from thetafuchs.numerics import NumericsError
rounds, seed = int(sys.argv[1]), int(sys.argv[2])
for workload in workloads.WORKLOADS:
    inputs = workloads.Inputs(workload, seed)
    for index in range(rounds):
        for kind, arg in inputs.round(index):
            try:
                answer = items.run_item(kind, arg)
            except NumericsError as exc:
                answer = exc
            print(workload, index, kind, repr(arg), repr(answer))
"""


def verify_cases() -> list:
    return [("verify", suite, "--seed", str(seed), "--samples", str(samples))
            for samples in SAMPLES for suite in SUITES for seed in SEEDS]


def point_cases() -> list:
    return ([("exact-values",)]
            + [("invert", f"--value={a}") for a in INVERT_VALUES]
            + [("quintic", f"--a={a}") for a in QUINTIC_AS]
            + [("eval", fn, f"--tau={t}") for fn in ("theta", "k")
               for t in EVAL_TAUS])


def run_cli(tree: Path, argv: tuple):
    """(exit status, stdout bytes) of one thetafuchs run from tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([sys.executable, "-m", "thetafuchs.cli", *argv],
                          cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def run_items(tree: Path, rounds: int):
    """(exit status, stdout lines) of the benchmark items run from tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(tree / "src"), str(tree / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", ITEMS_SCRIPT, str(rounds),
                           str(ITEMS_SEED)],
                          cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode:
        print(proc.stderr.strip(), file=sys.stderr)
    return proc.returncode, proc.stdout.splitlines()


def answer_rows(line: str) -> dict:
    """The answers of one item line by row: a dict answer's keys, the
    indices of a list (key[i] for a list under a key), or the kind itself
    for any other answer, or one that is no Python literal (an error, NaN)."""
    _, _, kind, _, text = line.split(" ", 4)
    try:
        answer = ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return {kind: text}
    if not isinstance(answer, dict):
        answer = {kind: answer}
    rows = {}
    for key, value in answer.items():
        if isinstance(value, list):
            rows.update((f"{key}[{i}]", v) for i, v in enumerate(value))
        else:
            rows[key] = value
    return rows


def _largest(values) -> str:
    """The largest modulus among the numbers in values, n/a if none is one."""
    sizes = [abs(v) for v in values if isinstance(v, (int, float, complex))]
    return f"{max(sizes):.3g}" if sizes else "n/a"


def moved_rows(pairs) -> list[str]:
    """One line per (workload, row) whose answer moved in any of the
    (before, after) item lines: how many moved, and the largest |old| and
    |new| among them (n/a where an answer is not a number)."""
    moved = {}
    for before, after in pairs:
        workload = before.split(" ", 1)[0]
        old, new = answer_rows(before), answer_rows(after)
        for row in sorted(old.keys() | new.keys()):
            if old.get(row) != new.get(row):
                moved.setdefault((workload, row), []).append(
                    (old.get(row), new.get(row)))
    return [f"{workload} {row}: {len(values)} moved, largest |old| "
            f"{_largest(o for o, _ in values)}, |new| "
            f"{_largest(n for _, n in values)}"
            for (workload, row), values in moved.items()]


def compare_items(base: Path, rounds: int) -> int:
    """Run the benchmark items in base and in this tree; print the first
    differing item of each workload, then each moved row; count the
    differing items."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [pool.submit(run_items, tree, rounds) for tree in (base, ROOT)]
        (old_status, old), (new_status, new) = (r.result() for r in runs)
    if old_status or new_status or len(old) != len(new):
        print(f"item runs: exit {old_status} -> {new_status}, "
              f"{len(old)} -> {len(new)} items")
        return 1
    pairs = [(before, after) for before, after in zip(old, new)
             if before != after]
    named = set()
    for before, after in pairs:
        workload = before.split(" ", 1)[0]
        if workload not in named:
            named.add(workload)
            print(f"DIFF {workload}: first differing item\n  {before}\n"
                  f"  -> {after}")
    for line in moved_rows(pairs):
        print(f"  {line}")
    print(f"{len(old)} benchmark items ({rounds} rounds of each workload, "
          f"seed {ITEMS_SEED}) per tree: {len(pairs)} differ, "
          f"{len(old) - len(pairs)} identical")
    return len(pairs)


def startup_time(tree: Path, argv: tuple) -> float:
    """Seconds of one cold start from tree: the worker's own setup_s, or the
    wall time of a command's whole process.  A failed start raises, so that
    it cannot pass for a fast one."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=tree, env=env,
                          capture_output=True, text=True, check=True)
    wall = time.perf_counter() - start
    if argv[0].endswith("worker.py"):
        return json.loads(proc.stdout)["setup_s"]
    return wall


def _quartiles(times: list) -> str:
    q = (statistics.quantiles(times, n=4, method="inclusive")
         if len(times) > 1 else times * 3)
    return f"{q[1]:.3f} [{q[0]:.3f}, {q[2]:.3f}]"


def compare_startup(base: Path, here: Path, pairs: int) -> None:
    """Time every start-up case in base and here, alternating which goes
    first; print each side's median [quartiles] and here's wins."""
    times = {case: ([], []) for case, _ in STARTUP_CASES}
    sides = ((0, base), (1, here))
    for index in range(pairs):
        order = sides if index % 2 == 0 else sides[::-1]
        for case, argv in STARTUP_CASES:
            for side, tree in order:
                times[case][side].append(startup_time(tree, argv))
    print(f"cold starts in {pairs} alternating pairs, seconds as "
          "median [lower, upper quartile]")
    for case, (old, new) in times.items():
        wins = sum(n < o for o, n in zip(old, new))
        print(f"{case:13s} base {_quartiles(old)}  here {_quartiles(new)}  "
              f"here faster in {wins} of {pairs}")


def copy_tree(dest: Path) -> None:
    """This tree's src/ and perfbench/ in dest, without bytecode or results."""
    skip = shutil.ignore_patterns("__pycache__", "results")
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, dest / part, ignore=skip)


def _document(stdout: bytes):
    """A JSON report with its rows by name, or None if it is not one."""
    try:
        doc = json.loads(stdout)
        doc["checks"] = {row["name"]: row for row in doc["checks"]}
        return doc
    except (ValueError, KeyError, TypeError):
        return None


def _short(value) -> str:
    text = json.dumps(value)
    return text if len(text) <= 60 else text[:57] + "..."


def _row_text(row) -> str:
    if row is None:
        return "absent"
    verdict = "pass" if row.get("pass") else "FAIL"
    return f"{row.get('residual')!r} {verdict}"


def changed_rows(old: bytes, new: bytes) -> list[str]:
    """One line per row, then per extra field, whose content differs, or the
    raw outputs if either side is not a JSON report."""
    before, after = _document(old), _document(new)
    if before is None or after is None:
        return [f"stdout: {old[-200:]!r} -> {new[-200:]!r}"]
    rows_b, rows_a = before["checks"], after["checks"]
    lines = [f"{name}: {_row_text(rows_b.get(name))} -> "
             f"{_row_text(rows_a.get(name))}"
             for name in sorted(rows_b.keys() | rows_a.keys())
             if rows_b.get(name) != rows_a.get(name)]
    extra_b, extra_a = before.get("extra", {}), after.get("extra", {})
    lines += [f"extra.{key}: {_short(extra_b.get(key))} -> "
              f"{_short(extra_a.get(key))}"
              for key in sorted(extra_b.keys() | extra_a.keys())
              if extra_b.get(key) != extra_a.get(key)]
    if not lines:  # rows and extras agree, so something else moved
        lines.append("rows identical; other report fields differ")
    return lines


def _compare_runs(pool, base: Path, cases: list) -> int:
    """Run cases in base and in this tree; print each difference; count."""
    results = {(case, side): pool.submit(run_cli, tree, case)
               for case in cases for side, tree in (("base", base),
                                                    ("here", ROOT))}
    differing = 0
    for case in cases:
        (old_status, old), (new_status, new) = (
            results[case, "base"].result(), results[case, "here"].result())
        if old_status == new_status and old == new:
            continue
        differing += 1
        print(f"DIFF {' '.join(case)}: exit {old_status} -> {new_status}")
        for line in changed_rows(old, new):
            print(f"  {line}")
    return differing


def compare(base: Path, jobs: int) -> int:
    """Run the verify matrix and the point commands in base and in this
    tree; print the differences; count them."""
    verify, points = verify_cases(), point_cases()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        differing = _compare_runs(pool, base, verify)
        print(f"{len(verify)} (suite, seed, samples) runs per tree: "
              f"{differing} differ, {len(verify) - differing} byte-identical")
        moved = _compare_runs(pool, base, points)
        print(f"{len(points)} point-command runs per tree: "
              f"{moved} differ, {len(points) - moved} byte-identical")
    return differing + moved


def export(rev: str, dest: Path) -> bool:
    """Write the files of commit rev into dest (`git archive`); False if git
    or tar fails."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", "--format=tar", rev],
                               cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout)
    archive.stdout.close()
    return archive.wait() == 0 and untar.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare every verify verdict and a set of point "
                    "answers with another revision")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--jobs", type=int, default=2,
                        help="thetafuchs runs at a time (default 2)")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--items", type=int, nargs="?", const=10,
                      metavar="ROUNDS",
                      help="compare the answers of the benchmark's items "
                           "over ROUNDS rounds of each workload (default "
                           "10) instead of the CLI runs")
    mode.add_argument("--startup", type=int, nargs="?", const=10,
                      metavar="PAIRS",
                      help="time cold starts in PAIRS alternating pairs "
                           "(default 10) instead of comparing outputs")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    for name in ("items", "startup"):
        if getattr(args, name) is not None and getattr(args, name) < 1:
            parser.error(f"--{name} must be at least 1")
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", "--short", f"{args.rev}^{{commit}}"],
        cwd=ROOT, capture_output=True, text=True)
    if commit.returncode:
        print(commit.stderr.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="verdict-diff-") as tmp:
        base = Path(tmp) / "tree"
        if not export(commit.stdout.strip(), base):
            return 2             # git or tar has said why
        print(f"base {args.rev} ({commit.stdout.strip()}) against the "
              "working tree")
        if args.startup is not None:
            copy_tree(Path(tmp) / "here")
            compare_startup(base, Path(tmp) / "here", args.startup)
            return 0
        if args.items is None:
            differing = compare(base, args.jobs)
        else:
            differing = compare_items(base, args.items)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
