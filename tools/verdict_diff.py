"""Did any verdict move?  Compare `thetafuchs verify` output with another revision.

    python3 tools/verdict_diff.py REV [--jobs N]

Checks REV out into a temporary `git worktree`, then runs
`thetafuchs verify SUITE --seed S --samples N` for every suite, seeds 1-7
and 20, and 20 and 200 samples, once from that worktree and once from this
working tree (uncommitted edits included), each run in a fresh interpreter
with only that tree's `src/` on the path.  The two stdouts of every run are
compared byte for byte.  Each (suite, seed, samples) that differs is printed
with its changed rows, and the exit status is 1 if any differs, else 0 (2
if REV cannot be checked out).  The worktree is removed on exit.  Standard
library only, and no network.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

SUITES = ("identities", "curves", "fuchsian", "modular-odes", "integrals",
          "metrics")
SEEDS = (1, 2, 3, 4, 5, 6, 7, 20)
SAMPLES = (20, 200)
ROOT = Path(__file__).resolve().parent.parent


def run_verify(tree: Path, suite: str, seed: int, samples: int):
    """(exit status, stdout bytes) of one verify run from tree's sources."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "thetafuchs.cli", "verify", suite,
         "--seed", str(seed), "--samples", str(samples)],
        cwd=tree, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def _rows(stdout: bytes):
    """{row name: row} of a JSON verify report, or None if it is not one."""
    try:
        return {row["name"]: row for row in json.loads(stdout)["checks"]}
    except (ValueError, KeyError, TypeError):
        return None


def _row_text(row) -> str:
    if row is None:
        return "absent"
    verdict = "pass" if row.get("pass") else "FAIL"
    return f"{row.get('residual')!r} {verdict}"


def changed_rows(old: bytes, new: bytes) -> list[str]:
    """One line per row whose fields differ, or the raw outputs if either
    side is not a JSON report."""
    before, after = _rows(old), _rows(new)
    if before is None or after is None:
        return [f"stdout: {old[-200:]!r} -> {new[-200:]!r}"]
    lines = [f"{name}: {_row_text(before.get(name))} -> "
             f"{_row_text(after.get(name))}"
             for name in sorted(before.keys() | after.keys())
             if before.get(name) != after.get(name)]
    if not lines:  # the rows agree, so something else in the document moved
        lines.append("rows identical; other report fields differ")
    return lines


def compare(base: Path, jobs: int) -> int:
    """Run the matrix in base and in this tree; print differences; count them."""
    cases = [(suite, seed, samples) for samples in SAMPLES
             for suite in SUITES for seed in SEEDS]
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        results = {
            (case, side): pool.submit(run_verify, tree, *case)
            for case in cases for side, tree in (("base", base), ("here", ROOT))}
        differing = 0
        for case in cases:
            (old_status, old), (new_status, new) = (
                results[case, "base"].result(), results[case, "here"].result())
            if old_status == new_status and old == new:
                continue
            differing += 1
            suite, seed, samples = case
            print(f"DIFF {suite} seed {seed} samples {samples}: "
                  f"exit {old_status} -> {new_status}")
            for line in changed_rows(old, new):
                print(f"  {line}")
    print(f"{len(cases)} (suite, seed, samples) runs per tree: "
          f"{differing} differ, {len(cases) - differing} byte-identical")
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compare every verify verdict with another revision")
    parser.add_argument("rev", help="git revision to compare against")
    parser.add_argument("--jobs", type=int, default=2,
                        help="verify runs at a time (default 2)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    with tempfile.TemporaryDirectory(prefix="verdict-diff-") as tmp:
        base = Path(tmp) / "tree"
        if subprocess.run(["git", "worktree", "add", "--detach", "--quiet",
                           str(base), args.rev], cwd=ROOT).returncode:
            return 2             # git has said why (e.g. an unknown REV)
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"], cwd=base, check=True,
                capture_output=True, text=True).stdout.strip()
            print(f"base {args.rev} ({commit}) against the working tree")
            differing = compare(base, args.jobs)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base)],
                           cwd=ROOT, check=False)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
