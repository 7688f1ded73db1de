"""Benchmark of thetafuchs: three workloads, checked answers, one command.

    python3 perfbench/run.py --workload fuchsian-sweep --seed 1 \
        --seconds 20 --trace 0

Workloads: fuchsian-sweep, integrals-sweep, point-queries (README.md).
With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a separate traced run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Results and
traces are also written under perfbench/results/.

The program runs in worker processes started from this checkout's src/;
this process only starts them, checks their answers with mpmath and
computes the metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import oracle
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"

# setup_s is the upper quartile of 2 * SETUP_STARTS cold interpreters, half
# started one after another before the workload and half after its checks,
# once a first start has written the bytecode caches.  Start times fall into
# a fast and a slow level (about 0.067 s and 0.097 s on a 2-vCPU host) that
# follow the host's load over seconds, so the median can jump between the
# levels where the upper quartile of starts spread over the run does not.
SETUP_STARTS = 8
SETUP_TIMEOUT_S = 60
# The worker's own limit beyond --seconds: it finishes the round it is in.
WORKER_GRACE_S = 90

# Metric names and units, as declared for the benchmark.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


class BenchmarkError(RuntimeError):
    pass


def worker_command(*args) -> list:
    return [sys.executable, str(WORKER), *map(str, args)]


def measure_setup(starts) -> list:
    times = []
    for _ in range(starts):
        proc = subprocess.run(worker_command("--setup-only"),
                              capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up start failed:\n{proc.stderr}")
        times.append(json.loads(proc.stdout.splitlines()[0])["setup_s"])
    return times


def run_worker(workload, seed, seconds, trace) -> list:
    """Start the workload process and collect its lines."""
    cmd = worker_command("--workload", workload, "--seed", seed,
                         "--seconds", seconds, "--trace", trace)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(seconds + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        lines = [json.loads(line) for line in proc.stdout]
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or not lines or "items" not in lines[-1]:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return lines


def negative_controls(workload, items, jets) -> list:
    """Perturbed answers that the checks must count as failed.

    Returns the names of the controls that were not caught.  A probe
    control adds a second failure to a probe item, which must then no
    longer pass as its named fault.
    """
    missed = []
    plain = [r for r in items if r["err"] is None]

    def first(kind):
        return next(r for r in plain if r["kind"] == kind)

    def caught_beside_fault(rec, out):
        reasons = oracle.check_item(workload, rec["kind"], rec["arg"], out,
                                    None)
        return not oracle.expected_fault(rec["kind"], reasons)

    if workload in oracle.SWEEP_ROWS:
        rec = next(r for r in plain if r["kind"] not in workloads.PROBES)
        rows = dict(rec["out"])
        name = sorted(rows)[0]
        rows[name] = 2.0 * oracle.row_tolerance(workload, name)
        if not oracle.check_rows(workload, rows):
            missed.append(f"{name} residual at twice its tolerance")
        derivs = [list(d) for d in jets[0]["derivs"]]
        derivs[1] = [v * (1.0 + 1e-6) for v in derivs[1]]
        if not oracle.check_x_jet(jets[0]["jet_tau"], derivs):
            missed.append("x' scaled by 1 + 1e-6")
        for kind, (_, row) in workloads.PROBES.items():
            probe = next((r for r in plain if r["kind"] == kind), None)
            if probe is None:
                continue
            other = next(n for n in sorted(probe["out"]) if n != row)
            out = dict(probe["out"])
            out[other] = 2.0 * oracle.row_tolerance(workload, other)
            if not caught_beside_fault(probe, out):
                missed.append(f"{kind} with {other} at twice its tolerance")
    else:
        rec = first("quintic")
        out = dict(rec["out"], roots=[list(r) for r in rec["out"]["roots"]])
        out["roots"][0][0] += 1e-6
        if not oracle.check_quintic(rec["arg"], out):
            missed.append("quintic root moved by 1e-6")
        rec = first("invert")
        out = dict(rec["out"], tau0=[rec["out"]["tau0"][0] + 1e-6,
                                     rec["out"]["tau0"][1]])
        if not oracle.check_invert(rec["arg"], out):
            missed.append("invert tau0 shifted by 1e-6")
        rec = first("invert-probe")
        out = dict(rec["out"], tau0=[rec["out"]["tau0"][0] + 1e-6,
                                     rec["out"]["tau0"][1]])
        if not caught_beside_fault(rec, out):
            missed.append("invert-probe tau0 shifted by 1e-6")
    return missed


def round_figures(workload, ns_values):
    """items_per_s, item_p50_ms and item_p95_ms, summarised over rounds.

    Every round has the same make-up, so each round is one sample of the
    workload.  Each figure is the level that nine rounds in ten meet: the
    10th percentile of the rounds' throughputs and the 90th percentile of
    their median and 95th-percentile item latencies.  On a shared host,
    contention only slows a round; the host swings between contended and
    uncontended spells of a few seconds, and the share of uncontended time
    varies from run to run, so these slow-side figures are steadier than
    medians.
    """
    size = workloads.ROUND_SIZE[workload]
    rounds = [[v / 1e6 for v in ns_values[i:i + size]]
              for i in range(0, len(ns_values), size)]

    def deciles(values):
        return statistics.quantiles(values, n=10, method="inclusive")

    def quantile(values, k):
        return statistics.quantiles(values, n=20, method="inclusive")[k]

    return (deciles([size / (sum(r) / 1e3) for r in rounds])[0],
            deciles([quantile(r, 9) for r in rounds])[8],
            deciles([quantile(r, 18) for r in rounds])[8])


def run(workload, seed, seconds, trace) -> dict:
    setup_times = [] if trace else measure_setup(SETUP_STARTS + 1)[1:]
    lines = run_worker(workload, seed, seconds, trace)
    summary = lines[-1]
    items = [r for r in lines if "kind" in r]
    jets = [r for r in lines if "jet_tau" in r]

    failures = []
    for rec in items:
        reasons = oracle.check_item(workload, rec["kind"], rec["arg"],
                                    rec["out"], rec["err"])
        if reasons:
            failures.append((rec["kind"], rec["arg"], reasons))
    jet_failures = [(r["jet_tau"], oracle.check_x_jet(r["jet_tau"], r["derivs"]))
                    for r in jets]
    jet_failures = [f for f in jet_failures if f[1]]
    missed = negative_controls(workload, items, jets)
    unexpected = [f for f in failures
                  if not oracle.expected_fault(f[0], f[2])]

    for kind, arg, reasons in unexpected[:5]:
        print(f"failed {kind} {arg}: {'; '.join(reasons)}", file=sys.stderr)
    for tau, reasons in jet_failures:
        print(f"x-jet at {tau}: {'; '.join(reasons)}", file=sys.stderr)
    for name in missed:
        print(f"negative control not caught: {name}", file=sys.stderr)

    rate, p50, p95 = round_figures(workload, [r["ns"] for r in items])
    if trace:
        values = dict(summary["layers"], traced_items_per_s=rate)
        declared = SPEC["per_layer"]
    else:
        setup_times += measure_setup(SETUP_STARTS)
        setup_s = statistics.quantiles(setup_times, n=4,
                                       method="inclusive")[2]
        values = {"setup_s": setup_s, "items_per_s": rate,
                  "item_p50_ms": p50, "item_p95_ms": p95,
                  "peak_rss_mb": summary["peak_rss_kb"] / 1024.0}
        declared = SPEC["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    return {"correct": not (unexpected or jet_failures or missed),
            "attempted": len(items), "failed": len(failures),
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "thetafuchs" / "__init__.py").is_file():
        print(f"no thetafuchs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
