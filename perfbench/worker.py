"""One workload process: set-up, the timed rounds, and the answers.

    python3 perfbench/worker.py --setup-only
    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1

Writes one JSON object per line to stdout: the set-up time, then one line
per item (kind, input, answer or error, latency), then the x-jets of the
subsample, then a summary.  Answers are streamed rather than kept, so the
process's peak resident size is the program's, not the benchmark's.  A
traced run writes its spans to results/trace-<workload>-seed<n>.jsonl.gz
beside this file.  The program is imported from src/ in the parent of this
file's directory.
"""

import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def set_up():
    """What every CLI call pays before its first answer."""
    sys.path.insert(0, SRC)
    import thetafuchs
    from thetafuchs import abelian, modgroup, theta_eta
    theta_eta.eta_w_scale()          # the eta_w calibration
    modgroup.coset_reps()            # the 24 coset representatives
    abelian.cover_params(+1)         # the cover lattices
    abelian.cover_params(-1)
    return thetafuchs


# Items of the first rounds whose x-jets are checked against mpmath.
JET_SUBSAMPLE = 8


def enc(value):
    """JSON form: complex numbers become [re, im]."""
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, dict):
        return {k: enc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [enc(v) for v in value]
    return value


def main() -> int:
    # Timed from before the program's first import: the standard-library
    # modules below are the benchmark's, so they are imported afterwards.
    start = time.perf_counter()
    thetafuchs = set_up()
    setup_s = time.perf_counter() - start

    import argparse
    import json
    import random
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    src = os.path.realpath(SRC)
    if not os.path.realpath(thetafuchs.__file__).startswith(src + os.sep):
        print(f"thetafuchs imported from {thetafuchs.__file__}, not {src}",
              file=sys.stderr)
        return 2

    def emit(obj):
        sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")

    emit({"setup_s": setup_s})
    if args.setup_only:
        return 0

    import items as timed
    import workloads
    from thetafuchs import fuchsian
    from thetafuchs.numerics import NumericsError

    inputs = workloads.Inputs(args.workload, args.seed)
    min_rounds = -(-200 // workloads.ROUND_SIZE[args.workload])
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        cache_before = tracing.cache_counts()

    clock = time.perf_counter_ns
    deadline = time.perf_counter() + args.seconds
    rounds = items = 0
    taus = []
    while rounds < min_rounds or time.perf_counter() < deadline:
        for kind, arg in inputs.round(rounds):
            err = None
            start = clock()
            try:
                if tracer is None:
                    answer = timed.run_item(kind, arg)
                else:
                    answer = tracer.item_span(items, kind,
                                              timed.run_item, kind, arg)
            except NumericsError as exc:
                answer, err = None, str(exc)
            ns = clock() - start
            emit({"kind": kind, "arg": enc(arg), "out": enc(answer),
                  "err": err, "ns": ns})
            if kind in ("fuchsian", "integrals"):
                taus.append(arg)
            items += 1
        rounds += 1

    if tracer is not None:
        cache_after = tracing.cache_counts()
        tracer.uninstall()
        delta = tuple(a - b for a, b in zip(cache_after, cache_before))
        layers = tracing.layer_metrics(tracer, items, delta)
        tracer.write(os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "results",
            f"trace-{args.workload}-seed{args.seed}.jsonl.gz"))
    else:
        layers = None
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    if taus:
        pick = random.Random(args.seed).sample(range(min(len(taus), 200)),
                                               JET_SUBSAMPLE)
        for i in sorted(pick):
            jet = fuchsian.x_burnside(taus[i], 3)
            emit({"jet_tau": enc(taus[i]), "derivs": enc(jet.d)})
    emit({"rounds": rounds, "items": items, "peak_rss_kb": peak_rss_kb,
          "layers": layers})
    return 0


if __name__ == "__main__":
    sys.exit(main())
