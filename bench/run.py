"""Benchmark of solvquot: one workload per run, answers checked, metrics as JSON.

    python3 bench/run.py --workload epi_deep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; solvquot is imported from ./src.
Set-up (importing solvquot, parsing the sources, building the target
towers) is repeated SETUP_REPEATS times and its median reported.  Then
whole rounds of the workload's queries run until the next round would end
after ``--seconds``, always at least one.  Every time reported is scaled to
a reference speed of the host by the speed probes of ``speed.py``, which
run throughout set-up and rounds.  With ``--trace 1`` half the time
goes to untraced rounds and half to traced ones, and the per-layer figures
come from the traced rounds.  After the rounds, the answers of the first
round are checked against independent counts, and every later round must
have given the same answers.  The last line of stdout is the result object.
Exit status: 0 when every check passed, 1 when a check failed, 2 when the
library cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

from speed import Sampler

# single-threaded numpy, before anything imports it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5
MODULES = ("presentations", "groups", "cohomology", "counting", "subgrowth", "oracle")


class LibraryMissing(RuntimeError):
    pass


def import_library():
    """Import solvquot afresh from ./src (dropping any earlier import)."""
    for name in [m for m in sys.modules if m == "solvquot" or m.startswith("solvquot.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("solvquot")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC.resolve()):
        raise LibraryMissing("solvquot was imported from %s, not from %s" % (pkg.__file__, SRC))
    return SimpleNamespace(**{m: importlib.import_module("solvquot." + m) for m in MODULES})


def plain_call(_span, fn, *args):
    return fn(*args)


def set_up(workload_cls, seed, call=plain_call):
    """One set-up: import, parse, build.  Returns ((start, end), lib,
    workload, queries)."""
    t0 = time.perf_counter()
    lib = import_library()
    wl = workload_cls()
    queries = wl.build(lib, random.Random(seed), call)
    return (t0, time.perf_counter()), lib, wl, queries


def clear_caches(lib):
    """Each query starts as a fresh process would: with the Fox Jacobian
    cache empty."""
    clear = getattr(lib.presentations.symbolic_jacobian, "cache_clear", None)
    if clear is not None:
        clear()


def run_round(lib, queries, tracer=None):
    """One round: every query once.  Returns ((start, end) of each query,
    answers, number failed)."""
    spans, outs, failed = [], [], 0
    for q in queries:
        clear_caches(lib)
        if tracer is not None:
            tracer.top_layer, tracer.kmax, tracer.query = q.top_layer, q.kmax, q.span
        t0 = time.perf_counter()
        try:
            out = q.run() if tracer is None else tracer.call(q.span, q.run)
        except (ArithmeticError, RuntimeError, ValueError) as exc:
            print("query %s failed: %r" % (q.label, exc), file=sys.stderr)
            out = None
            failed += 1
        spans.append((t0, time.perf_counter()))
        outs.append(out)
    return spans, outs, failed


def run_rounds(lib, queries, seconds, tracer_factory=None):
    """Whole rounds until the next would end after ``seconds``; at least
    one.  Returns a list of (query spans, answers, failed, tracer) per
    round."""
    rounds = []
    start = time.perf_counter()
    while True:
        tracer = tracer_factory() if tracer_factory else None
        spans, outs, failed = run_round(lib, queries, tracer)
        if tracer is not None:
            tracer.unpatch()
        rounds.append((spans, outs, failed, tracer))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def timing_metrics(sampler, rounds):
    """wall_s is the sum over queries of each query's median scaled time
    across rounds; slowest_query_s the largest of those medians."""
    per_query = [statistics.median(sampler.scaled(*span) for span in spans)
                 for spans in zip(*(r[0] for r in rounds))]
    return sum(per_query), max(per_query)


def round_span(r):
    return r[0][0][0], r[0][-1][1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "solvquot" / "__init__.py").is_file():
        print("bench: no solvquot sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401  (imported once, outside the timed set-ups)

    from checks import CheckFailed
    from workloads import WORKLOADS, summary
    import layers

    if args.workload not in WORKLOADS:
        ap.error("unknown workload %r (choose from %s)" % (args.workload, ", ".join(WORKLOADS)))
    wcls = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)

    with Sampler() as sampler:
        try:
            if args.trace:
                setup_tracer = layers.new_tracer()
                setup_span, lib, wl, queries = set_up(wcls, args.seed, call=setup_tracer.call)
            else:
                setups = [set_up(wcls, args.seed) for _ in range(SETUP_REPEATS)]
                setup_span, lib, wl, queries = setups[-1]
                setup_spans = [s[0] for s in setups]
                del setups
        except (ImportError, LibraryMissing) as exc:
            print("bench: cannot import solvquot: %s" % exc, file=sys.stderr)
            return 2
        if args.trace:
            plain = run_rounds(lib, queries, args.seconds / 2)
            traced = run_rounds(lib, queries, args.seconds / 2,
                                lambda: layers.new_tracer(lib, patch=True))
            rounds = plain + traced
        else:
            rounds = run_rounds(lib, queries, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        metrics = layers.per_layer_metrics(
            setup_tracer, sampler.scale(*setup_span), traced,
            [sampler.scale(*round_span(r)) for r in traced],
            timing_metrics(sampler, traced)[0] - timing_metrics(sampler, plain)[0])
        traced[0][3].write(OUT / ("trace-%s-seed%d.jsonl.gz" % (args.workload, args.seed)),
                           {"workload": args.workload, "seed": args.seed, "round": "first traced"})
    else:
        wall_s, slowest = timing_metrics(sampler, rounds)
        setup_s = statistics.median(sampler.scaled(*span) for span in setup_spans)
        metrics = {
            "wall_s": metric(wall_s, "s"),
            "setup_s": metric(setup_s, "s"),
            "slowest_query_s": metric(slowest, "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
        }

    attempted = len(queries) * len(rounds)
    failed = sum(r[2] for r in rounds)
    correct = True
    try:
        first = rounds[0][1]
        ok = [i for i, out in enumerate(first) if out is not None]
        wl.check(lib, [queries[i] for i in ok], [first[i] for i in ok])
        for r in rounds[1:]:
            for q, a, b in zip(queries, first, r[1]):
                if a is not None and b is not None and summary(a) != summary(b):
                    raise CheckFailed("%s: answer changed between rounds" % q.label)
    except CheckFailed as exc:
        print("CHECK FAILED: %s" % exc, file=sys.stderr)
        correct = False

    for name, m in metrics.items():
        print("%-40s %14.6f %s" % (name, m["value"], m["unit"]))
    raw = [[b - a for a, b in r[0]] for r in rounds]
    print("rounds %d, queries per round %d, failed %d; unscaled seconds per round: %s" % (
        len(rounds), len(queries), failed, " ".join("%.3f" % sum(ts) for ts in raw)))
    print("speed probes %d, median %.6f s, scale %.4f" % (
        len(sampler.took), sampler.median_probe(), sampler.scale(sampler.at[0], sampler.at[-1])))
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    detail = {
        "result": result,
        "unscaled_round_seconds": [sum(ts) for ts in raw],
        "unscaled_query_seconds": {q.label: [ts[i] for ts in raw] for i, q in enumerate(queries)},
        "scaled_query_seconds": {q.label: [sampler.scaled(*r[0][i]) for r in rounds]
                                 for i, q in enumerate(queries)},
        "query_spans": [[list(span) for span in r[0]] for r in rounds],
        "probe_at": list(sampler.at),
        "probe_seconds": list(sampler.took),
    }
    (OUT / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
