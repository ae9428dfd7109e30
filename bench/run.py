"""Run one workload of the lie2coh benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout, with ``src`` on the path and
nothing installed.  Set-up (import, input generation or loading,
warm-up) runs SETUP_REPEATS times and ``setup_s`` is its median.  Then
whole passes over the workload's fixed operation list repeat while the
next pass is expected to end within S seconds (at least one pass).  The
outputs are checked after the timed passes.  The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones (see tracing.py) plus ``trace.overhead_s``.  The result
and, for traced runs, the spans are also written under bench/out/.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MODULES = ("numeric", "liealg", "lie2", "tworep", "lattice", "ext",
           "samples", "grp", "cli")
WORKLOADS = {"cohomology-ladder": "ladder",
             "random-contexts": "contexts",
             "structure-validate": "structure",
             "group-checks": "groups"}
SETUP_REPEATS = 5


class BenchError(Exception):
    pass


def import_lib():
    """Import the library afresh from the checkout's src directory."""
    for name in [m for m in sys.modules
                 if m == "lie2coh" or m.startswith("lie2coh.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = types.SimpleNamespace()
    for name in MODULES:
        setattr(lib, name, importlib.import_module("lie2coh." + name))
    origin = os.path.dirname(os.path.abspath(lib.numeric.__file__))
    if origin != os.path.join(SRC, "lie2coh"):
        raise BenchError("lie2coh imported from %s, not from %s"
                         % (origin, SRC))
    return lib


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def percentile_ms(latencies, passes, q, min_ops):
    """The q-quantile of one operation's latency, in ms: nearest rank over
    the operations of each pass, median over passes.  A pass with fewer
    than ``min_ops`` operations has no such quantile (40 for the median,
    100 for the 90th percentile, so that ten lie beyond it); there the
    whole pass is the operation.  A run holds far fewer than ``min_ops``
    such passes, so only their median is defined, and it is taken for
    every q: the slowest of a few passes follows the machine's worst
    moment, not the program."""
    if len(latencies[0]) < min_ops:
        return 1000 * statistics.median(passes)
    return 1000 * statistics.median(nearest_rank(lat, q) for lat in latencies)


def run_pass(ops):
    """Time each operation and the whole pass.  Each output is the
    operation's return value with what it printed, or None if it raised;
    an exception fails only its operation."""
    latencies, outputs, errors = [], [], []
    start = time.perf_counter()
    for label, op in ops:
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                outputs.append((op(), sink.getvalue()))
        except Exception:
            outputs.append(None)
            errors.append("%s: %s" % (label, traceback.format_exc(limit=3)))
        latencies.append(time.perf_counter() - t0)
    return time.perf_counter() - start, latencies, outputs, errors


def set_up(workload, seed, tracer):
    """SETUP_REPEATS set-ups; returns the last one's library and inputs
    with the time of each."""
    times = []
    for k in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        lib = import_lib()
        if tracer:
            tracer.begin("setup", k)
            tracer.install(lib)
        with contextlib.redirect_stdout(io.StringIO()):
            state = workload.setup(lib, seed)
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.uninstall()
    return lib, state, times


def measure(lib, ops, seconds, tracer):
    """Whole passes while the next one is expected to end within
    ``seconds``; with a tracer every second pass is traced and at least
    one is.  Only the first pass's outputs are kept; each later pass is
    compared with them as it ends, so memory does not grow with the
    number of passes.  Returns (untraced pass times, traced pass times,
    operation latencies per pass, first outputs, labels of operations
    whose output changed, errors)."""
    passes, traced_passes, latencies, changed, errors = [], [], [], [], []
    first = None
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) > len(traced_passes)
        if traced:
            tracer.begin("pass", len(latencies))
            tracer.install(lib)
        gc.collect()
        pass_s, lat, out, err = run_pass(ops)
        if traced:
            tracer.uninstall()
        (traced_passes if traced else passes).append(pass_s)
        latencies.append(lat)
        errors.extend(err)
        if first is None:
            first = out
        else:
            changed.extend(label for (label, _), a, b in zip(ops, first, out)
                           if a != b)
        elapsed = time.perf_counter() - started
        typical = statistics.median(passes + traced_passes)
        if (tracer is None or traced_passes) and \
                elapsed + typical > seconds:
            return passes, traced_passes, latencies, first, changed, errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lie2coh", "__init__.py")):
        print("bench: no lie2coh sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workload = importlib.import_module(WORKLOADS[args.workload])
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    try:
        lib, state, setup_times = set_up(workload, args.seed, tracer)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    ops = workload.operations(lib, state)
    passes, traced_passes, latencies, first, changed, errors = measure(
        lib, ops, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = workload.check(lib, state, first) + [
        "%s: output differs between passes" % label for label in changed]

    print("bench: passes %s s, set-ups %s s"
          % (" ".join("%.3f" % t for t in passes + traced_passes),
             " ".join("%.3f" % t for t in setup_times)), file=sys.stderr)
    for line in errors + failures:
        print("bench: FAIL %s" % line, file=sys.stderr)
    if tracer:
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = metric(
            statistics.median(traced_passes) - statistics.median(passes), "s")
    else:
        metrics = {
            "pass_s": metric(statistics.median(passes), "s"),
            "setup_s": metric(statistics.median(setup_times), "s"),
            "peak_rss_mb": metric(peak_rss_mb, "MB"),
            "op_p50_ms": metric(
                percentile_ms(latencies, passes, 0.5, 40), "ms"),
            "op_p90_ms": metric(
                percentile_ms(latencies, passes, 0.9, 100), "ms"),
        }
    result = {"correct": not failures,
              "attempted": len(ops) * len(latencies),
              "failed": len(errors), "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d" % (args.workload, args.seed,
                                                    args.trace))
    with open(stem + ".result.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
