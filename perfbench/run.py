#!/usr/bin/env python3
"""Repository benchmark: builds cfpm_perfbench from source and runs one workload.

    python3 perfbench/run.py --workload build|estimate|serve|chip \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. The first run configures and compiles the
benchmark (Release, metrics and trace spans compiled in) under
.bench_build/; later runs only re-check the build. Human-readable lines go
first; the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, measured untraced. With
--trace 1 they are the per-layer ones: self times from one Chrome trace of a
traced set-up and traced passes (see attribute()), plus counts.
"""
import argparse
import bisect
import heapq
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("build", "estimate", "serve", "chip")
RUN_TIMEOUT_S = 170
# Busy threads per workload (chip runs a 2-lane pool; serve's client and
# server threads take turns). The run is pinned to that many CPUs: on a
# shared host, cross-CPU wake-ups and migrations spread the serve round
# trips about four times as wide as in a pinned run.
BUSY_THREADS = {"chip": 2}

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "mvec_per_s": "Mvec/s",
    "peak_rss_mb": "MB",
    "are_mean_pct": "%",
    "are_max_pct": "%",
    "bound_slack": "ratio",
    "bound_tightness": "ratio",
}

# Span name -> the layer its self time is charged to. Spans named bench.*
# are the benchmark's own; the rest are the program's. The self time of
# bench.service.evaluate (service::evaluate minus the program's
# service.evaluate span) is the Markov generation inside service::evaluate.
SELF_LAYER = {
    "netlist.gen": "netlist.gen_s",
    "stats.gen": "stats.gen_s",
    "bench.service.evaluate": "stats.gen_s",
    "sim.golden": "sim.golden_s",
    "power.build": "power.build_self_s",
    "dd.sift": "dd.sift_s",
    "dd.approx": "dd.approx_s",
    "power.trace": "power.trace_s",
    "service.build": "service.build_self_s",
    "service.evaluate": "service.evaluate_self_s",
    "serve.rtt": "serve.transport_s",
    "serve.eval_request": "serve.eval_request_self_s",
    "serve.build_request": "serve.build_request_self_s",
    "serve.build": "serve.admit_s",
    "chip.build": "chip.build_self_s",
    "chip.eval": "chip.eval_s",
    "bench.setup": "unattributed_s",
    "bench.pass": "unattributed_s",
    "bench.service.build": "unattributed_s",
}
OTHER_LAYER = "other_spans_s"  # self time of spans this table does not name

# Inclusive (whole-span) times, charged per span name.
INCLUSIVE = {
    "bench.service.build": "power.build_s",
    "serve.rtt": "serve.rtt_s",
    "serve.eval_request": "serve.eval_request_s",
    "serve.build": "serve.build_s",
    "chip.build": "chip.build_s",
}

COUNTS = {
    "dd.cache_lookups": "count",
    "dd.cache_hit_rate": "ratio",
    "dd.gc_runs": "count",
    "dd.peak_live_nodes": "count",
    "dd.node_alloc": "count",
    "power.reorder_runs": "count",
    "power.approximations": "count",
    "power.model_nodes": "count",
    "power.degraded_builds": "count",
    "serve.cache_hit": "count",
    "serve.cache_miss": "count",
    "serve.builds": "count",
    "serve.registry_models": "count",
    "stats.bits": "count",
    "chip.instance_evals": "count",
    "chip.chunks": "count",
}


def per_layer_units():
    units = {}
    for name in list(SELF_LAYER.values()) + list(INCLUSIVE.values()):
        units[name] = "s"
    units[OTHER_LAYER] = "s"
    for name in ("trace.setup_s", "trace.pass_s", "trace.overhead_s"):
        units[name] = "s"
    units.update(COUNTS)
    return units


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds cfpm_perfbench; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no cfpm sources under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "cfpm_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(BUILD_DIR, "cfpm_perfbench")


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def load_events(path):
    """Chrome trace "X" events as (start_s, end_s, name, order), by start."""
    with open(path) as f:
        doc = json.load(f)
    events = []
    for order, e in enumerate(doc["traceEvents"]):
        start = e["ts"] * 1e-6
        events.append((start, start + e["dur"] * 1e-6, e["name"], order))
    return sorted(events)


def attribute(events, lo, hi):
    """Self time per span name over the window [lo, hi).

    `events` are sorted by start, and every span lies inside the window
    whose tracing recorded it. Every instant of the window is charged to
    exactly one span: the active span that started last, on any thread.
    Within a thread that is the innermost span; across threads it follows
    the causal chain (a client round trip, then the server's request span,
    then the build job it starts), so the self times sum to the window
    length.
    """
    live = events[bisect.bisect_left(events, (lo,)):
                  bisect.bisect_left(events, (hi,))]
    points = sorted({lo, hi} | {min(max(e[0], lo), hi) for e in live}
                    | {min(max(e[1], lo), hi) for e in live})
    own = defaultdict(float)
    heap = []
    i = 0
    for a, b in zip(points, points[1:]):
        while i < len(live) and max(live[i][0], lo) <= a:
            e = live[i]
            # Latest start first; on equal (truncated) starts the shorter,
            # earlier-recorded span is the inner one.
            heapq.heappush(heap, (-e[0], e[1], e[3], e[2]))
            i += 1
        while heap and heap[0][1] <= a:
            heapq.heappop(heap)
        own[heap[0][3] if heap else "(none)"] += b - a
    return own


def per_layer_metrics(raw, events):
    """Per-layer times (traced set-up plus the mean traced pass) and counts."""
    setups = [e for e in events if e[2] == "bench.setup"]
    passes = [e for e in events if e[2] == "bench.pass"]
    if len(setups) != 1 or not passes:
        raise RuntimeError("trace lacks the bench.setup/bench.pass windows")
    phases = {"setup": ([setups[0]], 1.0), "pass": (passes, float(len(passes)))}
    tables = {}
    for phase, (windows, n) in phases.items():
        table = defaultdict(float)
        for w in windows:
            for name, secs in attribute(events, w[0], w[1]).items():
                table[name] += secs / n
        tables[phase] = (table, sum(w[1] - w[0] for w in windows) / n)

    values = {name: 0.0 for name in per_layer_units()}
    for table, _ in tables.values():
        for span, secs in table.items():
            values[SELF_LAYER.get(span, OTHER_LAYER)] += secs
    setup = setups[0]
    for e in events:
        if e[2] in INCLUSIVE:
            in_setup = setup[0] <= e[0] < setup[1]
            values[INCLUSIVE[e[2]]] += (e[1] - e[0]) / (1.0 if in_setup
                                                        else len(passes))
    values["trace.setup_s"] = tables["setup"][1]
    values["trace.pass_s"] = tables["pass"][1]
    values["trace.overhead_s"] = (statistics.mean(raw["traced_pass_s"]) -
                                  statistics.mean(raw["pass_s"]))
    for name in COUNTS:
        values[name] = float(raw["counts"].get(name, 0.0))
    return values, tables


def print_attribution(workload, tables, values):
    for phase in ("setup", "pass"):
        table, total = tables[phase]
        layers = defaultdict(float)
        for span, secs in table.items():
            layers[SELF_LAYER.get(span, OTHER_LAYER + ":" + span)] += secs
        print("# attribution %s %s (traced, %.6f s): layer self time, share"
              % (workload, phase, total))
        named = sorted((k for k in layers if k != "unattributed_s"),
                       key=lambda k: -layers[k])
        for name in named + ["unattributed_s"]:
            secs = layers.get(name, 0.0)
            print("#   %-28s %12.6f s %6.1f%%"
                  % (name, secs, 100.0 * secs / total if total else 0.0))
        print("#   %-28s %12.6f s (sum of the lines above)"
              % ("total", sum(layers.values())))
    print("# tracing overhead: traced pass_s - untraced pass_s = %.6f s"
          % values["trace.overhead_s"])
    pass_table = tables["pass"][0]
    pass_total = tables["pass"][1]
    if workload == "estimate":
        share = 100.0 * sum(s for k, s in pass_table.items()
                            if SELF_LAYER.get(k) == "stats.gen_s") / pass_total
        print("# prediction: stats.gen_s ~88%% of an estimate op; measured %.1f%%"
              % share)
    if workload == "build":
        layers = defaultdict(float)
        for span, secs in pass_table.items():
            layers[SELF_LAYER.get(span, OTHER_LAYER)] += secs
        top = max((k for k in layers if k != "unattributed_s"),
                  key=lambda k: layers[k])
        print("# prediction: dd.sift_s is the largest build self time; "
              "measured largest %s (%.1f%%), dd.sift_s %.1f%%"
              % (top, 100.0 * layers[top] / pass_total,
                 100.0 * layers["dd.sift_s"] / pass_total))


def end_to_end_metrics(raw):
    ops = raw["op_ms"]
    values = {
        "setup_s": statistics.median(raw["setup_s"]),
        "pass_s": statistics.median(raw["pass_s"]),
        "op_p50_ms": percentile(ops, 50),
        "op_p90_ms": percentile(ops, 90),
        "mvec_per_s": raw["transitions"] / sum(raw["pass_s"]) / 1e6,
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    values.update(raw["accuracy"])
    print("# %d op latencies over %d passes; %d set-ups"
          % (len(ops), len(raw["pass_s"]), len(raw["setup_s"])))
    return values


def main():
    sys.dont_write_bytecode = True
    # SIGTERM unwinds like Ctrl-C, so the child is stopped and the run
    # directory removed.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test sizes (not for measurement)")
    args = ap.parse_args()

    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("perfbench: build failed: %s" % e)
        return 1

    work = os.path.join(ROOT, ".bench_build", "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    try:
        out = os.path.join(work, "raw.json")
        trace_out = os.path.join(work, "trace.json")
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed % 2**64),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--out", out, "--trace-out", trace_out,
               "--work-dir", os.path.relpath(work, ROOT)]
        if args.tiny:
            cmd.append("--tiny")
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, cpus[-BUSY_THREADS.get(args.workload, 1):])
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            log("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
            return 1
        finally:
            if proc.poll() is None:  # timeout or SIGTERM: stop the child
                proc.kill()
                proc.wait()
        sys.stdout.write(stdout)
        if proc.returncode != 0:
            log("perfbench: cfpm_perfbench exited %d" % proc.returncode)
            return 1
        with open(out) as f:
            raw = json.load(f)

        if args.trace:
            values, tables = per_layer_metrics(raw, load_events(trace_out))
            print_attribution(args.workload, tables, values)
            units = per_layer_units()
        else:
            values = end_to_end_metrics(raw)
            units = END_TO_END
        for name in sorted(units):
            print("# %-28s %.10g %s" % (name, values[name], units[name]))
        result = {
            "correct": raw["failed"] == 0 and raw["attempted"] >= 1,
            "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
