#!/usr/bin/env python3
"""The repository benchmark: builds warp-bench, runs one workload, checks it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The first run configures and
builds perfbench/build (the warpc libraries from src/, warp-worker,
warp-traceview and warp-bench, RelWithDebInfo with assertions kept, as
the top-level build does); later runs rebuild incrementally.

Workloads (closed loops over seeded modules, min(4, nproc) threads,
worker processes or connections):
  small_fns_thread   thread engine, 24 small/tiny functions per module
  user_prog_process  process engine, the paper's 9-function user program
  daemon_edit_cache  in-process warpd with a memory cache; each request
                     edits one function of its connection's 6-function
                     module

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of a replay that times every layer call and writes its spans to
perfbench/out/trace-<workload>.json; the run fails unless warp-traceview
opens that file.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. The exit status is
non-zero when any output is wrong: an image that differs from an uncached
sequential compile, an engine that fell back or used the wrong backend,
a replay that differs from compileFunction, or work counts that differ
between two runs with the same seed.

The determinism check compares every run's work counts twice: with a
recount of the same seed in a second warp-bench process, and with the
record an earlier run of the same seed left under
perfbench/out/determinism/. Records are keyed by a hash of the sources
warp-bench is built from, so a changed compiler starts new records
instead of failing against the old ones.

Seeds: 1 is the default; 2027 is held out for confirming later claims.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

DEFAULT_SEED = 1
HELD_OUT_SEED = 2027
WORKLOADS = ("small_fns_thread", "user_prog_process", "daemon_edit_cache")
# Seconds the measured run and its recount may take together.
RUN_TIMEOUT_S = 170
# What warp-bench is built from: the code under test and the benchmark.
MEASURED_SOURCES = ("src", "tools/warp_worker.cpp", "perfbench/CMakeLists.txt",
                    "perfbench/bench")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(HERE, "build")
OUT = os.path.join(HERE, "out")
BIN = os.path.join(BUILD, "bin")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally. False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "warp-bench", "warp-worker", "warp-traceview"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


# Per-layer metrics that are counts of deterministic work: the traced
# run records them beside the reference counts every run records.
LAYER_COUNTS = (
    "w2.tokens", "w2.ast_nodes", "ir.instrs", "opt.sweeps", "opt.transforms",
    "opt.instrs_after", "opt.dataflow_iterations", "codegen.modulo_attempts",
    "codegen.recmii_work", "codegen.pipelined_ratio", "codegen.ii_over_mii",
    "codegen.list_attempts", "codegen.regalloc_work", "codegen.spills",
    "asmout.image_bytes", "driver.model_work", "parallel.result_bytes",
    "cache.entry_bytes")


def code_fingerprint():
    """A hash of every file warp-bench is built from."""
    digest = hashlib.sha256()
    for top in MEASURED_SOURCES:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode() + b"\0")
            with open(name, "rb") as f:
                digest.update(f.read() + b"\0")
    return digest.hexdigest()[:16]


def counts_of(doc):
    """The counts one seed must reproduce exactly: the reference counts,
    code_words_per_module and, in a traced run, the replayed layer counts."""
    counts = dict(doc["determinism"])
    counts["code_words_per_module"] = doc["end_to_end"]["code_words_per_module"]
    if doc.get("per_layer"):
        counts.update({k: doc["per_layer"][k] for k in LAYER_COUNTS})
    return counts


def differing(a, b):
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def same_as_recorded(name, counts):
    """Compares counts with the record called name, left by an earlier run
    of the same code, workload and seed, or makes that record. Returns the
    keys that differ."""
    path = os.path.join(OUT, "determinism", name + ".json")
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump(counts, f, indent=1, sort_keys=True)
        return []
    with open(path) as f:
        return differing(json.load(f), counts)


def check_determinism(doc, recount):
    """Two runs with one seed must give identical counts: this run and its
    recount in a second process, and this run and an earlier run of the
    same code."""
    counts = counts_of(doc)
    if recount is None or not recount["correct"]:
        return "the recount of this seed failed: %s" % (
            "; ".join(recount["failures"]) if recount else "no result")
    diff = differing(counts, counts_of(recount))
    if diff:
        return "counts differ from a recount in a second process: " + \
            ", ".join(diff)
    diff = same_as_recorded("%s-%d-trace%d-%s" % (
        doc["workload"], doc["seed"], doc["trace"], code_fingerprint()),
        counts)
    if diff:
        return "counts differ from an earlier run of this code and seed: " + \
            ", ".join(diff)
    return None


def run_bench(args, deadline, recount):
    """Runs warp-bench; returns its result document, or None."""
    cmd = [os.path.join(BIN, "warp-bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--recount", "1" if recount else "0",
           "--out", os.path.relpath(OUT, ROOT)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("warp-bench did not finish within %d s" % RUN_TIMEOUT_S)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        log("warp-bench failed with status %d" % proc.returncode)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_trace(doc):
    """The traced run's span file must open in warp-traceview."""
    path = os.path.join(ROOT, doc.get("trace_file", ""))
    if not doc.get("trace_file") or not os.path.exists(path):
        return "traced run wrote no span file"
    proc = subprocess.run([os.path.join(BIN, "warp-traceview"), path],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    if proc.returncode != 0 or "events:" not in proc.stdout:
        return "warp-traceview could not open %s: %s" % (
            doc["trace_file"], proc.stdout[-500:])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="input seed (default %d; %d is held out for "
                    "confirming claims)" % (DEFAULT_SEED, HELD_OUT_SEED))
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    if not build():
        return 1
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + RUN_TIMEOUT_S
    doc = run_bench(args, deadline, recount=False)
    if doc is None:
        return 1
    recount = run_bench(args, deadline, recount=True)

    failures = list(doc["failures"])
    failed = doc["failed"]
    checks = [check_determinism(doc, recount)]
    if args.trace:
        checks.append(check_trace(doc))
    attempted = doc["attempted"] + len(checks)
    for msg in checks:
        if msg:
            failures.append(msg)
            failed += 1
    correct = doc["correct"] and failed == 0

    measured = doc["per_layer"] if args.trace else doc["end_to_end"]
    conditions = dict(doc["conditions"])
    conditions.update({
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
    })
    print("workload %s  seed %d  trace %d" % (args.workload, args.seed,
                                             args.trace))
    print("conditions: " + json.dumps(conditions, sort_keys=True))
    rows = list(wanted)
    if not args.trace:
        # failed_frac is 0 on a healthy run, so it cannot be a gated
        # metric; it is printed here and carried by "attempted"/"failed".
        rows.append({"name": "failed_frac", "unit": "ratio"})
    for m in rows:
        print("  %-28s %16.6g %s" % (m["name"], measured[m["name"]], m["unit"]))
    for msg in failures[:20]:
        print("FAILED: " + msg)

    with open(os.path.join(OUT, "results-%s-%d-trace%d.json" % (
            args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"conditions": conditions, "metrics": measured,
                   "failures": failures, "determinism": doc["determinism"]},
                  f, indent=1, sort_keys=True)

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]],
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
