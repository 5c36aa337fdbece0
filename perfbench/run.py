#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout. Builds perfbench/ (CMake, Release) into
.bench_build/ when needed, runs the workload and passes its output through.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json; with
--trace 1 they are its per-layer metrics, and a Chrome trace-event span file
is written to .bench_out/. `--workload all` runs every workload in turn and
prints one combined result whose metric names carry the workload as prefix.

Exit codes: 0 when every correctness check passed, 1 when one failed, 2 when
the benchmark could not run (no sources, build failure, crash, timeout).
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["offline-ceb", "offline-job-tcnn", "serve-hot", "serve-fleet"]
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "cmake")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s; stop one that hangs well before that.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail("the limeqo sources (src/) are not in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so the result stays the last stdout
        # line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(cmd))


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it is there."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, parsed result)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(workload + " did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(out)
        fail("%s exited with code %d" % (workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail(workload + " printed no result line")
    expected = expected_metrics(trace)
    if expected is not None and sorted(expected) != sorted(result["metrics"]):
        fail("%s reported metrics %s, BENCHMARK.json declares %s"
             % (workload, sorted(result["metrics"]), sorted(expected)))
    return proc.returncode, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds within 1..60")

    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.workload != "all":
        code, result = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        print(json.dumps(result), flush=True)
        sys.exit(code)

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        _, result = run_workload(workload, args.seed, args.seconds,
                                 args.trace)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined), flush=True)
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
