#!/usr/bin/env python3
"""Builds and runs the rlz end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from source on
first use into .bench_build/perfbench (a CMake package of its own that
builds ../src), and its scratch files (traces, the durable store, the
full result JSON) go to .bench_out/. Both are inside the checkout.

The last line of standard output is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. Every other metric, sample count and
the provenance of the run are printed above it and saved under
.bench_out/. Exit status: 0 when every response was correct, 1 when one
was not (the result line still prints, with "correct": false), 2 when the
benchmark could not build or run (no result line).
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "rlz_perfbench")
# Whole invocation must end within 180 s (900 s when it builds).
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no rlz sources at src/ next to perfbench/; run from a checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            # Build chatter goes to stderr: stdout ends with the result.
            if subprocess.run(step, stdout=sys.stderr,
                              stderr=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(step))


def source_id():
    """The git commit if this is a work tree, else a digest of src/."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2 and
                os.path.realpath(lines[0]) == os.path.realpath(ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def load_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    started = time.monotonic()
    build()
    os.makedirs(OUT_DIR, exist_ok=True)

    if args.self_test:
        sys.exit(subprocess.run([BINARY, "--self-test", "--out-dir",
                                 OUT_DIR]).returncode)

    definition = load_definition()
    names = [w["name"] for w in definition["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of " + ", ".join(names))
    seconds = args.seconds if args.seconds else definition["run_seconds"]
    command = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(seconds), "--trace", str(args.trace),
               "--out-dir", OUT_DIR, "--commit", source_id()]
    remaining = RUN_TIMEOUT_S - (time.monotonic() - started)
    if remaining < seconds:
        remaining = RUN_TIMEOUT_S  # the build ran; it has its own allowance
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish in %.0f s" % remaining)

    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if proc.returncode not in (0, 1) or result is None:
        fail("benchmark exited with status %d" % proc.returncode)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, "result-" + tag + ".json"), "w") as f:
        json.dump(result, f, indent=1, sort_keys=True)

    wanted = definition["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail("metric %s missing from the %s run" %
                 (spec["name"], args.workload))
        if got["unit"] != spec["unit"]:
            fail("metric %s has unit %s, BENCHMARK.json says %s" %
                 (spec["name"], got["unit"], spec["unit"]))
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
