#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload cloud_week --seed 20151028 \\
        --seconds 20 --trace 0

Builds perfbench/CMakeLists.txt into .bench_build/perfbench (the first call
in a checkout compiles the simulator libraries), runs one perfbench process
for the workload, reduces its raw samples with benchstats and prints one
JSON line: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
the end-to-end metrics, --trace 1 the per-layer ones. See
perfbench/README.md for the workloads and what each metric should move.

Fingerprints and work counts are recorded per (binary, workload, seed) under
.bench_build/perfbench/records; a later run of the same build that
disagrees with the record is reported as incorrect.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import benchstats  # noqa: E402  (after the bytecode switch)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("cloud_week", "odr_week", "checkpoint_week")
# A measuring process must end within 180 s; leave room for the no-op
# rebuild check and the reduction.
RUN_DEADLINE_S = 170


def seed_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or int(text) >= 2**64:
        raise argparse.ArgumentTypeError(
            f"malformed seed {text!r}: need a decimal integer in [0, 2^64)")
    return int(text)


def seconds_arg(text):
    if not re.fullmatch(r"[0-9]+", text) or not 1 <= int(text) <= 60:
        raise argparse.ArgumentTypeError(
            f"malformed --seconds {text!r}: need a whole number in [1, 60]")
    return int(text)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=seed_arg)
    p.add_argument("--seconds", required=True, type=seconds_arg)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("the simulator sources (src/) are not beside perfbench/; "
            "run from a full checkout")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = (
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench", "-j", jobs],
    )
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                log.close()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                die(f"build step failed: {' '.join(step)} (log: {log_path})")


def measure(args, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"{args.workload} did not finish within {RUN_DEADLINE_S} s")
    if proc.returncode != 0:
        die(f"perfbench exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("perfbench printed no result")
    return json.loads(lines[-1])


def binary_digest():
    h = hashlib.sha256()
    with open(BINARY, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_record(args, raw):
    """Holds this run's fingerprints and counts to earlier runs of the same
    build and seed; returns the disagreeing keys."""
    directory = os.path.join(BUILD_DIR, "records", binary_digest())
    path = os.path.join(directory, f"{args.workload}-{args.seed}.json")
    try:
        with open(path) as f:
            recorded = json.load(f)
    except (OSError, ValueError):
        recorded = {}
    observed = benchstats.recorded_items(raw)
    bad = benchstats.disagreements(recorded, observed)
    if not bad:
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as f:
            json.dump({**recorded, **observed}, f, sort_keys=True)
        os.replace(tmp, path)
    return bad


def main(argv):
    args = parse_args(argv)
    build()
    raw = measure(args, time.monotonic() + RUN_DEADLINE_S)

    problems = list(raw["failures"])
    problems += [f"{k} differs from an earlier run of this build"
                 for k in check_record(args, raw)]
    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    attempted, failed = benchstats.attempted_failed(raw)
    if problems:
        failed = attempted if failed == 0 else failed

    try:
        if args.trace:
            values, units = benchstats.per_layer(raw), benchstats.PER_LAYER_UNITS
        else:
            values, units = benchstats.end_to_end(raw), benchstats.END_TO_END_UNITS
    except (KeyError, ValueError, ZeroDivisionError,
            statistics.StatisticsError) as e:
        die(f"cannot reduce the samples: {e!r}; checks: {problems}")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
