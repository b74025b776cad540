#!/usr/bin/env python3
"""Build the perfbench binary from source and run one benchmark workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run every
workload from one process. The binary is configured and built (Release)
under .bench_build/perfbench on first use; later runs rebuild only what
changed. Everything the binary prints is passed through; its last line is
one JSON object with the keys correct, attempted, failed and metrics. The
runner checks that object against BENCHMARK.json and exits non-zero,
without printing a result, when the build, the run or that check fails.
"""

import argparse
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
NAME = re.compile(r"[A-Za-z0-9_.-]+")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def workers():
    try:
        return max(1, min(4, len(os.sched_getaffinity(0))))
    except AttributeError:
        return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures (once) and builds the binary; stdout stays clean."""
    if not (ROOT / "src" / "exp" / "case.h").is_file():
        fail("the library sources (src/) are not in this checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not (BUILD / "CMakeCache.txt").is_file():
        command = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            command += ["-G", "Ninja"]
        step(command, "configure")
    step(["cmake", "--build", str(BUILD), "-j", str(workers())], "build")
    if not BINARY.is_file():
        fail("the build produced no perfbench binary")


def step(command, what):
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{what} timed out")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        fail(f"{what} failed")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if present."""
    spec = ROOT / "BENCHMARK.json"
    if not spec.is_file():
        return None
    with open(spec) as handle:
        bench = json.load(handle)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def check_result(line, workload, trace):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the result has the wrong keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    for name in result["metrics"]:
        if not NAME.fullmatch(name):
            fail(f"metric name {name!r} does not fit [A-Za-z0-9_.-]+")
    expected = expected_metrics(trace)
    if expected is not None and workload != "all":
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            fail(f"metrics {sorted(got)} do not match BENCHMARK.json "
                 f"{sorted(expected)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="test-sized inputs (the benchmark's own tests)")
    args = parser.parse_args()

    build()
    command = [str(BINARY), f"--workload={args.workload}",
               f"--seed={args.seed}", f"--seconds={args.seconds}",
               f"--trace={args.trace}"]
    if args.small:
        command.append("--small")
    if args.trace:
        spans = BUILD / f"spans-{args.workload}-{args.seed}.jsonl"
        command.append(f"--spans={spans}")
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("the run timed out")
    lines = done.stdout.rstrip("\n").splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout[-4000:])
        fail(f"perfbench exited with {done.returncode}")
    check_result(lines[-1], args.workload, args.trace)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
