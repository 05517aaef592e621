#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload paper-heavy --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds
`.bench_build/` (Release: optimised, assertions off); later calls rebuild only
what changed. The driver's stdout is passed through unchanged: its last line
is the result object, `{"correct", "attempted", "failed", "metrics"}`, with the
end-to-end metrics (`--trace 0`) or the per-layer ones (`--trace 1`). Build
output goes to stderr. Exits non-zero, with no result, when the arguments are
bad, the build fails or the driver fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "unit_perf")
WORKLOADS = ("paper-heavy", "stream-session", "shard-write")
RUN_TIMEOUT_S = 170


def non_negative(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return value


def seconds(text):
    value = int(text)
    if not 1 <= value <= 120:
        raise argparse.ArgumentTypeError(f"{text} is outside [1, 120]")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=non_negative, default=42)
    parser.add_argument("--seconds", type=seconds, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def build():
    """Configures and builds the driver; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", SOURCE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    build_cmd = ["cmake", "--build", BUILD, "--target", "unit_perf",
                 "-j", jobs]
    for step in (configure, build_cmd):
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def commit():
    """The checkout's git commit, or "unknown" outside a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def main(argv):
    args = parse_args(argv)
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [DRIVER, f"workload={args.workload}", f"seed={args.seed}",
           f"seconds={args.seconds}", f"trace={args.trace}",
           f"commit={commit()}"]
    try:
        result = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: driver exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
