#!/usr/bin/env python3
"""Time-to-answer benchmark for converged raidrel reliability studies.

Run from the root of a raidrel checkout:

    python3 answer_bench/run.py --workload table3_cell --seed 1 \
        --seconds 30 --trace 0

The first run builds the library from the checkout's sources into
.bench_build/ (CMake, Release), installs it there, and builds the harness
in this directory against it; later runs only re-check the builds. Build
output goes to stderr. The harness's report goes to stdout, whose last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 answer_bench/run.py --self-test

builds the same way and runs the harness's fault-injection self-test.
"""

import argparse
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = ".bench_build"


def fail(message):
    print("answer_bench: " + message, file=sys.stderr)
    sys.exit(2)


def run_build_step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        fail("build step failed: " + " ".join(cmd))


def build(root):
    """Builds and installs the library, then the harness; returns its path."""
    build_root = os.path.join(root, BUILD_ROOT)
    lib_build = os.path.join(build_root, "raidrel")
    prefix = os.path.join(build_root, "prefix")
    bench_build = os.path.join(build_root, "answer_bench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(min(4, os.cpu_count() or 1))

    if not os.path.isfile(os.path.join(lib_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", root, "-B", lib_build] + generator + [
            "-DCMAKE_BUILD_TYPE=Release",
            "-DRAIDREL_BUILD_TESTS=OFF",
            "-DRAIDREL_BUILD_BENCH=OFF",
            "-DRAIDREL_BUILD_EXAMPLES=OFF",
        ])
    run_build_step(["cmake", "--build", lib_build, "--parallel", jobs])
    run_build_step(["cmake", "--install", lib_build, "--prefix", prefix])

    if not os.path.isfile(os.path.join(bench_build, "CMakeCache.txt")):
        run_build_step(["cmake", "-S", BENCH_DIR, "-B", bench_build] +
                       generator + [
            "-DCMAKE_BUILD_TYPE=Release",
            "-DCMAKE_PREFIX_PATH=" + prefix,
        ])
    run_build_step(["cmake", "--build", bench_build, "--parallel", jobs])
    return os.path.join(bench_build, "answer_bench")


def build_rev(root):
    """git revision of the checkout, or "unknown" outside a repository."""
    try:
        rev = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        fail("run from the root of a raidrel checkout "
             "(no CMakeLists.txt and src/ here)")

    harness = build(root)
    work_dir = os.path.join(root, BUILD_ROOT, "work")
    cmd = [harness, "--work-dir", work_dir]
    if args.self_test:
        cmd += ["--self-test"]
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--build-rev", build_rev(root)]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
