#!/usr/bin/env python3
"""Builds and runs the STEP benchmark from the root of a source checkout.

    python3 stepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The build goes to $CARGO_TARGET_DIR/stepbench (default .bench_build/stepbench)
and traces to .../traces. Build output goes to stderr, so the last line of
stdout is the benchmark's result object.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "decomposer.h")):
        print("stepbench: no STEP sources next to this directory", file=sys.stderr)
        return 2
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build = os.path.join(build_root, "stepbench")
    traces = os.path.join(build, "traces")
    os.makedirs(traces, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (
        ["cmake", "-S", HERE, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build, "--target", "stepbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("stepbench: build failed", file=sys.stderr)
            return 2
    exe = os.path.join(build, "stepbench")
    return subprocess.run([exe, *sys.argv[1:], "--out", traces]).returncode


if __name__ == "__main__":
    sys.exit(main())
