#!/usr/bin/env python3
"""Build the serving benchmark from source and run one workload.

Usage (from the root of a checkout):

    python3 servebench/run.py --workload rag_long --seed 1 --seconds 33 --trace 0

The a3 library, the shard_worker tool and the servebench binary are
configured and built with CMake into the build directory named by
CARGO_TARGET_DIR (default .bench_build). Build output goes to stderr;
stdout carries only the binary's output, whose last line is the JSON
result. Every argument is passed to the binary; see servebench/README.md.
"""

import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    compile_ = ["cmake", "--build", build_dir, "--target", "servebench",
                "-j", jobs]
    for step in (configure, compile_):
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                                stderr=sys.stderr)
        if result.returncode != 0:
            sys.stderr.write("servebench: build step failed: %s\n"
                             % " ".join(step))
            return False
    return True


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "servebench")
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
