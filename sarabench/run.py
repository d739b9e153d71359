#!/usr/bin/env python3
"""Build and run the SARA repository benchmark.

Usage, from the root of the repository:

    python3 sarabench/run.py --workload sim_steady|compile_cold|serve_warm \
        --seed N --seconds S --trace 0|1

The first run configures and builds `sarabench` (the SARA libraries from
src/ plus this directory) into .bench_build/sarabench as a Release build;
later runs rebuild only what changed. Build output goes to stderr, so the
benchmark's result stays the last line of stdout. Spans of traced runs and
the in-process daemon's socket live under .bench_build/sarabench/out.

Exit codes: those of the benchmark (0 result, 1 failure, 2 usage), or 1
when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(build_root, "sarabench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build, "--target", "sarabench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            print(f"sarabench: cannot run {cmd[0]}: {e}", file=sys.stderr)
            return 1
        if done.returncode != 0:
            print("sarabench: build failed", file=sys.stderr)
            return 1
    # Relative, so the daemon's socket path stays within the 108-byte
    # limit of a Unix socket address however deep the checkout sits.
    out = os.path.relpath(os.path.join(build, "out"))
    binary = os.path.join(build, "sarabench")
    sys.stdout.flush()
    return subprocess.run([binary, *sys.argv[1:], "--out-dir", out]).returncode


if __name__ == "__main__":
    sys.exit(main())
