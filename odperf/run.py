#!/usr/bin/env python3
"""Builds the odperf benchmark from source and runs one workload.

usage: python3 odperf/run.py --workload <fleet_contended|fleet_cached|goal_defended>
                             --seed N --seconds S --trace 0|1

Run from the repository root.  The first run configures and builds
odperf/CMakeLists.txt (the program's libraries from src/ plus the benchmark)
into .bench_build/odperf; later runs only check that the build is current.
Build output goes to stderr; the benchmark's own stdout passes through, and
its last line is the JSON result.  The exit code is non-zero when the build
or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "odperf")
OUT_DIR = os.path.join(ROOT, ".bench_build", "odperf-out")
BINARY = os.path.join(BUILD_DIR, "odperf")


def run(command, **kwargs):
    """Runs a command to completion; the child never outlives this call."""
    proc = subprocess.Popen(command, **kwargs)
    try:
        return proc.wait()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        rc = run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr, env=env)
        if rc != 0:
            return rc
    return run(["cmake", "--build", BUILD_DIR, "--target", "odperf", "-j", jobs],
               stdout=sys.stderr, env=env)


def main():
    try:
        rc = build()
    except OSError as error:
        print(f"odperf: cannot build: {error}", file=sys.stderr)
        return 1
    if rc != 0:
        print("odperf: build failed", file=sys.stderr)
        return 1
    os.makedirs(OUT_DIR, exist_ok=True)
    sys.stdout.flush()
    return run([BINARY, *sys.argv[1:], "--out-dir", OUT_DIR], cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
