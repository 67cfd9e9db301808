#!/usr/bin/env python3
"""Build and run the sparts end-to-end benchmark (perfbench).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/ (and the sparts libraries
under src/) in Release mode into .bench_build/perfbench, then runs one
workload.  The benchmark's report goes to stdout; its last line is the JSON
result.  Build output goes to stderr.  Exits nonzero, without a result,
when the build fails or a SPARTS_* environment variable is set.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    tainted = sorted(k for k in os.environ if k.startswith("SPARTS_"))
    if tainted:
        sys.exit("perfbench: unset " + ", ".join(tainted) +
                 " (they select a different program)")
    build()
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
