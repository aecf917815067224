#!/usr/bin/env python3
"""Build and run the bpsim end-to-end benchmark.

    python3 perfbench/run.py --workload sweep|serve_hot|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds perfbench/ (the
model and service libraries, campaign_server and the perfbench program,
all from this checkout's sources) into .bench_build/perfbench, then
runs one workload. The last stdout line is the result JSON;
everything else goes to stderr or is a '#' line. Exits non-zero, with
no result line, when the sources are missing, the build fails or the
run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKDIR = os.path.join(ROOT, ".bench_build", "run")
RUN_TIMEOUT_S = 170


def build():
    """Configure (once) and build; build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.stderr.write("perfbench: no bpsim sources next to perfbench/\n")
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", BUILD, "-j", "4"],
                           stdout=sys.stderr, stderr=sys.stderr) == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 3
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", WORKDIR]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 4
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(l for l in lines if l.startswith("#")))
        sys.stderr.write("perfbench: run failed (exit %d)\n" % proc.returncode)
        return proc.returncode or 5
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
