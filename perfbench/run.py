#!/usr/bin/env python3
"""Builds and runs dbscore's end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload sql_paged --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the dbscore libraries from src/) into
.bench_build/ at the repository root, runs one workload, and passes the
benchmark's output through: report text, then one JSON result line.
Page files live in a scratch directory under .bench_tmp/ that is removed
when the run ends.
"""
import argparse
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
WORKLOADS = ("sql_paged", "sql_deep", "serve_stream", "fleet_rewarm")
RUN_TIMEOUT_S = 170


def log(message):
    print("run.py: " + message, file=sys.stderr, flush=True)


def build(env):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "e2e_bench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no dbscore sources at %s/src; run from a full checkout" % ROOT)
        return 2
    # Compilers and the benchmark keep their temporary files in the
    # checkout too.
    os.makedirs(TMP_ROOT, exist_ok=True)
    env = dict(os.environ, TMPDIR=TMP_ROOT)
    if not build(env):
        log("build failed")
        return 2

    scratch = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    command = [os.path.join(BUILD_DIR, "e2e_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--tmp-dir", scratch]
    try:
        return subprocess.run(command, env=env,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
