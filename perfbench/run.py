#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <cli_configs|sweep_dse|server_mixed>
        --seed <n> --seconds <s> --trace <0|1>

Builds the McPAT libraries, the CLI and the benchmark program from the
sources in this checkout (an optimized build under .bench_build/), then
runs one measurement of one workload.  The program's human-readable lines
go to stdout, and its last line is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".  Exits non-zero without
a result when the sources are missing or the build or run fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("cli_configs", "sweep_dse", "server_mixed")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no McPAT sources next to perfbench/ (expected src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "-j", jobs, "--target",
         "perfbench_run", "mcpat_cli"],
    ]
    for step in steps:
        # Build logs go to stderr so stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    build()
    workdir = os.path.join(ROOT, ".bench_build", "work",
                           "%s-%d" % (args.workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [
        os.path.join(BUILD, "perfbench_run"),
        "--workload", args.workload,
        "--seed", str(args.seed & 0xFFFFFFFFFFFFFFFF),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--mcpat", os.path.join(BUILD, "mcpat", "mcpat"),
        "--workdir", workdir,
    ]
    sys.stdout.flush()
    try:
        code = subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail("the run did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if code != 0:
        fail("the benchmark program exited with status %d" % code)


if __name__ == "__main__":
    main()
