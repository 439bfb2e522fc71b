#!/usr/bin/env python3
"""Builds the end-to-end benchmark program and runs one workload.

Usage, from the root of the repository:

    python3 e2ebench/run.py --workload lenet-rns-128 --seed 1 --seconds 15 --trace 0

The program (e2e_bench.cpp) is compiled together with the library sources
under src/ into .bench_build/e2ebench (an incremental no-op once built).
Build output goes to standard error; the last line of standard output is
the program's JSON result. Traced runs (--trace 1) write their spans as
Chrome trace-event JSON to .bench_build/traces/<workload>-seed<N>.json.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("lenet-rns-128", "lenet-big-n12", "compile-zoo")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    build_dir = os.path.join(root, ".bench_build", "e2ebench")
    trace_dir = os.path.join(root, ".bench_build", "traces")

    def run_build(cmd):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("e2ebench: build step failed: " + " ".join(cmd))

    run_build(["cmake", "-S", bench_dir, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"])
    run_build(["cmake", "--build", build_dir, "--target", "e2e_bench",
               "-j", str(min(4, os.cpu_count() or 1))])

    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "e2e_bench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--decisions", os.path.join(bench_dir, "expected_decisions.tsv"),
           "--trace-out", os.path.join(
               trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
