#!/usr/bin/env python3
"""End-to-end benchmark of chiron.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the benchmark, and the chiron
library from ../src with it, as a Release build in .bench_build/perfbench,
runs the benchmark's self-tests, then runs one workload and passes its
output through. The last line of stdout is the JSON result; the exit code
is non-zero when the build, a self-test or any output check fails.

    python3 perfbench/run.py --selftest

only builds and runs the self-tests. The workloads and metrics are listed
in BENCHMARK.json at the root of the checkout; perfbench/README.md
explains them.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = [
    "train_blobs",
    "sweep_surrogate",
    "serve_1k",
    "serve_20k",
    "market_honest",
    "market_strategic",
]


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, what):
    """Runs a build step with its output on stderr, so stdout keeps only
    the benchmark's own lines."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(what + " failed (exit %d)" % proc.returncode)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("chiron sources not found in %s; run from a chiron checkout"
             % os.path.join(ROOT, "src"))
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                   "-DCMAKE_BUILD_TYPE=Release"], "configure")
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], "build")


def selftest():
    proc = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                          stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("self-tests failed", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1])
    ap.add_argument("--selftest", action="store_true",
                    help="only build and run the self-tests")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")

    build()
    selftest()
    if args.selftest:
        return 0

    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
