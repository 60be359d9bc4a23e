#!/usr/bin/env python3
"""Builds and runs the layered end-to-end benchmark.

    python3 bench_e2e/run.py --workload paper_suite --seed 1 --seconds 30 \
        --trace 0

Run from the repository root. The first call configures and builds the
engine, xqc_httpd and xqc_bench (Release) under $CARGO_TARGET_DIR, or
.bench_build when it is unset; later calls rebuild incrementally. Build
output goes to stderr; xqc_bench's last line of stdout is the JSON result.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_suite", "store_churn")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="test hook: one reference output is made wrong")
    args = ap.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    for needed in ("src/engine/engine.h", "examples/xqc_httpd.cc"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit(f"bench_e2e: {needed} not found; run from a full "
                     "checkout of the repository")

    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR",
                                              ".bench_build"))
    cmake_dir = os.path.join(build, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", here, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j4", "--target",
                    "xqc_bench", "xqc_httpd"],
                   stdout=sys.stderr, check=True)

    cmd = [os.path.join(cmake_dir, "xqc_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--httpd", os.path.join(cmake_dir, "xqc_httpd"),
           "--workdir", os.path.join(build, "work",
                                     f"{args.workload}-{os.getpid()}")]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
