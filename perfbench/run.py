#!/usr/bin/env python3
"""Builds and runs the CYRUS end-to-end client benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload bulk|sync|stream --seed N \
        --seconds S --trace 0|1 [--scale tiny]

The first run configures and builds perfbench/ (and the library sources it
links) in Release mode into $CARGO_TARGET_DIR, or .bench_build when that is
unset; later runs only rebuild what changed. Build output goes to stderr,
so the last stdout line is the benchmark's JSON result. A traced run
(--trace 1) also writes its spans to <build dir>/spans/<workload>-<seed>.jsonl.
The exit status is the benchmark's: non-zero on a failed build, a failed
op or a wrong byte.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "cyrus_perfbench", "-j4"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build step failed: {' '.join(step)}")
    return os.path.join(build_dir, "cyrus_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["bulk", "sync", "stream"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scale", args.scale]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        command += ["--spans-out",
                    os.path.join(spans_dir, f"{args.workload}-{args.seed}.jsonl")]
    sys.stdout.flush()
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
