#!/usr/bin/env python3
"""Runs perfbench on a parent revision and on the working tree, in pairs.

Run from the repository root:

    python3 scripts/perf_pairs.py --parent REV --workload bulk|sync|stream \
        --pairs N [--seed S] [--seconds T] [--work-dir DIR] [--trace]

REV is exported with `git archive` into the work directory (a temporary
one unless --work-dir is given) and built there; the working tree is built
from the repository itself. Each side builds into its own CARGO_TARGET_DIR
under the work directory, so neither rebuilds the other's objects, and a
kept --work-dir makes later runs incremental. The pairs alternate which
side runs first, so drift in the machine's load falls on both sides alike.

Prints one JSON line: for each end-to-end metric of BENCHMARK.json, the
parent's and the change's median, the parent's interquartile range, and
how many pairs the change won (strictly better in the metric's direction),
plus the op counts each side attempted and failed. With --trace the runs
are traced, and the line adds the same summary for every per-layer metric
and, from each run's span log, for the median wall time of each client op
kind ("op_us.put", ...). Only perfbench's output is read; nothing under
perfbench/ is changed. Exits non-zero when a run fails to build, fails an
op or reads a wrong byte.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def export_revision(rev, dest):
    """Writes the tree of `rev` into `dest` unless it already holds it, so
    that a kept work directory does not rebuild the parent."""
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
                            stdout=subprocess.PIPE, text=True)
    if commit.returncode != 0:
        sys.exit(f"perf_pairs: unknown revision {rev}")
    stamp = os.path.join(dest, ".perf_pairs_commit")
    if os.path.isfile(stamp) and open(stamp).read() == commit.stdout:
        return
    if os.path.isdir(dest):
        shutil.rmtree(dest)
    os.makedirs(dest)
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", "--format=tar", rev],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    if archive.wait() != 0:
        sys.exit(f"perf_pairs: git archive {rev} failed")
    with open(stamp, "w") as f:
        f.write(commit.stdout)


def run_once(tree, build_dir, args):
    """One perfbench run; returns its JSON result."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0"]
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: perfbench failed in {tree} (exit {done.returncode})")
    result = json.loads(lines[-1])
    if args.trace:
        # run.py writes a traced run's spans here; keep each client op
        # kind's median wall time beside the metrics.
        spans = os.path.join(build_dir, "spans", f"{args.workload}-{args.seed}.jsonl")
        durations = {}
        with open(spans) as f:
            for line in f:
                span = json.loads(line)
                if span["layer"] == "client":
                    durations.setdefault(span["name"], []).append(span["dur_us"])
        for name, values in durations.items():
            result["metrics"][f"op_us.{name}"] = {"value": statistics.median(values),
                                                 "better": "lower"}
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, choices=["bulk", "sync", "stream"])
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--work-dir", help="keep the parent tree and both builds here")
    parser.add_argument("--trace", action="store_true",
                        help="trace the runs; add per-layer metrics and op wall times")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    metrics = benchmark["end_to_end"]

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_pairs.")
    os.makedirs(work, exist_ok=True)
    parent_tree = os.path.join(work, "parent")
    export_revision(args.parent, parent_tree)
    sides = {
        "parent": (parent_tree, os.path.join(work, "build-parent")),
        "change": (ROOT, os.path.join(work, "build-change")),
    }

    results = {"parent": [], "change": []}
    try:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                tree, build_dir = sides[side]
                results[side].append(run_once(tree, build_dir, args))
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "parent": args.parent, "metrics": {}}
    for side in ("parent", "change"):
        report[f"{side}_attempted"] = sum(r["attempted"] for r in results[side])
        report[f"{side}_failed"] = sum(r["failed"] for r in results[side])
    if args.trace:
        metrics = metrics + benchmark["per_layer"] + [
            {"name": name, "better": "lower"}
            for name in sorted(set(results["parent"][0]["metrics"]) &
                               set(results["change"][0]["metrics"]))
            if name.startswith("op_us.")]
    for metric in metrics:
        name = metric["name"]
        if any(name not in r["metrics"] for r in results["parent"] + results["change"]):
            continue
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        lower = metric["better"] == "lower"
        wins = sum(1 for p, c in zip(parent, change) if (c < p if lower else c > p))
        q1, q3 = quartiles(parent)
        report["metrics"][name] = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "wins": wins,
        }
    print(json.dumps(report, sort_keys=True))


if __name__ == "__main__":
    main()
