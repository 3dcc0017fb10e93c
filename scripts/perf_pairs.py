#!/usr/bin/env python3
"""Runs perfbench on a parent revision and on the working tree, in pairs.

Run from the repository root:

    python3 scripts/perf_pairs.py --parent REV --workload W[,W...] \
        --pairs N [--seed S] [--seconds T] [--work-dir DIR] [--trace]

where each W is bulk, sync or stream.

REV is exported with `git archive` into the work directory (a temporary
one unless --work-dir is given) and built there; the working tree is built
from the repository itself. Each side builds once, with its own
perfbench/run.py's build steps, into its own directory under the work
directory, so neither rebuilds the other's objects, and a kept --work-dir
makes later runs incremental. Each run then starts the side's
cyrus_perfbench binary directly, with the arguments run.py passes, so that
no build step runs between or inside the measured runs. The pairs
alternate which side runs first, so drift in the machine's load falls on
both sides alike. Several workloads share the one build of each side and
run one after another, all pairs of one before the next.

Prints one JSON line per workload, in the order given: for each end-to-end metric of BENCHMARK.json, the
parent's and the change's median, each side's interquartile range, how
many pairs the change won (strictly better in the metric's direction),
each side's runs in pair order, and a verdict against the metric's bound
(a fraction of the parent's median):

  worse       the change's median is worse than the parent's by more than
              the bound;
  unresolved  the parent's IQR divided by its median is wider than the
              bound, unless every change run beats every parent run;
  ok          otherwise.

The line also holds the op counts each side attempted and failed. The same summary covers
each run's resource use as the kernel accounts it to the benchmark process
(getrusage of the finished child): "proc.minflt" (minor page faults),
"proc.user_s" and "proc.sys_s" (CPU seconds in user and kernel mode).
With --trace the runs are traced, and the line adds the same summary for
every per-layer metric and, from each run's span log, for the median wall
time of each client op kind ("op_us.put", ...). Only perfbench's output is read; nothing under
perfbench/ is changed. Exits non-zero when a run fails to build, fails an
op or reads a wrong byte.
"""

import argparse
import importlib.util
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROC_METRICS = ("proc.minflt", "proc.user_s", "proc.sys_s")


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


def build_side(side, tree, build_dir):
    """Builds `tree`'s perfbench with that tree's own run.py; returns the
    binary."""
    spec = importlib.util.spec_from_file_location(
        f"perfbench_run_{side}", os.path.join(tree, "perfbench", "run.py"))
    run_py = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_py)
    return run_py.build(os.path.abspath(build_dir))


def run_once(binary, build_dir, workload, args):
    """One perfbench run of `workload`; returns its JSON result."""
    command = [binary, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "1" if args.trace else "0",
               "--scale", "full"]
    spans = os.path.join(build_dir, "spans", f"{workload}-{args.seed}.jsonl")
    if args.trace:
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        command += ["--spans-out", spans]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    done = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"perf_pairs: {binary} failed (exit {done.returncode})")
    result = json.loads(lines[-1])
    deltas = (after.ru_minflt - before.ru_minflt, after.ru_utime - before.ru_utime,
              after.ru_stime - before.ru_stime)
    for name, value in zip(PROC_METRICS, deltas):
        result["metrics"][name] = {"value": value, "better": "lower"}
    if args.trace:
        # Each client op kind's median wall time, from the run's spans.
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


def verdict(parent, change, lower, bound):
    """`worse`, `unresolved` or `ok` for one end-to-end metric; `bound` is
    a fraction of the parent's median."""
    base = statistics.median(parent)
    worsening = statistics.median(change) - base
    if not lower:
        worsening = -worsening
    if worsening > bound * abs(base):
        return "worse"
    q1, q3 = quartiles(parent)
    beats_all = (max(change) < min(parent)) if lower else (min(change) > max(parent))
    if q3 - q1 > bound * abs(base) and not beats_all:
        return "unresolved"
    return "ok"


def summarize(workload, results, benchmark, args):
    """The JSON report of one workload's pairs."""
    report = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "pairs": args.pairs, "parent": args.parent, "metrics": {}}
    for side in ("parent", "change"):
        report[f"{side}_attempted"] = sum(r["attempted"] for r in results[side])
        report[f"{side}_failed"] = sum(r["failed"] for r in results[side])
    metrics = benchmark["end_to_end"] + [{"name": name, "better": "lower"}
                                         for name in PROC_METRICS]
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
        c1, c3 = quartiles(change)
        summary = {
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_iqr": q3 - q1,
            "change_iqr": c3 - c1,
            "wins": wins,
        }
        if "bound" in metric:
            summary["verdict"] = verdict(parent, change, lower, metric["bound"])
            summary["parent_runs"] = parent
            summary["change_runs"] = change
        report["metrics"][name] = summary
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="comma-separated workloads: bulk, sync, stream")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--work-dir", help="keep the parent tree and both builds here")
    parser.add_argument("--trace", action="store_true",
                        help="trace the runs; add per-layer metrics and op wall times")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workload.split(",")
    for workload in workloads:
        if workload not in ("bulk", "sync", "stream"):
            parser.error(f"unknown workload {workload!r} (choose from bulk, sync, stream)")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)

    work = args.work_dir or tempfile.mkdtemp(prefix="perf_pairs.")
    os.makedirs(work, exist_ok=True)
    parent_tree = os.path.join(work, "parent")
    export_revision(args.parent, parent_tree)
    sides = {
        "parent": (parent_tree, os.path.join(work, "build-parent")),
        "change": (ROOT, os.path.join(work, "build-change")),
    }

    try:
        binaries = {side: build_side(side, tree, build_dir)
                    for side, (tree, build_dir) in sides.items()}
        for workload in workloads:
            results = {"parent": [], "change": []}
            for pair in range(args.pairs):
                order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
                for side in order:
                    results[side].append(
                        run_once(binaries[side], sides[side][1], workload, args))
            print(json.dumps(summarize(workload, results, benchmark, args), sort_keys=True),
                  flush=True)
    finally:
        if not args.work_dir:
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
