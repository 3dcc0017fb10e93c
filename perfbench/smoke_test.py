#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark at a tiny scale.

Run from the repository root:

    python3 perfbench/smoke_test.py

For every workload it runs perfbench/run.py --scale tiny untraced and
traced, and checks that:
  - the run exits 0 and its last line is the result object with exactly the
    keys correct, attempted, failed and metrics, with correct true and no
    failed op;
  - the untraced result carries every end_to_end metric of BENCHMARK.json
    and the traced one every per_layer metric, each with its declared unit;
  - the report line carries the workload's own metrics with their units,
    and failed_frac is 0;
  - the environment stamp is present and the traced run's replay check
    matched the program's counts.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

REPORT = {
    "bulk": {"put_MiBps": "MiB/s", "get_MiBps": "MiB/s", "put_wan_s": "s",
             "get_wan_s": "s"},
    "sync": {"put_p50_ms": "ms", "put_p95_ms": "ms", "get_p50_ms": "ms",
             "get_p95_ms": "ms", "list_p50_ms": "ms"},
    "stream": {"range_p50_ms": "ms", "range_p99_ms": "ms", "range_MiBps": "MiB/s"},
}
COMMON = {"setup_s": "s", "write_MiBps": "MiB/s", "read_MiBps": "MiB/s",
          "storage_overhead": "ratio", "failed_frac": "ratio", "peak_rss_MiB": "MiB"}
ENV_KEYS = {"seed", "nproc", "build_type", "codec_kernel", "codec_kernel_override",
            "host_steal_pct"}


def tagged(lines, tag):
    for line in lines:
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])
    raise AssertionError(f"no '{tag}' line")


def check_units(metrics, expected, what):
    for name, unit in expected.items():
        assert name in metrics, f"{what}: missing {name}"
        assert metrics[name]["unit"] == unit, f"{what}: {name} unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{what}: {name} value"


def run(workload, trace):
    command = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    what = f"{workload} trace={trace}"
    assert done.returncode == 0, f"{what}: exit {done.returncode}\n{done.stderr[-3000:]}"
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, f"{what}: {result}"
    assert result["attempted"] >= 1, what
    env = tagged(lines, "env")
    assert ENV_KEYS <= set(env) and env["seed"] == 7, f"{what}: env {env}"
    return lines, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in [w["name"] for w in spec["workloads"]]:
        lines, result = run(workload, 0)
        check_units(result["metrics"], end_to_end, f"{workload} result")
        assert set(result["metrics"]) == set(end_to_end), workload
        report = tagged(lines, "report")
        check_units(report, {**COMMON, **REPORT[workload]}, f"{workload} report")
        assert report["failed_frac"]["value"] == 0, workload

        lines, result = run(workload, 1)
        check_units(result["metrics"], per_layer, f"{workload} traced result")
        assert set(result["metrics"]) == set(per_layer), workload
        replay = tagged(lines, "replay_check")
        assert replay["encode_match"] and replay["decode_match"], replay
        assert replay["replay_chunks"] == replay["put_total_chunks"], replay
        print(f"ok {workload}")
    print("smoke test passed")


if __name__ == "__main__":
    main()
