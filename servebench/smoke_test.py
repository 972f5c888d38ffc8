#!/usr/bin/env python3
"""Smoke test of the serving benchmark: a short traced run per workload.

Usage (from the root of a checkout):

    python3 servebench/smoke_test.py

The benchmark is built and run through servebench/run.py. For every
workload in BENCHMARK.json, `--smoke` must exit 0 and print a
last line whose metrics hold every end-to-end and per-layer metric of
BENCHMARK.json with its unit, with correct = true, failed = 0 and
error_rate = 0. Every metric must also appear on a "metric" line with
its sample count, and the run must leave its span file behind.
"""

import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def check_workload(spec, workload):
    result = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--smoke",
         "--workload", workload, "--seed", "7", "--seconds", "3",
         "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.strip().splitlines()
    problems = []
    if result.returncode != 0:
        problems.append("exit code %d" % result.returncode)
    if not lines:
        return problems + ["no output"]
    out = json.loads(lines[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(out))
    if out.get("correct") is not True:
        problems.append("correctness check failed")
    if out.get("failed") != 0 or not out.get("attempted"):
        problems.append("attempted=%s failed=%s"
                        % (out.get("attempted"), out.get("failed")))
    metrics = out.get("metrics", {})
    printed = {}
    for line in lines:
        match = re.match(r"metric (\S+)\s+\S+\s+(\S+)\s+samples=(\d+)$", line)
        if match:
            printed[match.group(1)] = match.group(2)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        name = metric["name"]
        if name not in metrics:
            problems.append("missing metric %s" % name)
            continue
        if metrics[name].get("unit") != metric["unit"]:
            problems.append("%s has unit %s, not %s"
                            % (name, metrics[name].get("unit"),
                               metric["unit"]))
        if printed.get(name) != metric["unit"]:
            problems.append("no metric line for %s with its unit" % name)
    if metrics.get("error_rate", {}).get("value") != 0:
        problems.append("error_rate is %s"
                        % metrics.get("error_rate", {}).get("value"))
    spans = os.path.join(ROOT, ".bench_out", "spans_%s_7.json" % workload)
    if not os.path.exists(spans):
        problems.append("no span file %s" % spans)
    else:
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        if not any(e["name"] == "drain" for e in events):
            problems.append("span file has no drain spans")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check_workload(spec, workload)
        print("%-16s %s" % (workload, "ok" if not problems else "FAIL"))
        for problem in problems:
            print("    " + problem)
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
