#!/usr/bin/env python3
"""Run workloads several times and report how steady each metric is.

Usage (from the root of a checkout):

    python3 servebench/steadiness.py [--workloads rag_long,chat_churn]
        [--runs 10] [--first-seed 1] [--sets 1] [--seconds 33] [--trace 0]

Each run uses its own seed (first-seed, first-seed + 1, ...). For every
workload and metric the report gives the median, the first and third
quartile (statistics.quantiles, n=4) and the spread, (q3 - q1) / median,
next to the metric's bound from BENCHMARK.json: a spread above the bound
makes the benchmark too noisy to gate that metric. With --sets 2 the
same seeds run twice and the report adds how much the second set's
median is worse than the first's, which must also stay within the bound.
Raw results are written to .bench_out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed with code %d"
                           % (workload, seed, result.returncode))
    out = json.loads(lines[-1])
    for line in lines:
        if line.startswith("validity "):
            out["validity"] = json.loads(line[len("validity "):])
    return out


def summarize(values):
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else float("inf")
    return median, q1, q3, spread


def worsening(first, second, better):
    if first == 0:
        return 0.0 if second == first else float("inf")
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + i
                result = run_once(workload, seed, args.seconds, args.trace)
                if not result["correct"] or result["failed"]:
                    print("%s seed %d: correct=%s failed=%d"
                          % (workload, seed, result["correct"],
                             result["failed"]))
                    ok = False
                results.append(result)
                validity = result.get("validity", {})
                print("  %s set %d seed %d: steal %.3f, generator lag p99 "
                      "%.2f ms" % (workload, s + 1, seed,
                                   validity.get("cpu_steal_share", 0),
                                   validity.get("generator_lag_ms_p99", 0)),
                      file=sys.stderr, flush=True)
            sets.append(results)
        raw[workload] = sets

        print("\n%s (%d runs x %d sets, %ds)" % (workload, args.runs,
                                                 args.sets, args.seconds))
        print("  %-34s %12s %12s %12s %8s %6s %8s"
              % ("metric", "median", "q1", "q3", "spread", "bound",
                 "2nd-1st"))
        for metric in metrics:
            name = metric["name"]
            bound = metric.get("bound")
            medians = []
            spreads = []
            for results in sets:
                values = [r["metrics"][name]["value"] for r in results]
                median, q1, q3, spread = summarize(values)
                medians.append(median)
                spreads.append(spread)
            median, q1, q3, _ = summarize(
                [r["metrics"][name]["value"] for r in sets[0]])
            drift = ""
            if len(medians) == 2:
                drift = "%+.3f" % worsening(medians[0], medians[1],
                                            metric["better"])
            flag = ""
            if bound is not None:
                if any(sp > bound for sp in spreads):
                    flag = "  SPREAD>BOUND"
                    ok = False
                elif any(sp > bound / 3 for sp in spreads):
                    flag = "  spread>bound/3"
                if drift and float(drift) > bound:
                    flag += "  DRIFT>BOUND"
                    ok = False
            print("  %-34s %12.5g %12.5g %12.5g %8.3f %6s %8s%s"
                  % (name, median, q1, q3, max(spreads),
                     "-" if bound is None else "%.2f" % bound, drift, flag))

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w") as f:
        json.dump(raw, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
