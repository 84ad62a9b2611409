#!/usr/bin/env python3
"""Steadiness check: run workloads over several seeds and report spreads.

    python3 perfbench/steady.py --seeds 1-10 [--sets 2] [--workloads massive-x1,...]

Runs perfbench/run.py untraced once per (set, workload, seed), then prints,
per set, workload and end-to-end metric, the median, first and third
quartile (statistics.quantiles(values, n=4)) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. With
two or more sets it also prints how far each later set's median lies from
the first set's, as a share of the first, in the direction that is worse
for the metric. Raw results are appended as JSON lines to --out (default
<build root>/perfbench-steady.jsonl).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_set(bench, workloads, seeds, set_no, out):
    """One set: every workload once per seed. Returns {workload: {metric: [values]}}."""
    values = {}
    for workload in workloads:
        values[workload] = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
            last = proc.stdout.strip().splitlines()[-1:]
            result = json.loads(last[0]) if last else {}
            with open(out, "a") as f:
                f.write(json.dumps({"set": set_no, "workload": workload,
                                    "seed": seed, "exit": proc.returncode,
                                    "result": result}) + "\n")
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{proc.returncode})\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name in values[workload]:
                values[workload][name].append(
                    result["metrics"][name]["value"])
    return values


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--out", default=os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench-steady.jsonl"))
    args = ap.parse_args()

    metrics = bench["end_to_end"]
    workloads = args.workloads.split(",")
    medians = []
    for set_no in range(1, args.sets + 1):
        values = run_set(bench, workloads, seeds_of(args.seeds), set_no,
                         args.out)
        print(f"\nSet {set_no}\n")
        print("| workload | metric | median | Q1 | Q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        medians.append({})
        for workload in workloads:
            for m in metrics:
                v = values[workload][m["name"]]
                if len(v) < 2:
                    continue
                q1, med, q3 = statistics.quantiles(v, n=4)
                medians[-1][(workload, m["name"])] = med
                spread = (q3 - q1) / med if med else float("inf")
                print(f"| {workload} | {m['name']} | {med:.6g} | {q1:.6g} | "
                      f"{q3:.6g} | {spread:.3f} | {m['bound']} |", flush=True)

    for set_no in range(2, args.sets + 1):
        print(f"\nSet {set_no} against set 1 (positive: worse)\n")
        print("| workload | metric | median 1 | median "
              f"{set_no} | worse by | bound |")
        print("|---|---|---|---|---|---|")
        for workload in workloads:
            for m in metrics:
                key = (workload, m["name"])
                if key not in medians[0] or key not in medians[set_no - 1]:
                    continue
                a, b = medians[0][key], medians[set_no - 1][key]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                print(f"| {workload} | {m['name']} | {a:.6g} | {b:.6g} | "
                      f"{worse:+.3f} | {m['bound']} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
