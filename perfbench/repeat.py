#!/usr/bin/env python3
"""Runs each benchmark workload N times and summarises every metric.

    python3 perfbench/repeat.py [--runs 10] [--seed 1] [--seconds S]
                                [--trace 0|1] [--workloads a,b,...]

Run from the repository root. Run r (0-based) uses seed `--seed + r` and
goes through the workloads forward when r is even and backward when r is
odd, so no workload always runs first. Each run is a fresh process
(perfbench/run.py). For every workload and metric the script prints the
median, the first and third quartiles (statistics.quantiles(n=4)), the
spread (q3 - q1) / median and, for end-to-end metrics, the bound from
BENCHMARK.json and whether the spread is within a third of it. It also
prints each workload's failed/attempted share, which must be the same in
every run. Exit status is 1 if any run is incorrect or fails to print a
result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("absolute "):
            result["absolute"] = json.loads(line[len("absolute "):])
    return result


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default=",".join(names))
    opts = ap.parse_args()
    workloads = opts.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {w: [] for w in workloads}
    ok = True
    for r in range(opts.runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(w, opts.seed + r, opts.seconds, opts.trace)
            if res is None or not res["correct"]:
                ok = False
                print("run %d %s: %s" % (r, w, "no result" if res is None
                                          else "incorrect"), flush=True)
            if res is not None:
                results[w].append(res)
        print("finished run %d of %d" % (r + 1, opts.runs), file=sys.stderr,
              flush=True)

    for w in workloads:
        runs = results[w]
        if not runs:
            continue
        shares = sorted({"%d/%d" % (x["failed"], x["attempted"]) if x["failed"]
                         else "0" for x in runs})
        print("\n%s: %d runs, failed shares %s" % (w, len(runs), " ".join(shares)))
        print("  %-36s %14s %14s %14s %8s %6s" % (
            "metric", "median", "q1", "q3", "spread", "bound"))
        for key in ("metrics", "absolute"):
            if key == "absolute" and key in runs[0]:
                print("  absolute figures (printed, not gated):")
            for name in runs[0].get(key, {}):
                summarise(name, [x[key][name]["value"] for x in runs],
                          runs[0][key][name]["unit"],
                          bounds.get(name) if key == "metrics" else None)
    sys.exit(0 if ok else 1)


def summarise(name, values, unit, bound):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    verdict = ""
    if bound is not None and name != "setup_s":
        verdict = "ok" if spread < bound / 3 else "WIDE"
    print("  %-36s %14.6g %14.6g %14.6g %8.4f %6s %s %s" % (
        name, med, q1, q3, spread,
        "" if bound is None else "%.2f" % bound, verdict, unit))


if __name__ == "__main__":
    main()
