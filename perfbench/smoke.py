#!/usr/bin/env python3
"""Smoke run of the benchmark: every workload, untraced and traced.

Each run asks for 1 s and so measures only its minimum of whole cycles.

    python3 perfbench/smoke.py

Run from the repository root. For each run it asserts that
  * the last stdout line is one JSON object with exactly the keys
    correct, attempted, failed and metrics; correct is true, attempted is
    at least 1 and failed is 0;
  * the metrics are exactly BENCHMARK.json's end_to_end metrics (untraced)
    or per_layer metrics (traced), each a finite number with its declared
    unit;
  * a stream_hash line was printed;
  * every check the workload owes printed a line, ran at least once and
    failed never.
Exit status 0 when all runs pass.
"""

import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

COMMON_CHECKS = {"stream_regenerates", "optimizer_plan", "cost_replay",
                 "predict_known_plan", "batch_equals_single", "precision_floor"}
EXTRA_CHECKS = {
    "inproc_zipf": {"oracle_repeats", "paced_equals_single", "rounds_repeat"},
    "inproc_ridges": {"oracle_repeats", "paced_equals_single", "rounds_repeat"},
    "served_zipf": set(),
    "routed_zipf": {"routed_equals_direct"},
}


def smoke(workload, trace, expected_metrics):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    errors = []
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return ["exit %d, %d stdout lines" % (proc.returncode, len(lines))]
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append("result keys %s" % sorted(result))
    if result.get("correct") is not True:
        errors.append("correct is %r" % result.get("correct"))
    if not result.get("attempted", 0) >= 1 or result.get("failed") != 0:
        errors.append("attempted %r failed %r" % (result.get("attempted"),
                                                   result.get("failed")))
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected_metrics):
        errors.append("metrics missing %s, unexpected %s" % (
            sorted(set(expected_metrics) - set(metrics)),
            sorted(set(metrics) - set(expected_metrics))))
    for name, unit in expected_metrics.items():
        m = metrics.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            errors.append("%s unit %r, want %r" % (name, m.get("unit"), unit))
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(m["value"]):
            errors.append("%s value %r" % (name, m.get("value")))
    if not any(l.startswith("stream_hash ") for l in lines):
        errors.append("no stream_hash line")
    checks = {}
    for l in lines:
        hit = re.match(r"check (\S+) passed=(\d+) failed=(\d+)", l)
        if hit:
            checks[hit.group(1)] = (int(hit.group(2)), int(hit.group(3)))
    for name in sorted(COMMON_CHECKS | EXTRA_CHECKS[workload]):
        passed, failed = checks.get(name, (0, 0))
        if name not in checks or passed == 0 or failed != 0:
            errors.append("check %s passed=%d failed=%d" % (name, passed, failed))
    return errors


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    sets = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (0, 1):
            errors = smoke(w, trace, sets[trace])
            print("%-14s trace=%d %s" % (w, trace, "ok" if not errors else "FAIL"))
            for e in errors:
                print("    " + e)
            failures += bool(errors)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
