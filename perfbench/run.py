#!/usr/bin/env python3
"""Builds the plan-cache benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and compiles
perfbench/ (which builds the library from ../src) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls
only re-check the build. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. With --trace 1 the recorded spans
are written next to the binary as spans-<workload>-<seed>.tsv.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources not found under %s/src" % ROOT)
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def flag(args, name, default):
    for i in range(len(args) - 1):
        if args[i] == name:
            return args[i + 1]
    return default


def main():
    args = sys.argv[1:]
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    cmd = [binary] + args
    if flag(args, "--trace", "0") == "1":
        cmd += ["--span-file", os.path.join(out, "spans-%s-%s.tsv" % (
            flag(args, "--workload", "unknown"), flag(args, "--seed", "1")))]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
