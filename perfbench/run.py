#!/usr/bin/env python3
"""Builds and runs the HAAN benchmark program.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program (perfbench/src, built by perfbench/CMakeLists.txt together with the
library sources under src/) is configured and built on first use into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) and rebuilt when
sources change. Its standard output is passed through; the last line is the
run's JSON result. The metric names in that result are checked against
BENCHMARK.json before the line is printed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "serve", "server.hpp")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, "haan_perfbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    kind = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[kind]}


def main(argv):
    trace = "--trace" in argv and argv.index("--trace") + 1 < len(argv) and \
        argv[argv.index("--trace") + 1] == "1"
    binary = build()
    try:
        proc = subprocess.run([binary] + argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark program exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    expected = expected_metrics(trace)
    if expected is not None:
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != expected:
            print("\n".join(lines[:-1]))
            fail(f"metrics differ from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected.items()))}")
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
