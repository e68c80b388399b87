#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout and runs one workload.

Usage (from the root of a checkout):
  python3 perfbench/run.py --workload table1_125 --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; the first run configures and compiles, later runs only relink if
a source changed. The driver's full record (stamp, parameters, exact counts,
digest, metrics) is printed as one JSON line, followed by the result line
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
ones. Any build failure, driver crash, or missing metric exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(cmake_dir, ignore_errors=True)
            fail("cmake configure failed")
    compile_cmd = ["cmake", "--build", cmake_dir, "--target",
                   "perfbench_driver", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "perfbench_driver")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--market-seed", type=int, default=None,
                        help="simulated market (default: the workload's)")
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    driver = build(build_dir)
    expected = expected_metrics(args.trace)

    scratch = os.path.join(build_dir, "scratch")
    shutil.rmtree(scratch, ignore_errors=True)
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.market_seed is not None:
        cmd += ["--market-seed", str(args.market_seed)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode != 0:
        fail("driver exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no record")
    record = json.loads(lines[-1])

    metrics = record["metrics"]
    missing = sorted(set(expected) - set(metrics))
    if missing:
        fail("driver did not report: " + ", ".join(missing))
    for name, unit in expected.items():
        if metrics[name]["unit"] != unit:
            fail("metric %s has unit %s, expected %s"
                 % (name, metrics[name]["unit"], unit))
    result = {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": {name: metrics[name] for name in expected},
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
