#!/usr/bin/env python3
"""Benchmark of the rank engine and its serve tier: runs one workload.

    python3 perfbench/run.py --workload cross_widen --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The script builds the benchmark
executable and bin/ia_rank.exe from source with dune (release profile,
build directory .bench_build), runs the workload, and relays its result:
the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 reports the end-to-end
metrics, --trace 1 the per-layer ones; their names and units must match
BENCHMARK.json.  The exit code is non-zero when an answer was wrong or a
check failed.  perfbench/README.md describes the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("cross_widen", "serve_mix")
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_tmp"
# What a source checkout has and a copy of the benchmark alone lacks.
REQUIRED = ("dune-project", "lib", "bin/ia_rank.ml", "BENCHMARK.json")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        return fail("run this from the root of a source checkout (missing: %s)"
                    % ", ".join(missing))
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")

    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        [dune, "build", "--root", ".", "--build-dir", BUILD_DIR,
                "--profile", "release", "perfbench/main.exe",
                "bin/ia_rank.exe"],
        stdin=subprocess.DEVNULL, stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return fail("build failed")

    built = os.path.join(BUILD_DIR, "default")
    work = os.path.join(WORK_DIR, str(os.getpid()))
    try:
        run = subprocess.run(
            [os.path.join(built, "perfbench", "main.exe"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--ia-rank", os.path.join(built, "bin", "ia_rank.exe"),
             "--work-dir", work],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    lines = run.stdout.splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        return fail(f"main.exe printed no result (exit {run.returncode})")
    try:
        result = json.loads(lines[-1])
        got = {name: m["unit"] for name, m in result["metrics"].items()}
    except (ValueError, KeyError, TypeError, AttributeError):
        return fail("malformed result line: " + lines[-1])
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        return fail("metric names or units differ from BENCHMARK.json: "
                    "missing %s, undeclared %s"
                    % (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
