#!/usr/bin/env python3
"""Build and run bench_e2e from a checkout of the repository.

    python3 bench/e2e/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout (BENCHMARK.json's "command").  The first
call configures and builds bench/e2e (and the greensph libraries it links)
in .bench_build/e2e; later calls only let CMake confirm it is up to date.
Build output goes to stderr.  The benchmark's own stdout is passed through,
so its last line is the result object.  With --trace 1 the Chrome-trace
spans are written to .bench_build/traces/<workload>-<seed>.json.

Scratch files live in a fresh directory under .bench_build/tmp that is
removed when the run ends; nothing is written outside the checkout.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("record", "replay", "observe", "fleet")
RUN_TIMEOUT_S = 170


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(os.path.dirname(bench_dir))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        sys.exit(f"run.py: no greensph sources under {root}; run from a checkout")

    build_root = os.path.join(root, ".bench_build")
    build_dir = os.path.join(build_root, "e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        step(["cmake", "-S", bench_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", build_dir, "--target", "bench_e2e", "-j", str(os.cpu_count() or 1)])

    command = [os.path.join(build_dir, "bench_e2e"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        traces = os.path.join(build_root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace", os.path.join(traces, f"{args.workload}-{args.seed}.json")]
    tmp_root = os.path.join(build_root, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    scratch = tempfile.mkdtemp(dir=tmp_root)
    try:
        result = subprocess.run(command + ["--tmp", scratch], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(result.returncode)


def step(command):
    """Run a build step with its output on stderr; exit on failure."""
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit(f"run.py: build step failed: {' '.join(command)}")


if __name__ == "__main__":
    main()
