#!/usr/bin/env python3
"""Builds and runs slime_bench, the repository benchmark (see README.md).

    python3 bench/suite/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/suite/run.py [--seed N --seconds S --trace 0|1]

With --workload, one workload runs in its own process and the last line of
stdout is its JSON result. Without it, every workload runs in turn, each in
its own process, and each metric prints as `workload metric value unit`.
The smoke test (every workload for one second, every correctness gate) is
registered with CTest in the build:
`ctest --test-dir .bench_build -R slime_bench_smoke`.

The first call builds the benchmark and the library it measures into
.bench_build/ at the checkout root, configuring the root CMake project so
the library gets the root build's flags; later calls only rebuild what
changed. Build output and progress go to stderr.
"""

import argparse
import json
import os
import subprocess
import sys

SUITE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(SUITE))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "slime_bench")
WORK = os.path.join(BUILD, "work")
WORKLOADS = ["serve_catalog", "score_longseq", "train_contrastive",
             "session_cluster"]
# One run must end within 180 s; a stuck run is killed and fails.
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def step(cmd, timeout=None):
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=timeout)
    except (OSError, subprocess.SubprocessError) as e:
        fail("%s failed: %s" % (" ".join(cmd), e))


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            fail("no %s under %s; run from a full checkout" % (required, ROOT))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", SUITE, "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", BUILD, "--parallel", "3"], timeout=840)


def run_workload(workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", WORK]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    return done.returncode, done.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    build()

    if args.workload:
        code, stdout = run_workload(args.workload, args.seed, args.seconds,
                                    args.trace)
        sys.stdout.write(stdout)
        sys.exit(code)

    status = 0
    for workload in WORKLOADS:
        code, stdout = run_workload(workload, args.seed, args.seconds,
                                    args.trace)
        result = last_json(stdout)
        if code != 0 or result is None:
            print("%s run failed (exit %d)" % (workload, code))
            status = 1
            continue
        for name, metric in result["metrics"].items():
            print("%s %s %.6g %s" % (workload, name, metric["value"],
                                     metric["unit"]))
        print("%s correct %s %d/%d failed" % (
            workload, str(result["correct"]).lower(), result["failed"],
            result["attempted"]))
        status |= 0 if result["correct"] else 1
    sys.exit(status)


if __name__ == "__main__":
    main()
