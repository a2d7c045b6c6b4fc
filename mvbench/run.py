#!/usr/bin/env python3
"""Build mvbench from this checkout's sources and run one workload.

    python3 mvbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 mvbench/run.py --selftest

The build goes to .bench_build/mvbench under the checkout root (Release,
at most four compile jobs). The benchmark runs with every MVD_* variable
removed from its environment, so the library's environment-driven
defaults and debug hooks stay out of the numbers. Its last stdout line is
the result object; a traced run also writes its spans to
.bench_build/mvbench/trace-<workload>.csv.
"""
import argparse
import fcntl
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "mvbench")
RUN_TIMEOUT_S = 170


def clean_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MVD_")}


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit(f"mvbench: no library sources under {ROOT}/src")
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # One build at a time per checkout, even if runs overlap.
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", jobs,
                      "--target", target])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  env=clean_env(), check=False)
            if done.returncode != 0:
                sys.exit(f"mvbench: build step failed: {' '.join(step)}")
    return os.path.join(BUILD, target)


def run(argv):
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, env=clean_env(),
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        sys.exit(f"mvbench: no result within {RUN_TIMEOUT_S} s")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0 if done.returncode == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("mvbench_selftest")
        return run([binary, os.path.join(ROOT, "BENCHMARK.json")])
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not re.fullmatch(r"[A-Za-z0-9_.-]+", args.workload):
        parser.error(f"bad workload name {args.workload!r}")
    binary = build("mvbench")
    argv = [binary, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        argv += ["--trace-out",
                 os.path.join(BUILD, f"trace-{args.workload}.csv")]
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
