#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload imaging|serve|train|opc \
        --seed N --seconds S --trace 0|1 [--tiny]

Run it from the repository root.  The first call configures and builds
perfbench/ (the library sources come from ../src) into .bench_build/ in
Release; later calls only rebuild what changed.  The benchmark binary's
report is forwarded, and its last stdout line is the JSON result.  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("imaging", "serve", "train", "opc")
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log):
    with open(log, "a") as out:
        return subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              check=False).returncode


def build():
    """Configures (when needed) and builds the benchmark; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no library sources next to perfbench/ (expected ../src and "
             "../CMakeLists.txt); run from a full checkout")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        cache = os.path.join(BUILD, "CMakeCache.txt")
        if os.path.exists(cache):
            with open(cache) as f:
                if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                    # A build tree from another checkout: start over.
                    for entry in os.listdir(BUILD):
                        if entry not in (".lock", "build.log"):
                            path = os.path.join(BUILD, entry)
                            if os.path.isdir(path):
                                shutil.rmtree(path)
                            else:
                                os.remove(path)
        if not os.path.exists(cache):
            if run_logged(["cmake", "-S", HERE, "-B", BUILD,
                           "-DCMAKE_BUILD_TYPE=Release"], log):
                fail("cmake configure failed; see " + log)
        if run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                       "-j", BUILD_JOBS], log):
            fail("build failed; see " + log)
    return os.path.join(BUILD, "perfbench")


def check_result(line):
    """The last stdout line must be the contract's JSON object."""
    try:
        result = json.loads(line)
    except ValueError:
        fail("last output line is not JSON")
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result keys are " + ", ".join(sorted(result)))
    for name, metric in result["metrics"].items():
        if sorted(metric) != ["unit", "value"]:
            fail("metric %s is malformed" % name)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs (the benchmark's own smoke tests)")
    args = parser.parse_args()

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % proc.returncode)
    check_result(out.rstrip("\n").split("\n")[-1])
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
