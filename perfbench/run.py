#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--size tiny]

Run it from the repository root.  It builds perfbench/bench.ml with dune
into .bench_build/, runs it on one domain, echoes its report and exits
with its code.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A failed output check
makes bench.exe print correct=false and exit nonzero.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def die(msg):
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


def build():
    """Build bench.exe; the simulator sources must sit beside perfbench/."""
    for needed in ("dune-project", "lib", os.path.join("perfbench", "bench.ml")):
        if not os.path.exists(needed):
            die("%s not found: run from the repository root" % needed)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "--cache", "disabled", "-j", "2", "./perfbench/bench.exe"]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("build timed out")
    if p.returncode != 0:
        sys.stderr.write(p.stdout.decode(errors="replace"))
        die("build failed")


def run(args):
    """Run bench.exe; return (exit code, stdout lines)."""
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size]
    # bench.exe forks a child per simulation; a process group of its own
    # lets a timeout stop them all.
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = p.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.communicate()
        die("run timed out after %d s" % RUN_TIMEOUT_S)
    return p.returncode, out.decode(errors="replace").splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    args = ap.parse_args()
    build()
    code, lines = run(args)
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        for line in lines[-1:]:
            print(line)
        die("bench.exe printed no result (exit %d)" % code)
    print(lines[-1])
    sys.stdout.flush()
    sys.exit(code if code != 0 or result["correct"] else 1)


if __name__ == "__main__":
    main()
