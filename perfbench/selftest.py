#!/usr/bin/env python3
"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Run it from the repository root.  For every workload in BENCHMARK.json it
runs perfbench/run.py at --size tiny, untraced and traced, and checks
that the result line is well formed, that the output checks passed and
that it names exactly the metrics BENCHMARK.json lists, with their units.
It then runs the benchmark in a directory holding only BENCHMARK.json and
perfbench/, where it must fail without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

STRIPPED_DIR = os.path.join(".bench_build", "selftest")


def result_of(stdout):
    lines = stdout.decode(errors="replace").splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def check_run(bench, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=600)
    r = result_of(p.stdout)
    where = "%s --trace %d" % (workload, trace)
    if p.returncode != 0 or not isinstance(r, dict):
        return ["%s: exit %d, result %r" % (where, p.returncode, r)]
    problems = []
    if set(r) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (where, sorted(r)))
    if r.get("correct") is not True or r.get("failed") != 0 or not r.get("attempted", 0) >= 1:
        problems.append("%s: correct=%r attempted=%r failed=%r"
                        % (where, r.get("correct"), r.get("attempted"), r.get("failed")))
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = r.get("metrics", {})
    for name in sorted(set(want) ^ set(got)):
        problems.append("%s: metric %s %s" % (where, name,
                                              "missing" if name in want else "not in BENCHMARK.json"))
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if m.get("unit") != unit:
            problems.append("%s: %s has unit %r, want %r" % (where, name, m.get("unit"), unit))
        v = m.get("value")
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append("%s: %s has value %r" % (where, name, v))
    return problems


def check_stripped(bench):
    """Without the simulator's sources the benchmark must fail, printing no result."""
    shutil.rmtree(STRIPPED_DIR, ignore_errors=True)
    os.makedirs(STRIPPED_DIR)
    shutil.copy("BENCHMARK.json", STRIPPED_DIR)
    for path in bench["paths"]:
        shutil.copytree(path, os.path.join(STRIPPED_DIR, path))
    cmd = list(bench["command"]) + ["--workload", bench["workloads"][0]["name"], "--seed", "1",
                                    "--seconds", "1", "--trace", "0"]
    p = subprocess.run(cmd, cwd=STRIPPED_DIR, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, timeout=180)
    shutil.rmtree(STRIPPED_DIR, ignore_errors=True)
    if p.returncode == 0 or result_of(p.stdout) is not None:
        return ["stripped checkout: exit %d with result %r" % (p.returncode, result_of(p.stdout))]
    return []


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    problems = []
    for w in bench["workloads"]:
        for trace in (0, 1):
            found = check_run(bench, w["name"], trace)
            print("%-20s trace %d: %s" % (w["name"], trace, "ok" if not found else "FAILED"))
            problems += found
    found = check_stripped(bench)
    print("%-28s: %s" % ("stripped checkout", "ok" if not found else "FAILED"))
    problems += found
    for p in problems:
        print("  " + p)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
