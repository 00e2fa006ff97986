#!/usr/bin/env python3
"""Builds and runs the CSCE benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>
    python3 perfbench/run.py --check

Run from the repository root. The first call configures and builds the
library and the benchmark binary under .bench_build/perfbench
(RelWithDebInfo);
later calls rebuild incrementally. Each call runs one workload in a
fresh process; the last line of stdout is the result object.

--check runs every workload twice on a small input from one seed and
fails unless both runs pass their output checks, every query that
completed in both runs reports identical work counters, and every query
whose latency is clearly away from its time limit times out in both runs
or in neither. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
WORKDIR = os.path.join(BUILD_ROOT, "perfbench-work")
BINARY = os.path.join(BUILD, "csce_perfbench")
WORKLOADS = ["large-pattern", "count-all", "serve-mix", "shard-2"]
CHECK_SEED = 7
RUN_TIMEOUT_S = 175
# A query whose latency in either run lies within this factor of its
# wall-clock limit may land on either side of it from host noise alone.
NEAR_LIMIT = (0.5, 2.0)


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds; cmake's output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs,
                  "--target", "csce_perfbench"])
    for step in steps:
        proc = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode:
            return False
    return os.path.exists(BINARY)


def source_stamp():
    """(git sha or "none", sha256 over the library sources)."""
    sha = "none"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            sha = out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def run_once(workload, seed, seconds, trace, small=False,
             stamp=("none", "none")):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    os.makedirs(WORKDIR, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", WORKDIR, "--git-sha", stamp[0],
           "--src-digest", stamp[1]]
    if small:
        cmd.append("--small")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def line_with(lines, key):
    for line in lines:
        if line.startswith("{"):
            obj = json.loads(line)
            if key in obj:
                return obj
    return None


def compare_work(first, second):
    """(ids whose outcome or counters differ, ids near the limit that
    timed out in one run only)."""
    fields = first["fields"]
    limit = first["limit_ms"]
    low, high = NEAR_LIMIT[0] * limit, NEAR_LIMIT[1] * limit
    differ, near = [], []
    if len(first["queries"]) != len(second["queries"]):
        return ["query count"], near
    for row_a, row_b in zip(first["queries"], second["queries"]):
        a, b = dict(zip(fields, row_a)), dict(zip(fields, row_b))
        if not a["timed_out"] and not b["timed_out"]:
            if row_a[3:] != row_b[3:]:
                differ.append(a["id"])
        elif a["timed_out"] != b["timed_out"]:
            if limit and any(low <= q["latency_ms"] <= high for q in (a, b)):
                near.append(a["id"])
            else:
                differ.append(a["id"])
    return differ, near


def check():
    """Every workload twice on one small seed: identical work, all correct."""
    ok = True
    for workload in WORKLOADS:
        works = []
        for attempt in range(2):
            code, lines = run_once(workload, CHECK_SEED, 1, 0, small=True)
            result = line_with(lines, "correct")
            work = line_with(lines, "work")
            if code != 0 or result is None or work is None:
                log(f"{workload}: run {attempt} failed (exit {code})")
                ok = False
                break
            if not result["correct"] or result["failed"]:
                log(f"{workload}: run {attempt} failed its output checks")
                ok = False
            works.append(work["work"])
        if len(works) == 2:
            differ, near = compare_work(*works)
            ok = ok and not differ
            timed_out = sum(1 for q in works[0]["queries"] if q[2])
            log(f"{workload}: {len(works[0]['queries'])} queries, "
                f"{timed_out} timed out, "
                + (f"DIFFERENT: {differ}" if differ else "identical")
                + (f"; near the limit, timed out in one run: {near}"
                   if near else ""))
    print(json.dumps({"check": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if not args.check and args.workload is None:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.check:
        return check()
    code, lines = run_once(args.workload, args.seed, args.seconds, args.trace,
                           stamp=source_stamp())
    for line in lines:
        print(line)
    if code != 0 or line_with(lines[-1:], "correct") is None:
        log(f"benchmark exited with {code} and no result")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
