#!/usr/bin/env python3
"""Build the emulator benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (and the emulator
libraries under src/) into .bench_build/; later calls only rebuild what
changed.  The run prints its report lines, then as its last line one
JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones, and writes the spans to
.bench_build/spans/<workload>-seed<n>.json.  The printed metric names
and units are checked against BENCHMARK.json on every run.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build; False if either step fails."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no emulator sources under src/ next to perfbench/")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD] + generator +
                     ["-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed: %s" % e)
            return False
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return False
    return True


def declared_metrics(trace):
    """name -> unit for the metrics BENCHMARK.json says this run prints."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def git_rev():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def source_digest():
    """sha256 over the emulator and benchmark sources: identifies the
    code measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for name in sorted(files):
                path = os.path.join(d, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def check_metrics(metrics, declared):
    """Problems with the printed metrics; empty when they match."""
    problems = []
    if set(metrics) != set(declared):
        problems.append("printed metrics %s differ from BENCHMARK.json %s"
                        % (sorted(metrics), sorted(declared)))
    for name, m in metrics.items():
        if name in declared and m.get("unit") != declared[name]:
            problems.append("%s: unit %r, BENCHMARK.json says %r"
                            % (name, m.get("unit"), declared[name]))
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            problems.append("%s: value %r is not a finite number"
                            % (name, v))
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not build():
        return 1
    declared = declared_metrics(args.trace)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (args.workload,
                                                RUN_TIMEOUT_S))
        return 1
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        log("perfbench exited with code %d" % done.returncode)
        return 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])

    print("stamp (checkout): " + json.dumps(
        {"git_rev": git_rev(), "source_digest": source_digest(),
         "seed": args.seed, "workload": args.workload,
         "seconds": args.seconds, "trace": args.trace}))
    problems = check_metrics(result["metrics"], declared)
    for p in problems:
        print("metric check: " + p)
    attempted = int(result["attempted"])
    failed = int(result["failed"])
    print(json.dumps({
        "correct": bool(result["correct"]) and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
