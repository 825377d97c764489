#!/usr/bin/env python3
"""Self-test of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. The answer checkers count tampered answers as failed ops
   (perfbench_selftest: a flood total off by one, a wrong dbsearch
   count, a duplicated routed reply, ...).
2. The metric catalogue the benchmark prints from matches
   BENCHMARK.json: every name, its unit, and whether it is end-to-end
   or per-layer.
3. The result-line check in run.py rejects a wrong unit and a missing
   metric.
Exits 0 when all hold.
"""

import json
import os
import subprocess
import sys

import run


def catalogue():
    out = subprocess.run([os.path.join(run.BUILD, "perfbench"),
                          "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    rows = [line.split() for line in out.splitlines() if line.strip()]
    return {name: (unit, kind) for name, unit, kind in rows}


def main():
    if not run.build():
        return 1
    ok = subprocess.run([os.path.join(run.BUILD,
                                      "perfbench_selftest")]).returncode == 0

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {m["name"]: (m["unit"], kind)
                for kind in ("end_to_end", "per_layer")
                for m in spec[kind]}
    printed = catalogue()
    for name in sorted(set(declared) | set(printed)):
        if declared.get(name) != printed.get(name):
            print("FAIL metric %s: BENCHMARK.json %s, printed %s"
                  % (name, declared.get(name), printed.get(name)))
            ok = False
    if ok:
        print("ok   %d metric names and units match BENCHMARK.json"
              % len(declared))

    e2e = run.declared_metrics(0)
    good = {n: {"value": 1.0, "unit": u} for n, u in e2e.items()}
    if run.check_metrics(good, e2e):
        print("FAIL the result check rejects a good result")
        ok = False
    name = sorted(e2e)[0]
    bad_unit = dict(good, **{name: {"value": 1.0, "unit": "furlong"}})
    missing = {n: m for n, m in good.items() if n != name}
    for what, metrics in (("a wrong unit", bad_unit),
                          ("a missing metric", missing)):
        if run.check_metrics(metrics, e2e):
            print("ok   the result check rejects " + what)
        else:
            print("FAIL the result check accepts " + what)
            ok = False

    print("SELFTEST OK" if ok else "SELFTEST FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
