#!/usr/bin/env python3
"""Flag rises in a bench's deterministic host-instruction counts.

Usage: tools/compare_counts.py FIELD FRESH.json COMMITTED.json

FIELD names an object in both artifacts whose numbers are counts of
host instructions (bench_interp's host_instr_per_instr: one number a
tier; bench_kernel's host_instr_per_event: per_event in one object a
run).  Each count in the fresh artifact may exceed the committed one by
at most 3%.  The counts move with the compiler and the build type, so
the comparison runs only when both artifacts' env stamps name the same
ones; otherwise, or where either count was skipped, it prints why and
passes.  Exits nonzero on a rise.
"""

import json
import sys

RISE = 0.03


def counts(v, path=""):
    """(name, value) for every count under v: numbers, or the
    per_event of a nested run; laps and windows are not counts."""
    out = []
    for k, x in v.items():
        name = path + k
        if isinstance(x, dict):
            if "per_event" in x:
                out.append((name, x["per_event"]))
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            out.append((name, x))
    return out


def main():
    if len(sys.argv) != 4:
        sys.exit(__doc__.strip().splitlines()[2])
    field, fresh_path, committed_path = sys.argv[1:]
    fresh = json.load(open(fresh_path))
    committed = json.load(open(committed_path))
    new, old = fresh.get(field), committed.get(field)
    if not isinstance(new, dict) or not isinstance(old, dict):
        sys.exit("%s: %s missing" % (fresh_path if not isinstance(
            new, dict) else committed_path, field))
    for env in ("compiler", "build_type"):
        a = fresh.get("env", {}).get(env)
        b = committed.get("env", {}).get(env)
        if a != b:
            print("%s: comparison skipped: env.%s %r here, %r committed"
                  % (field, env, a, b))
            return 0
    if "skipped" in new or "skipped" in old:
        print("%s: comparison skipped: %s" % (
            field, new.get("skipped") or old.get("skipped")))
        return 0
    old_counts = dict(counts(old))
    failed = False
    for name, value in counts(new):
        if name not in old_counts:
            print("%s.%s: %.1f (nothing committed to compare)" % (
                field, name, value))
            continue
        ref = old_counts[name]
        rise = value / ref - 1 if ref else 0.0
        verdict = "RISE" if rise > RISE else "ok"
        failed |= rise > RISE
        print("%s.%s: %.1f against %.1f committed (%+.1f%%) %s" % (
            field, name, value, ref, 100 * rise, verdict))
    if failed:
        print("%s: a count rose by more than %d%% over %s" % (
            field, round(100 * RISE), committed_path))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
