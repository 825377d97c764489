#!/bin/sh
# Smoke check: configure, build and run the tier-1 suite for the
# default preset, run a traced dbsearch through tprof and validate its
# JSON outputs, then the sanitizer presets: tsan runs the
# parallel-engine suite (the "par" label, the only tests with
# cross-thread interactions -- including the observability
# counter/tracer tests), asan+ubsan runs the fault-injection and
# decoder-fuzz suite (the "fault" label, the tests that feed hostile
# input -- random byte streams, corrupted packets, dead nodes -- into
# the simulator).  The block-compiler suite (test_blockc) carries both
# labels, so the tier's guard/invalidation paths run under both
# sanitizers, and so does the scale suite (test_scale): the 1k-node
# sharded equality runs under tsan, the lossy variant under asan.
# The routing suite (test_route) also carries both: serial-vs-parallel
# routed-fabric identity under tsan, kill/reroute/partition under
# asan; its decoder/switch fuzzers (test_fuzz_route) run under asan.
# The event-kernel and link suites (test_sim, test_link) run under
# asan because the queue holds raw pointers into its owners, and so
# does test_cpu_misc, whose wild-jump case once crashed the host, and
# test_differential, which runs random guest code through both
# instruction-handler state policies and all three execution tiers,
# and test_mem and test_predecode, which pin the store path's edges
# and the predecode cache's guest-indexed arrays.
# test_link also runs under tsan: its burst cases run two shards.
#
# Usage: tools/check.sh [--no-tsan] [--no-asan]
set -eu

cd "$(dirname "$0")/.."

run_preset() {
    preset=$1
    shift
    echo "== preset: $preset =="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$@"
    ctest --preset "$preset" -j
}

want() {
    for arg in "$@"; do
        case " $args " in
        *" $arg "*) return 1 ;;
        esac
    done
    return 0
}
args="$*"

run_preset default

# observability smoke: a profiled dbsearch run must produce Chrome
# trace, metrics, time-series and profile outputs that strict parsers
# accept, and the --json summary must itself be JSON
echo "== tprof: profiled dbsearch -> Perfetto + metrics + profile =="
obs_dir=build/obs-smoke
mkdir -p "$obs_dir"
./build/tools/tprof --queries 4 \
    --trace "$obs_dir/dbsearch.trace.json" \
    --metrics "$obs_dir/dbsearch.metrics.json" \
    --profile "$obs_dir/dbsearch.folded" \
    --timeline "$obs_dir/dbsearch.timeseries.json"
python3 -m json.tool "$obs_dir/dbsearch.trace.json" > /dev/null
python3 -m json.tool "$obs_dir/dbsearch.metrics.json" > /dev/null
python3 -m json.tool "$obs_dir/dbsearch.timeseries.json" > /dev/null
test -s "$obs_dir/dbsearch.folded" # folded stacks are not JSON
./build/tools/tprof --scenario e7 --iters 20000 --json \
    > "$obs_dir/e7.summary.json"
python3 -m json.tool "$obs_dir/e7.summary.json" > /dev/null
# the tier ladder's traffic: fused runs per CPU-step dispatch
python3 -c 'import json, sys
v = json.load(open(sys.argv[1])).get("fused_runs_per_step")
if not isinstance(v, (int, float)) or v <= 0:
    sys.exit(sys.argv[1] + ": fused_runs_per_step missing or not positive")' \
    "$obs_dir/e7.summary.json"
# CLI hardening: unknown flags and bad values must fail loudly
if ./build/tools/tprof --bogus-flag 2> /dev/null; then
    echo "tprof accepted an unknown flag" >&2
    exit 1
fi
if ./build/tools/tprof --scenario nope 2> /dev/null; then
    echo "tprof accepted an unknown scenario" >&2
    exit 1
fi
echo "trace + metrics + time-series + profile outputs validate"

# every committed benchmark artifact must stay parseable and name the
# host and build it was measured on (bench/report.hh's env stamp)
echo "== benchmark artifacts parse and carry env =="
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    python3 -c 'import json, sys
env = json.load(open(sys.argv[1])).get("env", {})
for k in ("hardware_concurrency", "compiler", "build_type"):
    if k not in env:
        sys.exit(sys.argv[1] + ": no env." + k)' "$f"
    echo "  $f ok"
done

# tier smoke: the execution-tier bench must pass its gates (identical
# outcomes, the e7 tier ratios and block coverage, no dbsearch
# compiles) and emit JSON that a strict parser accepts
echo "== execution tiers: bench_interp =="
interp_dir=build/interp-smoke
mkdir -p "$interp_dir"
(cd "$interp_dir" && ../bench/bench_interp)
python3 -m json.tool "$interp_dir/BENCH_blockc.json" > /dev/null
# the deterministic per-tier cost: host instructions per E7
# instruction for every tier, or why the count was skipped
python3 -c 'import json, sys
v = json.load(open(sys.argv[1])).get("host_instr_per_instr")
if not isinstance(v, dict):
    sys.exit(sys.argv[1] + ": host_instr_per_instr missing")
if "skipped" in v:
    if not isinstance(v["skipped"], str) or not v["skipped"]:
        sys.exit(sys.argv[1] + ": host_instr_per_instr.skipped empty")
else:
    for t in ("plain", "fused", "blockc"):
        x = v.get(t)
        if not isinstance(x, (int, float)) or x <= 0:
            sys.exit(sys.argv[1] + ": host_instr_per_instr." + t +
                     " missing or not positive")' \
    "$interp_dir/BENCH_blockc.json"
echo "BENCH_blockc.json validates"
# those counts do not move with timing noise: a rise of more than 3%
# over the committed artifact fails (same compiler and build type)
python3 tools/compare_counts.py host_instr_per_instr \
    "$interp_dir/BENCH_blockc.json" BENCH_blockc.json

# event-kernel cost: host instructions per dispatched event on the
# 16x8 dbsearch board and the lossy routed torus, counted by single
# steps (or why the count was skipped); a rise of more than 3% over
# the committed artifact fails
echo "== event kernel: bench_kernel =="
kernel_dir=build/kernel-smoke
mkdir -p "$kernel_dir"
(cd "$kernel_dir" && ../bench/bench_kernel)
python3 -c 'import json, sys
v = json.load(open(sys.argv[1])).get("host_instr_per_event")
if not isinstance(v, dict):
    sys.exit(sys.argv[1] + ": host_instr_per_event missing")
if "skipped" in v:
    if not isinstance(v["skipped"], str) or not v["skipped"]:
        sys.exit(sys.argv[1] + ": host_instr_per_event.skipped empty")
else:
    for run in ("dbsearch_16x8", "routed_loss10"):
        r = v.get(run)
        if not isinstance(r, dict):
            sys.exit(sys.argv[1] + ": host_instr_per_event." + run +
                     " missing")
        for k in ("per_event", "instructions", "events"):
            x = r.get(k)
            if not isinstance(x, (int, float)) or x <= 0:
                sys.exit(sys.argv[1] + ": host_instr_per_event." + run +
                         "." + k + " missing or not positive")' \
    "$kernel_dir/BENCH_kernel.json"
echo "BENCH_kernel.json validates"
python3 tools/compare_counts.py host_instr_per_event \
    "$kernel_dir/BENCH_kernel.json" BENCH_kernel.json

# observability overhead: the flight recorder, profiler and
# time-series must stay within their bars on the E7 loop (medians of
# per-round ratios to the all-off baseline) and emit JSON that a
# strict parser accepts
echo "== observability overhead: bench_obs =="
obs_bench_dir=build/obs-bench-smoke
mkdir -p "$obs_bench_dir"
(cd "$obs_bench_dir" && ../bench/bench_obs)
python3 -m json.tool "$obs_bench_dir/BENCH_obs.json" > /dev/null
echo "BENCH_obs.json validates"

# checkpoint/restore smoke: snapshot round-trips through tsnap for
# the serial engine (e7, and dbsearch with link bursts), the parallel
# engine (capture at a window barrier) and a fault-injected run;
# --verify replays the whole history uninterrupted and fails on any
# architectural divergence
echo "== tsnap: snapshot round-trips (serial, parallel, faulty) =="
snap_dir=build/snap-smoke
mkdir -p "$snap_dir"
./build/tools/tsnap save --scenario e7 --iters 50000 \
    --run-for 5000000 --out "$snap_dir/e7.tsnap" > /dev/null
./build/tools/tsnap restore "$snap_dir/e7.tsnap" \
    --run-for 5000000 --verify | tail -1
# the clean serial dbsearch is the one whose links carry bursts, and
# its serial --verify compares scheduler seqs as well
./build/tools/tsnap save --scenario dbsearch --queries 4 \
    --run-for 2000000 --out "$snap_dir/db.tsnap" > /dev/null
./build/tools/tsnap restore "$snap_dir/db.tsnap" \
    --run-for 3000000 --verify | tail -1
./build/tools/tsnap save --scenario dbsearch --queries 4 --threads 4 \
    --run-for 2000000 --out "$snap_dir/db-par.tsnap" > /dev/null
./build/tools/tsnap restore "$snap_dir/db-par.tsnap" \
    --run-for 3000000 --threads 4 --verify | tail -1
./build/tools/tsnap save --scenario dbsearch --queries 4 \
    --loss 0.02 --seed 9 --watchdog 200000 \
    --run-for 2000000 --out "$snap_dir/db-fault.tsnap" > /dev/null
./build/tools/tsnap restore "$snap_dir/db-fault.tsnap" \
    --run-for 3000000 --verify | tail -1

# scale-out smoke: a 10k-node flood, serially (the per-node lookahead
# of a large serial queue) and on 4 shards, must reduce to exactly
# width*height (the example exits nonzero otherwise), and the quick
# scale bench -- weak scaling minus the 100k point, gated on exact
# waves, barrier rounds within their ceilings and bytes/node -- must
# pass and emit JSON that a strict parser accepts
echo "== scale-out: 10k-node flood + bench_scale --quick =="
./build/examples/flood 100 100 1 1
./build/examples/flood 100 100 4 1
scale_dir=build/scale-smoke
mkdir -p "$scale_dir"
(cd "$scale_dir" && ../bench/bench_scale --quick)
python3 -m json.tool "$scale_dir/BENCH_scale.json" > /dev/null
echo "BENCH_scale.json validates"

# routing smoke: the 8x8-torus routed flood must deliver exactly once
# per live terminal while trunks lose 10% of their bytes and three
# interior nodes die mid-run (the example exits nonzero otherwise),
# and the route bench -- delivery, reroute latency, hop-stretch, with
# the same robustness bar -- must pass and emit JSON that a strict
# parser accepts
echo "== routing: killed-node routed flood + bench_route =="
./build/examples/routed_flood
route_dir=build/route-smoke
mkdir -p "$route_dir"
(cd "$route_dir" && ../bench/bench_route)
python3 -m json.tool "$route_dir/BENCH_route.json" > /dev/null
echo "BENCH_route.json validates"

if want --no-tsan; then
    run_preset tsan --target test_par --target test_obs \
        --target test_profile --target test_fault --target test_snap \
        --target test_blockc --target test_scale --target test_route \
        --target test_link
fi

if want --no-asan; then
    run_preset asan --target test_fault --target test_fuzz_decode \
        --target test_profile --target test_snap \
        --target test_fuzz_snap --target test_blockc \
        --target test_scale --target test_route \
        --target test_fuzz_route --target test_sim --target test_link \
        --target test_cpu_misc --target test_differential \
        --target test_mem --target test_predecode
fi

echo "== all checks passed =="
