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
# epoch-window equality runs under tsan, the lossy variant under asan.
# The routing suite (test_route) also carries both: serial-vs-parallel
# routed-fabric identity under tsan, kill/reroute/partition under
# asan; its decoder/switch fuzzers (test_fuzz_route) run under asan.
# The event-kernel and link suites (test_sim, test_link) run under
# asan because the queue holds raw pointers into its owners, and so
# does test_cpu_misc, whose wild-jump case once crashed the host, and
# test_differential, which runs random guest code through both
# instruction-handler state policies and all three execution tiers.
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

# every committed benchmark artifact must stay parseable
echo "== benchmark artifacts parse =="
for f in BENCH_*.json; do
    [ -e "$f" ] || continue
    python3 -m json.tool "$f" > /dev/null
    echo "  $f ok"
done

# checkpoint/restore smoke: snapshot round-trips through tsnap for
# the serial engine, the parallel engine (capture at a window barrier)
# and a fault-injected run; --verify replays the whole history
# uninterrupted and fails on any architectural divergence
echo "== tsnap: snapshot round-trips (serial, parallel, faulty) =="
snap_dir=build/snap-smoke
mkdir -p "$snap_dir"
./build/tools/tsnap save --scenario e7 --iters 50000 \
    --run-for 5000000 --out "$snap_dir/e7.tsnap" > /dev/null
./build/tools/tsnap restore "$snap_dir/e7.tsnap" \
    --run-for 5000000 --verify | tail -1
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
# of a large serial queue) and under the epoch-window parallel engine,
# must reduce to exactly width*height (the example exits nonzero
# otherwise), and the quick scale bench -- weak scaling minus the 100k
# point, bytes/node, the A/B ratio gate -- must pass and emit JSON
# that a strict parser accepts
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
        --target test_blockc --target test_scale --target test_route
fi

if want --no-asan; then
    run_preset asan --target test_fault --target test_fuzz_decode \
        --target test_profile --target test_snap \
        --target test_fuzz_snap --target test_blockc \
        --target test_scale --target test_route \
        --target test_fuzz_route --target test_sim --target test_link \
        --target test_cpu_misc --target test_differential
fi

echo "== all checks passed =="
