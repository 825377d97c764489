/**
 * @file
 * Scale-out benchmark: how many transputers one host can simulate.
 *
 * Workload: the flood/reduce array (src/apps/flood.hh) -- the host
 * injects a wave at the corner, every node forwards it down the
 * spanning tree and the totals reduce back, so a run is correct
 * exactly when the root reports w*h.  The measured phase covers node
 * program start-up plus one complete wave under the shard-parallel
 * engine (settle = false): a sea of mostly-idle nodes with a
 * travelling active front, the regime the shard window rule and the
 * compact node state target.
 *
 * Two result groups, written to BENCH_scale.json:
 *  - weak scaling: 1k / 10k / 100k nodes on 4 shards with the compact
 *    node configuration (nodes/sec/core, barrier rounds);
 *  - bytes/node: mean and max Transputer::footprintBytes() after the
 *    run, plus the cost of a node that never executed at all.  That
 *    figure counts the side structures a node grows (caches, tables,
 *    observability buffers), not the node's own objects; the whole
 *    node -- its Transputer and LinkEngine objects plus those side
 *    structures -- is reported beside it, ungated.
 *
 * The gate is on what the run simulated and how it synchronized, not
 * on host time, which a shared host makes too noisy to gate: every
 * wave reduces exactly, every run takes no more barrier rounds than
 * its ceiling (what shard-pair closure windows took before the shards
 * shared the serial per-node rule, DESIGN.md section 4.8), and no
 * node, idle or after the wave, costs more than 1 KiB.
 */

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "apps/flood.hh"
#include "par/parallel_engine.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kThreads = 4;

/** The objects every node of `net` owns, per node: its Transputer
 *  and its share of the link engines (not counted by
 *  footprintBytes()). */
size_t
objectBytesPerNode(net::Network &net)
{
    return sizeof(core::Transputer) +
           net.engineCount() * sizeof(link::LinkEngine) / net.size();
}
constexpr Tick kLimit = 60'000'000'000; // generous; runs quiesce

/** One weak-scaling point: a wave on a w x h array; `ok` gets the
 *  gate's verdict. */
Row
runOnce(const std::string &label, int w, int h, uint64_t maxRounds,
        unsigned cores, bool &ok)
{
    apps::FloodConfig cfg;
    cfg.width = w;
    cfg.height = h;
    cfg.settle = false;

    const double t0 = wallSeconds();
    apps::Flood flood(cfg);
    const double t1 = wallSeconds();
    flood.inject(1);
    net::RunOptions opts;
    opts.threads = kThreads;
    opts.partition = net::Partition::Contiguous;
    par::RunStats stats;
    par::runParallel(flood.network(), kLimit, opts, &stats);
    const double runS = wallSeconds() - t1;

    uint64_t epochs = 0;
    for (const auto &s : stats.shards)
        epochs += s.epochs;
    // the wave reduced to exactly width*height
    const bool exact =
        flood.answers().size() == 1 &&
        flood.answers().back().count == flood.expectedCount();

    // footprintBytes() per node after the run
    size_t sum = 0, most = 0;
    net::Network &net = flood.network();
    for (size_t i = 0; i < net.size(); ++i) {
        const size_t b = net.node(static_cast<int>(i)).footprintBytes();
        sum += b;
        most = std::max(most, b);
    }
    ok = ok && exact && stats.rounds <= maxRounds && most <= 1024;

    const int nodes = w * h;
    const double used =
        std::max(1u, std::min<unsigned>(kThreads, cores));
    return Row()
        .col("run", "label", label)
        .col("nodes", "nodes", nodes)
        .add("width", w)
        .add("height", h)
        .col("build (s)", "build_s", t1 - t0) // construct+compile+boot
        .col("run (s)", "run_s", runS) // start-up + one wave
        .col("nodes/s/core", "nodes_per_sec_per_core",
             nodes / runS / used)
        .col("rounds", "rounds", stats.rounds)
        .col("ceiling", "max_rounds", maxRounds)
        .add("barriers", stats.barriers)
        .add("epochs", epochs)
        .add("bytes_per_node_mean", sum / net.size())
        .col("B/node max", "bytes_per_node_max", most)
        .col("whole B/node", "whole_bytes_per_node_mean",
             objectBytesPerNode(net) + sum / net.size())
        .col("ok", "ok", exact);
}

/** footprintBytes() of a node that was wired but never booted, and
 *  (whole) that plus its objects. */
size_t
idleNodeBytes(size_t &whole)
{
    net::Network net;
    net::buildGrid(net, 8, 8, apps::scaleNodeConfig());
    size_t most = 0;
    for (size_t i = 0; i < net.size(); ++i)
        most = std::max(most,
                        net.node(static_cast<int>(i)).footprintBytes());
    whole = objectBytesPerNode(net) + most;
    return most;
}

} // namespace

int
main(int argc, char **argv)
{
    // --quick: skip the 100k point (tools/check.sh smoke mode)
    const bool quick = argc > 1 && std::string(argv[1]) == "--quick";
    const unsigned cores = std::thread::hardware_concurrency();
    heading("scale-out: flood/reduce waves, " +
            std::to_string(kThreads) + " shards");
    std::cout << "host hardware_concurrency: " << cores << "\n\n";

    // weak scaling; the ceilings are the rounds shard-pair closure
    // windows took on these waves
    size_t idle_whole = 0;
    const size_t idle = idleNodeBytes(idle_whole);
    bool ok = idle <= 1024;
    std::vector<Row> scaling;
    scaling.push_back(runOnce("1k", 32, 32, 1855, cores, ok));
    scaling.push_back(runOnce("10k", 100, 100, 6902, cores, ok));
    if (!quick)
        scaling.push_back(runOnce("100k", 320, 313, 22952, cores, ok));

    Report report;
    report.add("workload", "flood_reduce")
        .add("threads", kThreads)
        .add("hardware_concurrency", cores)
        .add("idle_bytes_per_node", idle)
        .add("idle_whole_bytes_per_node", idle_whole);
    report.table("weak_scaling", scaling);
    std::cout << "\nidle (never-executed) node: " << idle
              << " bytes of side structures, " << idle_whole
              << " with its Transputer and link engines\n";
    std::cout << "gate (exact waves, rounds <= ceiling, <= 1 KiB per "
                 "node): "
              << (ok ? "PASS" : "FAIL") << "\n";
    report.add("pass", ok);
    report.write("BENCH_scale.json");
    return ok ? 0 : 1;
}
