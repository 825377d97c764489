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
 *    run, plus the cost of a node that never executed at all.
 *
 * The gate is on what the run simulated and how it synchronized, not
 * on host time, which a shared host makes too noisy to gate: every
 * wave reduces exactly, every run takes no more barrier rounds than
 * its ceiling (what shard-pair closure windows took before the shards
 * shared the serial per-node rule, DESIGN.md section 4.8), and no
 * node, idle or after the wave, costs more than 1 KiB.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "apps/flood.hh"
#include "par/parallel_engine.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kThreads = 4;
constexpr Tick kLimit = 60'000'000'000; // generous; runs quiesce

struct Result
{
    std::string label;
    int width, height;
    uint64_t maxRounds; // the gate's ceiling
    double build_s;   // construct + compile + boot
    double run_s;     // start-up + one wave, parallel engine
    uint64_t rounds;
    uint64_t barriers;
    uint64_t epochs;
    size_t bytesMean; // footprintBytes() per node after the run
    size_t bytesMax;
    bool ok;          // the wave reduced to exactly width*height

    int nodes() const { return width * height; }
    double
    nodesPerSecPerCore(unsigned cores) const
    {
        const double used =
            std::max(1u, std::min<unsigned>(kThreads, cores));
        return nodes() / run_s / used;
    }
};

Result
runOnce(const std::string &label, int w, int h, uint64_t max_rounds)
{
    apps::FloodConfig cfg;
    cfg.width = w;
    cfg.height = h;
    cfg.settle = false;
    cfg.node = apps::FloodConfig::scaleNodeConfig();

    Result r{};
    r.label = label;
    r.width = w;
    r.height = h;
    r.maxRounds = max_rounds;

    const auto t0 = std::chrono::steady_clock::now();
    apps::Flood flood(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    flood.inject(1);
    net::RunOptions opts;
    opts.threads = kThreads;
    opts.partition = net::Partition::Contiguous;
    par::RunStats stats;
    par::runParallel(flood.network(), kLimit, opts, &stats);
    const auto t2 = std::chrono::steady_clock::now();

    r.build_s = std::chrono::duration<double>(t1 - t0).count();
    r.run_s = std::chrono::duration<double>(t2 - t1).count();
    r.rounds = stats.rounds;
    r.barriers = stats.barriers;
    for (const auto &s : stats.shards)
        r.epochs += s.epochs;
    r.ok = flood.answers().size() == 1 &&
           flood.answers().back().count == flood.expectedCount();

    size_t sum = 0, most = 0;
    net::Network &net = flood.network();
    for (size_t i = 0; i < net.size(); ++i) {
        const size_t b = net.node(static_cast<int>(i)).footprintBytes();
        sum += b;
        most = std::max(most, b);
    }
    r.bytesMean = sum / net.size();
    r.bytesMax = most;
    return r;
}

/** footprintBytes() of a node that was wired but never booted: the
 *  true cost of an idle transputer in a big array. */
size_t
idleNodeBytes()
{
    net::Network net;
    net::buildGrid(net, 8, 8, apps::FloodConfig::scaleNodeConfig());
    size_t most = 0;
    for (size_t i = 0; i < net.size(); ++i)
        most = std::max(most,
                        net.node(static_cast<int>(i)).footprintBytes());
    return most;
}

void
emitRun(std::ofstream &json, const Result &r, unsigned cores,
        bool last)
{
    json << "    {\"label\": \"" << r.label << "\""
         << ", \"nodes\": " << r.nodes() << ", \"width\": " << r.width
         << ", \"height\": " << r.height
         << ", \"build_s\": " << r.build_s
         << ", \"run_s\": " << r.run_s
         << ", \"nodes_per_sec_per_core\": "
         << r.nodesPerSecPerCore(cores) << ", \"rounds\": " << r.rounds
         << ", \"max_rounds\": " << r.maxRounds
         << ", \"barriers\": " << r.barriers
         << ", \"epochs\": " << r.epochs
         << ", \"bytes_per_node_mean\": " << r.bytesMean
         << ", \"bytes_per_node_max\": " << r.bytesMax
         << ", \"ok\": " << (r.ok ? "true" : "false") << "}"
         << (last ? "" : ",") << "\n";
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
    std::vector<Result> scaling;
    scaling.push_back(runOnce("1k", 32, 32, 1855));
    scaling.push_back(runOnce("10k", 100, 100, 6902));
    if (!quick)
        scaling.push_back(runOnce("100k", 320, 313, 22952));

    const size_t idle = idleNodeBytes();

    Table t({10, 10, 12, 12, 10, 12, 12, 12, 12});
    t.row("run", "nodes", "build (s)", "run (s)", "rounds", "ceiling",
          "nodes/s/core", "B/node max", "ok");
    t.rule();
    bool ok = idle <= 1024;
    for (const auto &r : scaling) {
        t.row(r.label, r.nodes(), r.build_s, r.run_s, r.rounds,
              r.maxRounds, r.nodesPerSecPerCore(cores), r.bytesMax,
              r.ok ? "yes" : "NO");
        ok = ok && r.ok && r.rounds <= r.maxRounds && r.bytesMax <= 1024;
    }
    t.rule();
    std::cout << "\nidle (never-executed) node: " << idle
              << " bytes of side structures\n";
    std::cout << "gate (exact waves, rounds <= ceiling, <= 1 KiB per "
                 "node): "
              << (ok ? "PASS" : "FAIL") << "\n";

    std::ofstream json("BENCH_scale.json");
    json << "{\n  \"workload\": \"flood_reduce\",\n"
         << "  \"threads\": " << kThreads << ",\n"
         << "  \"hardware_concurrency\": " << cores << ",\n"
         << "  \"idle_bytes_per_node\": " << idle << ",\n"
         << "  \"weak_scaling\": [\n";
    for (size_t i = 0; i < scaling.size(); ++i)
        emitRun(json, scaling[i], cores, i + 1 == scaling.size());
    json << "  ],\n  \"pass\": " << (ok ? "true" : "false") << "\n}\n";
    std::cout << "wrote BENCH_scale.json\n";
    return ok ? 0 : 1;
}
