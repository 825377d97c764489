/**
 * @file
 * Shard-scaling of the parallel simulation engine (src/par).
 *
 * Workload: the paper's full-board database search (16 x 8 = 128
 * transputers, section 4.2) with a burst of pipelined queries, run for
 * a fixed slice of simulated time.  The same workload is simulated
 * serially and with 1/2/4/8 shards; every run is bit-identical (the
 * engine's guarantee, checked here via the answer stream), so only the
 * host's work varies: wall-clock time, barrier rounds, and events
 * dispatched -- the serial queue's count is the reference, and the
 * "x serial" column is each run's ratio to it.
 *
 * Results go to stdout and to BENCH_par_scaling.json in the current
 * directory.  Note: on a single-core host the parallel runs cannot go
 * faster than serial -- the barrier rounds only add overhead.  The
 * JSON records hardware_concurrency so readers can tell.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <thread>
#include <vector>

#include "apps/dbsearch.hh"
#include "par/parallel_engine.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int gridW = 16, gridH = 8;
constexpr int queries = 4;
constexpr Tick sliceNs = 3'000'000; // 3 ms of simulated time

struct Result
{
    int threads; // 0: serial engine (no shards, no barriers)
    double wall_ms;
    uint64_t events;
    uint64_t rounds;
    uint64_t barriers;
    Tick simulated;
    std::vector<Word> counts;
    std::vector<par::ShardStats> shards;
    obs::Counters ctrs;

    /** Load imbalance: busiest shard's events over the mean (1.0 is
     *  perfectly balanced). */
    double
    balance() const
    {
        if (shards.empty() || !events)
            return 1.0;
        uint64_t most = 0;
        for (const auto &s : shards)
            most = std::max(most, s.events);
        return static_cast<double>(most) * shards.size() /
               static_cast<double>(events);
    }

    std::string
    label() const
    {
        return threads == 0 ? "serial" : fmt("{} shard", threads);
    }
};

Result
runOnce(int threads)
{
    apps::DbSearchConfig cfg;
    cfg.width = gridW;
    cfg.height = gridH;
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int i = 0; i < queries; ++i)
        db->inject(static_cast<Word>(7 * i + 3));
    const Tick start = db->network().queue().now();
    const Tick limit = start + sliceNs;

    Result r{};
    r.threads = threads;
    const auto t0 = std::chrono::steady_clock::now();
    if (threads == 0) {
        const uint64_t before = db->network().queue().dispatched();
        db->network().run(limit);
        r.events = db->network().queue().dispatched() - before;
    } else {
        net::RunOptions opts;
        opts.threads = threads;
        opts.partition = net::Partition::Contiguous;
        par::RunStats stats;
        par::runParallel(db->network(), limit, opts, &stats);
        r.events = stats.totalEvents();
        r.rounds = stats.rounds;
        r.barriers = stats.barriers;
        r.shards = stats.shards;
    }
    const auto t1 = std::chrono::steady_clock::now();
    r.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    r.simulated = db->network().queue().now() - start;
    r.ctrs = db->network().counters();
    for (const auto &a : db->answers())
        r.counts.push_back(a.count);
    return r;
}

} // namespace

int
main()
{
    heading("parallel engine scaling: 16x8 database search, " +
            std::to_string(sliceNs / 1'000'000) + " ms slice");
    const unsigned cores = std::thread::hardware_concurrency();
    std::cout << "host hardware_concurrency: " << cores << "\n\n";

    std::vector<Result> results;
    results.push_back(runOnce(0)); // serial baseline
    for (int threads : {1, 2, 4, 8})
        results.push_back(runOnce(threads));

    const double serial_ms = results.front().wall_ms;
    bool identical = true;
    for (const auto &r : results)
        identical = identical && r.counts == results.front().counts &&
                    r.simulated == results.front().simulated &&
                    obs::sameArchitectural(r.ctrs,
                                           results.front().ctrs);

    const double serial_events =
        static_cast<double>(results.front().events);
    Table t({14, 12, 12, 10, 10, 10, 10, 10});
    t.row("engine", "wall (ms)", "events", "x serial", "rounds",
          "barriers", "balance", "speedup");
    t.rule();
    for (const auto &r : results)
        t.row(r.label(), r.wall_ms, r.events,
              static_cast<double>(r.events) / serial_events, r.rounds,
              r.barriers, r.balance(), serial_ms / r.wall_ms);
    t.rule();
    std::cout << "\nall runs bit-identical: "
              << (identical ? "yes" : "NO") << "\n";
    if (cores < 2)
        std::cout << "(single-core host: shard runs can only show "
                     "engine overhead, not speedup)\n";

    std::ofstream json("BENCH_par_scaling.json");
    json << "{\n  \"workload\": \"dbsearch_16x8\",\n"
         << "  \"nodes\": " << gridW * gridH << ",\n"
         << "  \"simulated_ns\": " << sliceNs << ",\n"
         << "  \"hardware_concurrency\": " << cores << ",\n"
         << "  \"identical\": " << (identical ? "true" : "false")
         << ",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        json << "    {\"threads\": " << r.threads
             << ", \"wall_ms\": " << r.wall_ms
             << ", \"events\": " << r.events
             << ", \"event_ratio\": "
             << static_cast<double>(r.events) / serial_events
             << ", \"rounds\": " << r.rounds
             << ", \"barriers\": " << r.barriers
             << ", \"balance\": " << r.balance()
             << ", \"speedup\": " << serial_ms / r.wall_ms
             << ", \"shards\": [";
        for (size_t s = 0; s < r.shards.size(); ++s) {
            const auto &sh = r.shards[s];
            json << (s ? ", " : "") << "{\"nodes\": " << sh.nodes
                 << ", \"events\": " << sh.events
                 << ", \"inbox_pushes\": " << sh.inboxPushes
                 << ", \"stalls\": " << sh.stalls
                 << ", \"epochs\": " << sh.epochs << "}";
        }
        json << "]}" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote BENCH_par_scaling.json\n";
    return identical ? 0 : 1;
}
