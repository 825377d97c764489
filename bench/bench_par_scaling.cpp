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
 * Timing: one untimed serial run warms the process up, then every
 * engine is timed kReps times in rotating order (round k starts at
 * engine k), so no engine always runs first or cold.  Each row
 * reports the median wall time with its min-max, and the speedup is
 * the serial median over the engine's median.  Every timed run must
 * match the serial reference bit for bit.
 *
 * Results go to stdout and to BENCH_par_scaling.json in the current
 * directory.  Note: on a single-core host the parallel runs cannot go
 * faster than serial -- the barrier rounds only add overhead.  The
 * JSON records hardware_concurrency so readers can tell.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iterator>
#include <memory>
#include <sstream>
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
constexpr int kReps = 5;             // timed runs of each engine

struct Result
{
    int threads; // 0: serial engine (no shards, no barriers)
    double wall_ms;            // one run's; the row's median at the end
    std::vector<double> walls; // every timed run's wall_ms
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

    double
    median() const
    {
        std::vector<double> w = walls;
        std::sort(w.begin(), w.end());
        const size_t n = w.size();
        return n % 2 ? w[n / 2] : (w[n / 2 - 1] + w[n / 2]) / 2;
    }

    double
    minWall() const
    {
        return *std::min_element(walls.begin(), walls.end());
    }

    double
    maxWall() const
    {
        return *std::max_element(walls.begin(), walls.end());
    }

    /** "min-max" of the timed runs, to 0.1 ms. */
    std::string
    spread() const
    {
        std::ostringstream os;
        os << std::fixed << std::setprecision(1) << minWall() << "-"
           << maxWall();
        return os.str();
    }

    /** Same simulated outcome as `ref`: answers, clock, counters. */
    bool
    sameAs(const Result &ref) const
    {
        return counts == ref.counts && simulated == ref.simulated &&
               obs::sameArchitectural(ctrs, ref.ctrs);
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

    const Result ref = runOnce(0); // untimed warm-up and reference
    const int engines[] = {0, 1, 2, 4, 8};
    constexpr size_t kEngines = std::size(engines);
    std::vector<Result> results(kEngines);
    bool identical = true;
    for (int rep = 0; rep < kReps; ++rep) {
        for (size_t k = 0; k < kEngines; ++k) {
            const size_t e = (static_cast<size_t>(rep) + k) % kEngines;
            const Result r = runOnce(engines[e]);
            identical = identical && r.sameAs(ref);
            Result &row = results[e];
            if (row.walls.empty())
                row = r; // events, rounds and shards of the first run
            row.walls.push_back(r.wall_ms);
        }
    }
    for (auto &r : results)
        r.wall_ms = r.median();

    const double serial_ms = results.front().wall_ms;

    const double serial_events =
        static_cast<double>(results.front().events);
    std::cout << "wall: median of " << kReps
              << " timed runs per engine, min-max beside it\n\n";
    Table t({14, 12, 20, 12, 10, 10, 10, 10, 10});
    t.row("engine", "wall (ms)", "min-max (ms)", "events", "x serial",
          "rounds", "barriers", "balance", "speedup");
    t.rule();
    for (const auto &r : results)
        t.row(r.label(), r.wall_ms, r.spread(), r.events,
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
         << "  \"timed_runs_per_engine\": " << kReps << ",\n"
         << "  \"identical\": " << (identical ? "true" : "false")
         << ",\n  \"runs\": [\n";
    for (size_t i = 0; i < results.size(); ++i) {
        const auto &r = results[i];
        json << "    {\"threads\": " << r.threads
             << ", \"wall_ms\": " << r.wall_ms
             << ", \"wall_ms_min\": " << r.minWall()
             << ", \"wall_ms_max\": " << r.maxWall()
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
