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
 * Timing: bench/report.hh's protocol -- one untimed round, then 5
 * timed rounds with the engines in rotating order (round k starts at
 * engine k), so no engine always runs first or cold.  Each row reports
 * the median wall time with its min and max, and the speedup is the
 * median of per-round serial/engine ratios.  Every run must match the
 * first run bit for bit.
 *
 * Results go to stdout and to BENCH_par_scaling.json in the current
 * directory.  Note: on a single-core host the parallel runs cannot go
 * faster than serial -- the barrier rounds only add overhead.  The
 * JSON records hardware_concurrency so readers can tell.
 */

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "apps/dbsearch.hh"
#include "par/parallel_engine.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int gridW = 16, gridH = 8;
constexpr int queries = 4;
constexpr Tick sliceNs = 3'000'000; // 3 ms of simulated time
constexpr int kRounds = 5;           // timed runs of each engine
constexpr int kEngines[] = {0, 1, 2, 4, 8}; // 0: the serial engine

struct Run
{
    double seconds = 0;
    uint64_t events = 0;
    uint64_t rounds = 0;
    uint64_t barriers = 0;
    Tick simulated = 0;
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
};

/** Same simulated outcome: answers, clock, counters. */
bool
sameOutcome(const Run &a, const Run &b)
{
    return a.counts == b.counts && a.simulated == b.simulated &&
           obs::sameArchitectural(a.ctrs, b.ctrs);
}

Run
runOnce(size_t engine)
{
    apps::DbSearchConfig cfg;
    cfg.width = gridW;
    cfg.height = gridH;
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int i = 0; i < queries; ++i)
        db->inject(static_cast<Word>(7 * i + 3));
    const Tick start = db->network().queue().now();
    const Tick limit = start + sliceNs;

    Run r;
    const double t0 = wallSeconds();
    if (kEngines[engine] == 0) {
        const uint64_t before = db->network().queue().dispatched();
        db->network().run(limit);
        r.events = db->network().queue().dispatched() - before;
    } else {
        net::RunOptions opts;
        opts.threads = kEngines[engine];
        opts.partition = net::Partition::Contiguous;
        par::RunStats stats;
        par::runParallel(db->network(), limit, opts, &stats);
        r.events = stats.totalEvents();
        r.rounds = stats.rounds;
        r.barriers = stats.barriers;
        r.shards = stats.shards;
    }
    r.seconds = wallSeconds() - t0;
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

    const auto r =
        runRounds(std::size(kEngines), kRounds, runOnce, sameOutcome);
    const double serialEvents =
        static_cast<double>(r.runs[0].front().events);
    std::vector<Row> rows;
    for (size_t e = 0; e < std::size(kEngines); ++e) {
        // events, rounds and shards are deterministic: the first run's
        const Run &run = r.runs[e].front();
        const Spread wall = r.time(e);
        std::vector<Row> shards;
        for (const auto &sh : run.shards)
            shards.push_back(Row()
                                 .add("nodes", sh.nodes)
                                 .add("events", sh.events)
                                 .add("inbox_pushes", sh.inboxPushes)
                                 .add("stalls", sh.stalls)
                                 .add("epochs", sh.epochs));
        Row row;
        row.col("engine", "engine",
                kEngines[e] ? fmt("{} shard", kEngines[e]) : "serial")
            .add("threads", kEngines[e])
            .col("wall (ms)", "wall_ms", wall.median * 1e3)
            .col("min", "wall_ms_min", wall.min * 1e3)
            .col("max", "wall_ms_max", wall.max * 1e3)
            .col("events", "events", run.events)
            .col("x serial", "event_ratio",
                 static_cast<double>(run.events) / serialEvents)
            .col("rounds", "rounds", run.rounds)
            .col("barriers", "barriers", run.barriers)
            .col("balance", "balance", run.balance())
            .col("speedup", "speedup", r.ratio(e))
            .add("shards", shards);
        rows.push_back(row);
    }

    std::cout << "wall: median of " << kRounds
              << " timed runs per engine, min and max beside it; "
                 "speedup: median of per-round serial/engine ratios\n\n";
    Report report;
    report.add("workload", "dbsearch_16x8")
        .add("nodes", gridW * gridH)
        .add("simulated_ns", sliceNs)
        .add("hardware_concurrency", cores)
        .add("timed_runs_per_engine", kRounds)
        .add("identical", r.identical);
    report.table("runs", rows);
    std::cout << "\nall runs bit-identical: "
              << (r.identical ? "yes" : "NO") << "\n";
    if (cores < 2)
        std::cout << "(single-core host: shard runs can only show "
                     "engine overhead, not speedup)\n";
    report.write("BENCH_par_scaling.json");
    return r.identical ? 0 : 1;
}
