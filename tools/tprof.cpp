/**
 * @file
 * tprof -- profile a transputer workload and export its timeline.
 *
 * Runs one of two scenarios -- the paper's database search (section
 * 4.2, the default) or the straight-line E7 MIPS loop -- and exports
 * what the second-generation observability stack (src/obs) records:
 *
 *   - a Chrome trace-event JSON (--trace, open in
 *     https://ui.perfetto.dev): one track per transputer with
 *     occupancy slices, scheduler instants, and flow arrows;
 *   - a flat metrics JSON (--metrics, Network::dumpMetrics);
 *   - a folded-stack guest profile (--profile, feed to
 *     inferno/flamegraph.pl) plus an annotated hot-PC disassembly in
 *     the text summary;
 *   - a metrics time-series JSON (--timeline): periodic counter
 *     deltas per node plus a cycle-imbalance series;
 *   - an armed flight-recorder dump (--flight PREFIX): written only
 *     when a post-mortem trigger fires (error flag, watchdog abort,
 *     deadlock).
 *
 * The default run is serial; --threads N profiles the shard-parallel
 * engine instead.  Architectural counters, profiles and time-series
 * are bit-identical either way -- that is a tested invariant
 * (tests/test_profile.cc).  --json replaces the human summary with a
 * machine-readable one on stdout.
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"
#include "apps/e7.hh"
#include "isa/disasm.hh"
#include "obs/chrome_trace.hh"
#include "obs/flight.hh"
#include "obs/profile.hh"
#include "par/parallel_engine.hh"
#include "tasm/assembler.hh"

using namespace transputer;

namespace
{

void
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0 << " [options]\n"
        << "scenario:\n"
        << "  --scenario S   dbsearch | e7 (default dbsearch)\n"
        << "  --width N      dbsearch array width (default 4)\n"
        << "  --height N     dbsearch array height (default 4)\n"
        << "  --queries N    dbsearch pipelined queries (default 8)\n"
        << "  --iters N      e7 loop iterations (default 200000)\n"
        << "run:\n"
        << "  --threads N    shard-parallel run with N threads\n"
        << "                 (default 1: serial)\n"
        << "  --no-blockc    disable the block-compiler tier\n"
        << "  --json         machine-readable summary on stdout\n"
        << "observability:\n"
        << "  --depth N         trace ring depth log2 (default 18)\n"
        << "  --trace PATH      Chrome trace output\n"
        << "                    (default tprof.trace.json)\n"
        << "  --metrics PATH    metrics output\n"
        << "                    (default tprof.metrics.json)\n"
        << "  --profile PATH    folded-stack guest profile output\n"
        << "                    (enables the sampling profiler)\n"
        << "  --sample-cycles N profiler interval (default 4096)\n"
        << "  --timeline PATH   time-series JSON output (enables the\n"
        << "                    metrics time-series)\n"
        << "  --ts-ns N         time-series tick (default 1000000 ns)\n"
        << "  --flight PREFIX   arm the flight-recorder auto-dump:\n"
        << "                    writes PREFIX.txt + PREFIX.trace.json\n"
        << "                    if a post-mortem trigger fires\n";
}

[[noreturn]] void
usageError(const char *argv0, const std::string &why)
{
    std::cerr << argv0 << ": " << why << "\n";
    usage(argv0);
    std::exit(2);
}

/** Strict integer parse: the whole token must be a number in
 *  [lo, hi].  std::atoi silently accepted "4x4" or "" as 4 / 0. */
long
parseInt(const char *argv0, const std::string &flag, const char *s,
         long lo, long hi)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (errno != 0 || end == s || *end != '\0')
        usageError(argv0, flag + ": not a number: '" + s + "'");
    if (v < lo || v > hi)
        usageError(argv0, flag + ": " + s + " out of range [" +
                             std::to_string(lo) + ", " +
                             std::to_string(hi) + "]");
    return v;
}

/** Top PCs by profile samples, summed over processes and annotated
 *  with the disassembly of the instruction at each PC. */
struct HotPc
{
    int node;
    uint64_t iptr;
    uint64_t samples;
    std::string text;
};

std::vector<HotPc>
hotPcs(net::Network &net, size_t top)
{
    std::map<std::pair<int, uint64_t>, uint64_t> byPc;
    uint64_t total = 0;
    for (size_t i = 0; i < net.size(); ++i) {
        const obs::Profiler *prof = net.node((int)i).profiler();
        if (!prof)
            continue;
        for (const auto &kv : prof->cells()) {
            byPc[{(int)i, kv.first.second}] += kv.second.samples;
            total += kv.second.samples;
        }
    }
    std::vector<HotPc> v;
    for (const auto &kv : byPc)
        v.push_back(HotPc{kv.first.first, kv.first.second,
                          kv.second, ""});
    std::sort(v.begin(), v.end(), [](const HotPc &a, const HotPc &b) {
        return a.samples != b.samples ? a.samples > b.samples
               : a.node != b.node     ? a.node < b.node
                                      : a.iptr < b.iptr;
    });
    if (v.size() > top)
        v.resize(top);
    for (HotPc &h : v) {
        auto &node = net.node(h.node);
        uint8_t buf[12];
        size_t n = 0;
        while (n < sizeof(buf) &&
               node.memory().contains(static_cast<Word>(h.iptr + n))) {
            buf[n] = node.memory().readByte(
                static_cast<Word>(h.iptr + n));
            ++n;
        }
        const auto lines = isa::disassemble(
            buf, n, static_cast<Word>(h.iptr), node.shape());
        h.text = lines.empty() ? "?" : lines.front().text;
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string scenario = "dbsearch";
    apps::DbSearchConfig cfg;
    long queries = 8;
    long iters = 200'000;
    long threads = 1;
    bool json = false;
    std::string trace_path = "tprof.trace.json";
    std::string metrics_path = "tprof.metrics.json";
    std::string profile_path;
    std::string timeline_path;
    std::string flight_prefix;
    cfg.node.traceDepth = 18;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usageError(argv[0], arg + " needs a value");
            return argv[++i];
        };
        const auto num = [&](long lo, long hi) {
            return parseInt(argv[0], arg, value(), lo, hi);
        };
        if (arg == "--scenario")
            scenario = value();
        else if (arg == "--width")
            cfg.width = static_cast<int>(num(1, 64));
        else if (arg == "--height")
            cfg.height = static_cast<int>(num(1, 64));
        else if (arg == "--queries")
            queries = num(0, 1'000'000);
        else if (arg == "--iters")
            iters = num(1, 1'000'000'000);
        else if (arg == "--threads")
            threads = num(1, 256);
        else if (arg == "--no-blockc")
            cfg.node.blockCompile = false;
        else if (arg == "--json")
            json = true;
        else if (arg == "--depth")
            cfg.node.traceDepth = static_cast<unsigned>(num(4, 28));
        else if (arg == "--trace")
            trace_path = value();
        else if (arg == "--metrics")
            metrics_path = value();
        else if (arg == "--profile") {
            profile_path = value();
            cfg.node.profile = true;
        } else if (arg == "--sample-cycles")
            cfg.node.profileInterval =
                static_cast<uint64_t>(num(1, 1'000'000'000));
        else if (arg == "--timeline") {
            timeline_path = value();
            cfg.node.timeseries = true;
        } else if (arg == "--ts-ns")
            cfg.node.timeseriesInterval =
                static_cast<Tick>(num(1, 1'000'000'000'000));
        else if (arg == "--flight")
            flight_prefix = value();
        else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else
            usageError(argv[0], "unknown option " + arg);
    }
    if (scenario != "dbsearch" && scenario != "e7")
        usageError(argv[0], "unknown scenario '" + scenario +
                                "' (dbsearch | e7)");

    // trace from the first booted instruction (the ring also covers
    // the set-up phase; raise --depth if the run wraps it)
    cfg.node.trace = true;

    // build the scenario: either the 2-D search array or a single
    // node spinning the E7 loop
    std::unique_ptr<apps::DbSearch> db;
    std::unique_ptr<net::Network> e7net;
    net::Network *netp = nullptr;
    if (scenario == "dbsearch") {
        db = std::make_unique<apps::DbSearch>(cfg);
        netp = &db->network();
    } else {
        e7net = std::make_unique<net::Network>();
        const int n0 = e7net->addTransputer(cfg.node, "e7");
        auto &node = e7net->node(n0);
        const tasm::Image img =
            tasm::assemble(apps::e7LoopSource(iters),
                           node.memory().memStart(), node.shape());
        e7net->bootImage(n0, img);
        netp = e7net.get();
    }
    net::Network &net = *netp;
    if (!flight_prefix.empty())
        obs::armFlightDump(net, flight_prefix);

    const Tick t0 = net.queue().now();
    if (db)
        for (long i = 0; i < queries; ++i)
            db->inject(static_cast<Word>(i % cfg.keySpace));
    if (threads > 1) {
        net::RunOptions opts;
        opts.threads = static_cast<int>(threads);
        net.run(maxTick, opts);
    } else if (db) {
        db->runUntilAnswers(static_cast<size_t>(queries));
    } else {
        net.run(maxTick);
    }
    const Tick t1 = net.queue().now();

    bool ok = true;
    if (db) {
        ok = db->answers().size() == static_cast<size_t>(queries);
        for (size_t i = 0; i < db->answers().size(); ++i)
            ok = ok && db->answers()[i].count ==
                           db->expectedCount(
                               static_cast<Word>(i % cfg.keySpace));
    }

    const obs::Counters total = net.counters();
    uint64_t samples = 0;
    for (size_t i = 0; i < net.size(); ++i)
        if (const obs::Profiler *p = net.node((int)i).profiler())
            samples += p->totalSamples();

    // Per-tier breakdown: the fused and block tiers record the cycles
    // they retire, so the slow/predecoded remainder is total minus
    // both.  (Tier attribution is host-side bookkeeping; the sums are
    // the architectural totals either way.)
    const uint64_t fusedCyc = total.fused.cycles;
    const uint64_t blockCyc = total.blockc.cycles;
    const uint64_t interpCyc =
        total.cycles - std::min(total.cycles, fusedCyc + blockCyc);
    // the tier ladder's traffic: fused-loop entries per CPU-step event
    // the queue dispatched (1 when every dispatch is a single run)
    const uint64_t steps = net.queue().stats().dispatchedSteps;
    const double runsPerStep =
        steps ? static_cast<double>(total.fused.runs) /
                    static_cast<double>(steps)
              : 0.0;

    if (json) {
        std::cout << "{\"scenario\": \"" << scenario << "\""
                  << ", \"threads\": " << threads;
        if (db)
            std::cout << ", \"width\": " << cfg.width
                      << ", \"height\": " << cfg.height
                      << ", \"queries\": " << queries << ", \"answers\": "
                      << db->answers().size();
        else
            std::cout << ", \"iters\": " << iters;
        std::cout << ", \"ok\": " << (ok ? "true" : "false")
                  << ", \"simulated_ns\": " << (t1 - t0)
                  << ", \"instructions\": " << total.instructions
                  << ", \"cycles\": " << total.cycles
                  << ", \"icache_hit_rate\": " << total.icacheHitRate()
                  << ", \"link_bytes_out\": " << total.linkBytesOut
                  << ", \"link_bytes_in\": " << total.linkBytesIn
                  << ", \"process_starts\": " << total.processStarts
                  << ", \"tier_cycles\": {\"interp\": " << interpCyc
                  << ", \"fused\": " << fusedCyc << ", \"blockc\": "
                  << blockCyc << "}"
                  << ", \"fused_runs_per_step\": " << runsPerStep
                  << ", \"profile_samples\": " << samples << "}\n";
    } else {
        std::cout << "tprof: " << scenario;
        if (db)
            std::cout << " " << cfg.width << "x" << cfg.height << ", "
                      << queries << " queries";
        else
            std::cout << ", " << iters << " iterations";
        std::cout << ", " << (threads > 1 ? "parallel" : "serial")
                  << " run\n"
                  << "  simulated time   " << (t1 - t0) / 1000.0
                  << " us\n"
                  << "  instructions     " << total.instructions << "\n"
                  << "  icache hit rate  " << total.icacheHitRate()
                  << "\n"
                  << "  fused mean run   " << total.fused.meanRunLength()
                  << "\n"
                  << "  fused runs/step  " << runsPerStep << " ("
                  << total.fused.runs << " runs, " << steps
                  << " step dispatches)\n"
                  << "  link bytes       " << total.linkBytesOut
                  << " out / " << total.linkBytesIn << " in\n"
                  << "  process starts   " << total.processStarts
                  << "\n";
        if (db)
            std::cout << "  answers          " << db->answers().size()
                      << "/" << queries
                      << (ok ? " correct" : " WRONG") << "\n";
        const auto pct = [&](uint64_t c) {
            return total.cycles
                       ? 100.0 * static_cast<double>(c) /
                             static_cast<double>(total.cycles)
                       : 0.0;
        };
        std::cout << "  tier cycles      interp " << interpCyc << " ("
                  << pct(interpCyc) << "%), fused " << fusedCyc << " ("
                  << pct(fusedCyc) << "%), blockc " << blockCyc << " ("
                  << pct(blockCyc) << "%)\n";
        if (total.blockc.enters) {
            std::cout << "  blockc           " << total.blockc.compiles
                      << " compiles, " << total.blockc.enters
                      << " enters, mean run "
                      << total.blockc.meanRunLength() << " chains\n"
                      << "  blockc deopts    ";
            bool first = true;
            for (size_t i = 0; i < obs::kBlockDeopts; ++i) {
                if (!total.blockc.deopts[i])
                    continue;
                std::cout << (first ? "" : ", ")
                          << obs::kBlockDeoptNames[i] << " "
                          << total.blockc.deopts[i];
                first = false;
            }
            std::cout << (first ? "none\n" : "\n");
        }
        if (samples) {
            std::cout << "  profile          " << samples
                      << " samples, hottest PCs:\n";
            for (const HotPc &h : hotPcs(net, 8)) {
                char line[96];
                std::snprintf(line, sizeof(line),
                              "    %-10s 0x%-8llx %6llu  %s\n",
                              net.node(h.node).name().c_str(),
                              (unsigned long long)h.iptr,
                              (unsigned long long)h.samples,
                              h.text.c_str());
                std::cout << line;
            }
        }
    }

    if (!obs::writeChromeTrace(net, trace_path)) {
        std::cerr << "tprof: cannot write " << trace_path << "\n";
        return 1;
    }
    std::ofstream metrics(metrics_path);
    if (!metrics) {
        std::cerr << "tprof: cannot write " << metrics_path << "\n";
        return 1;
    }
    metrics << net.dumpMetrics();
    if (!profile_path.empty()) {
        std::ofstream f(profile_path);
        if (!f) {
            std::cerr << "tprof: cannot write " << profile_path << "\n";
            return 1;
        }
        f << obs::foldedProfile(net);
    }
    if (!timeline_path.empty()) {
        std::ofstream f(timeline_path);
        if (!f) {
            std::cerr << "tprof: cannot write " << timeline_path
                      << "\n";
            return 1;
        }
        f << obs::timeseriesJson(net);
    }
    if (!json) {
        std::cout << "  wrote " << trace_path
                  << " (open in Perfetto) and " << metrics_path;
        if (!profile_path.empty())
            std::cout << " and " << profile_path;
        if (!timeline_path.empty())
            std::cout << " and " << timeline_path;
        std::cout << "\n";
    }
    return ok ? 0 : 1;
}
