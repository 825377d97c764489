/**
 * @file
 * Host-side interpreter throughput across the three execution tiers
 * (see DESIGN.md "Interpreter fast path" and "Block compiler"):
 *
 *   plain   -- byte-at-a-time interpreter (predecode off);
 *   fused   -- predecoded chains + the fused inner loop;
 *   blockc  -- the block-compiler tier (threaded superblocks) on top.
 *
 * Two workloads:
 *   - the E7 MIPS loop (straight-line single-cycle code, the block
 *     tier's best case; acceptance: blockc >= 3.5x plain);
 *   - the database-search kernel on a small grid (channels, links and
 *     scheduling in the mix; acceptance: blockc >= 1.8x plain),
 *     toggled through the node config.
 *
 * Pass/fail uses the MEDIAN of per-repetition speedup RATIOS: each
 * timed repetition runs all three tiers back to back, so a noise
 * burst on a shared host (CPU steal, frequency ramp) lands on the
 * whole triple and mostly cancels in the ratio, where per-tier
 * medians taken from separate batches would let one burst skew a
 * single tier.  The spread ((max-min)/median) of both the raw rates
 * and the ratios is reported so a noisy run is visible in the
 * artifact.  Simulated results (instructions, cycles) must be
 * identical across all three tiers -- both caches are architecturally
 * invisible; this harness checks that too and fails loudly if it
 * ever drifts.
 *
 * Results go to stdout plus BENCH_interp.json (the historical
 * fused-vs-plain artifact) and BENCH_blockc.json (the three-way
 * comparison).
 */

#include <algorithm>
#include <chrono>
#include <ctime>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"
#include "par/parallel_engine.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int warmup = 2; ///< discarded priming runs (cold caches,
                          ///< allocator growth, CPU frequency ramp)
constexpr int reps = 7;   ///< timed repetitions (median decides)

/** The three execution tiers under comparison. */
enum class Tier
{
    Plain,  ///< predecode off (blockc needs predecode: off too)
    Fused,  ///< predecode on, block compiler off
    Blockc, ///< predecode on, block compiler on
};

const char *
tierName(Tier t)
{
    switch (t) {
      case Tier::Plain:  return "plain";
      case Tier::Fused:  return "fused";
      default:           return "blockc";
    }
}

/** Process CPU time (all threads -- the dbsearch run dispatches on a
 *  worker): immune to the container's scheduling noise. */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct Measure
{
    double ips = 0;          ///< simulated instructions per wall second
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t fusedRuns = 0;
    uint64_t fusedInstructions = 0;
    obs::BlockStats blockc;

    double
    hitRate() const
    {
        const double n =
            static_cast<double>(icacheHits + icacheMisses);
        return n ? static_cast<double>(icacheHits) / n : 0.0;
    }

    /** Instructions the fused loop inlined per entry (on-mode only). */
    double
    fusedMeanRun() const
    {
        return fusedRuns ? static_cast<double>(fusedInstructions) /
                               static_cast<double>(fusedRuns)
                         : 0.0;
    }

    void
    fill(const obs::Counters &c)
    {
        instructions = c.instructions;
        cycles = c.cycles;
        icacheHits = c.icacheHits;
        icacheMisses = c.icacheMisses;
        fusedRuns = c.fused.runs;
        fusedInstructions = c.fused.instructions;
        blockc = c.blockc;
    }
};

double
medianOf(std::vector<double> s)
{
    std::sort(s.begin(), s.end());
    const size_t n = s.size();
    return n == 0 ? 0.0
                  : n % 2 ? s[n / 2]
                          : (s[n / 2 - 1] + s[n / 2]) / 2.0;
}

/** Relative spread of a sample: (max - min) / median. */
double
spreadOf(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    const double med = medianOf(v);
    return med ? (*hi - *lo) / med : 0.0;
}

/** All timed repetitions of one workload at one tier. */
struct Result
{
    Measure best;             ///< rep with the highest instr/s
    std::vector<double> ips;  ///< every timed rep's instr/s

    double
    median() const
    {
        return medianOf(ips);
    }

    double
    spread() const
    {
        return spreadOf(ips);
    }

    void
    add(const Measure &m)
    {
        ips.push_back(m.ips);
        if (m.ips > best.ips)
            best = m;
    }
};

std::string
e7LoopSource(int iterations)
{
    std::string body;
    for (int r = 0; r < 6; ++r)
        body += "  ldc 5\n stl 1\n adc 3\n stl 2\n ldc 9\n"
                "  adc 1\n stl 3\n ldlp 4\n stl 4\n";
    return "start:\n"
           "  ldc " + std::to_string(iterations) + "\n stl 30\n"
           "outer:\n" + body +
           "  ldl 30\n adc -1\n stl 30\n"
           "  ldl 30\n cj done\n  j outer\n"
           "done: stopp\n";
}

Measure
runE7Once(Tier tier)
{
    core::Config cfg;
    cfg.predecode = tier != Tier::Plain;
    cfg.blockCompile = tier == Tier::Blockc;
    AsmRig rig(cfg);
    const double t0 = cpuSeconds();
    // long enough that a transient host-noise burst (~100 ms) cannot
    // dominate any single tier's run
    rig.run(e7LoopSource(500'000));
    const double secs = cpuSeconds() - t0;
    Measure m;
    m.fill(rig.cpu.counters());
    m.ips = static_cast<double>(m.instructions) / secs;
    return m;
}

Measure
runDbSearchOnce(Tier tier)
{
    apps::DbSearchConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    // the app's constructor boots every node with this config
    cfg.node.predecode = tier != Tier::Plain;
    cfg.node.blockCompile = tier == Tier::Blockc;
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int q = 0; q < 12; ++q)
        db->inject(static_cast<Word>(7 * q + 3));
    const Tick limit = db->network().queue().now() + 6'000'000;
    net::RunOptions opts;
    opts.threads = 1;
    const double t0 = cpuSeconds();
    db->network().run(limit, opts);
    const double secs = cpuSeconds() - t0;
    Measure m;
    m.fill(db->network().counters());
    m.ips = static_cast<double>(m.instructions) / secs;
    return m;
}

/** One workload measured across all tiers, tiers paired per rep. */
struct Samples
{
    Result plain, fused, blockc;
    std::vector<double> fusedRatio;  ///< per-rep fused/plain
    std::vector<double> blockcRatio; ///< per-rep blockc/plain
};

template <typename RunOnce>
Samples
measure(RunOnce once)
{
    Samples s;
    for (int r = -warmup; r < reps; ++r) {
        const Measure mp = once(Tier::Plain);
        const Measure mf = once(Tier::Fused);
        const Measure mb = once(Tier::Blockc);
        if (r < 0)
            continue; // warmup: prime before timing counts
        s.plain.add(mp);
        s.fused.add(mf);
        s.blockc.add(mb);
        if (mp.ips > 0) {
            s.fusedRatio.push_back(mf.ips / mp.ips);
            s.blockcRatio.push_back(mb.ips / mp.ips);
        }
    }
    return s;
}

struct Workload
{
    const char *name;
    Samples s;
    double bar = 0; ///< acceptance: median per-rep blockc/plain ratio

    double
    fusedSpeedup() const
    {
        return medianOf(s.fusedRatio);
    }

    double
    blockcSpeedup() const
    {
        return medianOf(s.blockcRatio);
    }

    /** The simulated outcome must not depend on either cache. */
    bool
    identical() const
    {
        const Result &plain = s.plain, &fused = s.fused,
                     &blockc = s.blockc;
        return plain.best.instructions == fused.best.instructions &&
               plain.best.cycles == fused.best.cycles &&
               plain.best.instructions == blockc.best.instructions &&
               plain.best.cycles == blockc.best.cycles;
    }
};

void
workloadJson(std::ostream &os, const Workload &w)
{
    auto tier = [&](const char *name, const Result &r) {
        os << "      \"" << name << "\": {\"ips_median\": "
           << r.median() << ", \"ips_best\": " << r.best.ips
           << ", \"spread\": " << r.spread() << "}";
    };
    os << "    {\"name\": \"" << w.name << "\",\n";
    tier("plain", w.s.plain);
    os << ",\n";
    tier("fused", w.s.fused);
    os << ",\n";
    tier("blockc", w.s.blockc);
    os << ",\n      \"speedup_fused\": " << w.fusedSpeedup()
       << ", \"speedup_blockc\": " << w.blockcSpeedup()
       << ", \"ratio_spread\": " << spreadOf(w.s.blockcRatio)
       << ", \"bar\": " << w.bar
       << ", \"identical\": " << (w.identical() ? "true" : "false")
       << ",\n      \"instructions\": "
       << w.s.blockc.best.instructions
       << ", \"icache_hit_rate\": " << w.s.blockc.best.hitRate()
       << ", \"blockc_enters\": " << w.s.blockc.best.blockc.enters
       << ", \"blockc_chains\": " << w.s.blockc.best.blockc.chains
       << ", \"blockc_mean_run\": "
       << w.s.blockc.best.blockc.meanRunLength()
       << ", \"blockc_compiles\": "
       << w.s.blockc.best.blockc.compiles
       << ",\n      \"blockc_deopts\": {";
    for (size_t d = 0; d < obs::kBlockDeopts; ++d)
        os << (d ? ", " : "") << "\"" << obs::kBlockDeoptNames[d]
           << "\": " << w.s.blockc.best.blockc.deopts[d];
    os << "}}";
}

} // namespace

int
main()
{
    heading("execution tiers: instructions/second, "
            "plain vs fused vs block-compiled");

    std::vector<Workload> loads;
    loads.push_back(
        {"e7_mips_loop", measure([](Tier t) { return runE7Once(t); }),
         3.5});
    loads.push_back({"dbsearch_4x4",
                     measure([](Tier t) { return runDbSearchOnce(t); }),
                     1.8});

    Table t({16, 13, 13, 13, 9, 9, 9, 10});
    t.row("workload", "plain i/s", "fused i/s", "blockc i/s",
          "fusedx", "blockx", "rspread", "identical");
    t.rule();
    bool all_identical = true;
    for (const auto &w : loads) {
        t.row(w.name, w.s.plain.median(), w.s.fused.median(),
              w.s.blockc.median(), w.fusedSpeedup(),
              w.blockcSpeedup(), spreadOf(w.s.blockcRatio),
              w.identical() ? "yes" : "NO");
        all_identical = all_identical && w.identical();
    }
    t.rule();

    // the pass bar is a median of per-rep ratios: best-of-N let one
    // lucky rep decide, and per-tier medians from separate batches
    // let one noise burst sink a single tier.  Only a real
    // regression -- the typical paired ratio below the bar -- fails.
    const double e7_fused = loads[0].fusedSpeedup();
    bool bars_met = e7_fused >= 2.0;
    for (const auto &w : loads) {
        const double s = w.blockcSpeedup();
        const bool met = s >= w.bar;
        std::cout << w.name << ": blockc " << s << "x plain"
                  << " (bar " << w.bar << "x"
                  << (met ? ", met" : ", MISSED") << "), ratio spread "
                  << spreadOf(w.s.blockcRatio) << "\n";
        bars_met = bars_met && met;
    }
    const bool pass = bars_met && all_identical;

    std::ofstream json("BENCH_interp.json");
    json << "{\n  \"bench\": \"interp_fast_path\",\n"
         << "  \"e7_speedup\": " << e7_fused << ",\n"
         << "  \"pass_2x\": "
         << (e7_fused >= 2.0 && all_identical ? "true" : "false")
         << ",\n"
         << "  \"median_of\": " << reps << ",\n"
         << "  \"identical\": " << (all_identical ? "true" : "false")
         << ",\n  \"workloads\": [\n";
    for (size_t i = 0; i < loads.size(); ++i) {
        const auto &w = loads[i];
        json << "    {\"name\": \"" << w.name << "\""
             << ", \"ips_on\": " << w.s.fused.median()
             << ", \"ips_off\": " << w.s.plain.median()
             << ", \"speedup\": " << w.fusedSpeedup()
             << ", \"spread_on\": " << w.s.fused.spread()
             << ", \"spread_off\": " << w.s.plain.spread()
             << ", \"instructions\": " << w.s.fused.best.instructions
             << ", \"icache_hits\": " << w.s.fused.best.icacheHits
             << ", \"icache_misses\": "
             << w.s.fused.best.icacheMisses
             << ", \"icache_hit_rate\": " << w.s.fused.best.hitRate()
             << ", \"fused_runs\": " << w.s.fused.best.fusedRuns
             << ", \"fused_mean_run\": "
             << w.s.fused.best.fusedMeanRun()
             << "}" << (i + 1 < loads.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::cout << "wrote BENCH_interp.json\n";

    std::ofstream bjson("BENCH_blockc.json");
    bjson << "{\n  \"bench\": \"block_compiler_tier\",\n"
          << "  \"median_of\": " << reps << ",\n"
          << "  \"pass\": " << (pass ? "true" : "false") << ",\n"
          << "  \"identical\": "
          << (all_identical ? "true" : "false")
          << ",\n  \"workloads\": [\n";
    for (size_t i = 0; i < loads.size(); ++i) {
        workloadJson(bjson, loads[i]);
        bjson << (i + 1 < loads.size() ? "," : "") << "\n";
    }
    bjson << "  ]\n}\n";
    std::cout << "wrote BENCH_blockc.json\n";

    return pass ? 0 : 1;
}
