/**
 * @file
 * Host-side interpreter throughput across the three execution tiers
 * (see DESIGN.md "Interpreter fast path" and "Block compiler"):
 *
 *   plain   -- byte-at-a-time interpreter (predecode off);
 *   fused   -- predecoded chains + the fused inner loop;
 *   blockc  -- the block-compiler tier (threaded superblocks) on top.
 *
 * Two workloads, each timed by bench/report.hh's protocol (one
 * untimed round, then 7 rounds with the tiers in rotating order):
 *
 *   - the E7 MIPS loop, the block tier's best case.  Gates: the tier
 *     compiles a superblock and retires more than half of the
 *     instructions in it; fused >= 1.5x plain and blockc >= 1.4x
 *     fused, each the median of per-round ratios, so that each tier
 *     is measured against the one below it;
 *   - the database search on a 4x4 grid (channels, links and
 *     scheduling in the mix), where the promotion gate declines every
 *     block.  Gate: nothing compiles.  Its rates and blockc/fused --
 *     the cost of the heat probe where nothing compiles -- are
 *     reported, not gated.
 *
 * Each row also records the fused tier's mean run in the blockc runs,
 * the figure the promotion gate reads, beside the gate's threshold.
 *
 * Host timings of the tiers swing with code layout and neighbouring
 * load, so the bench also counts each tier's cost deterministically:
 * host instructions per guest instruction on the E7 loop.  A forked
 * child runs the loop between two raise(SIGSTOP) markers and the
 * parent counts its ptrace single steps; the difference between two
 * small lap counts cancels set-up, warm-up and the compile.  Reported,
 * not gated; where ptrace is refused the bench prints why and skips
 * it.
 *
 * Every timed run of every tier must simulate the same instructions
 * and cycles: both caches are architecturally invisible.  Results go
 * to stdout and BENCH_blockc.json.
 */

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"
#include "apps/e7.hh"
#include "core/blockc.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kRounds = 7;

/** The three execution tiers, in the protocol's variant order. */
enum Tier : size_t
{
    Plain,
    Fused,
    Blockc,
    kTiers
};
const char *const kTierNames[kTiers] = {"plain", "fused", "blockc"};

// the e7 gates
constexpr double kFusedOverPlain = 1.5;
constexpr double kBlockcOverFused = 1.4;
constexpr double kBlockcCoverage = 0.5;

struct Run
{
    double seconds = 0;
    obs::Counters ctrs;
};

bool
sameOutcome(const Run &a, const Run &b)
{
    return a.ctrs.instructions == b.ctrs.instructions &&
           a.ctrs.cycles == b.ctrs.cycles;
}

core::Config
tierConfig(core::Config cfg, size_t tier)
{
    cfg.predecode = tier != Plain;
    cfg.blockCompile = tier == Blockc;
    return cfg;
}

Run
runE7(size_t tier)
{
    AsmRig rig(tierConfig({}, tier));
    const double t0 = cpuSeconds();
    // long enough that a transient host-noise burst (~100 ms) cannot
    // dominate any single tier's run
    rig.run(apps::e7LoopSource(500'000));
    return {cpuSeconds() - t0, rig.cpu.counters()};
}

Run
runDbSearch(size_t tier)
{
    apps::DbSearchConfig cfg;
    cfg.width = 4;
    cfg.height = 4;
    // the app's constructor boots every node with this config
    cfg.node = tierConfig(cfg.node, tier);
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int q = 0; q < 12; ++q)
        db->inject(static_cast<Word>(7 * q + 3));
    const Tick limit = db->network().queue().now() + 6'000'000;
    const double t0 = cpuSeconds();
    db->network().run(limit);
    return {cpuSeconds() - t0, db->network().counters()};
}

// the single-step count's lap counts: both past the compile (the
// heat threshold's landings), small enough that stepping the three
// tiers takes well under a minute at tens of microseconds a step
constexpr int kStepLaps[2] = {20, 40};

/** A rig at the start of `laps` E7 laps in `tier`. */
std::unique_ptr<AsmRig>
e7Rig(size_t tier, int laps)
{
    auto rig = std::make_unique<AsmRig>(tierConfig({}, tier));
    rig->load(apps::e7LoopSource(laps));
    rig->cpu.boot(rig->img.symbol("start"), rig->wptr0);
    return rig;
}

/** Run a rig to the end of its loop. */
void
finish(AsmRig &rig)
{
    rig.queue.runUntil(2'000'000'000);
}

/** Host instructions per guest instruction of each tier on the E7
 *  loop, or the reason the count was skipped. */
Row
hostInstrPerInstr()
{
    Row row;
    for (size_t t = 0; t < kTiers; ++t) {
        long steps[2];
        uint64_t instr[2];
        for (int k = 0; k < 2; ++k) {
            const HostSteps h = countHostSteps([t, k] {
                std::shared_ptr<AsmRig> rig = e7Rig(t, kStepLaps[k]);
                return [rig]() -> std::optional<uint64_t> {
                    finish(*rig);
                    if (rig->local(30) != 0)
                        return std::nullopt;
                    return rig->cpu.instructions();
                };
            });
            if (h.steps < 0) {
                std::cout << "host instructions per instruction: "
                          << "skipped (" << h.why << ")\n";
                return Row().add("skipped", h.why);
            }
            steps[k] = h.steps;
            instr[k] = h.result;
        }
        const double per = static_cast<double>(steps[1] - steps[0]) /
                           static_cast<double>(instr[1] - instr[0]);
        std::cout << "host instructions per instruction, "
                  << kTierNames[t] << ": " << per << "\n";
        row.add(kTierNames[t], per);
    }
    return row.add("laps", Row()
                               .add("first", kStepLaps[0])
                               .add("second", kStepLaps[1]));
}

/** One workload's row; `pass` gets its gates' verdict. */
Row
workload(const char *name, Run (*run)(size_t), bool compiles,
         bool &pass)
{
    const Rounds<Run> r = runRounds(kTiers, kRounds, run, sameOutcome);
    const obs::Counters &c = r.runs[Blockc].front().ctrs;
    const double instr = static_cast<double>(c.instructions);
    const double coverage =
        instr ? static_cast<double>(c.blockc.instructions) / instr : 0;
    const double fusedx = r.ratio(Fused, Plain);
    const double blockx = r.ratio(Blockc, Fused);
    pass = r.identical &&
           (compiles ? c.blockc.compiles > 0 &&
                           coverage > kBlockcCoverage &&
                           fusedx >= kFusedOverPlain &&
                           blockx >= kBlockcOverFused
                     : c.blockc.compiles == 0);

    Row row;
    row.col("workload", "name", name);
    for (size_t t = 0; t < kTiers; ++t) {
        const Spread s = r.time(t);
        row.col(std::string(kTierNames[t]) + " i/s", kTierNames[t],
                Row()
                    .add("ips_median", instr / s.median)
                    .add("ips_best", instr / s.min)
                    .add("spread", s.relative()));
    }
    Row deopts;
    for (size_t d = 0; d < obs::kBlockDeopts; ++d)
        deopts.add(obs::kBlockDeoptNames[d], c.blockc.deopts[d]);
    const uint64_t icache = c.icacheHits + c.icacheMisses;
    return row.col("fused/plain", "speedup_fused", fusedx)
        .add("speedup_blockc", r.ratio(Blockc, Plain))
        .col("blockc/fused", "blockc_over_fused", blockx)
        .add("ratio_spread",
             spreadOf(r.ratios(Blockc, Fused)).relative())
        .col("compiles", "blockc_compiles", c.blockc.compiles)
        .col("coverage", "blockc_coverage", coverage)
        .add("instructions", c.instructions)
        .add("icache_hit_rate",
             icache ? static_cast<double>(c.icacheHits) / icache : 0.0)
        .add("blockc_enters", c.blockc.enters)
        .add("blockc_chains", c.blockc.chains)
        .add("blockc_mean_run", c.blockc.meanRunLength())
        .col("fused run", "fused_mean_run", c.fused.meanRunLength())
        .add("blockc_deopts", deopts)
        .col("identical", "identical", r.identical)
        .col("pass", "pass", pass);
}

} // namespace

int
main()
{
    heading("execution tiers: instructions/second, "
            "plain vs fused vs block-compiled");

    bool e7Pass = false, dbPass = false;
    std::vector<Row> rows;
    rows.push_back(workload("e7_mips_loop", runE7, true, e7Pass));
    rows.push_back(
        workload("dbsearch_4x4", runDbSearch, false, dbPass));

    Report report;
    report.add("bench", "block_compiler_tier")
        .add("median_of", kRounds)
        .add("bars", Row()
                         .add("fused_over_plain", kFusedOverPlain)
                         .add("blockc_over_fused", kBlockcOverFused)
                         .add("blockc_coverage", kBlockcCoverage));
    // the promotion gate the fused mean runs above are read against
    // (Transputer::blockPromotionAllowed)
    report.add("promotion_gate",
               Row().add("min_mean_run",
                         core::blockc::BlockCache::kMinMeanRun));
    report.table("workloads", rows);
    report.add("host_instr_per_instr", hostInstrPerInstr());
    std::cout << "e7: compiles, blockc coverage > " << kBlockcCoverage
              << ", fused >= " << kFusedOverPlain
              << "x plain, blockc >= " << kBlockcOverFused
              << "x fused (medians of per-round ratios): "
              << (e7Pass ? "met" : "MISSED") << "\n"
              << "dbsearch_4x4: no compiles (blockc/fused reported, "
              << "not gated): " << (dbPass ? "met" : "MISSED") << "\n";
    const bool pass = e7Pass && dbPass;
    report.add("pass", pass);
    report.write("BENCH_blockc.json");
    return pass ? 0 : 1;
}
