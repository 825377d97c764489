/**
 * @file
 * Observability overhead on the E7 MIPS loop (see DESIGN.md
 * "Second-generation observability"): how much host throughput the
 * sampling profiler, the metrics time-series and the always-on flight
 * recorder cost, each measured against a fully-disabled baseline.
 *
 * The disabled paths are designed to be ~free -- in the interpreter
 * the profiler and time-series reduce to one threshold compare each
 * per chain against a never-reached sentinel (in the block tier the
 * thresholds fold into the existing bound check, costing nothing),
 * and the flight recorder to a null-pointer test per scheduler
 * event -- so the acceptance bars are
 *
 *   - everything off: the baseline, reported for reference;
 *   - flight recorder on (the shipping default): <= 2% overhead;
 *   - profiler on at the default 4096-cycle interval: <= 5%;
 *   - time-series on at the default tick: <= 5%.
 *
 * The variants run by bench/report.hh's protocol (one untimed round,
 * then kRounds rounds in rotating order).  Pass/fail reads the median
 * of per-round ratios to the baseline, as bench_interp's gates do: a
 * noise burst on a shared host lands on a whole round and mostly
 * cancels in its ratio, while the fastest run of a variant moves with
 * a noisy neighbour by more than the bars.  The best-of overhead is
 * reported beside it.  Every run must finish the loop it names (reach
 * its stopp with the lap counter at 0) inside AsmRig::run's simulated
 * limit.  Results go to stdout plus BENCH_obs.json.
 */

#include <string>
#include <vector>

#include "apps/e7.hh"
#include "core/transputer.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kRounds = 64;

// E7 laps a run: 70 cycles a lap, so the loop ends at 1.75 s of
// simulated time, inside AsmRig::run's 2-s limit
constexpr int kLaps = 500'000;

/** The observability variants under comparison. */
struct Variant
{
    const char *name;
    bool flight;
    bool profile;
    bool timeseries;
    double bar; ///< max tolerated median overhead (1/ratio - 1)
};

constexpr Variant kVariants[] = {
    {"baseline", false, false, false, 0.0}, // reference, no bar
    {"flight", true, false, false, 0.02},
    {"profile", true, true, false, 0.05},
    {"timeseries", true, false, true, 0.05},
};

struct Run
{
    double seconds = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t samples = 0;
    uint64_t tsPoints = 0;
    bool finished = false; ///< the loop reached its stopp
};

Run
runOnce(size_t variant)
{
    const Variant &v = kVariants[variant];
    core::Config cfg;
    cfg.flight = v.flight;
    cfg.profile = v.profile;       // default 4096-cycle interval
    cfg.timeseries = v.timeseries; // default 1 ms tick
    AsmRig rig(cfg);
    const double t0 = cpuSeconds();
    rig.run(apps::e7LoopSource(kLaps));
    Run r;
    r.seconds = cpuSeconds() - t0;
    r.finished = rig.local(30) == 0 &&
                 rig.cpu.state() != core::CpuState::Running;
    r.instructions = rig.cpu.counters().instructions;
    r.cycles = rig.cpu.counters().cycles;
    if (const obs::Profiler *p = rig.cpu.profiler())
        r.samples = p->totalSamples();
    if (const obs::TimeSeries *ts = rig.cpu.timeSeries())
        r.tsPoints = ts->total();
    return r;
}

} // namespace

int
main()
{
    heading("observability overhead: sampling profiler, time-series, "
            "flight recorder on the E7 loop");

    // observation must never change the simulated outcome
    const auto r = runRounds(
        std::size(kVariants), kRounds, runOnce,
        [](const Run &a, const Run &b) {
            return a.instructions == b.instructions &&
                   a.cycles == b.cycles;
        });

    bool finished = true;
    for (const auto &runs : r.runs)
        for (const Run &run : runs)
            finished = finished && run.finished;
    bool pass = r.identical && finished;
    const Spread base = r.time(0);
    std::vector<Row> rows;
    for (size_t v = 0; v < std::size(kVariants); ++v) {
        const Spread s = r.time(v);
        const Run &first = r.runs[v].front();
        const double instr = static_cast<double>(first.instructions);
        const double over = 1.0 / r.ratio(v) - 1.0;
        pass = pass && over <= kVariants[v].bar;
        Row row;
        row.col("variant", "name", kVariants[v].name)
            .col("i/s best", "ips_best", instr / s.min)
            .col("i/s median", "ips_median", instr / s.median)
            .add("ips_spread", s.relative())
            .col("overhead", "overhead_median", over)
            .col("best-of", "overhead_best", s.min / base.min - 1.0)
            .col("bar", "bar", kVariants[v].bar)
            .col("samples", "samples", first.samples)
            .col("ts points", "ts_points", first.tsPoints)
            .add("instructions", first.instructions);
        rows.push_back(row);
    }

    Report report;
    report.add("bench", "obs_overhead")
        .add("workload", "e7_mips_loop")
        .add("laps", kLaps)
        .add("median_of", kRounds)
        .add("identical", r.identical)
        .add("finished", finished);
    report.table("variants", rows);
    std::cout << (r.identical ? ""
                              : "simulated outcome DIFFERS across "
                                "variants\n")
              << (finished ? ""
                           : "a run did NOT finish its loop inside "
                             "the simulated limit\n")
              << (pass ? "all bars met\n" : "bars MISSED\n");
    report.add("pass", pass);
    report.write("BENCH_obs.json");
    return pass ? 0 : 1;
}
