/**
 * @file
 * The benchmark program: one workload, one seed, one result line.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--spans <file>]
 *   perfbench --list-metrics
 *
 * --trace 0 repeats the measured phase -- a fresh set-up, then inject
 * to the last checked answer -- serially until --seconds have passed
 * (at least kMinReps times), runs it once on kShards shards, and
 * reports the end-to-end metrics: the phase time from its calibrated
 * slices (SliceTimer) at a low quantile, set-up time as the median of
 * back-to-back set-ups.  --trace 1 makes a traced serial
 * run whose phase is cut into fixed slices of simulated time, between
 * two untraced serial runs, and one traced sharded run, and reports the
 * per-layer metrics; the spans go to --spans.  Every run checks every
 * answer, and every sharded or traced run must reproduce the serial
 * run's answer stream and architectural counters exactly.
 *
 * The last line of standard output is the result:
 *   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <charconv>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "par/parallel_engine.hh"
#include "workloads.hh"

using namespace perfbench;
namespace tp = transputer;
using Clock = std::chrono::steady_clock;

namespace
{

constexpr int kShards = 4;   ///< shards of every sharded run
constexpr int kMinReps = 3;
constexpr int kMaxReps = 25;
/** Back-to-back set-ups behind setup_s (the most within 10% of the
 *  run time, but at least the fewest). */
constexpr size_t kMinBackToBack = 3;
constexpr size_t kMaxBackToBack = 50;
/** Quantile of each calibrated slice's times over the repetitions that
 *  goes into host_s (quantileSlices). */
constexpr double kSliceQuantile = 0.1;

/** Every metric the benchmark prints; BENCHMARK.json must agree. */
struct MetricDef
{
    const char *name;
    const char *unit;
    bool endToEnd; ///< printed by --trace 0 (else by --trace 1)
};

constexpr MetricDef kMetrics[] = {
    {"host_s", "s", true},
    {"sim_mips", "Minstr/s", true},
    {"setup_s", "s", true},
    {"peak_rss_mb", "MiB", true},
    {"sim.sim_ms", "ms", false},
    {"sim.events", "count", false},
    {"sim.ns_per_event", "ns", false},
    {"sim.high_water", "count", false},
    {"core.instructions", "count", false},
    {"core.cycles", "count", false},
    {"core.ns_per_instr", "ns", false},
    {"core.icache_hit_rate", "ratio", false},
    {"core.fused_mean_run", "instr", false},
    {"core.blockc_coverage", "ratio", false},
    {"core.blockc_mean_run", "chains", false},
    {"core.blockc_deopts", "count", false},
    {"core.process_starts", "count", false},
    {"core.timeslices", "count", false},
    {"core.chan_internal", "count", false},
    {"core.chan_link", "count", false},
    {"core.timer_wakes", "count", false},
    {"mem.bytes_per_node", "bytes", false},
    {"link.bytes", "bytes", false},
    {"link.events_per_byte", "ratio", false},
    {"link.aborts", "count", false},
    {"link.stale_acks", "count", false},
    {"par.events", "count", false},
    {"par.event_ratio", "ratio", false},
    {"par.rounds", "count", false},
    {"par.barriers", "count", false},
    {"par.stalls", "count", false},
    {"par.inbox_pushes", "count", false},
    {"par.imbalance", "ratio", false},
    {"par.useful_rounds", "ratio", false},
    {"par.host_s", "s", false},
    {"route.forwards", "count", false},
    {"route.delivered", "count", false},
    {"route.hops", "count", false},
    {"route.retransmits", "count", false},
    {"route.hop_retransmits", "count", false},
    {"route.hop_drops", "count", false},
    {"route.reroutes", "count", false},
    {"route.link_floods", "count", false},
    {"route.congestion_drops", "count", false},
    {"route.undeliverable", "count", false},
    {"route.goodput", "ratio", false},
    {"fault.data_drops", "count", false},
    {"fault.ack_drops", "count", false},
    {"fault.corrupts", "count", false},
    {"occam.compile_s", "s", false},
    {"net.build_s", "s", false},
    {"net.settle_s", "s", false},
    {"trace.overhead", "ratio", false},
};

std::string
num(double v)
{
    char buf[64];
    const auto r = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, r.ptr);
}

/** The metrics object of the result line, in catalogue order. */
class Metrics
{
  public:
    void
    set(const std::string &name, double v)
    {
        for (const auto &m : kMetrics)
            if (name == m.name) {
                values_[name] = v;
                return;
            }
        std::cerr << "perfbench: metric " << name
                  << " is not in the catalogue\n";
        std::exit(3);
    }

    std::string
    json(bool end_to_end) const
    {
        std::string out = "{";
        for (const auto &m : kMetrics) {
            if (m.endToEnd != end_to_end)
                continue;
            const auto it = values_.find(m.name);
            if (it == values_.end()) {
                std::cerr << "perfbench: metric " << m.name
                          << " was never measured\n";
                std::exit(3);
            }
            const double v = it->second;
            if (out.size() > 1)
                out += ", ";
            out += std::string("\"") + m.name + "\": {\"value\": " +
                   num(v) + ", \"unit\": \"" + m.unit + "\"}";
        }
        return out + "}";
    }

  private:
    std::map<std::string, double> values_;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
ratio(double a, double b)
{
    return b != 0 ? a / b : 0.0;
}

/** Simulated limit `span` ticks after `start` (maxTick: quiescence). */
Tick
limitAfter(Tick start, Tick span)
{
    return span == tp::maxTick ? tp::maxTick : start + span;
}

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    int trace = 0;
    std::string spans;
};

/** One serial measured phase. */
struct SerialRep
{
    double setup_s = 0;
    double host_s = 0; ///< inject to the end of the phase
    /** Timed runs: host seconds of the inject, then of each fixed slice
     *  of simulated time (the same work in every repetition), at the
     *  uncontended host's speed. */
    std::vector<double> calibrated;
    Outcome out;
    /** The state at the sharded run's limit, where that ends early. */
    std::optional<Outcome> prefix;
    tp::obs::Counters before; ///< counters at the inject
    uint64_t events = 0;       ///< dispatched in the phase
    uint64_t prefixEvents = 0; ///< dispatched up to the prefix
    size_t highWater = 0;
    double bytesPerNode = 0;
};

/** One sharded measured phase. */
struct ShardedRep
{
    double setup_s = 0;
    double host_s = 0;
    Outcome out;
    tp::par::RunStats stats;
};

/**
 * @name Host speed probe
 * On a shared host, a tenant on the other hardware thread of the same
 * core can slow a high-IPC thread such as the interpreter by half, for
 * a tenth of a second or for minutes.  Steal time and thread CPU time
 * do not show it, but a fixed high-IPC integer loop slows down with
 * it: the loop's time and the next slice's time correlate at 0.7-0.9.
 * Timed runs run the loop between their slices and rescale each slice
 * to an uncontended host's speed.
 */
///@{
constexpr long kSpeedLoopIters = 1L << 21;
/**
 * Loop times up to this count as an uncontended host.  The loop takes
 * 1.5 ms uncontended on the host the benchmark was tuned on (a 2.1 GHz
 * Xeon vCPU, GCC 12 -O2), but the workloads do not slow down until it
 * takes about 1.8 ms; beyond that they slow down with it.
 */
constexpr double kSpeedLoopKneeS = 1.8e-3;
volatile long speedLoopIters = kSpeedLoopIters; // not a constant: no folding
volatile uint64_t speedLoopSink;

/** Host seconds the speed loop takes now. */
double
speedLoopSeconds()
{
    const long n = speedLoopIters;
    const auto t0 = Clock::now();
    uint64_t a = 1, b = 2, c = 3, d = 4, e = 5, f = 6;
    for (long i = 0; i < n; ++i) {
        a += static_cast<uint64_t>(i);
        b ^= a;
        c += b >> 1;
        d += static_cast<uint64_t>(i) * 3;
        e ^= d;
        f += e + c;
    }
    speedLoopSink = a + b + c + d + e + f;
    return secondsSince(t0);
}

/**
 * Times a phase slice by slice, with the speed loop run before the
 * first slice and after every slice.  A disabled timer only runs the
 * slices.
 */
class SliceTimer
{
  public:
    explicit SliceTimer(bool on) : on_(on) {}

    template <typename Fn>
    void
    slice(Fn &&fn)
    {
        if (on_ && loop_.empty())
            loop();
        const auto t0 = Clock::now();
        fn();
        if (!on_)
            return;
        slices_.push_back(secondsSince(t0));
        loop();
    }

    /** Host seconds spent in the loop: not part of the phase. */
    double loopSeconds() const { return loopS_; }

    /**
     * Each slice at an uncontended host's speed: divided by the loop's
     * slow-down past the knee, its mean time on the two sides of the
     * slice over kSpeedLoopKneeS (at least 1), raised to `sensitivity`,
     * the share of that slow-down the workload feels.
     */
    std::vector<double>
    calibrated(double sensitivity) const
    {
        std::vector<double> out;
        for (size_t i = 0; i < slices_.size(); ++i) {
            const double slow = (loop_[i] + loop_[i + 1]) / 2 /
                                kSpeedLoopKneeS;
            out.push_back(slices_[i] /
                          std::pow(std::max(1.0, slow), sensitivity));
        }
        return out;
    }

  private:
    void
    loop()
    {
        const auto t0 = Clock::now();
        loop_.push_back(speedLoopSeconds());
        loopS_ += secondsSince(t0);
    }

    bool on_;
    std::vector<double> slices_, loop_;
    double loopS_ = 0;
};
///@}

/** Set up w under a "setup" span; returns the host seconds taken. */
double
setUp(Workload &w, Tracer &tr)
{
    const auto probe = [&w] { return w.probe(); };
    const int span = tr.open("setup", -1, probe);
    const auto t0 = Clock::now();
    w.setup(tr, span);
    const double s = secondsSince(t0);
    tr.close(span, probe);
    return s;
}

/**
 * Set up, inject and run serially.  Sliced runs cut the phase into
 * slices of traceSlice() simulated ticks: one span each when traced,
 * else timed one by one with a SliceTimer.
 */
SerialRep
runSerial(const Args &a, Tracer &tr, bool sliced)
{
    SerialRep r;
    auto w = makeWorkload(a.workload, a.seed);
    const auto probe = [&w] { return w->probe(); };
    r.setup_s = setUp(*w, tr);
    SliceTimer timer(sliced && !tr.on());

    tp::net::Network &net = w->network();
    r.before = w->counters();
    const uint64_t ev0 = net.queue().dispatched();
    const int phase = tr.open("phase.serial", -1, probe);
    const auto t0 = Clock::now();
    const int inj = tr.open("inject", phase, probe);
    timer.slice([&] { w->inject(); });
    tr.close(inj, probe);
    const Tick start = net.queue().now();
    const Tick limit = limitAfter(start, w->phaseLimit());

    const auto runTo = [&](Tick until) {
        if (!sliced) {
            net.run(until);
            return;
        }
        while (net.queue().pending() > 0 && net.queue().now() < until) {
            const Tick to =
                std::min(until, net.queue().now() + w->traceSlice());
            const int s = tr.open("net.run", phase, probe);
            timer.slice([&] { net.run(to); });
            tr.close(s, probe);
        }
    };

    double excluded = 0; // the prefix read is not part of the phase
    if (w->shardedLimit() < w->phaseLimit()) {
        runTo(start + w->shardedLimit());
        const auto c0 = Clock::now();
        r.prefixEvents = net.queue().dispatched() - ev0;
        r.prefix = w->outcome();
        excluded = secondsSince(c0);
    }
    runTo(limit);
    r.host_s = secondsSince(t0) - excluded - timer.loopSeconds();
    tr.close(phase, probe);
    r.calibrated = timer.calibrated(w->hostSensitivity());

    r.events = net.queue().dispatched() - ev0;
    r.highWater = net.queue().highWater();
    const int read = tr.open("counters.read", -1, probe);
    r.out = w->outcome();
    r.bytesPerNode = w->bytesPerNode();
    tr.close(read, probe);
    return r;
}

ShardedRep
runSharded(const Args &a, Tracer &tr)
{
    ShardedRep r;
    auto w = makeWorkload(a.workload, a.seed);
    const auto probe = [&w] { return w->probe(); };
    r.setup_s = setUp(*w, tr);

    tp::net::Network &net = w->network();
    const int phase = tr.open("phase.sharded", -1, probe);
    const auto t0 = Clock::now();
    w->inject();
    const Tick limit = limitAfter(net.queue().now(), w->shardedLimit());
    tp::net::RunOptions opts;
    opts.threads = kShards;
    opts.partition = tp::net::Partition::Contiguous;
    const int run = tr.open("par.runParallel", phase, probe);
    tp::par::runParallel(net, limit, opts, &r.stats);
    tr.close(run, probe);
    r.host_s = secondsSince(t0);
    tr.close(phase, probe);
    const int read = tr.open("counters.read", -1, probe);
    r.out = w->outcome();
    tr.close(read, probe);
    return r;
}

/** Two runs of one workload and seed simulated the same thing. */
bool
sameSimulation(const Outcome &a, const Outcome &b)
{
    return a.stream == b.stream && a.simNs == b.simNs &&
           tp::obs::sameArchitectural(a.ctrs, b.ctrs);
}

/** The serial state a sharded run must reproduce. */
const Outcome &
shardedReference(const SerialRep &s)
{
    return s.prefix ? *s.prefix : s.out;
}

/** Tally of a sharded run: its own checks where it ran the whole
 *  phase, and all ops failed if it diverged from the serial run. */
Tally
shardedTally(const SerialRep &s, const ShardedRep &p)
{
    Tally t = s.prefix ? Tally{s.out.tally.attempted, 0} : p.out.tally;
    if (!sameSimulation(shardedReference(s), p.out))
        t.failed = t.attempted;
    return t;
}

/**
 * Peak resident set of this process image.  VmHWM, not getrusage's
 * ru_maxrss: Linux carries ru_maxrss across exec, so a benchmark
 * started from a larger parent would report the parent's peak.
 */
double
peakRssMiB()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

void
printStamp()
{
    const bool optimized =
#if defined(__OPTIMIZE__) && defined(NDEBUG)
        true;
#else
        false;
#endif
    std::cout << "stamp: {\"nproc\": " << sysconf(_SC_NPROCESSORS_ONLN)
              << ", \"hardware_concurrency\": "
              << std::thread::hardware_concurrency()
              << ", \"compiler\": \"" << PERFBENCH_COMPILER
              << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
              << "\", \"optimized\": " << (optimized ? "true" : "false")
              << ", \"shards\": " << kShards << "}\n";
    if (!optimized)
        std::cout << "WARNING: NOT AN OPTIMIZED BUILD -- these timings "
                     "are not comparable with optimized ones\n";
}

/** The simulated statistics a simulator-only change must keep. */
void
printFingerprint(const SerialRep &s)
{
    const tp::obs::Counters &c = s.out.ctrs;
    const tp::obs::Counters &b = s.before;
    std::cout << "fingerprint: {\"instructions\": "
              << c.instructions - b.instructions
              << ", \"cycles\": " << c.cycles - b.cycles
              << ", \"sim_ns\": " << s.out.simNs
              << ", \"answers\": " << s.out.stream.size()
              << ", \"events\": " << s.events
              << ", \"link_bytes\": " << c.linkBytesOut - b.linkBytesOut
              << ", \"route_forwards\": "
              << c.routeForwards - b.routeForwards
              << ", \"route_delivered\": "
              << c.routeDelivered - b.routeDelivered
              << ", \"route_retransmits\": "
              << c.routeRetransmits - b.routeRetransmits
              << ", \"route_hop_retransmits\": "
              << c.routeHopRetransmits - b.routeHopRetransmits
              << ", \"fault_data_drops\": "
              << c.faultDataDrops - b.faultDataDrops << "}\n";
}

void
printResult(bool correct, const Tally &t, const Metrics &m, bool e2e)
{
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << t.attempted
              << ", \"failed\": " << t.failed
              << ", \"metrics\": " << m.json(e2e) << "}" << std::endl;
}

double
fastest(const std::vector<double> &v)
{
    return *std::min_element(v.begin(), v.end());
}

/**
 * The phase time from its slices: every slice of simulated time, the
 * same work in every repetition, at the kSliceQuantile quantile of its
 * times over the repetitions, summed.  Not the fastest: the fastest of
 * n repetitions gets faster as n grows, and n depends on how fast the
 * host was.  Empty if there are no slices or the repetitions were not
 * cut into the same slices.
 */
std::optional<double>
quantileSlices(const std::vector<std::vector<double>> &reps)
{
    if (reps.front().empty())
        return std::nullopt;
    double sum = 0;
    for (size_t i = 0; i < reps.front().size(); ++i) {
        std::vector<double> at;
        for (const auto &r : reps) {
            if (r.size() != reps.front().size())
                return std::nullopt;
            at.push_back(r[i]);
        }
        std::sort(at.begin(), at.end());
        const double x = kSliceQuantile * static_cast<double>(at.size() - 1);
        const size_t lo = static_cast<size_t>(x);
        const size_t hi = std::min(lo + 1, at.size() - 1);
        sum += at[lo] + (at[hi] - at[lo]) * (x - static_cast<double>(lo));
    }
    return sum;
}

int
endToEnd(const Args &a)
{
    Tracer off(false, "");
    std::vector<double> setup, wall;
    std::vector<std::vector<double>> slices;
    Tally total;
    bool correct = true;
    std::optional<SerialRep> first;
    double parS = 0;
    const auto t0 = Clock::now();
    double lastRep = 0;
    int reps = 0;
    // start another repetition only if it should end within --seconds
    while (reps < kMinReps ||
           (reps < kMaxReps && secondsSince(t0) + lastRep <= a.seconds)) {
        const auto r0 = Clock::now();
        SerialRep s = runSerial(a, off, true);
        ++reps;
        setup.push_back(s.setup_s);
        wall.push_back(s.host_s);
        slices.push_back(std::move(s.calibrated));
        total.attempted += s.out.tally.attempted;
        total.failed += s.out.tally.failed;
        if (!first) {
            // one sharded run: it must reproduce the serial run
            const ShardedRep p = runSharded(a, off);
            parS = p.host_s;
            const Tally ps = shardedTally(s, p);
            total.attempted += ps.attempted;
            total.failed += ps.failed;
            first = std::move(s);
        } else if (!sameSimulation(first->out, s.out)) {
            std::cout << "serial repetition " << reps
                      << " diverged from the first\n";
            correct = false;
        }
        lastRep = secondsSince(r0);
    }
    correct = correct && total.failed == 0;
    // setup_s comes from set-ups run back to back, calibrated like the
    // phase's slices: one right after a phase runs slower than one
    // after another set-up, so a mix of the two kinds would make the
    // median jump between them
    SliceTimer setups(true);
    const auto t1 = Clock::now();
    for (size_t n = 0; n < kMinBackToBack ||
                       (n < kMaxBackToBack &&
                        secondsSince(t1) < 0.1 * a.seconds);
         ++n) {
        auto w = makeWorkload(a.workload, a.seed);
        setups.slice([&] { w->setup(off, -1); });
    }
    const double sensitivity =
        makeWorkload(a.workload, a.seed)->hostSensitivity();
    const std::vector<double> setupRun = setups.calibrated(sensitivity);

    // The phase time is its calibrated slices at a low quantile:
    // calibration takes out most of the host's contention, and what is
    // left only ever adds time.  Set-up time is the median of the
    // back-to-back set-ups.
    const std::optional<double> serial = quantileSlices(slices);
    if (!serial) {
        std::cout << "the serial repetitions were cut into different "
                     "slices\n";
        correct = false;
    }
    const double hostS = serial.value_or(fastest(wall));
    const double instr = static_cast<double>(first->out.ctrs.instructions -
                                             first->before.instructions);
    const double rss = peakRssMiB();
    Metrics m;
    m.set("host_s", hostS);
    m.set("sim_mips", instr / hostS / 1e6);
    m.set("setup_s", median(setupRun));
    m.set("peak_rss_mb", rss);
    printFingerprint(*first);
    std::cout << "end-to-end over " << reps << " repetitions of "
              << slices.front().size() << " slices: host_s " << num(hostS)
              << " s, sim_mips " << num(instr / hostS / 1e6)
              << " Minstr/s, sim_ms "
              << num(static_cast<double>(first->out.simNs) / 1e6)
              << " ms, setup_s " << num(median(setupRun))
              << " s, peak_rss_mb " << num(rss) << " MiB, fail_frac "
              << num(ratio(static_cast<double>(total.failed),
                           static_cast<double>(total.attempted)))
              << ", sharded phase wall " << num(parS) << " s\n";
    const auto samples = [](const char *name, std::vector<double> v) {
        std::sort(v.begin(), v.end());
        std::cout << name << " samples (s), median " << num(median(v))
                  << ":";
        for (const double x : v)
            std::cout << " " << num(x);
        std::cout << "\n";
    };
    samples("serial phase wall", wall);
    samples("setup_s", setupRun);
    samples("set-up after a phase", setup);
    printResult(correct, total, m, true);
    return 0;
}

int
perLayer(const Args &a)
{
    Tracer off(false, "");
    const std::string id = a.workload + "-seed" + std::to_string(a.seed) +
                           "-pid" + std::to_string(getpid());
    Tracer tr(true, id);

    // untraced runs on both sides of the traced one, so a cold first
    // run does not show up as (negative) tracing overhead
    const SerialRep plain = runSerial(a, off, false);
    const SerialRep s = runSerial(a, tr, true);
    const SerialRep again = runSerial(a, off, false);
    const ShardedRep p = runSharded(a, tr);
    const double untracedHost = std::min(plain.host_s, again.host_s);

    // the probes rebuild parts of the workload; time them on a fresh
    // instance so they do not disturb the runs above
    SetupProbes probes;
    {
        auto w = makeWorkload(a.workload, a.seed);
        w->setup(off, -1);
        probes = w->probeSetup();
    }

    Tally total = s.out.tally;
    bool correct = s.out.tally.failed == 0 && plain.out.tally.failed == 0;
    if (!sameSimulation(plain.out, s.out) ||
        !sameSimulation(plain.out, again.out)) {
        std::cout << "the sliced traced run or the second untraced run "
                     "diverged from the first untraced run\n";
        correct = false;
        total.failed = total.attempted;
    }
    const Tally ps = shardedTally(plain, p);
    total.attempted += ps.attempted;
    total.failed += ps.failed;
    correct = correct && ps.failed == 0;

    // counts come from the untraced run: the architectural ones equal
    // the traced run's (checked above), and the host-side tier
    // statistics are not clipped at slice boundaries there
    const tp::obs::Counters &c = plain.out.ctrs;
    const tp::obs::Counters &b = plain.before;
    const auto d = [&](uint64_t tp::obs::Counters::*f) {
        return static_cast<double>(c.*f - b.*f);
    };
    const double instr = d(&tp::obs::Counters::instructions);
    const double events = static_cast<double>(plain.events);
    const double bytes = d(&tp::obs::Counters::linkBytesOut);
    const double blockInstr =
        static_cast<double>(c.blockc.instructions - b.blockc.instructions);
    const double enters =
        static_cast<double>(c.blockc.enters - b.blockc.enters);
    const double chains =
        static_cast<double>(c.blockc.chains - b.blockc.chains);
    const double fusedRuns =
        static_cast<double>(c.fused.runs - b.fused.runs);
    const double fusedInstr =
        static_cast<double>(c.fused.instructions - b.fused.instructions);
    double deopts = 0;
    for (size_t i = 0; i < c.blockc.deopts.size(); ++i)
        deopts += static_cast<double>(c.blockc.deopts[i] -
                                      b.blockc.deopts[i]);
    const double hits = d(&tp::obs::Counters::icacheHits);
    const double misses = d(&tp::obs::Counters::icacheMisses);
    uint64_t stalls = 0, pushes = 0, epochs = 0;
    for (const auto &sh : p.stats.shards) {
        stalls += sh.stalls;
        pushes += sh.inboxPushes;
        epochs += sh.epochs;
    }
    const double parEvents = static_cast<double>(p.stats.totalEvents());
    const double serialEvents = static_cast<double>(
        plain.prefix ? plain.prefixEvents : plain.events);

    Metrics m;
    m.set("sim.sim_ms", static_cast<double>(plain.out.simNs) / 1e6);
    m.set("sim.events", events);
    // host time per unit of work comes from the untraced run
    m.set("sim.ns_per_event",
          ratio(untracedHost * 1e9, static_cast<double>(plain.events)));
    m.set("sim.high_water", static_cast<double>(plain.highWater));
    m.set("core.instructions", instr);
    m.set("core.cycles", d(&tp::obs::Counters::cycles));
    m.set("core.ns_per_instr", ratio(untracedHost * 1e9, instr));
    m.set("core.icache_hit_rate", ratio(hits, hits + misses));
    m.set("core.fused_mean_run", ratio(fusedInstr, fusedRuns));
    m.set("core.blockc_coverage", ratio(blockInstr, instr));
    m.set("core.blockc_mean_run", ratio(chains, enters));
    m.set("core.blockc_deopts", deopts);
    m.set("core.process_starts", d(&tp::obs::Counters::processStarts));
    m.set("core.timeslices", d(&tp::obs::Counters::timeslices));
    m.set("core.chan_internal", d(&tp::obs::Counters::chanInternalIn) +
                                    d(&tp::obs::Counters::chanInternalOut));
    m.set("core.chan_link", d(&tp::obs::Counters::chanLinkIn) +
                                d(&tp::obs::Counters::chanLinkOut));
    m.set("core.timer_wakes", d(&tp::obs::Counters::timerWakes));
    m.set("mem.bytes_per_node", plain.bytesPerNode);
    m.set("link.bytes", bytes);
    m.set("link.events_per_byte", ratio(events, bytes));
    m.set("link.aborts", d(&tp::obs::Counters::linkOutAborts) +
                             d(&tp::obs::Counters::linkInAborts));
    m.set("link.stale_acks", d(&tp::obs::Counters::linkStaleAcks));
    m.set("par.events", parEvents);
    m.set("par.event_ratio", ratio(parEvents, serialEvents));
    m.set("par.rounds", static_cast<double>(p.stats.rounds));
    m.set("par.barriers", static_cast<double>(p.stats.barriers));
    m.set("par.stalls", static_cast<double>(stalls));
    m.set("par.inbox_pushes", static_cast<double>(pushes));
    m.set("par.imbalance", p.stats.imbalance());
    m.set("par.host_s", p.host_s);
    m.set("par.useful_rounds",
          ratio(static_cast<double>(epochs),
                static_cast<double>(p.stats.rounds) *
                    static_cast<double>(p.stats.shards.size())));
    const double fwd = d(&tp::obs::Counters::routeForwards);
    const double hopRetx = d(&tp::obs::Counters::routeHopRetransmits);
    const double delivered = d(&tp::obs::Counters::routeDelivered);
    m.set("route.forwards", fwd);
    m.set("route.delivered", delivered);
    m.set("route.hops", d(&tp::obs::Counters::routeHops));
    m.set("route.retransmits", d(&tp::obs::Counters::routeRetransmits));
    m.set("route.hop_retransmits", hopRetx);
    m.set("route.hop_drops", d(&tp::obs::Counters::routeHopDrops));
    m.set("route.reroutes", d(&tp::obs::Counters::routeReroutes));
    m.set("route.link_floods", d(&tp::obs::Counters::routeLinkFloods));
    m.set("route.congestion_drops",
          d(&tp::obs::Counters::routeCongestionDrops));
    m.set("route.undeliverable",
          d(&tp::obs::Counters::routeUndeliverable));
    m.set("route.goodput", ratio(delivered, fwd + hopRetx));
    m.set("fault.data_drops", d(&tp::obs::Counters::faultDataDrops));
    m.set("fault.ack_drops", d(&tp::obs::Counters::faultAckDrops));
    m.set("fault.corrupts", d(&tp::obs::Counters::faultCorrupts));
    m.set("occam.compile_s", probes.compile_s);
    m.set("net.build_s", probes.build_s);
    m.set("net.settle_s", probes.settle_s);
    m.set("trace.overhead", ratio(s.host_s, untracedHost) - 1.0);

    if (!a.spans.empty()) {
        std::ofstream out(a.spans);
        out << tr.json();
        if (!out) {
            std::cerr << "perfbench: cannot write " << a.spans << "\n";
            return 1;
        }
        std::cout << "wrote " << tr.size() << " spans to " << a.spans
                  << "\n";
    }
    std::cout << tr.sliceSummary();
    printFingerprint(plain);
    printResult(correct, total, m, false);
    return 0;
}

[[noreturn]] void
usage()
{
    std::cerr << "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--spans <file>]\n"
                 "       perfbench --list-metrics\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--list-metrics") {
            for (const auto &m : kMetrics)
                std::cout << m.name << " " << m.unit << " "
                          << (m.endToEnd ? "end_to_end" : "per_layer")
                          << "\n";
            return 0;
        }
        if (i + 1 >= argc)
            usage();
        const std::string v = argv[++i];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::stoull(v);
        else if (k == "--seconds")
            a.seconds = std::stod(v);
        else if (k == "--trace")
            a.trace = std::stoi(v);
        else if (k == "--spans")
            a.spans = v;
        else
            usage();
    }
    if (!makeWorkload(a.workload, a.seed) || (a.trace != 0 && a.trace != 1))
        usage();

    printStamp();
    std::cout << "workload " << a.workload << ", seed " << a.seed << ": "
              << makeWorkload(a.workload, a.seed)->describe() << "\n";
    return a.trace ? perLayer(a) : endToEnd(a);
}
