/**
 * @file
 * The benchmark's workloads, answer checkers and span recorder.
 *
 * Every workload is built from a seed alone: the seed fixes the
 * inputs (query keys, wave keys, loop constants, fault-plan seed, kill
 * victims and kill times) and the emulator receives only those inputs.
 * A workload instance is good for one measured phase: set it up,
 * inject, run it (serially or on shards), read its outcome, discard.
 *
 * The checkers are free functions over plain answer data so the
 * self-test (selftest.cc) can feed them tampered answers.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "obs/counters.hh"

namespace perfbench
{

using transputer::Tick;
using transputer::Word;

/** The workload names, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

/** Ops attempted and failed by one measured phase. */
struct Tally
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/** @name Checkers: one op each, as defined per workload */
///@{
/** e7_loop: the loop counter ran to zero, the locals stored from
 *  the seeded constants hold them and the instruction count is exact.
 *  One op. */
struct E7Result
{
    Word counter, local1, local3;
    uint64_t instructions;
};
Tally checkE7(const E7Result &got, const E7Result &want);

/** dbsearch: one op per query; its count equals the expected count. */
Tally checkDbSearch(const std::vector<Word> &counts,
                    const std::vector<Word> &expected);

/** flood: one op per wave; its total equals w*h. */
Tally checkFlood(const std::vector<Word> &totals, size_t waves,
                 Word expected);

/** One 3-word tuple the routed root forwards to the host. */
struct RoutedTuple
{
    Word src, vchan, word;
};
/** routed: one op per live terminal, which must answer exactly once
 *  with a reply carrying key + 1.  A duplicate answer from any node
 *  fails every op of the run. */
Tally checkRouted(const std::vector<RoutedTuple> &answers,
                  const std::vector<bool> &killed, Word key);
///@}

/** Counter values a span reads at its two ends. */
struct Probe
{
    uint64_t events = 0;
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t linkBytes = 0;
    uint64_t routeForwards = 0;
    Tick simNow = 0;
};

/**
 * Spans recorded around the calls into each layer.  Spans stay in
 * memory and are written out as one JSON document when the run ends.
 * A disabled tracer records nothing and costs one branch per call.
 */
class Tracer
{
  public:
    Tracer(bool on, std::string run_id);

    bool on() const { return on_; }

    /**
     * Open a span under parent (-1: a root span); returns its id, or
     * -1 when tracing is off.  probe() reads the counters; it runs
     * only when tracing is on, and outside the span's host interval.
     */
    template <typename ProbeFn>
    int
    open(const std::string &name, int parent, ProbeFn &&probe)
    {
        if (!on_)
            return -1;
        const Probe at = probe();
        spans_.push_back(Span{name, parent, now(), 0.0, at, at});
        return static_cast<int>(spans_.size() - 1);
    }

    template <typename ProbeFn>
    void
    close(int span, ProbeFn &&probe)
    {
        if (!on_ || span < 0)
            return;
        Span &s = spans_.at(static_cast<size_t>(span));
        s.end = now();
        s.finish = probe();
    }

    size_t size() const { return spans_.size(); }
    std::string json() const;
    /** Host cost per simulated microsecond over the `net.run` slices
     *  (min / median / max and the costliest slice), one line. */
    std::string sliceSummary() const;

  private:
    struct Span
    {
        std::string name;
        int parent;
        double start, end; ///< host seconds since the tracer started
        Probe begin, finish;
    };

    double now() const;

    bool on_;
    std::string runId_;
    std::chrono::steady_clock::time_point t0_;
    std::vector<Span> spans_;
};

/** Host seconds of each set-up layer, timed through its public API. */
struct SetupProbes
{
    double compile_s = 0; ///< the workload's distinct node programs
    double build_s = 0;   ///< the topology builder at workload size
    double settle_s = 0;  ///< boot to quiescence
};

/** What one measured phase produced. */
struct Outcome
{
    /** Every answer, flattened with its simulated arrival time: two
     *  runs agree exactly when these streams are equal. */
    std::vector<uint64_t> stream;
    transputer::obs::Counters ctrs; ///< whole system, after the phase
    Tick simNs = 0;                 ///< inject -> last answer
    Tally tally;
};

/** One workload instance: set up once, measured once. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Construct, compile, wire, boot and settle, up to the first
     *  inject.  Sub-steps become children of span `parent`. */
    virtual void setup(Tracer &tr, int parent) = 0;
    /** The seeded inputs, for the record printed with each result. */
    virtual std::string describe() const = 0;
    /** Hand the seeded inputs to the emulator. */
    virtual void inject() = 0;
    /** True once set-up has created the network. */
    virtual bool built() const = 0;
    virtual transputer::net::Network &network() = 0;
    /** Whole-system counters (the routed fabric adds its switches). */
    virtual transputer::obs::Counters counters() = 0;
    /** Check the answers so far. */
    virtual Outcome outcome() = 0;
    /** Simulated limit of the measured phase, from the inject time. */
    virtual Tick phaseLimit() const = 0;
    /**
     * Simulated span of the sharded run, from the inject time.  Equal
     * to phaseLimit() except where a whole sharded phase is too slow
     * to repeat (routed_torus_loss): then the sharded run covers this
     * prefix and is checked against the serial run at the same time.
     */
    virtual Tick shardedLimit() const { return phaseLimit(); }
    /** Fixed slice of simulated time for the traced and timed runs. */
    virtual Tick traceSlice() const = 0;
    /**
     * How much of the host speed loop's slow-down past its knee the
     * measured phase feels, as an exponent: 1 for as much (main.cc,
     * SliceTimer).  Fitted per workload on a shared 4-vCPU host: the
     * phase's slice times against the loop's.
     */
    virtual double hostSensitivity() const = 0;
    /** Time each set-up layer alone (traced runs only). */
    virtual SetupProbes probeSetup() = 0;
    /** Mean Transputer::footprintBytes over the nodes. */
    double bytesPerNode();
    /** The counters a span reads at its ends (zero before set-up). */
    Probe probe();
};

/** The workload `name` with inputs drawn from `seed`; null if the
 *  name is unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name,
                                       uint64_t seed);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
