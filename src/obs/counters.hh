/**
 * @file
 * Per-transputer performance counters (see DESIGN.md "Observability").
 *
 * A Counters value is a plain snapshot: Transputer::counters() fills
 * one from the live core, Network::counters() adds the link-engine
 * byte totals, and operator+= folds node snapshots into network
 * aggregates.  Every field except the host-side ones is
 * *architectural* -- a function of the executed instruction stream
 * alone -- and is therefore bit-identical between serial and
 * shard-parallel runs (tests/test_obs.cc).  The host-side fields
 * count the emulator's own machinery: the predecode cache's hits,
 * misses and invalidations (the paper's T424 fetches a word at a time
 * and has no instruction cache; the block tier banks a hit per chain
 * without touching a slot), the fused loop's runs (`fused`) and the
 * block tier's (`blockc`).  They legitimately depend on the tier
 * settings, event batching and window horizons; sameArchitectural()
 * excludes them.
 *
 * The counters themselves are always compiled in: each is a single
 * unconditional increment on an already-memory-touching path, which
 * keeps bench_interp within its < 2% regression budget (measured in
 * EXPERIMENTS notes) without a compile-time gate.
 */

#ifndef TRANSPUTER_OBS_COUNTERS_HH
#define TRANSPUTER_OBS_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>

#include "base/types.hh"
#include "isa/opcodes.hh"

namespace transputer::obs
{

/** Slots for the indirect-operation histogram (Op codes are dense). */
constexpr size_t kOpSlots = static_cast<size_t>(isa::Op::DUP) + 1;

/** Host-side interpreter statistics (not architectural). */
struct FusedStats
{
    uint64_t runs = 0;         ///< entries into the fused inner loop
    uint64_t instructions = 0; ///< chains those entries ran
    uint64_t cycles = 0;       ///< simulated cycles retired in the loop
    /** Histogram of run lengths: bucket i counts runs of length n
     *  with bit_width(n) == i (bucket 0: runs that inlined nothing). */
    std::array<uint64_t, 17> lenLog2{};

    double
    meanRunLength() const
    {
        return runs ? static_cast<double>(instructions) /
                          static_cast<double>(runs)
                    : 0.0;
    }

    FusedStats &
    operator+=(const FusedStats &o)
    {
        runs += o.runs;
        instructions += o.instructions;
        cycles += o.cycles;
        for (size_t i = 0; i < lenLog2.size(); ++i)
            lenLog2[i] += o.lenLog2[i];
        return *this;
    }
};

/**
 * Why a superblock execution handed control back to the interpreter
 * (core/blockc.hh's Deopt enum mirrors this order; a static_assert
 * there keeps the two in lock step).
 */
constexpr size_t kBlockDeopts = 8;

/** Names for the deopt histogram slots, in enum order. */
constexpr const char *kBlockDeoptNames[kBlockDeopts] = {
    "bound",      ///< local time reached the event/horizon bound
    "budget",     ///< per-dispatch instruction budget exhausted
    "guard",      ///< code bytes changed (self-modifying store / DMA)
    "deschedule", ///< timeslice rotation or deschedule left the block
    "halt",       ///< error flag with halt-on-error set
    "branch",     ///< dynamic branch left the compiled region
    "end",        ///< ran off the compiled tail (next chain not fast)
    "entry",      ///< stale at entry: invalidated before executing
};

/** Block-compiler tier statistics (host-side, not architectural). */
struct BlockStats
{
    uint64_t compiles = 0;      ///< superblocks compiled
    uint64_t steps = 0;         ///< superop steps those compiles emitted
    uint64_t invalidations = 0; ///< superblocks demoted (stale guards)
    uint64_t enters = 0;        ///< superblock executions started
    uint64_t chains = 0;        ///< predecoded chains retired in blocks
    uint64_t instructions = 0;  ///< instruction bytes those chains held
    uint64_t cycles = 0;        ///< simulated cycles retired in blocks
    std::array<uint64_t, kBlockDeopts> deopts{};

    double
    meanRunLength() const
    {
        return enters ? static_cast<double>(chains) /
                            static_cast<double>(enters)
                      : 0.0;
    }

    BlockStats &
    operator+=(const BlockStats &o)
    {
        compiles += o.compiles;
        steps += o.steps;
        invalidations += o.invalidations;
        enters += o.enters;
        chains += o.chains;
        instructions += o.instructions;
        cycles += o.cycles;
        for (size_t i = 0; i < deopts.size(); ++i)
            deopts[i] += o.deopts[i];
        return *this;
    }
};

/** One snapshot of a transputer's (or a whole network's) counters. */
struct Counters
{
    // instruction mix
    std::array<uint64_t, 16> fn{};     ///< per direct function
    std::array<uint64_t, kOpSlots> op{}; ///< per indirect operation
    uint64_t instructions = 0;
    uint64_t cycles = 0;

    // predecoded instruction cache (host-side, excluded from arch
    // equality)
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t icacheInvalidations = 0; ///< refills of a stale tag hit

    // scheduler
    uint64_t processStarts = 0;      ///< processes made ready (runp)
    uint64_t timeslices = 0;         ///< low-priority rotations
    uint64_t priorityInterrupts = 0; ///< low -> high preemptions

    // channels (counted at the in/out instruction, per endpoint)
    uint64_t chanInternalIn = 0;
    uint64_t chanInternalOut = 0;
    uint64_t chanLinkIn = 0;
    uint64_t chanLinkOut = 0;

    // timers
    uint64_t timerWaits = 0; ///< processes queued on a timer list
    uint64_t timerWakes = 0; ///< processes woken by timer expiry

    /** Ticks spent with no runnable process (accounted at wake). */
    Tick idleTicks = 0;

    // link traffic (filled by Network::counters from the engines)
    uint64_t linkBytesOut = 0;
    uint64_t linkBytesIn = 0;

    // fault injection and link health (src/fault; filled by
    // Network::nodeCounters from this node's lines and engines).
    // Injected faults are drawn in transmit order from seeded
    // per-line PRNGs and watchdog deadlines are architectural, so all
    // of these are serial/parallel bit-identical too.
    uint64_t faultDataDrops = 0;  ///< injected data-packet losses
    uint64_t faultAckDrops = 0;   ///< injected ack-packet losses
    uint64_t faultCorrupts = 0;   ///< injected data corruptions
    Tick faultJitterTicks = 0;    ///< injected extra wire latency
    uint64_t linkOutAborts = 0;   ///< outputs abandoned by watchdog
    uint64_t linkInAborts = 0;    ///< inputs abandoned by watchdog
    uint64_t linkStaleAcks = 0;   ///< acks for abandoned outputs
    uint64_t linkOverrunDrops = 0; ///< bytes dropped on a full buffer
    uint64_t linkDeadDrops = 0;   ///< bytes that arrived at a dead node

    // virtual-channel routing fabric (src/route; filled by
    // route::Fabric::nodeCounters from this node's switch).  Switch
    // state changes only inside keyed delivery/timer events and all
    // retry/backoff arithmetic is integer, so these are
    // serial/parallel bit-identical like the fault block above.
    uint64_t routeForwards = 0;      ///< packets relayed port-to-port
    uint64_t routeDelivered = 0;     ///< fresh payloads handed to a host
    uint64_t routeHops = 0;          ///< hops summed over delivered packets
    uint64_t routeReroutes = 0;      ///< forwards off the first-choice port
    uint64_t routeRetransmits = 0;   ///< end-to-end ARQ retransmissions
    uint64_t routeHopRetransmits = 0; ///< per-trunk hop ARQ retransmissions
    uint64_t routeHopDrops = 0;      ///< packets a trunk gave up on
    uint64_t routeLinkFloods = 0;    ///< link-down notices originated/relayed
    uint64_t routeDupDrops = 0;      ///< duplicate deliveries suppressed
    uint64_t routeMalformed = 0;     ///< bytes rejected by the decoder
    uint64_t routeCongestionDrops = 0; ///< packets dropped on a full port
    uint64_t routeTtlDrops = 0;      ///< packets past the hop limit
    uint64_t routeUndeliverable = 0; ///< sends declared undeliverable

    // host-side interpreter statistics (excluded from arch equality)
    FusedStats fused;
    BlockStats blockc;

    uint64_t
    icacheLookups() const
    {
        return icacheHits + icacheMisses;
    }

    double
    icacheHitRate() const
    {
        const uint64_t n = icacheLookups();
        return n ? static_cast<double>(icacheHits) /
                       static_cast<double>(n)
                 : 0.0;
    }

    Counters &
    operator+=(const Counters &o)
    {
        for (size_t i = 0; i < fn.size(); ++i)
            fn[i] += o.fn[i];
        for (size_t i = 0; i < op.size(); ++i)
            op[i] += o.op[i];
        instructions += o.instructions;
        cycles += o.cycles;
        icacheHits += o.icacheHits;
        icacheMisses += o.icacheMisses;
        icacheInvalidations += o.icacheInvalidations;
        processStarts += o.processStarts;
        timeslices += o.timeslices;
        priorityInterrupts += o.priorityInterrupts;
        chanInternalIn += o.chanInternalIn;
        chanInternalOut += o.chanInternalOut;
        chanLinkIn += o.chanLinkIn;
        chanLinkOut += o.chanLinkOut;
        timerWaits += o.timerWaits;
        timerWakes += o.timerWakes;
        idleTicks += o.idleTicks;
        linkBytesOut += o.linkBytesOut;
        linkBytesIn += o.linkBytesIn;
        faultDataDrops += o.faultDataDrops;
        faultAckDrops += o.faultAckDrops;
        faultCorrupts += o.faultCorrupts;
        faultJitterTicks += o.faultJitterTicks;
        linkOutAborts += o.linkOutAborts;
        linkInAborts += o.linkInAborts;
        linkStaleAcks += o.linkStaleAcks;
        linkOverrunDrops += o.linkOverrunDrops;
        linkDeadDrops += o.linkDeadDrops;
        routeForwards += o.routeForwards;
        routeDelivered += o.routeDelivered;
        routeHops += o.routeHops;
        routeReroutes += o.routeReroutes;
        routeRetransmits += o.routeRetransmits;
        routeHopRetransmits += o.routeHopRetransmits;
        routeHopDrops += o.routeHopDrops;
        routeLinkFloods += o.routeLinkFloods;
        routeDupDrops += o.routeDupDrops;
        routeMalformed += o.routeMalformed;
        routeCongestionDrops += o.routeCongestionDrops;
        routeTtlDrops += o.routeTtlDrops;
        routeUndeliverable += o.routeUndeliverable;
        fused += o.fused;
        blockc += o.blockc;
        return *this;
    }
};

/**
 * Equality over the architectural fields only: everything except the
 * icache counts, `fused` and `blockc`, which depend on the tiers and
 * on host-side batching (the parallel engine's window horizon clips
 * fused runs and superblock executions differently than a serial
 * run, and a chain a superblock retires never looks up the cache).
 */
inline bool
sameArchitectural(const Counters &a, const Counters &b)
{
    return a.fn == b.fn && a.op == b.op &&
           a.instructions == b.instructions && a.cycles == b.cycles &&
           a.processStarts == b.processStarts &&
           a.timeslices == b.timeslices &&
           a.priorityInterrupts == b.priorityInterrupts &&
           a.chanInternalIn == b.chanInternalIn &&
           a.chanInternalOut == b.chanInternalOut &&
           a.chanLinkIn == b.chanLinkIn &&
           a.chanLinkOut == b.chanLinkOut &&
           a.timerWaits == b.timerWaits &&
           a.timerWakes == b.timerWakes &&
           a.idleTicks == b.idleTicks &&
           a.linkBytesOut == b.linkBytesOut &&
           a.linkBytesIn == b.linkBytesIn &&
           a.faultDataDrops == b.faultDataDrops &&
           a.faultAckDrops == b.faultAckDrops &&
           a.faultCorrupts == b.faultCorrupts &&
           a.faultJitterTicks == b.faultJitterTicks &&
           a.linkOutAborts == b.linkOutAborts &&
           a.linkInAborts == b.linkInAborts &&
           a.linkStaleAcks == b.linkStaleAcks &&
           a.linkOverrunDrops == b.linkOverrunDrops &&
           a.linkDeadDrops == b.linkDeadDrops &&
           a.routeForwards == b.routeForwards &&
           a.routeDelivered == b.routeDelivered &&
           a.routeHops == b.routeHops &&
           a.routeReroutes == b.routeReroutes &&
           a.routeRetransmits == b.routeRetransmits &&
           a.routeHopRetransmits == b.routeHopRetransmits &&
           a.routeHopDrops == b.routeHopDrops &&
           a.routeLinkFloods == b.routeLinkFloods &&
           a.routeDupDrops == b.routeDupDrops &&
           a.routeMalformed == b.routeMalformed &&
           a.routeCongestionDrops == b.routeCongestionDrops &&
           a.routeTtlDrops == b.routeTtlDrops &&
           a.routeUndeliverable == b.routeUndeliverable;
}

/**
 * Render a Counters snapshot as one JSON object.  The per-function
 * and per-operation histograms emit only non-zero entries, keyed by
 * mnemonic, so dumps stay readable.
 */
inline std::string
countersJson(const Counters &c)
{
    std::string out = "{";
    const auto num = [&](const char *key, uint64_t v, bool comma = true) {
        out += '"';
        out += key;
        out += "\": ";
        out += std::to_string(v);
        if (comma)
            out += ", ";
    };
    num("instructions", c.instructions);
    num("cycles", c.cycles);
    num("icache_hits", c.icacheHits);
    num("icache_misses", c.icacheMisses);
    num("icache_invalidations", c.icacheInvalidations);
    out += "\"icache_hit_rate\": " +
           std::to_string(c.icacheHitRate()) + ", ";
    num("fused_runs", c.fused.runs);
    num("fused_instructions", c.fused.instructions);
    num("fused_cycles", c.fused.cycles);
    out += "\"fused_mean_run\": " +
           std::to_string(c.fused.meanRunLength()) + ", ";
    num("blockc_compiles", c.blockc.compiles);
    num("blockc_invalidations", c.blockc.invalidations);
    num("blockc_enters", c.blockc.enters);
    num("blockc_chains", c.blockc.chains);
    num("blockc_instructions", c.blockc.instructions);
    num("blockc_cycles", c.blockc.cycles);
    out += "\"blockc_deopts\": {";
    for (size_t i = 0; i < kBlockDeopts; ++i) {
        if (i)
            out += ", ";
        out += '"';
        out += kBlockDeoptNames[i];
        out += "\": " + std::to_string(c.blockc.deopts[i]);
    }
    out += "}, ";
    num("process_starts", c.processStarts);
    num("timeslices", c.timeslices);
    num("priority_interrupts", c.priorityInterrupts);
    num("chan_internal_in", c.chanInternalIn);
    num("chan_internal_out", c.chanInternalOut);
    num("chan_link_in", c.chanLinkIn);
    num("chan_link_out", c.chanLinkOut);
    num("timer_waits", c.timerWaits);
    num("timer_wakes", c.timerWakes);
    num("idle_ns", static_cast<uint64_t>(c.idleTicks));
    num("link_bytes_out", c.linkBytesOut);
    num("link_bytes_in", c.linkBytesIn);
    num("fault_data_drops", c.faultDataDrops);
    num("fault_ack_drops", c.faultAckDrops);
    num("fault_corrupts", c.faultCorrupts);
    num("fault_jitter_ns", static_cast<uint64_t>(c.faultJitterTicks));
    num("link_out_aborts", c.linkOutAborts);
    num("link_in_aborts", c.linkInAborts);
    num("link_stale_acks", c.linkStaleAcks);
    num("link_overrun_drops", c.linkOverrunDrops);
    num("link_dead_drops", c.linkDeadDrops);
    num("route_forwards", c.routeForwards);
    num("route_delivered", c.routeDelivered);
    num("route_hops", c.routeHops);
    num("route_reroutes", c.routeReroutes);
    num("route_retransmits", c.routeRetransmits);
    num("route_hop_retransmits", c.routeHopRetransmits);
    num("route_hop_drops", c.routeHopDrops);
    num("route_link_floods", c.routeLinkFloods);
    num("route_dup_drops", c.routeDupDrops);
    num("route_malformed", c.routeMalformed);
    num("route_congestion_drops", c.routeCongestionDrops);
    num("route_ttl_drops", c.routeTtlDrops);
    num("route_undeliverable", c.routeUndeliverable);
    out += "\"fn\": {";
    bool first = true;
    for (size_t i = 0; i < c.fn.size(); ++i) {
        if (!c.fn[i])
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += isa::fnName(static_cast<isa::Fn>(i));
        out += "\": " + std::to_string(c.fn[i]);
    }
    out += "}, \"op\": {";
    first = true;
    for (size_t i = 0; i < c.op.size(); ++i) {
        if (!c.op[i])
            continue;
        if (!first)
            out += ", ";
        first = false;
        out += '"';
        out += isa::opName(static_cast<isa::Op>(i));
        out += "\": " + std::to_string(c.op[i]);
    }
    out += "}}";
    return out;
}

} // namespace transputer::obs

#endif // TRANSPUTER_OBS_COUNTERS_HH
