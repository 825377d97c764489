/**
 * @file
 * Guest sampling profiler (see DESIGN.md "Second-generation
 * observability").
 *
 * Every profileInterval simulated *cycles*, the owning transputer
 * attributes one sample to the (Wdesc, Iptr) pair current at the next
 * chain boundary -- the instants where oreg is zero and all three
 * execution tiers (slow interpreter, fused loop, block compiler)
 * agree on the architectural state.  Because the trigger is the
 * simulated cycle counter, which is itself architectural, a serial
 * run and a shard-parallel run of the same program take their samples
 * at the same boundaries and the histograms are bit-identical; only
 * the per-tier attribution (which tier happened to execute the
 * sampled chain) is host-side, and the deterministic exporters omit
 * it.
 *
 * The histogram is a std::map keyed (wdesc, iptr): iteration order is
 * the key order, so the folded-stack exporter emits lines in a
 * deterministic order without sorting.
 */

#ifndef TRANSPUTER_OBS_PROFILE_HH
#define TRANSPUTER_OBS_PROFILE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "base/types.hh"

namespace transputer::net
{
class Network;
} // namespace transputer::net

namespace transputer::obs
{

/** Execution-tier indices for sample attribution (host-side). */
enum Tier : int
{
    kTierPlain = 0, ///< the byte step (executeOneSlow): cache off,
                    ///< a byte trace, or a chain it cannot hold
    kTierFused = 1, ///< the fused loop (runFused): every cached chain
    kTierBlock = 2, ///< block-compiler superblocks
    kTiers = 3,
};

/** One histogram cell: samples landing on (wdesc, iptr). */
struct ProfCell
{
    uint64_t samples = 0;   ///< architectural sample count
    uint64_t tier[kTiers] = {0, 0, 0}; ///< host-side attribution
};

/** Per-node PC histogram filled at chain boundaries. */
class Profiler
{
  public:
    using Key = std::pair<uint64_t, uint64_t>; ///< (wdesc, iptr)

    explicit Profiler(uint64_t intervalCycles)
        : interval_(intervalCycles ? intervalCycles : 1)
    {}

    uint64_t interval() const { return interval_; }

    /** Attribute k samples to (wdesc, iptr), executed by `tier`. */
    void
    sample(uint64_t wdesc, uint64_t iptr, int tier, uint64_t k)
    {
        ProfCell &c = cells_[Key{wdesc, iptr}];
        c.samples += k;
        c.tier[tier] += k;
        total_ += k;
    }

    uint64_t totalSamples() const { return total_; }
    const std::map<Key, ProfCell> &cells() const { return cells_; }
    /** Approximate host bytes of the histogram (scale accounting):
     *  per-cell payload plus typical red-black node overhead. */
    size_t
    footprintBytes() const
    {
        return cells_.size() *
               (sizeof(Key) + sizeof(ProfCell) + 4 * sizeof(void *));
    }
    void
    clear()
    {
        cells_.clear();
        total_ = 0;
    }

  private:
    uint64_t interval_;
    uint64_t total_ = 0;
    std::map<Key, ProfCell> cells_;
};

/** @name Exporters (profile.cc; read the network after a run) */
///@{

/**
 * Folded-stack output for flamegraph tools: one line per histogram
 * cell, `node;W#wdesc;0xiptr count`, nodes in index order and cells
 * in key order.  Deterministic: serial == parallel, bit for bit.
 */
std::string foldedProfile(net::Network &net);

/**
 * The profile as JSON: per node, the sampling interval, total
 * samples, and the cells.  `hostTiers` adds the per-tier attribution
 * (host-side: excluded from the deterministic form).
 */
std::string profileJson(net::Network &net, bool hostTiers = false);

/**
 * The per-node time-series as JSON.  Each node's points carry the
 * nominal tick, the counters' deltas, and derived rates (icache hit
 * rate and deopt rate over the delta); a final synthetic point is
 * captured live at export so the deltas sum exactly to the final
 * counters.  archOnly omits the host-side fields (icache, block tier)
 * and their rates; the aggregate section adds per-tick shard
 * imbalance (max/mean of per-node cycle deltas).
 */
std::string timeseriesJson(net::Network &net, bool archOnly = false);
///@}

} // namespace transputer::obs

#endif // TRANSPUTER_OBS_PROFILE_HH
