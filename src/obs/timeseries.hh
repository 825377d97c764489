/**
 * @file
 * Per-node metrics time-series (see DESIGN.md "Second-generation
 * observability").
 *
 * A TimeSeries is a fixed-capacity ring of TsPoint snapshots, one per
 * elapsed interval of the node's *simulated* clock.  Each point holds
 * cumulative counter values captured at a chain boundary (the
 * exporters compute deltas), stamped with the nominal tick -- the
 * interval multiple the snapshot is *for* -- rather than the local
 * clock at capture, so serial and shard-parallel runs of the same
 * program produce byte-identical series (the capture discipline is
 * Transputer::obsBoundaryFire; the determinism argument is in
 * DESIGN.md).
 *
 * The architectural fields are a function of the executed
 * instruction stream alone.  The host-side fields (icache hits and
 * misses, block-tier chains and deopts) depend on the tiers and on
 * event batching; exporters offer an archOnly mode that omits them,
 * which is what the serial/parallel equality tests compare.
 */

#ifndef TRANSPUTER_OBS_TIMESERIES_HH
#define TRANSPUTER_OBS_TIMESERIES_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace transputer::obs
{

/** One cumulative counter snapshot of a node (see file comment). */
struct TsPoint
{
    Tick tick = 0;        ///< nominal sample tick (interval multiple)
    // architectural: bit-identical serial vs parallel
    uint64_t instructions = 0;
    uint64_t cycles = 0;
    uint64_t linkBytesOut = 0; ///< bytes this node's engines sent
    uint64_t linkBytesIn = 0;  ///< bytes this node's engines received
    uint64_t processStarts = 0;
    uint64_t timeslices = 0;
    Tick idleTicks = 0;
    uint32_t qlo = 0;     ///< low-priority run-list depth at capture
    uint32_t qhi = 0;     ///< high-priority run-list depth at capture
    // host-side: excluded by the exporters' archOnly mode
    uint64_t icacheHits = 0;
    uint64_t icacheMisses = 0;
    uint64_t blockChains = 0; ///< chains retired in the block tier
    uint64_t blockDeopts = 0; ///< superblock exits, all reasons
};

/**
 * Fixed-capacity ring of TsPoints.  Like TraceBuffer, the ring is
 * single-writer (the owning node's shard thread) and overwrites the
 * oldest points when full; recording must never stall the simulation.
 */
class TimeSeries
{
  public:
    /**
     * @param intervalTicks  simulated ticks between samples.
     * @param depthLog2      capacity = 2^depthLog2 points.
     */
    TimeSeries(Tick intervalTicks, unsigned depthLog2)
        : interval_(intervalTicks),
          mask_((size_t{1} << depthLog2) - 1),
          ring_(size_t{1} << depthLog2)
    {}

    Tick interval() const { return interval_; }

    void
    push(const TsPoint &p)
    {
        ring_[total_ & mask_] = p;
        ++total_;
    }

    size_t capacity() const { return mask_ + 1; }
    /** Host bytes of the ring (scale accounting). */
    size_t
    footprintBytes() const
    {
        return ring_.capacity() * sizeof(TsPoint);
    }
    uint64_t total() const { return total_; }
    size_t
    size() const
    {
        return total_ < capacity() ? static_cast<size_t>(total_)
                                   : capacity();
    }
    uint64_t dropped() const { return total_ - size(); }

    /** Visit surviving points oldest-first: fn(const TsPoint &). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        const uint64_t first = total_ - size();
        for (uint64_t i = first; i < total_; ++i)
            fn(ring_[i & mask_]);
    }

  private:
    Tick interval_;
    size_t mask_;
    uint64_t total_ = 0;
    std::vector<TsPoint> ring_;
};

} // namespace transputer::obs

#endif // TRANSPUTER_OBS_TIMESERIES_HH
