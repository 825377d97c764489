/**
 * @file
 * The per-transputer predecoded instruction cache (see DESIGN.md
 * "Interpreter fast path").
 *
 * A direct-mapped array of isa::Predecoded entries keyed by the exact
 * byte address of a chain start.  Validity is generation-based rather
 * than flush-based: mem::Memory bumps a per-64-byte-block write
 * generation on every store (CPU stores, link DMA, boot loads), and
 * each entry records the generations of the blocks holding its first
 * and last byte at decode time.  A hit therefore requires the tag to
 * match *and* both generations to be unchanged, which makes
 * self-modifying code exact without searching the cache on writes:
 * invalidation is O(1) per store and lookups simply re-decode when
 * stale.  Nothing architectural lives here -- dropping any entry (or
 * the whole cache) at any moment is always correct -- and the hit,
 * miss and invalidation counts are host-side statistics: the block
 * tier banks a hit per chain it retires without touching a slot, so
 * the counts depend on which tier ran a chain.
 */

#ifndef TRANSPUTER_CORE_ICACHE_HH
#define TRANSPUTER_CORE_ICACHE_HH

#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "isa/predecode.hh"
#include "mem/memory.hh"

namespace transputer::core
{

class PredecodeCache
{
  public:
    /** One cached chain; ~24 bytes, see isa::Predecoded. */
    struct Entry
    {
        Word tag = 0;       ///< iptr of the chain start
        Word operand = 0;   ///< folded operand
        uint32_t gidx = 0;  ///< generation slot of the first byte
        uint32_t gidx2 = 0; ///< generation slot of the last byte
        uint32_t gen = 0;   ///< write generation of the first byte
        uint32_t gen2 = 0;  ///< write generation of the last byte
        uint8_t length = 0; ///< bytes, including prefixes; 0: invalid
        uint8_t pfixes = 0;
        uint8_t nfixes = 0;
        uint8_t fn = 0;     ///< final isa::Fn (never PFIX/NFIX)
        uint8_t flags = 0;  ///< isa::pflag:: bits
        bool offChip = false; ///< any byte outside on-chip RAM
    };

    /** Default slot count (the T424-era sweet spot, ~80 KiB). */
    static constexpr size_t kDefaultEntries = 2048;

    /**
     * @param entries direct-mapped slot count, a power of two.  Large
     * networks of mostly-idle nodes use a small cache
     * (core::Config::icacheEntries); the entry array itself is only
     * allocated on first use, so a node that never executes costs
     * just the generation array.
     */
    explicit PredecodeCache(mem::Memory &mem,
                            size_t entries = kDefaultEntries)
        : mem_(&mem), nEntries_(entries), mask_(entries - 1),
          gens_(mem.invalBlocks(), 1)
    {
        TRANSPUTER_ASSERT(entries >= 2 &&
                              (entries & (entries - 1)) == 0,
                          "icache entry count must be a power of two");
        mem_->attachWriteGens(gens_.data());
    }

    ~PredecodeCache() { mem_->attachWriteGens(nullptr); }

    PredecodeCache(const PredecodeCache &) = delete;
    PredecodeCache &operator=(const PredecodeCache &) = delete;

    /**
     * Decode the chain starting at iptr into its slot, counting a miss
     * (and an invalidation when the slot held the same chain with
     * stale generations).  The fused loop calls it where its inline
     * hit check fails; out of line, it does not crowd that loop.
     * @return the slot, or nullptr when the chain is not cacheable (it
     * runs past populated memory or exceeds isa::maxChainBytes): the
     * caller must fall back to byte-at-a-time execution.
     */
    [[gnu::noinline]] const Entry *
    fill(Word iptr)
    {
        Entry &slot = entriesMut()[indexOf(iptr)];
        ++misses_;
        if (slot.length && slot.tag == iptr)
            ++invalidations_; // same chain, stale generations
        Entry e;
        if (!decode(iptr, e).complete())
            return nullptr;
        slot = e;
        return &slot;
    }

    /** @name Statistics (bench_interp, src/obs) */
    ///@{
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }
    /** Host bytes of the side structures (scale accounting). */
    size_t
    footprintBytes() const
    {
        return entries_.capacity() * sizeof(Entry) +
               gens_.capacity() * sizeof(uint32_t);
    }
    /** Refills of an entry whose tag matched but whose generations
     *  were stale: a store landed in the cached chain's blocks
     *  (self-modifying code, link DMA, boot loads). */
    uint64_t invalidations() const { return invalidations_; }
    ///@}

    /** @name Restore hooks (src/snap)
     *
     * Predecoded chains are a pure acceleration structure, so a
     * snapshot never serializes them: restore drops every entry and
     * lets execution re-decode from the restored memory image.  The
     * statistics are host-side, but they feed obs::Counters, which
     * snapshots carry whole, so they round-trip explicitly.
     */
    ///@{
    /** Drop every cached chain (entries refill lazily). */
    void
    invalidateAll()
    {
        for (Entry &e : entries_)
            e.length = 0;
    }

    /** Overwrite the statistic counters with snapshotted values. */
    void
    restoreStats(uint64_t hits, uint64_t misses,
                 uint64_t invalidations)
    {
        hits_ = hits;
        misses_ = misses;
        invalidations_ = invalidations;
    }
    ///@}

    /** @name Raw access for the fused interpreter loop
     *
     * core/exec.cc's runFused keeps these in locals so the hot hit
     * check does not re-load vector data pointers after every store
     * (uint8_t stores into the memory image may alias anything).  A
     * miss there fills the slot through fill().  The block executor
     * reads the generations for its guards and banks its hits too.
     */
    ///@{
    /** The entry array, allocated on first use. */
    Entry *
    entriesMut()
    {
        if (entries_.empty()) [[unlikely]]
            allocate();
        return entries_.data();
    }
    /** Index mask for this cache's slot count (entry count - 1). */
    size_t indexMask() const { return mask_; }
    const uint32_t *gensData() const { return gens_.data(); }
    void addHits(uint64_t n) { hits_ += n; }
    ///@}

    /**
     * The fill's decode step: fold the chain at iptr and describe it
     * as an entry image (tag, operand, write generations, prefix
     * counts, flags, off-chip bit) in `e`, touching neither the slots
     * nor the statistics.  The block compiler builds its steps with
     * it.  @return the fold; `e` is meaningful only when complete.
     */
    isa::Predecoded
    decode(Word iptr, Entry &e) const
    {
        const WordShape &s = mem_->shape();
        uint8_t buf[isa::maxChainBytes];
        size_t n = 0;
        while (n < isa::maxChainBytes &&
               mem_->contains(s.truncate(iptr + n))) {
            buf[n] = mem_->readByte(s.truncate(iptr + n));
            ++n;
        }
        const isa::Predecoded d = isa::predecode(buf, n, s);
        if (!d.complete())
            return d;
        const Word last = lastByte(iptr, d.length);
        e.tag = iptr;
        e.operand = d.operand;
        e.gidx = static_cast<uint32_t>(mem_->blockIndex(iptr));
        e.gidx2 = static_cast<uint32_t>(mem_->blockIndex(last));
        e.gen = gens_[e.gidx];
        e.gen2 = gens_[e.gidx2];
        e.length = d.length;
        e.pfixes = d.pfixes;
        e.nfixes = d.nfixes;
        e.fn = static_cast<uint8_t>(d.fn);
        e.flags = d.flags;
        e.offChip = !mem_->isOnChip(iptr) || !mem_->isOnChip(last);
        return d;
    }

  private:
    size_t
    indexOf(Word iptr) const
    {
        return static_cast<size_t>(iptr) & mask_;
    }

    Word
    lastByte(Word iptr, uint8_t length) const
    {
        return mem_->shape().truncate(
            iptr + static_cast<Word>(length - 1));
    }

    /** Size the entry array (first use); out of line like fill(). */
    [[gnu::noinline]] void allocate() { entries_.resize(nEntries_); }

    mem::Memory *mem_;
    const size_t nEntries_;      ///< slot count (power of two)
    const size_t mask_;          ///< nEntries_ - 1
    std::vector<uint32_t> gens_; ///< per-block write generations
    std::vector<Entry> entries_; ///< lazily sized to nEntries_
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
    uint64_t invalidations_ = 0;
};

} // namespace transputer::core

#endif // TRANSPUTER_CORE_ICACHE_HH
