/**
 * @file
 * The block-compiler execution tier (see DESIGN.md "Block compiler").
 *
 * Sits above core/exec.cc's fused loop in the tier ladder:
 *
 *   executeOneSlow (the byte step)  |  runFused  ->  superblocks
 *
 * stepHandler runs every cached chain through runFused and everything
 * else through the byte step; runFused alone enters superblocks, where
 * a control transfer lands on one.  Hot predecoded regions (heat is
 * counted at the same landings while the promotion gate is open,
 * Transputer::wantsBlockEntry) are compiled into superblocks:
 * arrays of superop steps (isa/superop.hh), each binding one chain --
 * prefix chain folded into the operand at compile time -- to its
 * handler in core/semantics.hh, with adjacent chains fused where a
 * peephole rule matches.  Transputer::execBlock dispatches the steps
 * with computed gotos, so the per-instruction decode/branch cost of
 * the interpreter disappears.
 *
 * Bit-faithfulness contract (obs::sameArchitectural is the oracle):
 *   - every step retires its chain's exact counters, cycle charges and
 *     stamps: what compilation knows (prefix and base cycles, counts,
 *     the next iptr, the lastInstrStart_ stamp) from the block's
 *     cumulative rows once per sweep of steps, and the dynamic charges
 *     (wait states, a taken cj's extra cycles, off-chip fetches) as
 *     they land, each closing the sweep first (sem::Swept);
 *   - the compiled code bytes are current whenever a step runs: the
 *     guards (the write generations of the code's 64-byte blocks) are
 *     checked at entry and re-read after a store into their window, a
 *     generic operation and a timeslice rotation at a jump;
 *   - a superblock only runs chains the interpreter would run: at each
 *     sweep start (entry, a lap, after a call into the core) the
 *     event/horizon bound and the dispatch budget become one step
 *     index, from the rows' worst-case column, and every step is one
 *     compare against it (a fused head checks that its whole group
 *     fits, else falls back to per-chain solo execution).  Where the
 *     worst case stops the block short of the bound, it starts another
 *     sweep from the exact clock, and at an observation threshold
 *     inside the bound it samples and goes on;
 *   - anything the block cannot prove -- a stale guard (self-modifying
 *     store, link DMA), a timeslice rotation, an error halt, a
 *     dynamic branch out -- deopts: the block exits at a chain
 *     boundary with all state spilled, and the fused loop continues
 *     exactly where the tier-off run would be.
 *
 * Nothing architectural lives in a superblock; dropping any block (or
 * the whole cache) at any moment is always correct.  The block tier
 * leaves the predecode cache's slots alone and banks one icache hit
 * per retired chain: the cache's statistics are host-side, like the
 * tier's own.  Snapshots never serialize compiled blocks: restore
 * invalidates the cache wholesale and lets execution re-heat from the
 * restored memory image (only the obs::BlockStats counters round-trip,
 * like the predecode cache's).
 */

#ifndef TRANSPUTER_CORE_BLOCKC_HH
#define TRANSPUTER_CORE_BLOCKC_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "core/icache.hh"
#include "isa/superop.hh"
#include "obs/counters.hh"

namespace transputer::core
{

class Transputer;

namespace blockc
{

/** Why a superblock execution ended.  Mirrors obs::kBlockDeoptNames. */
enum class Deopt : uint8_t
{
    Bound = 0,  ///< local time reached the event/horizon bound
    Budget,     ///< per-dispatch instruction budget exhausted
    GuardStale, ///< code bytes changed under the block
    Deschedule, ///< timeslice rotation / deschedule left the block
    Halt,       ///< error flag with halt-on-error set
    BranchOut,  ///< dynamic branch left the compiled region
    End,        ///< ran off the compiled tail
    Entry,      ///< stale at entry; nothing executed
    kCount
};

static_assert(static_cast<size_t>(Deopt::kCount) == obs::kBlockDeopts,
              "Deopt enum and obs deopt histogram must match");

/** Step::kind of an off-chip chain: the executor charges its word
 *  fetches, then dispatches its solo kind. */
constexpr isa::superop::Kind kFetchFirst = isa::superop::Kind::kCount;

/**
 * One superop step: a predecoded chain bound to a handler kind, with
 * what the executor reads of it per step; the rest of the chain lives
 * in the block's rows.  Member steps of a fused group keep their solo
 * kind in `kind == solo`; only the head step's `kind` is the fused
 * superop, and the executor near a bound/budget boundary re-dispatches
 * the members through `solo`.
 */
struct Step
{
    Word operand = 0; ///< folded operand
    /** Fall-through address (the chain's start plus its length): iptr
     *  for a handler that reads it, and the end of an off-chip
     *  chain's fetch. */
    Word next = 0;
    isa::superop::Kind kind = isa::superop::Kind::kCount;
    isa::superop::Kind solo = isa::superop::Kind::kCount;
    uint8_t length = 0; ///< bytes, prefixes included
};

/** A compiled superblock. */
struct Superblock
{
    Word entry = 0;
    bool valid = false;
    uint16_t nsteps = 0;
    std::vector<Step> steps;

    /** Per-step cumulative retire accounting: row k holds what the
     *  interpreter charges, counts and stamps for steps [0, k) along
     *  the block's path, apart from the dynamic charges.  The block
     *  tier adds the difference of two rows when a linear sweep
     *  [first, past-last) closes (sem::Swept), so the per-chain
     *  retire work in the hot loop collapses to one flush per lap,
     *  exit, call into the core or dynamic charge. */
    struct Row
    {
        /** Function counts (prefixes under PFIX/NFIX). */
        std::array<uint16_t, 16> fn{};
        uint16_t len = 0; ///< instruction bytes
        /** Static cycles: prefixes plus base costs, cj at its
         *  fall-through cost, a generic operation its prefixes only
         *  (the core charges the rest). */
        uint32_t cycles = 0;
        /** Static cycles up to the last chain's lastInstrStart_
         *  stamp, which follows its prefixes. */
        uint32_t stamp = 0;
        /** Worst-case cycles: the static ones, every load and store
         *  and every off-chip fetch word at externalWaits, and cj at
         *  its taken cost.  Bounds how far a sweep may run. */
        uint32_t worst = 0;
        /** iptr after the last chain: its successor on the block's
         *  path (a call's routine, else the fall-through). */
        Word iptr = 0;
    };
    std::vector<Row> rows; ///< nsteps + 1 rows

    /** Write generations of every 64-byte block holding code of this
     *  superblock, at compile time.  All current <=> no byte of the
     *  compiled region has been stored to since compilation. */
    struct Guard
    {
        uint32_t gidx = 0;
        uint32_t gen = 0;
    };
    static constexpr size_t kMaxGuards = 8;
    uint8_t nguards = 0;
    std::array<Guard, kMaxGuards> guards{};
    /** The guards' block window: least gidx, and greatest minus
     *  least.  A store outside it cannot move a guard generation. */
    uint32_t codeLo = 0, codeSpan = 0;

    bool
    guardsOk(const uint32_t *gens) const
    {
        for (size_t i = 0; i < nguards; ++i)
            if (gens[guards[i].gidx] != guards[i].gen)
                return false;
        return true;
    }
};

/**
 * Per-transputer superblock cache: a direct-mapped block table plus a
 * heat table that promotes entry points once they have been reached
 * often enough.  Compilation failures are negatively cached so cold
 * or uncompilable addresses are not re-walked on every visit.  The
 * cache (its heat table, about 6 KiB) is created when the promotion
 * gate first lets a landing count heat, and the block table (40 KiB)
 * by the first compile, so a node whose code never earns a block --
 * the promotion gate declines short-run workloads -- carries neither.
 */
class BlockCache
{
  public:
    static constexpr size_t kBlocks = 256;      ///< block table slots
    static constexpr size_t kHeatSlots = 1024;  ///< heat table slots
    static constexpr uint16_t kHotThreshold = 12; ///< visits to compile
    static constexpr uint16_t kNoCompile = 0xFFFF; ///< negative cache
    static constexpr size_t kMaxSteps = 64;     ///< per superblock
    static constexpr size_t kMinSteps = 3;      ///< else not worth it
    /** Promotion gate (Transputer::blockPromotionAllowed): compile
     *  only while the node's fused runs average at least kMinMeanRun
     *  chains, the measured break-even of a superblock against the
     *  fused loop (DESIGN.md section 4.6). */
    static constexpr uint64_t kMinMeanRun = 16;

    /** The valid superblock entered at iptr, or nullptr. */
    Superblock *
    find(Word iptr)
    {
        if (!blocks_)
            return nullptr;
        Superblock &sb = (*blocks_)[blockIndex(iptr)];
        return (sb.valid && sb.entry == iptr) ? &sb : nullptr;
    }

    /** The block table exists (something has been compiled since the
     *  cache was made or last dropped everything). */
    bool hasTable() const { return blocks_ != nullptr; }

    /**
     * Count a visit to a potential entry point.  @return true when
     * the address just crossed the promotion threshold and the caller
     * should compile it now.
     */
    bool
    heat(Word iptr)
    {
        const size_t i = heatIndex(iptr);
        if (heatTag_[i] != iptr) {
            heatTag_[i] = iptr;
            heatCount_[i] = 1;
            return false;
        }
        if (heatCount_[i] >= kHotThreshold)
            return false; // compiled already, or negatively cached
        return ++heatCount_[i] >= kHotThreshold;
    }

    /**
     * Compile a superblock starting at `entry` and install it (also
     * evicting whatever aliased its table slot), decoding through
     * the icache's decode step.  @return the block, or nullptr when
     * the region is not worth compiling (the address is then
     * negatively cached until its heat slot is recycled).
     */
    Superblock *compile(const PredecodeCache &icache, const WordShape &s,
                        int external_waits, Word entry);

    /** Demote one block (stale guards, self-modifying code). */
    void
    invalidate(Superblock &sb)
    {
        sb.valid = false;
        ++stats_.invalidations;
        // let the region re-heat: a recompile picks up the new bytes
        const size_t i = heatIndex(sb.entry);
        if (heatTag_[i] == sb.entry)
            heatCount_[i] = 0;
    }

    /** Drop every compiled block, with the table, and all heat
     *  (snapshot restore). */
    void
    invalidateAll()
    {
        blocks_.reset();
        heatTag_.fill(~Word{0});
        heatCount_.fill(0);
    }

    obs::BlockStats &stats() { return stats_; }
    const obs::BlockStats &stats() const { return stats_; }

    /** Host bytes of the cache itself plus, once it exists, the block
     *  table and every compiled block's step and row arrays (scale
     *  accounting). */
    size_t
    footprintBytes() const
    {
        size_t n = sizeof(*this);
        if (!blocks_)
            return n;
        n += sizeof(*blocks_);
        for (const Superblock &sb : *blocks_) {
            n += sb.steps.capacity() * sizeof(Step);
            n += sb.rows.capacity() * sizeof(Superblock::Row);
        }
        return n;
    }

    /** Overwrite the statistics with snapshotted values (src/snap). */
    void restoreStats(const obs::BlockStats &s) { stats_ = s; }

  private:
    static size_t
    blockIndex(Word iptr)
    {
        return static_cast<size_t>(iptr ^ (iptr >> 8)) & (kBlocks - 1);
    }

    static size_t
    heatIndex(Word iptr)
    {
        return static_cast<size_t>(iptr ^ (iptr >> 10)) &
               (kHeatSlots - 1);
    }

    std::unique_ptr<std::array<Superblock, kBlocks>> blocks_;
    std::array<Word, kHeatSlots> heatTag_{};
    std::array<uint16_t, kHeatSlots> heatCount_{};
    obs::BlockStats stats_;
};

} // namespace blockc

} // namespace transputer::core

#endif // TRANSPUTER_CORE_BLOCKC_HH
