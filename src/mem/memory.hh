/**
 * @file
 * The transputer memory subsystem.
 *
 * The paper (section 3.2.2): the address space is a single signed
 * linear space; pointers run from the most negative integer through
 * zero to the most positive.  On-chip RAM sits at the bottom of the
 * space (at MostNeg); external memory, if configured, continues
 * immediately above it.  The instruction architecture does not
 * distinguish the two, but external accesses may cost extra cycles
 * (wait states), which the CPU charges via accessWaits().
 *
 * The words at the very bottom of the space are reserved for the
 * hardware: the eight link channel words (out 0-3, in 0-3), the Event
 * channel, the two timer-queue head pointers, and the interrupt save
 * area used on a low-to-high priority switch.  MemStart is the first
 * word available to programs (0x80000048 on a 32-bit part, matching
 * the historical T414 map).
 *
 * Storage is allocated lazily (DESIGN.md section 4.8): the logical
 * size is fixed at construction but the backing bytes grow on demand,
 * in snapshot-page multiples, only as high as the program actually
 * writes.  Reads above the high-water mark return zero -- exactly
 * what an eager zero-filled image would hold -- so the laziness is
 * invisible to programs, and a mostly-idle transputer in a
 * 100k-node network costs one 256-byte page (the reserved map)
 * instead of its whole address space.
 */

#ifndef TRANSPUTER_MEM_MEMORY_HH
#define TRANSPUTER_MEM_MEMORY_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace transputer::mem
{

/** Thrown on an access outside the populated address range. */
class MemFault : public SimFatal
{
  public:
    explicit MemFault(const std::string &what) : SimFatal(what) {}
};

/** Word indices (from MostNeg) of the reserved hardware locations. */
namespace reserved
{
constexpr int linkOut0 = 0;      ///< link 0..3 output channel words
constexpr int linkIn0 = 4;       ///< link 0..3 input channel words
constexpr int event = 8;         ///< event-pin channel word
constexpr int tptrLoc0 = 9;      ///< high-priority timer queue head
constexpr int tptrLoc1 = 10;     ///< low-priority timer queue head
constexpr int intSave = 11;      ///< interrupt save area (word 6 spare:
constexpr int intSaveWords = 7;  ///< the error flag is shared, not saved)
constexpr int memStart = 18;     ///< first program-usable word
} // namespace reserved

/**
 * Byte-addressable memory for one transputer: on-chip RAM at MostNeg
 * plus optional external RAM above it.
 */
class Memory
{
  public:
    /**
     * @param shape word width of the owning part
     * @param onchip_bytes size of on-chip RAM (4096 for a T424)
     * @param external_bytes size of external RAM above on-chip RAM
     * @param external_waits extra cycles charged per external access
     */
    Memory(const WordShape &shape, Word onchip_bytes,
           Word external_bytes = 0, int external_waits = 0)
        : shape_(shape), onchipBytes_(onchip_bytes),
          externalWaits_(external_waits),
          sizeBytes_(onchip_bytes + external_bytes)
    {
        TRANSPUTER_ASSERT(onchip_bytes % shape.bytes == 0);
        TRANSPUTER_ASSERT(external_bytes % shape.bytes == 0);
        TRANSPUTER_ASSERT(
            sizeBytes_ >= (reserved::memStart + 1u) *
            static_cast<unsigned>(shape.bytes),
            "memory too small for the reserved map");
        dirty_.assign((pageCount() + 63) / 64, 0);
    }

    const WordShape &shape() const { return shape_; }

    /** Total populated bytes (on-chip + external). */
    Word size() const { return static_cast<Word>(sizeBytes_); }

    /** Bytes actually backed by host storage (the lazy high-water
     *  mark, a page multiple; at most size()). */
    size_t allocatedBytes() const { return bytes_.capacity(); }

    /** Lowest populated address. */
    Word base() const { return shape_.mostNeg; }

    /** First program-usable address. */
    Word
    memStart() const
    {
        return shape_.index(shape_.mostNeg, reserved::memStart);
    }

    /** Address of the output channel word for link n (0..3). */
    Word
    linkOutAddr(int n) const
    {
        return shape_.index(shape_.mostNeg, reserved::linkOut0 + n);
    }

    /** Address of the input channel word for link n (0..3). */
    Word
    linkInAddr(int n) const
    {
        return shape_.index(shape_.mostNeg, reserved::linkIn0 + n);
    }

    /** Address of the event channel word. */
    Word
    eventAddr() const
    {
        return shape_.index(shape_.mostNeg, reserved::event);
    }

    /** Address of the timer queue head for the given priority. */
    Word
    tptrLocAddr(int pri) const
    {
        return shape_.index(shape_.mostNeg,
                            pri == 0 ? reserved::tptrLoc0
                                     : reserved::tptrLoc1);
    }

    /** Address of interrupt-save word n (0..6). */
    Word
    intSaveAddr(int n) const
    {
        return shape_.index(shape_.mostNeg, reserved::intSave + n);
    }

    /** True if the address lies in on-chip RAM. */
    bool
    isOnChip(Word addr) const
    {
        return offset(addr) < onchipBytes_;
    }

    /** True if the address lies within populated memory. */
    bool
    contains(Word addr) const
    {
        return offset(addr) < sizeBytes_;
    }

    /** @name Write-invalidation hook (core/icache.hh)
     *
     * Every store -- CPU writes, link DMA, boot loads -- funnels
     * through writeByte/writeWord, so bumping a per-block generation
     * counter here catches every way code can change, including
     * self-modifying programs.  The observer array is owned by the
     * attached predecode cache; a null pointer (no cache, bare Memory
     * in tests) makes the hook a single predictable branch.
     */
    ///@{
    /** log2 of the invalidation granule (64-byte blocks). */
    static constexpr int invalBlockShift = 6;

    /** Number of generation counters an observer must provide. */
    size_t
    invalBlocks() const
    {
        return (sizeBytes_ >> invalBlockShift) + 1;
    }

    /** Attach (or detach, with nullptr) the generation array. */
    void attachWriteGens(uint32_t *gens) { writeGens_ = gens; }

    /** Generation-counter slot for the block containing addr. */
    size_t
    blockIndex(Word addr) const
    {
        return blockAt(offset(addr));
    }

    /** Current generation of the block containing addr. */
    uint32_t
    writeGen(Word addr) const
    {
        return writeGens_
                   ? writeGens_[offset(addr) >> invalBlockShift]
                   : 0;
    }
    ///@}

    /** @name Dirty-page tracking (src/snap)
     *
     * A snapshot stores only pages that have ever been written, so a
     * mostly-idle transputer costs a handful of pages instead of its
     * whole address space.  The bitmap is set on the same store paths
     * that bump the icache write generations; restore clears it and
     * re-marks exactly the restored pages, which makes the dirty set
     * itself part of the reproducible state (a second snapshot after a
     * restore selects the same pages).
     */
    ///@{
    /** log2 of the snapshot page size (256-byte pages). */
    static constexpr int pageShift = 8;

    /** Number of snapshot pages covering populated memory. */
    size_t
    pageCount() const
    {
        return (sizeBytes_ + (size_t{1} << pageShift) - 1)
               >> pageShift;
    }

    /** Bytes in page p (the last page may be a short tail). */
    size_t
    pageBytes(size_t p) const
    {
        const size_t start = p << pageShift;
        const size_t full = size_t{1} << pageShift;
        return std::min(full, sizeBytes_ - start);
    }

    /** True if page p has been written since construction/restore. */
    bool
    pageDirty(size_t p) const
    {
        return (dirty_[p >> 6] >> (p & 63)) & 1;
    }

    /** Raw bytes of page p (only valid for dirty pages: a page can
     *  only be dirty once its storage exists). */
    const uint8_t *
    pageData(size_t p) const
    {
        TRANSPUTER_ASSERT((p << pageShift) < bytes_.size(),
                          "pageData on an unallocated page");
        return bytes_.data() + (p << pageShift);
    }

    /**
     * Overwrite page p (marks it dirty and bumps the write
     * generations of every icache block it covers, so predecoded code
     * from before the write cannot be reused).
     */
    void
    writePage(size_t p, const uint8_t *data, size_t n)
    {
        TRANSPUTER_ASSERT(p < pageCount() && n == pageBytes(p),
                          "writePage size mismatch");
        const size_t start = p << pageShift;
        ensureBacked(start + n - 1);
        std::memcpy(bytes_.data() + start, data, n);
        dirty_[p >> 6] |= uint64_t{1} << (p & 63);
        if (writeGens_) {
            for (size_t b = start >> invalBlockShift;
                 b <= (start + n - 1) >> invalBlockShift; ++b)
                ++writeGens_[b];
        }
    }

    /**
     * Zero all memory and clear the dirty bitmap, bumping every write
     * generation: the clean slate a restore rebuilds onto.  Backing
     * storage is kept (zeroed), so a restore never re-grows pages it
     * already had.
     */
    void
    resetForRestore()
    {
        std::fill(bytes_.begin(), bytes_.end(), 0);
        std::fill(dirty_.begin(), dirty_.end(), 0);
        lastDirtyPage_ = SIZE_MAX;
        if (writeGens_) {
            for (size_t b = 0; b < invalBlocks(); ++b)
                ++writeGens_[b];
        }
    }
    ///@}

    /** Extra cycles the CPU must charge for touching this address. */
    int
    accessWaits(Word addr) const
    {
        return isOnChip(addr) ? 0 : externalWaits_;
    }

    uint8_t
    readByte(Word addr) const
    {
        const size_t off = checkedOffset(addr);
        // above the lazy high-water mark: never written, still zero
        return off < bytes_.size() ? bytes_[off] : 0;
    }

    void
    writeByte(Word addr, uint8_t v)
    {
        const size_t off = checkedOffset(addr);
        if (off >= bytes_.size())
            ensureBacked(off);
        if (writeGens_)
            ++writeGens_[off >> invalBlockShift];
        markDirty(off);
        bytes_[off] = v;
    }

    /** @name The guest word access path
     *
     * A guest load or store computes the offset of its word once
     * (wordOffset) and passes it down: to its wait states, to the
     * access itself and to the store's write-generation block.
     * readWord and writeWord are the same path from an address.
     */
    ///@{
    /** Offset above MostNeg of the word containing addr. */
    size_t
    wordOffset(Word addr) const
    {
        return offset(shape_.wordAlign(addr));
    }

    /** Wait states of the word at offset off (accessWaits). */
    int
    waitsAt(size_t off) const
    {
        return off < onchipBytes_ ? 0 : externalWaits_;
    }

    /** Write-generation block of the byte at offset off. */
    static size_t
    blockAt(size_t off)
    {
        return off >> invalBlockShift;
    }

    /** Read the word at offset off (wordOffset).  The hot path is one
     *  compare: a word inside the backing is inside populated memory
     *  too, and backing grows in page multiples, so a word is either
     *  fully backed or fully unwritten. */
    Word
    readWordAt(size_t off) const
    {
        if (off >= bytes_.size()) [[unlikely]]
            return unbackedWord(off);
        // the byte fold below is a little-endian load; take it in one
        // step for the common 32-bit shape on little-endian hosts
        // (the loop's trip count is a runtime value, so the compiler
        // cannot merge it on its own)
        if constexpr (std::endian::native == std::endian::little) {
            if (shape_.bytes == 4) {
                uint32_t v;
                std::memcpy(&v, bytes_.data() + off, sizeof(v));
                return v;
            }
        }
        Word v = 0;
        for (int i = shape_.bytes - 1; i >= 0; --i)
            v = (v << 8) | bytes_[off + i];
        return v;
    }

    /** Write the word at offset off (wordOffset).  The hot path is one
     *  compare, as for reads: only a store past the high-water mark
     *  takes the cold path (the fault, or the growth). */
    void
    writeWordAt(size_t off, Word v)
    {
        const size_t end = off + static_cast<size_t>(shape_.bytes);
        if (end > bytes_.size()) [[unlikely]]
            backWord(off);
        if (writeGens_)
            ++writeGens_[blockAt(off)];
        markDirty(off);
        if constexpr (std::endian::native == std::endian::little) {
            if (shape_.bytes == 4) {
                const uint32_t u = static_cast<uint32_t>(v);
                std::memcpy(bytes_.data() + off, &u, sizeof(u));
                return;
            }
        }
        for (int i = 0; i < shape_.bytes; ++i) {
            bytes_[off + i] = static_cast<uint8_t>(v & 0xFF);
            v >>= 8;
        }
    }
    ///@}

    /** Read the word containing addr (byte selector ignored). */
    Word readWord(Word addr) const { return readWordAt(wordOffset(addr)); }

    /** Write the word containing addr (byte selector ignored). */
    void
    writeWord(Word addr, Word v)
    {
        writeWordAt(wordOffset(addr), v);
    }

    /** Bulk load (program images); faults if any byte out of range. */
    void
    load(Word addr, const uint8_t *data, size_t n)
    {
        for (size_t i = 0; i < n; ++i)
            writeByte(shape_.truncate(addr + i), data[i]);
    }

    /** Fill every word with a recognizable poison value (debugging). */
    void
    poison(Word v)
    {
        for (Word a = base(); offset(a) < size();
             a = shape_.index(a, 1))
            writeWord(a, v);
    }

  private:
    /**
     * Grow the backing storage to cover byte offset off: to the next
     * page boundary at least, doubling for amortized O(1) growth,
     * never past the logical size.  Keeping the high-water mark
     * page-aligned (or equal to the logical size) means words and
     * snapshot pages are always either fully backed or fully
     * unwritten.
     */
    void
    ensureBacked(size_t off)
    {
        const size_t page = size_t{1} << pageShift;
        const size_t want = (off + page) & ~(page - 1);
        const size_t grown = std::max(want, 2 * bytes_.size());
        bytes_.resize(std::min(grown, sizeBytes_), 0);
    }

    /** writeWordAt's cold path: fault outside populated memory, else
     *  back the word at offset off.  Out of line, so the store path
     *  inlines into every CPU tier. */
    [[gnu::cold, gnu::noinline]] void
    backWord(size_t off)
    {
        if (off >= sizeBytes_)
            fault(addressAt(off));
        ensureBacked(off + static_cast<size_t>(shape_.bytes) - 1);
    }

    /** readWordAt's cold path: fault outside populated memory, else
     *  the word was never written and reads zero. */
    [[gnu::cold, gnu::noinline]] Word
    unbackedWord(size_t off) const
    {
        if (off >= sizeBytes_)
            fault(addressAt(off));
        return 0;
    }

    /** Mark the snapshot page containing byte offset off as written.
     *  Word stores are word-aligned and pages are word multiples, so
     *  marking the page of the first byte covers the whole store.
     *  Stores cluster (a loop hammers its workspace page), so a
     *  last-page memo turns the common case into one predicted
     *  compare instead of a read-modify-write of the bitmap. */
    void
    markDirty(size_t off)
    {
        const size_t p = off >> pageShift;
        if (p == lastDirtyPage_)
            return;
        lastDirtyPage_ = p;
        dirty_[p >> 6] |= uint64_t{1} << (p & 63);
    }

    /** Distance of addr above MostNeg, wrapped to the word width. */
    Word
    offset(Word addr) const
    {
        return (addr - shape_.mostNeg) & shape_.mask;
    }

    size_t
    checkedOffset(Word addr) const
    {
        const Word off = offset(addr);
        if (off >= sizeBytes_)
            fault(addr);
        return off;
    }

    /** The address at offset off (offset is one-to-one over the word
     *  width). */
    Word
    addressAt(size_t off) const
    {
        return shape_.truncate(shape_.mostNeg + static_cast<Word>(off));
    }

    /** The fault of an access at addr, outside populated memory. */
    [[noreturn]] void
    fault(Word addr) const
    {
        throw MemFault(fmt("access at {} outside populated memory "
                           "([{}, {}))", hexWord(addr),
                           hexWord(shape_.mostNeg),
                           hexWord(shape_.truncate(
                               shape_.mostNeg + size()))));
    }

    const WordShape shape_;
    const Word onchipBytes_;
    const int externalWaits_;
    const size_t sizeBytes_;        ///< logical (populated) size
    std::vector<uint8_t> bytes_;    ///< lazy backing, page multiples
    std::vector<uint64_t> dirty_;   ///< per-page written-since bitmap
    size_t lastDirtyPage_ = SIZE_MAX; ///< markDirty fast-path memo
    uint32_t *writeGens_ = nullptr; ///< per-block write generations
};

} // namespace transputer::mem

#endif // TRANSPUTER_MEM_MEMORY_HH
