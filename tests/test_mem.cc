/**
 * @file
 * Unit tests for the memory subsystem: the signed linear address
 * space, the reserved map, word/byte access and wait states, and the
 * edges of the store path (the last populated byte and word, faults
 * one past the end, the lazy high-water mark, write generations and
 * dirty pages) for both word shapes.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mem/memory.hh"

using namespace transputer;
using mem::Memory;

TEST(Memory, ReservedMapMatchesT414Layout)
{
    Memory m(word32, 4096);
    EXPECT_EQ(m.base(), 0x80000000u);
    EXPECT_EQ(m.linkOutAddr(0), 0x80000000u);
    EXPECT_EQ(m.linkOutAddr(3), 0x8000000Cu);
    EXPECT_EQ(m.linkInAddr(0), 0x80000010u);
    EXPECT_EQ(m.linkInAddr(3), 0x8000001Cu);
    EXPECT_EQ(m.eventAddr(), 0x80000020u);
    EXPECT_EQ(m.tptrLocAddr(0), 0x80000024u);
    EXPECT_EQ(m.tptrLocAddr(1), 0x80000028u);
    // MemStart on a T414-class 32-bit part is 0x80000048
    EXPECT_EQ(m.memStart(), 0x80000048u);
}

TEST(Memory, ReservedMapScalesTo16Bit)
{
    Memory m(word16, 2048);
    EXPECT_EQ(m.base(), 0x8000u);
    EXPECT_EQ(m.linkInAddr(0), 0x8008u);
    EXPECT_EQ(m.memStart(), 0x8000u + 18 * 2);
}

TEST(Memory, ByteAndWordAccessAgreeLittleEndian)
{
    Memory m(word32, 4096);
    const Word a = m.memStart();
    m.writeWord(a, 0x11223344u);
    EXPECT_EQ(m.readByte(a + 0), 0x44);
    EXPECT_EQ(m.readByte(a + 1), 0x33);
    EXPECT_EQ(m.readByte(a + 2), 0x22);
    EXPECT_EQ(m.readByte(a + 3), 0x11);
    m.writeByte(a + 1, 0xAA);
    EXPECT_EQ(m.readWord(a), 0x1122AA44u);
}

TEST(Memory, WordAccessIgnoresByteSelector)
{
    Memory m(word32, 4096);
    const Word a = m.memStart();
    m.writeWord(a + 3, 0xDEADBEEFu);
    EXPECT_EQ(m.readWord(a), 0xDEADBEEFu);
    EXPECT_EQ(m.readWord(a + 1), 0xDEADBEEFu);
}

TEST(Memory, OutOfRangeAccessFaults)
{
    Memory m(word32, 4096);
    EXPECT_THROW(m.readByte(0x80001000u), mem::MemFault);
    EXPECT_THROW(m.writeWord(0x00000000u, 1), mem::MemFault);
    EXPECT_NO_THROW(m.readByte(0x80000FFFu));
}

TEST(Memory, ExternalMemoryExtendsTheSpaceWithWaits)
{
    Memory m(word32, 4096, 8192, 3);
    EXPECT_TRUE(m.isOnChip(0x80000000u));
    EXPECT_TRUE(m.isOnChip(0x80000FFFu));
    EXPECT_FALSE(m.isOnChip(0x80001000u));
    EXPECT_EQ(m.accessWaits(0x80000800u), 0);
    EXPECT_EQ(m.accessWaits(0x80001000u), 3);
    m.writeWord(0x80002000u, 42);
    EXPECT_EQ(m.readWord(0x80002000u), 42u);
    EXPECT_THROW(m.readByte(0x80003000u), mem::MemFault);
}

TEST(Memory, BulkLoadPlacesBytes)
{
    Memory m(word32, 4096);
    const uint8_t data[] = {1, 2, 3, 4, 5};
    m.load(m.memStart(), data, sizeof(data));
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(m.readByte(m.memStart() + i), i + 1);
}

TEST(Memory, SixteenBitWordsWrapCorrectly)
{
    Memory m(word16, 2048);
    const Word a = m.memStart();
    m.writeWord(a, 0xBEEF);
    EXPECT_EQ(m.readWord(a), 0xBEEFu);
    EXPECT_EQ(m.readByte(a), 0xEF);
    EXPECT_EQ(m.readByte(a + 1), 0xBE);
}

TEST(WordShape, SignedInterpretation)
{
    EXPECT_EQ(word32.toSigned(0xFFFFFFFFu), -1);
    EXPECT_EQ(word32.toSigned(0x80000000u), INT32_MIN);
    EXPECT_EQ(word32.toSigned(0x7FFFFFFFu), INT32_MAX);
    EXPECT_EQ(word16.toSigned(0xFFFFu), -1);
    EXPECT_EQ(word16.toSigned(0x8000u), -32768);
    EXPECT_EQ(word16.toSigned(0x1234u), 0x1234);
}

TEST(WordShape, PointerIndexingIsWordScaled)
{
    EXPECT_EQ(word32.index(0x80000000u, 18), 0x80000048u);
    EXPECT_EQ(word32.index(0x80000048u, -1), 0x80000044u);
    EXPECT_EQ(word16.index(0x8000u, 18), 0x8024u);
    // pointers compare as signed integers across zero
    EXPECT_LT(word32.toSigned(0x80000000u), word32.toSigned(0u));
}

// ---------------------------------------------------------------------
// the store path's edges, for both word shapes
// ---------------------------------------------------------------------

namespace
{

const WordShape *const kShapes[] = {&word32, &word16};

/** 1 KiB on-chip plus 4 KiB external: 20 snapshot pages. */
Memory
edgeMemory(const WordShape &s)
{
    return Memory(s, 1024, 4096, 2);
}

/** The first address past populated memory. */
Word
endOf(const Memory &m)
{
    return m.shape().truncate(m.base() + m.size());
}

/** The MemFault message an access raises, or "" if none. */
template <class Access>
std::string
faultText(Access access)
{
    try {
        access();
    } catch (const mem::MemFault &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(MemoryStorePath, LastPopulatedByteAndWordReadBack)
{
    for (const WordShape *s : kShapes) {
        SCOPED_TRACE(s->bits);
        Memory m = edgeMemory(*s);
        const Word last_word = s->truncate(endOf(m) - s->bytes);
        const Word last_byte = s->truncate(endOf(m) - 1);
        const Word v = s->truncate(0xA5C3E1F7u);
        m.writeWord(last_word, v);
        EXPECT_EQ(m.readWord(last_word), v);
        EXPECT_EQ(m.readWord(last_byte), v); // byte selector ignored
        EXPECT_EQ(m.allocatedBytes(), m.size());
        m.writeByte(last_byte, 0x5A);
        EXPECT_EQ(m.readByte(last_byte), 0x5A);
        const int top = 8 * (s->bytes - 1); // little-endian: the top byte
        EXPECT_EQ(m.readWord(last_word),
                  (v & ~(Word{0xFF} << top)) | (Word{0x5A} << top));
    }
}

TEST(MemoryStorePath, OnePastTheEndFaultsAlikeOnEveryAccessor)
{
    const std::string want[] = {
        "access at 80001400 outside populated memory "
        "([80000000, 80001400))",
        "access at 00009400 outside populated memory "
        "([00008000, 00009400))",
    };
    for (size_t k = 0; k < std::size(kShapes); ++k) {
        const WordShape &s = *kShapes[k];
        SCOPED_TRACE(s.bits);
        Memory m = edgeMemory(s);
        std::vector<uint32_t> gens(m.invalBlocks(), 0);
        m.attachWriteGens(gens.data());
        m.writeWord(m.memStart(), 1);
        const size_t backed = m.allocatedBytes();
        const std::vector<uint32_t> gens0 = gens;
        const Word a = endOf(m);
        EXPECT_EQ(faultText([&] { m.readByte(a); }), want[k]);
        EXPECT_EQ(faultText([&] { m.writeByte(a, 1); }), want[k]);
        EXPECT_EQ(faultText([&] { m.readWord(a); }), want[k]);
        EXPECT_EQ(faultText([&] { m.writeWord(a, 1); }), want[k]);
        // a word store's fault names the word address, as the load's
        EXPECT_EQ(faultText([&] { m.writeWord(s.truncate(a + 1), 1); }),
                  want[k]);
        // below the base wraps to the top of the space: out of range
        const Word below = s.truncate(m.base() - s.bytes);
        EXPECT_NE(faultText([&] { m.writeWord(below, 1); }), "");
        EXPECT_EQ(faultText([&] { m.writeWord(below, 1); }),
                  faultText([&] { m.readWord(below); }));
        // a faulting store changes nothing
        EXPECT_EQ(m.allocatedBytes(), backed);
        EXPECT_EQ(gens, gens0);
        for (size_t p = 1; p < m.pageCount(); ++p)
            EXPECT_FALSE(m.pageDirty(p)) << "page " << p;
    }
}

TEST(MemoryStorePath, ReadAboveTheHighWaterMarkIsZeroAndDoesNotGrow)
{
    for (const WordShape *s : kShapes) {
        SCOPED_TRACE(s->bits);
        Memory m = edgeMemory(*s);
        EXPECT_EQ(m.allocatedBytes(), 0u);
        m.writeWord(m.memStart(), s->truncate(0x1234u));
        const size_t backed = m.allocatedBytes();
        EXPECT_EQ(backed, size_t{1} << Memory::pageShift);
        const Word last_word = s->truncate(endOf(m) - s->bytes);
        EXPECT_EQ(m.readWord(last_word), 0u);
        EXPECT_EQ(m.readByte(s->truncate(endOf(m) - 1)), 0u);
        EXPECT_EQ(m.readWord(s->truncate(m.base() + backed)), 0u);
        EXPECT_EQ(m.allocatedBytes(), backed);
    }
}

TEST(MemoryStorePath, FirstWriteAboveTheHighWaterMarkGrowsToAPage)
{
    const size_t page = size_t{1} << Memory::pageShift;
    for (const WordShape *s : kShapes) {
        SCOPED_TRACE(s->bits);
        Memory m = edgeMemory(*s);
        const Word low = m.memStart();
        m.writeWord(low, s->truncate(0xBEEFu));
        EXPECT_EQ(m.allocatedBytes(), page);
        // the first word of the next page: the smallest growth
        const Word next = s->truncate(m.base() + page);
        m.writeWord(next, 7);
        EXPECT_EQ(m.allocatedBytes(), 2 * page);
        // a word well above: still a page multiple, covering it
        const size_t off = 3000;
        const Word far = s->truncate(m.base() + off);
        m.writeWord(far, 9);
        EXPECT_EQ(m.allocatedBytes() % page, 0u);
        EXPECT_GE(m.allocatedBytes(), off + s->bytes);
        EXPECT_LE(m.allocatedBytes(), size_t{m.size()});
        // growth keeps what was stored and zero-fills the rest
        EXPECT_EQ(m.readWord(low), s->truncate(0xBEEFu));
        EXPECT_EQ(m.readWord(next), 7u);
        EXPECT_EQ(m.readWord(far), 9u);
        EXPECT_EQ(m.readWord(s->truncate(far - s->bytes)), 0u);
        // a byte store above the mark grows the same way
        Memory b = edgeMemory(*s);
        b.writeByte(s->truncate(b.base() + off + 1), 3);
        EXPECT_EQ(b.allocatedBytes() % page, 0u);
        EXPECT_GE(b.allocatedBytes(), off + 2);
        EXPECT_EQ(b.readByte(s->truncate(b.base() + off + 1)), 3);
    }
}

TEST(MemoryStorePath, EveryStoreMovesItsBlockGenerationAndMarksItsPage)
{
    for (const WordShape *s : kShapes) {
        SCOPED_TRACE(s->bits);
        Memory m = edgeMemory(*s);
        std::vector<uint32_t> gens(m.invalBlocks(), 0);
        m.attachWriteGens(gens.data());
        const Word end = endOf(m);
        // on-chip, off-chip, above the mark, the last word, and back
        // to an earlier page (the dirty-page memo must not hide it)
        const Word addrs[] = {
            m.memStart(),
            s->truncate(m.base() + 1024 + 64),
            s->truncate(m.base() + 3000),
            s->truncate(end - s->bytes),
            s->truncate(m.base() + 300),
            m.memStart(),
        };
        for (const bool word : {true, false}) {
            for (const Word a : addrs) {
                SCOPED_TRACE(a);
                const std::vector<uint32_t> before = gens;
                const size_t blk = m.blockIndex(a);
                if (word)
                    m.writeWord(a, 1);
                else
                    m.writeByte(a, 1);
                for (size_t i = 0; i < gens.size(); ++i)
                    EXPECT_EQ(gens[i], before[i] + (i == blk ? 1 : 0))
                        << "block " << i;
                EXPECT_EQ(m.writeGen(a), before[blk] + 1);
                const size_t page =
                    (m.blockIndex(a) << Memory::invalBlockShift) >>
                    Memory::pageShift;
                EXPECT_TRUE(m.pageDirty(page));
            }
        }
        // pages nothing stored to stay clean
        EXPECT_FALSE(m.pageDirty(
            (m.blockIndex(s->truncate(m.base() + 2048)) <<
             Memory::invalBlockShift) >> Memory::pageShift));
    }
}
