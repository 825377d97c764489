/**
 * @file
 * The predecoded instruction cache: the isa-level fold, the
 * generation-based invalidation, and -- the acceptance bar --
 * self-modifying programs executing identically with the cache on and
 * off, for on-chip and off-chip code.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness.hh"
#include "isa/predecode.hh"

using namespace transputer;
using transputer::test::SingleCpu;

// ---------------------------------------------------------------------
// isa::predecode: the one-time prefix fold
// ---------------------------------------------------------------------

TEST(Predecode, FoldsPrefixChains)
{
    // ldc 5: single byte
    const uint8_t ldc5[] = {0x45};
    auto d = isa::predecode(ldc5, sizeof(ldc5), word32);
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.fn, isa::Fn::LDC);
    EXPECT_EQ(d.operand, 5u);
    EXPECT_EQ(d.length, 1);
    EXPECT_TRUE(d.fast());

    // pfix 1; ldc 4 -> ldc 0x14
    const uint8_t ldc20[] = {0x21, 0x44};
    d = isa::predecode(ldc20, sizeof(ldc20), word32);
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.fn, isa::Fn::LDC);
    EXPECT_EQ(d.operand, 0x14u);
    EXPECT_EQ(d.length, 2);
    EXPECT_EQ(d.pfixes, 1);

    // nfix 0; ldc 15 -> ldc -1 (the canonical mint-by-hand)
    const uint8_t ldcm1[] = {0x60, 0x4F};
    d = isa::predecode(ldcm1, sizeof(ldcm1), word32);
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.operand, word32.mask);
    EXPECT_EQ(d.nfixes, 1);

    // opr: 0x22 0xF1 = pfix 2; opr 1 -> operation 0x21 (lend)
    const uint8_t lend[] = {0x22, 0xF1};
    d = isa::predecode(lend, sizeof(lend), word32);
    EXPECT_TRUE(d.complete());
    EXPECT_EQ(d.fn, isa::Fn::OPR);
    EXPECT_EQ(d.operand, 0x21u);
    EXPECT_TRUE(d.flags & isa::pflag::kOpDefined);

    // chain cut short: incomplete, must not be cached
    const uint8_t cut[] = {0x21};
    d = isa::predecode(cut, sizeof(cut), word32);
    EXPECT_FALSE(d.complete());
    EXPECT_EQ(d.length, 0);
}

TEST(Predecode, ClassifiesFastAndInterruptible)
{
    // in/out are interruptible and event-coupled: never fast
    const uint8_t in_op[] = {0xF7};
    auto d = isa::predecode(in_op, sizeof(in_op), word32);
    EXPECT_FALSE(d.fast());
    EXPECT_TRUE(d.flags & isa::pflag::kInterruptible);

    // add (0xF5 = opr 5) is pure register arithmetic
    const uint8_t add_op[] = {0xF5};
    d = isa::predecode(add_op, sizeof(add_op), word32);
    EXPECT_EQ(d.fn, isa::Fn::OPR);
    EXPECT_TRUE(d.fast());
    EXPECT_FALSE(d.flags & isa::pflag::kInterruptible);

    // every direct function is fast (j/lend only rotate processes)
    const uint8_t j2[] = {0x02};
    EXPECT_TRUE(isa::predecode(j2, sizeof(j2), word32).fast());
}

// ---------------------------------------------------------------------
// self-modifying code: cache on == cache off == correct
// ---------------------------------------------------------------------

namespace
{

/** The program patches its own "ldc 5" to "ldc 7" after the first
 *  pass, so the cached chain for `patch` MUST be invalidated by the
 *  store: the sum comes out 5 + 7 = 12 (a stale cache yields 10). */
const char *kSelfModSrc =
    "start:\n"
    "  ldc 0\n stl 1\n"           // sum
    "  ldc 2\n stl 2\n"           // iterations
    "loop:\n"
    "patch:\n"
    "  ldc 5\n"                   // byte 0x45, patched to 0x47
    "  ldl 1\n add\n stl 1\n"
    "  ldc #47\n"                 // the replacement byte: ldc 7
    "  ldc patch - n1\n ldpi\n"
    "n1:\n"
    "  sb\n"                      // rewrite our own code
    "  ldl 2\n adc -1\n stl 2\n"
    "  ldl 2\n cj done\n"
    "  j loop\n"
    "done:\n"
    "  stopp\n";

/** FNV-1a over the full memory image. */
uint64_t
memHash(core::Transputer &t)
{
    const auto &m = t.memory();
    uint64_t h = 1469598103934665603ull;
    for (Word i = 0; i < m.size(); ++i) {
        h ^= m.readByte(t.shape().truncate(m.base() + i));
        h *= 1099511628211ull;
    }
    return h;
}

void
expectSameCpu(core::Transputer &on, core::Transputer &off)
{
    EXPECT_EQ(on.instructions(), off.instructions());
    EXPECT_EQ(on.cycles(), off.cycles());
    EXPECT_EQ(on.localTime(), off.localTime());
    EXPECT_EQ(static_cast<int>(on.state()),
              static_cast<int>(off.state()));
    EXPECT_EQ(on.iptr(), off.iptr());
    EXPECT_EQ(on.wptr(), off.wptr());
    EXPECT_EQ(on.areg(), off.areg());
    EXPECT_EQ(on.breg(), off.breg());
    EXPECT_EQ(on.creg(), off.creg());
    EXPECT_EQ(on.errorFlag(), off.errorFlag());
    EXPECT_EQ(on.fnCounts(), off.fnCounts());
    EXPECT_EQ(memHash(on), memHash(off));
}

} // namespace

TEST(PredecodeSelfMod, OnChipCodeExecutesPatchedBytes)
{
    for (const bool predecode : {true, false}) {
        SCOPED_TRACE(predecode ? "cache on" : "cache off");
        core::Config cfg;
        cfg.predecode = predecode;
        SingleCpu t(cfg);
        t.runAsm(kSelfModSrc);
        EXPECT_EQ(t.local(1), 12u); // 5 on pass 1, 7 on pass 2
        EXPECT_EQ(t.local(2), 0u);
        // the whole program shares one 64-byte invalidation block with
        // the patched byte, so every iteration re-decodes: all misses
        if (predecode) {
            EXPECT_GT(t.cpu.icache().misses(), 0u);
        }
    }
}

TEST(PredecodeSelfMod, HotLoopHitsCache)
{
    // a loop that does NOT write near its own code should hit the
    // cache on every iteration after the first
    core::Config cfg;
    SingleCpu t(cfg);
    t.runAsm("start:\n"
             "  ldc 50\n stl 1\n"
             "loop:\n"
             "  ldl 1\n adc -1\n stl 1\n"
             "  ldl 1\n cj done\n j loop\n"
             "done: stopp\n");
    EXPECT_EQ(t.local(1), 0u);
    EXPECT_GT(t.cpu.icache().hits(), t.cpu.icache().misses());
}

TEST(PredecodeSelfMod, UncacheableChainMidRunMissesOncePerVisit)
{
    // a ten-byte `ldc -1` (nfix 0, eight pfix #F, ldc #F) is longer
    // than isa::maxChainBytes, so the cache cannot hold it: each of
    // its 20 visits, reached mid-run after `stl` or `j`, counts one
    // miss before the byte step runs it, and the nine other chains
    // miss once each
    const char *src =
        "start:\n"
        "  ldc 20\n stl 1\n"
        "loop:\n"
        "  .byte #60,#2F,#2F,#2F,#2F,#2F,#2F,#2F,#2F,#4F\n"
        "  ldl 1\n add\n stl 1\n"
        "  ldl 1\n cj done\n j loop\n"
        "done: stopp\n";
    core::Config on_cfg, off_cfg;
    off_cfg.predecode = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(src);
    off.runAsm(src);
    EXPECT_EQ(on.local(1), 0u);
    expectSameCpu(on.cpu, off.cpu);
    EXPECT_EQ(on.cpu.icache().misses(), 9u + 20u);
    // and no fused run comes back empty to fill the same slot again
    EXPECT_EQ(on.cpu.counters().fused.lenLog2[0], 0u);
}

TEST(PredecodeSelfMod, OnChipCacheOnOffBitIdentical)
{
    core::Config on_cfg, off_cfg;
    on_cfg.predecode = true;
    off_cfg.predecode = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(kSelfModSrc);
    off.runAsm(kSelfModSrc);
    expectSameCpu(on.cpu, off.cpu);
}

namespace
{

/** Run kSelfModSrc assembled into EXTERNAL memory (code pays wait
 *  states; the word-granular fetch buffer is in play). */
void
runOffChip(SingleCpu &t)
{
    const auto &s = t.cpu.shape();
    const Word org =
        s.truncate(s.mostNeg + t.cpu.config().onchipBytes);
    t.img = tasm::assemble(kSelfModSrc, org, s);
    t.cpu.memory().load(t.img.origin, t.img.bytes.data(),
                        t.img.bytes.size());
    // workspace on chip, well clear of the reserved map
    t.wptr0 = s.index(t.cpu.memory().memStart(), 128);
    t.cpu.boot(t.img.symbol("start"), t.wptr0);
    t.queue.runUntil(500'000'000);
}

} // namespace

TEST(PredecodeSelfMod, OffChipCodeExecutesPatchedBytes)
{
    for (const bool predecode : {true, false}) {
        SCOPED_TRACE(predecode ? "cache on" : "cache off");
        core::Config cfg;
        cfg.externalBytes = 4096;
        cfg.externalWaits = 3;
        cfg.predecode = predecode;
        SingleCpu t(cfg);
        runOffChip(t);
        EXPECT_EQ(t.local(1), 12u);
        EXPECT_EQ(t.local(2), 0u);
    }
}

TEST(PredecodeSelfMod, OffChipCacheOnOffBitIdentical)
{
    core::Config cfg;
    cfg.externalBytes = 4096;
    cfg.externalWaits = 3;
    core::Config on_cfg = cfg, off_cfg = cfg;
    on_cfg.predecode = true;
    off_cfg.predecode = false;
    SingleCpu on(on_cfg), off(off_cfg);
    runOffChip(on);
    runOffChip(off);
    expectSameCpu(on.cpu, off.cpu);
}

// ---------------------------------------------------------------------
// checkpoint/restore coherence (src/snap)
// ---------------------------------------------------------------------

#include <memory>

#include "net/network.hh"
#include "snap/snapshot.hh"

namespace
{

/** kSelfModSrc, but parking the sum at a data word so the result is
 *  readable by label from any network-booted instance. */
const char *kSnapSelfModSrc =
    "start:\n"
    "  ldc 0\n stl 1\n"
    "  ldc 2\n stl 2\n"
    "loop:\n"
    "patch:\n"
    "  ldc 5\n"                   // byte 0x45, patched to 0x47
    "  ldl 1\n add\n stl 1\n"
    "  ldc #47\n"
    "  ldc patch - n1\n ldpi\n"
    "n1:\n"
    "  sb\n"                      // rewrite our own code
    "  ldl 2\n adc -1\n stl 2\n"
    "  ldl 2\n cj done\n"
    "  j loop\n"
    "done:\n"
    "  ldl 1\n"
    "  ldc result - n2\n ldpi\n"
    "n2:\n"
    "  stnl 0\n"
    "  stopp\n"
    ".align\n"
    "result: .word 0\n";

struct SelfModNet
{
    std::unique_ptr<net::Network> net;
    tasm::Image img;

    SelfModNet()
    {
        net = std::make_unique<net::Network>();
        const int id = net->addTransputer(core::Config{}, "sm");
        core::Transputer &t = net->node(id);
        img = tasm::assemble(kSnapSelfModSrc,
                             t.memory().memStart(), t.shape());
        net->bootImage(id, img);
    }

    Word
    result() const
    {
        return net->node(0).memory().readWord(img.symbol("result"));
    }
};

} // namespace

TEST(PredecodeSnap, RestoreInvalidatesStalePredecodedBlocks)
{
    // B is captured right after boot: memory still holds the original
    // 0x45 at `patch`, nothing predecoded yet
    SelfModNet b;
    const snap::Snapshot s0 = snap::capture(*b.net);

    // A runs to completion: it patched its own code and its icache
    // now holds blocks predecoded from the PATCHED bytes
    SelfModNet a;
    a.net->run(500'000'000);
    EXPECT_EQ(a.result(), 12u); // 5 on pass 1, 7 on pass 2

    // restoring the boot-time state onto the completed net rewinds
    // memory to the unpatched bytes; any predecoded block surviving
    // the restore would execute ldc 7 on the first pass (sum 14)
    snap::restore(*a.net, s0);
    a.net->run(500'000'000);
    EXPECT_EQ(a.result(), 12u);

    // and a fresh network built from the snapshot agrees
    auto c = snap::buildNetwork(s0);
    snap::restore(*c, s0);
    c->run(500'000'000);
    EXPECT_EQ(c->node(0).memory().readWord(a.img.symbol("result")),
              12u);
}
