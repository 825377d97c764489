/**
 * @file
 * The block-compiler execution tier (src/core/blockc, src/isa
 * superop): the pure classification/fusion rules, the acceptance
 * bar -- tier on/off bit-identity on hot loops, self-modifying code,
 * off-chip code, snapshots, the dbsearch array and a fault-injected
 * pipeline -- and the demotion/invalidation lifecycle counters.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/e7.hh"
#include "core/blockc.hh"
#include "harness.hh"
#include "isa/superop.hh"
#include "obs/counters.hh"

using namespace transputer;
using transputer::test::SingleCpu;
namespace superop = transputer::isa::superop;
using superop::Kind;

// ---------------------------------------------------------------------
// superop classification: one chain -> one solo kind
// ---------------------------------------------------------------------

namespace
{

/** Predecode a byte run into its sequence of chains. */
std::vector<isa::Predecoded>
decodeRun(const uint8_t *bytes, size_t len)
{
    std::vector<isa::Predecoded> out;
    size_t off = 0;
    while (off < len) {
        auto d = isa::predecode(bytes + off, len - off, word32);
        EXPECT_TRUE(d.complete());
        if (!d.complete())
            break;
        out.push_back(d);
        off += static_cast<size_t>(d.length);
    }
    return out;
}

/** classify() of every chain in the run. */
std::vector<Kind>
classifyRun(const std::vector<isa::Predecoded> &chains)
{
    std::vector<Kind> solo;
    for (const auto &d : chains)
        solo.push_back(superop::classify(d));
    return solo;
}

Kind
fuseAt(const uint8_t *bytes, size_t len, size_t i,
       bool cj_j_backedge = false)
{
    const auto solo = classifyRun(decodeRun(bytes, len));
    return superop::fuse(solo.data(), i, solo.size(), cj_j_backedge);
}

} // namespace

TEST(SuperopClassify, SoloKinds)
{
    const uint8_t ldc5[] = {0x45};
    EXPECT_EQ(superop::classify(
                  isa::predecode(ldc5, sizeof(ldc5), word32)),
              Kind::Ldc);

    const uint8_t stl1[] = {0xD1};
    EXPECT_EQ(superop::classify(
                  isa::predecode(stl1, sizeof(stl1), word32)),
              Kind::Stl);

    // pfix-extended operand still classifies by the final function
    const uint8_t ldc20[] = {0x21, 0x44};
    EXPECT_EQ(superop::classify(
                  isa::predecode(ldc20, sizeof(ldc20), word32)),
              Kind::Ldc);

    // fast operations get their inlined kinds
    const uint8_t add_op[] = {0xF5};
    EXPECT_EQ(superop::classify(
                  isa::predecode(add_op, sizeof(add_op), word32)),
              Kind::OpAdd);
    const uint8_t rev_op[] = {0xF0};
    EXPECT_EQ(superop::classify(
                  isa::predecode(rev_op, sizeof(rev_op), word32)),
              Kind::OpRev);
    // a fast operation with no dedicated handler spills generically
    // (prod = opr 8 is fast but not inlined)
    const uint8_t prod_op[] = {0xF8};
    EXPECT_EQ(superop::classify(
                  isa::predecode(prod_op, sizeof(prod_op), word32)),
              Kind::OpGeneric);
}

TEST(SuperopClassify, RejectsNonFastAndIncomplete)
{
    // in (opr 7) is interruptible: never inside a superblock
    const uint8_t in_op[] = {0xF7};
    EXPECT_EQ(superop::classify(
                  isa::predecode(in_op, sizeof(in_op), word32)),
              Kind::kCount);

    // a chain cut short cannot be classified
    const uint8_t cut[] = {0x21};
    EXPECT_EQ(superop::classify(
                  isa::predecode(cut, sizeof(cut), word32)),
              Kind::kCount);
}

// ---------------------------------------------------------------------
// superop fusion: the peephole rules
// ---------------------------------------------------------------------

TEST(SuperopFuse, StorePairs)
{
    const uint8_t ldc_stl[] = {0x45, 0xD1};
    EXPECT_EQ(fuseAt(ldc_stl, sizeof(ldc_stl), 0), Kind::LdcStl);

    const uint8_t ldlp_stl[] = {0x14, 0xD4};
    EXPECT_EQ(fuseAt(ldlp_stl, sizeof(ldlp_stl), 0), Kind::LdlpStl);

    // a local-to-local copy runs as two solo chains
    const uint8_t ldl_stl[] = {0x71, 0xD2};
    EXPECT_EQ(fuseAt(ldl_stl, sizeof(ldl_stl), 0), Kind::Ldl);

    const uint8_t adc_stl[] = {0x83, 0xD1};
    EXPECT_EQ(fuseAt(adc_stl, sizeof(adc_stl), 0), Kind::AdcStl);

    // no stl follows: stays solo
    const uint8_t ldc_ldc[] = {0x45, 0x46};
    EXPECT_EQ(fuseAt(ldc_ldc, sizeof(ldc_ldc), 0), Kind::Ldc);
}

TEST(SuperopFuse, TriplesWinOverPairs)
{
    // ldc 5; adc 3; stl 1: the folded-constant triple, not LdcStl...
    const uint8_t las[] = {0x45, 0x83, 0xD1};
    EXPECT_EQ(fuseAt(las, sizeof(las), 0), Kind::LdcAdcStl);
    // ...and from position 1 the adc;stl pair still matches
    EXPECT_EQ(fuseAt(las, sizeof(las), 1), Kind::AdcStl);

    // ldl 1; adc -1 (nfix 0; adc 15); stl 1: the memory increment
    const uint8_t dec[] = {0x71, 0x60, 0x8F, 0xD1};
    EXPECT_EQ(fuseAt(dec, sizeof(dec), 0), Kind::LdlAdcStl);

    // ldl 1; ldl 2; add: loads and operations stay solo
    const uint8_t lla[] = {0x71, 0x72, 0xF5};
    EXPECT_EQ(fuseAt(lla, sizeof(lla), 0), Kind::Ldl);
    EXPECT_EQ(fuseAt(lla, sizeof(lla), 2), Kind::OpAdd);
}

TEST(SuperopFuse, LoopBackedgeNeedsTheCallerGate)
{
    // cj 2; j 0: only the caller knows j targets the block entry
    const uint8_t cj_j[] = {0xA2, 0x00};
    EXPECT_EQ(fuseAt(cj_j, sizeof(cj_j), 0, true), Kind::CjLoop);
    EXPECT_EQ(fuseAt(cj_j, sizeof(cj_j), 0, false), Kind::Cj);
}

// ---------------------------------------------------------------------
// the tier itself: hot loops compile, execute bit-identically, and
// demote on self-modifying stores
// ---------------------------------------------------------------------

namespace
{

/** An e7-style straight-line body repeated inside a countdown loop:
 *  every fusion rule but the loop form fires on it. */
std::string
hotLoopSource(int iterations)
{
    std::string body;
    for (int i = 0; i < 4; ++i)
        body += "  ldc 5\n  stl 1\n"                     // LdcStl
                "  ldc 1\n  adc 3\n  stl 2\n"            // LdcAdcStl
                "  ldl 1\n  adc 1\n  stl 3\n"            // LdlAdcStl
                "  ldlp 4\n  stl 4\n"                    // LdlpStl
                "  ldl 1\n  ldl 2\n  add\n  stl 5\n"     // solo
                "  ldl 5\n  adc 1\n  stl 6\n";           // LdlAdcStl
    return "start:\n"
           "  ldc " + std::to_string(iterations) + "\n  stl 30\n"
           "outer:\n" + body +
           "  ldl 30\n adc -1\n stl 30\n"
           "  ldl 30\n cj done\n  j outer\n"
           "done: stopp\n";
}

/**
 * A HOT self-modifying program: phase 0 runs the loop 30 times (well
 * past the compile threshold), then patches the loop's own "ldc 5"
 * byte to "ldc 7" and runs another 30 iterations.  A compiled
 * superblock surviving the store would keep adding 5: the sum comes
 * out 30*5 + 30*7 = 360 only if the tier demotes.
 */
const char *kHotSelfModSrc =
    "start:\n"
    "  ldc 0\n stl 1\n"            // sum
    "  ldc 0\n stl 3\n"            // phase
    "again:\n"
    "  ldc 30\n stl 2\n"           // loop counter
    "loop:\n"
    "patch:\n"
    "  ldc 5\n"                    // byte 0x45, patched to 0x47
    "  ldl 1\n add\n stl 1\n"
    "  ldl 2\n adc -1\n stl 2\n"
    "  ldl 2\n cj fin\n"
    "  j loop\n"
    "fin:\n"
    "  ldl 3\n cj dopatch\n"       // phase 0: go patch and rerun
    "  stopp\n"                    // phase 1: done
    "dopatch:\n"
    "  ldc #47\n"                  // the replacement byte: ldc 7
    "  ldc patch - n1\n ldpi\n"
    "n1:\n"
    "  sb\n"                       // rewrite our own code
    "  ldc 1\n stl 3\n"
    "  j again\n";

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
    EXPECT_TRUE(obs::sameArchitectural(on.counters(), off.counters()));
}

} // namespace

TEST(BlockTier, HotLoopCompilesAndRetiresChains)
{
    core::Config cfg; // blockCompile defaults on
    SingleCpu t(cfg);
    t.runAsm(hotLoopSource(300));
    EXPECT_EQ(t.local(30), 0u);
    EXPECT_EQ(t.local(1), 5u);
    EXPECT_EQ(t.local(2), 4u);
    EXPECT_EQ(t.local(3), 6u);
    EXPECT_EQ(t.local(5), 9u);
    EXPECT_EQ(t.local(6), 10u);
    const obs::BlockStats bc = t.cpu.counters().blockc;
    EXPECT_GT(bc.compiles, 0u);
    EXPECT_GT(bc.enters, 0u);
    EXPECT_GT(bc.chains, 0u);
    EXPECT_GT(bc.instructions, 0u);
    EXPECT_GT(bc.cycles, 0u);
    // the loop dominates execution: most chains retire in the tier
    EXPECT_GT(bc.meanRunLength(), 4.0);
}

TEST(BlockTier, TableAppearsAtTheFirstCompile)
{
    core::Config cfg;
    cfg.maxBatch = 64; // several dispatches before the compile
    SingleCpu t(cfg);
    t.loadAsm(hotLoopSource(300));
    t.wptr0 = t.bootWptr();
    t.cpu.boot(t.img.symbol("start"), t.wptr0);
    uint64_t compiles = 0;
    size_t before = 0;
    while (compiles == 0) {
        EXPECT_FALSE(t.cpu.hasBlockTable());
        before = t.cpu.footprintBytes();
        ASSERT_TRUE(t.queue.runOne());
        compiles = t.cpu.counters().blockc.compiles;
    }
    EXPECT_EQ(compiles, 1u);
    EXPECT_TRUE(t.cpu.hasBlockTable());
    // the footprint counts the table from the compile on
    EXPECT_GE(t.cpu.footprintBytes() - before,
              sizeof(core::blockc::Superblock) *
                  core::blockc::BlockCache::kBlocks);
    t.queue.runUntil(500'000'000);
    EXPECT_EQ(t.local(30), 0u);
    EXPECT_EQ(t.local(6), 10u);
}

TEST(BlockTier, TierOnOffBitIdenticalOnChip)
{
    core::Config on_cfg, off_cfg;
    on_cfg.blockCompile = true;
    off_cfg.blockCompile = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(hotLoopSource(500));
    off.runAsm(hotLoopSource(500));
    expectSameCpu(on.cpu, off.cpu);
    EXPECT_GT(on.cpu.counters().blockc.enters, 0u);
    EXPECT_EQ(off.cpu.counters().blockc.enters, 0u);
}

TEST(BlockTier, HotLoopCallingALeafRoutine)
{
    // the superblock follows the call into the routine (argument and
    // return address through the workspace) and ends at its ret,
    // which leaves the block through the generic operation path; the
    // straight-line body keeps the fused runs long enough to pass the
    // promotion gate
    std::string body;
    for (int i = 0; i < 4; ++i)
        body += "  ldc 5\n  stl 1\n  ldc 1\n  adc 3\n  stl 3\n"
                "  ldlp 4\n  stl 4\n";
    const std::string src =
        "start:\n"
        "  ldc 200\n  stl 30\n"
        "outer:\n" + body +
        "  ldl 1\n  call leaf\n"
        "  stl 2\n"
        "  ldl 30\n  adc -1\n  stl 30\n"
        "  ldl 30\n  cj done\n  j outer\n"
        "done:\n  stopp\n"
        "leaf:\n" // local 1 holds the caller's Areg
        "  ldl 1\n  ldc 2\n  wsub\n"
        "  ldc 1\n  bsub\n"
        "  ret\n";
    core::Config on_cfg, off_cfg;
    off_cfg.blockCompile = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(src);
    off.runAsm(src);
    EXPECT_EQ(on.local(30), 0u);
    EXPECT_EQ(on.local(2), 23u); // 1 + (2 + 5 words)
    expectSameCpu(on.cpu, off.cpu);
    EXPECT_GT(on.cpu.counters().blockc.compiles, 0u);
    EXPECT_GT(on.cpu.counters().blockc.chains, 0u);
}

namespace
{

/** Run src assembled into EXTERNAL memory (code pays wait states). */
void
runOffChip(SingleCpu &t, const std::string &src)
{
    const auto &s = t.cpu.shape();
    const Word org =
        s.truncate(s.mostNeg + t.cpu.config().onchipBytes);
    t.img = tasm::assemble(src, org, s);
    t.cpu.memory().load(t.img.origin, t.img.bytes.data(),
                        t.img.bytes.size());
    t.wptr0 = s.index(t.cpu.memory().memStart(), 128);
    t.cpu.boot(t.img.symbol("start"), t.wptr0);
    t.queue.runUntil(500'000'000);
}

core::Config
offChipConfig(bool block_compile)
{
    core::Config cfg;
    cfg.externalBytes = 4096;
    cfg.externalWaits = 3;
    cfg.blockCompile = block_compile;
    return cfg;
}

} // namespace

TEST(BlockTier, TierOnOffBitIdenticalOffChip)
{
    SingleCpu on(offChipConfig(true)), off(offChipConfig(false));
    runOffChip(on, hotLoopSource(200));
    runOffChip(off, hotLoopSource(200));
    EXPECT_EQ(on.local(30), 0u);
    expectSameCpu(on.cpu, off.cpu);
}

TEST(BlockTier, SelfModifyingStoreDemotesOnChip)
{
    core::Config on_cfg, off_cfg;
    on_cfg.blockCompile = true;
    off_cfg.blockCompile = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(kHotSelfModSrc);
    off.runAsm(kHotSelfModSrc);
    EXPECT_EQ(on.local(1), 360u); // 30*5 + 30*7
    EXPECT_EQ(off.local(1), 360u);
    expectSameCpu(on.cpu, off.cpu);
    // the loop got hot enough to compile, and the sb demoted it
    const obs::BlockStats bc = on.cpu.counters().blockc;
    EXPECT_GT(bc.compiles, 0u);
    EXPECT_GT(bc.invalidations, 0u);
}

TEST(BlockTier, SelfModifyingStoreDemotesOffChip)
{
    SingleCpu on(offChipConfig(true)), off(offChipConfig(false));
    runOffChip(on, kHotSelfModSrc);
    runOffChip(off, kHotSelfModSrc);
    EXPECT_EQ(on.local(1), 360u);
    EXPECT_EQ(off.local(1), 360u);
    expectSameCpu(on.cpu, off.cpu);
}

// ---------------------------------------------------------------------
// a superblock rewriting its own body: the store re-check
// ---------------------------------------------------------------------

namespace
{

/**
 * A hot loop that, on one lap only, stores into its own body.  Each
 * lap steps a pointer down a table of per-lap entries (filled before
 * boot) and hands its entry to `store`, which stores through it:
 * every lap but one the store lands in the workspace, far from the
 * code; on lap kRewriteLap it lands on the seven-byte `adc 1` run
 * that follows in the same lap (seven bytes always hold one whole
 * aligned word), so the rewritten bytes run later in that lap and on
 * every lap after.  The run adds 7 to `total` a lap as written; a
 * word store makes four of its bytes `adc 2` (11 a lap), a byte store
 * one (8 a lap).  With small dispatch batches the block runs many laps
 * before the rewrite and the rewrite lands mid-lap, so only the
 * block's re-check after the store stands between the stale compiled
 * run and the total.
 */
constexpr int kRewriteLaps = 300;
constexpr int kRewriteLap = 200;  ///< 0-based lap that rewrites
constexpr int kLapTable = 32;     ///< workspace word of entry 0
constexpr int kDataSlot = 3;      ///< a workspace word nothing reads
constexpr int kWsSlot = 20;       ///< the ldc; stl case's slot

std::string
rewriteLoopSource(const std::string &store, const std::string &restore)
{
    return "start:\n"
           "  ldc " + std::to_string(kRewriteLaps) + "\n  stl 1\n"
           "  ldlp " + std::to_string(kLapTable + kRewriteLaps) +
           "\n  stl 2\n"
           "  ldlp 0\n  ldc home\n  stnl 0\n"
           "loop:\n"
           "  ldl 2\n  adc -4\n  stl 2\n" + store +
           "  ldc total\n  ldnl 0\n"
           "run:\n"
           "  adc 1\n  adc 1\n  adc 1\n  adc 1\n"
           "  adc 1\n  adc 1\n  adc 1\n"
           "  ldc total\n  stnl 0\n" + restore +
           "  ldl 1\n  adc -1\n  stl 1\n"
           "  ldl 1\n  cj done\n  j loop\n"
           "done:\n  stopp\n"
           // the data words sit past the code's last 64-byte block
           ".align\n.space 128\n"
           "total: .word 0\n"
           "home: .word 0\n";
}

/** How a case stores, and what its lap-table entries hold. */
struct RewriteCase
{
    std::string store;   ///< consumes the lap's entry (local 2 points at it)
    std::string restore; ///< undoes what store did to the process
    bool wholeWord;      ///< rewrites the run's aligned word, else a byte
    bool workspace;      ///< entries are workspace pointers
};

/** A fused `ldc; stl` run in a borrowed workspace: on the rewrite
 *  lap its slot kWsSlot overlaps the run. */
RewriteCase
fusedStlCase()
{
    return {"  ldl 2\n  ldnl 0\n  gajw\n"
            "  ldc #82828282\n  stl " + std::to_string(kWsSlot) + "\n",
            "  ldc home\n  ldnl 0\n  gajw\n", true, true};
}

/** A solo `stnl` through the lap's pointer. */
RewriteCase
stnlCase()
{
    return {"  ldc #82828282\n  ldl 2\n  ldnl 0\n  stnl 0\n", "", true,
            false};
}

/** A generic `sb` (the core's own store path) through the pointer. */
RewriteCase
sbCase()
{
    return {"  ldc #82\n  ldl 2\n  ldnl 0\n  sb\n", "", false, false};
}

Word
rewriteTotal(const RewriteCase &c)
{
    const int laps_after = kRewriteLaps - kRewriteLap;
    return static_cast<Word>(7 * kRewriteLaps +
                             (c.wholeWord ? 4 : 1) * laps_after);
}

core::Config
rewriteConfig(bool block_compile, bool off_chip)
{
    core::Config cfg = off_chip ? offChipConfig(block_compile)
                                : core::Config{};
    cfg.blockCompile = block_compile;
    cfg.maxBatch = 256; // several laps a dispatch
    return cfg;
}

/** Assemble the case on-chip at MemStart or off-chip at the external
 *  base, fill its lap table, boot and run. */
void
runRewrite(SingleCpu &t, const RewriteCase &c, bool off_chip)
{
    const auto &s = t.cpu.shape();
    mem::Memory &m = t.cpu.memory();
    const Word org = off_chip
        ? s.truncate(s.mostNeg + t.cpu.config().onchipBytes)
        : m.memStart();
    t.img = tasm::assemble(rewriteLoopSource(c.store, c.restore), org, s);
    m.load(t.img.origin, t.img.bytes.data(), t.img.bytes.size());
    t.wptr0 = off_chip ? s.index(m.memStart(), 128) : t.bootWptr();
    const Word run = t.img.symbol("run");
    const Word target = c.wholeWord ? s.wordAlign(run + 3) : run + 3;
    const Word normal =
        c.workspace ? t.wptr0 : s.index(t.wptr0, kDataSlot);
    const Word hit = c.workspace ? s.index(target, -kWsSlot) : target;
    // lap L reads entry kRewriteLaps - 1 - L (the pointer walks down)
    for (int e = 0; e < kRewriteLaps; ++e)
        m.writeWord(s.index(t.wptr0, kLapTable + e),
                    e == kRewriteLaps - 1 - kRewriteLap ? hit : normal);
    t.cpu.boot(t.img.symbol("start"), t.wptr0);
    t.queue.runUntil(500'000'000);
}

void
expectRewriteCaught(const RewriteCase &c, bool off_chip)
{
    SingleCpu on(rewriteConfig(true, off_chip));
    SingleCpu off(rewriteConfig(false, off_chip));
    runRewrite(on, c, off_chip);
    runRewrite(off, c, off_chip);
    EXPECT_EQ(on.at("total"), rewriteTotal(c));
    EXPECT_EQ(off.at("total"), rewriteTotal(c));
    expectSameCpu(on.cpu, off.cpu);
    const obs::BlockStats bc = on.cpu.counters().blockc;
    EXPECT_GT(bc.compiles, 0u);
    EXPECT_GT(bc.deopts[static_cast<size_t>(
                  core::blockc::Deopt::GuardStale)],
              0u);
}

} // namespace

TEST(BlockTier, FusedStlRewritesItsOwnLoopOnChip)
{
    expectRewriteCaught(fusedStlCase(), false);
}

TEST(BlockTier, FusedStlRewritesItsOwnLoopOffChip)
{
    expectRewriteCaught(fusedStlCase(), true);
}

TEST(BlockTier, StnlRewritesItsOwnLoopOnChip)
{
    expectRewriteCaught(stnlCase(), false);
}

TEST(BlockTier, StnlRewritesItsOwnLoopOffChip)
{
    expectRewriteCaught(stnlCase(), true);
}

TEST(BlockTier, GenericSbRewritesItsOwnLoopOnChip)
{
    expectRewriteCaught(sbCase(), false);
}

TEST(BlockTier, GenericSbRewritesItsOwnLoopOffChip)
{
    expectRewriteCaught(sbCase(), true);
}

namespace
{

/**
 * Two low-priority processes share one store-free hot loop and rotate
 * at its back-edge.  Process A's workspace sits just past the code,
 * so the state a rotation saves through the core (A's Iptr on the way
 * out, its link word while queued) lands in the loop's last 64-byte
 * block: a guard generation moves although no handler stored, and a
 * block that laps on into process B must re-check.
 */
const char *kRotationSrc =
    "loop:\n"
    "  ldc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n"
    "  adc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n  adc 1\n"
    "  j loop\n"
    "past:\n";

void
runRotation(SingleCpu &t, bool off_chip)
{
    const auto &s = t.cpu.shape();
    mem::Memory &m = t.cpu.memory();
    const Word org = off_chip
        ? s.truncate(s.mostNeg + t.cpu.config().onchipBytes)
        : m.memStart();
    t.img = tasm::assemble(kRotationSrc, org, s);
    m.load(t.img.origin, t.img.bytes.data(), t.img.bytes.size());
    const Word past = t.img.symbol("past");
    t.wptr0 = s.index(s.wordAlign(past + 3), 2);
    ASSERT_EQ(m.blockIndex(s.index(t.wptr0, -2)), m.blockIndex(past - 1));
    t.cpu.boot(t.img.symbol("loop"), t.wptr0);
    t.cpu.addProcess(t.img.symbol("loop"), s.index(t.wptr0, 64), 1);
    t.queue.runUntil(20'000'000);
}

void
expectRotationCaught(bool off_chip)
{
    core::Config on_cfg = rewriteConfig(true, off_chip);
    core::Config off_cfg = rewriteConfig(false, off_chip);
    on_cfg.timesliceCycles = off_cfg.timesliceCycles = 2000;
    SingleCpu on(on_cfg), off(off_cfg);
    runRotation(on, off_chip);
    runRotation(off, off_chip);
    expectSameCpu(on.cpu, off.cpu);
    const obs::Counters c = on.cpu.counters();
    EXPECT_GT(c.timeslices, 100u);
    EXPECT_GT(c.blockc.deopts[static_cast<size_t>(
                  core::blockc::Deopt::GuardStale)],
              0u);
}

} // namespace

TEST(BlockTier, RotationAtTheBackEdgeRechecksGuardsOnChip)
{
    expectRotationCaught(false);
}

TEST(BlockTier, RotationAtTheBackEdgeRechecksGuardsOffChip)
{
    expectRotationCaught(true);
}

// ---------------------------------------------------------------------
// the fused loop runs operations: the gate sees loop length, and a
// guest fault inside a generic operation leaves the core's state
// ---------------------------------------------------------------------

TEST(BlockTier, LongLoopWithInlinedOperationsCompiles)
{
    // 30 chains a lap, an inlined add every fourth: a fused run that
    // stopped at every opr would average under four chains, and the
    // promotion gate would decline this straight loop for its
    // operation density rather than judge its length
    std::string body;
    for (int i = 0; i < 6; ++i)
        body += "  ldl 2\n  ldl 3\n  add\n  stl 2\n";
    const std::string src =
        "start:\n"
        "  ldc 3000\n  stl 1\n"
        "  ldc 0\n  stl 2\n"
        "  ldc 1\n  stl 3\n"
        "loop:\n" + body +
        "  ldl 1\n  adc -1\n  stl 1\n"
        "  ldl 1\n  cj done\n  j loop\n"
        "done:\n  stopp\n";
    core::Config on_cfg, off_cfg;
    off_cfg.blockCompile = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(src);
    off.runAsm(src);
    EXPECT_EQ(on.local(2), 6u * 3000u);
    expectSameCpu(on.cpu, off.cpu);
    const obs::Counters c = on.cpu.counters();
    EXPECT_GT(c.blockc.compiles, 0u);
    EXPECT_GT(static_cast<double>(c.blockc.instructions),
              0.9 * static_cast<double>(c.instructions));
    // the fused loop ran the adds inline, laps on end
    EXPECT_GT(off.cpu.counters().fused.meanRunLength(), 100.0);
}

TEST(BlockTier, StepsThatShareIcacheSlotsRunInTheBlock)
{
    // a 16-slot predecode cache folds the E7 loop's 60 chains onto 16
    // slots, so the block's steps evict each other there; the block
    // tier leaves the slots alone, and the run must match the tier-off
    // run, whose fused loop misses at nearly every chain
    core::Config on_cfg, off_cfg;
    on_cfg.icacheEntries = off_cfg.icacheEntries = 16;
    off_cfg.blockCompile = false;
    SingleCpu on(on_cfg), off(off_cfg);
    on.runAsm(apps::e7LoopSource(2000));
    off.runAsm(apps::e7LoopSource(2000));
    EXPECT_EQ(on.local(30), 0u);
    expectSameCpu(on.cpu, off.cpu);
    const obs::Counters c = on.cpu.counters();
    EXPECT_GE(c.blockc.compiles, 1u);
    // a block of more than 16 steps has two in one slot
    EXPECT_GT(c.blockc.steps, 16 * c.blockc.compiles);
    EXPECT_GT(static_cast<double>(c.blockc.instructions),
              0.9 * static_cast<double>(c.instructions));
}

namespace
{

/**
 * A hot loop that reads a byte with `lb` through a per-lap pointer
 * table (filled before boot).  On lap kFaultLap the entry points
 * past populated memory: the generic operation path counts and
 * charges lb, then raises MemFault from inside the core.
 */
constexpr int kFaultLaps = 300;
constexpr int kFaultLap = 200; ///< 0-based lap that faults
constexpr int kFaultData = 4;  ///< workspace word the other laps read
constexpr uint64_t kFaultLapChains = 15; ///< chains of one lap
constexpr Word kWildAddress = 0x7FFFFF00;

std::string
faultLoopSource()
{
    return "start:\n"
           "  ldc " + std::to_string(kFaultLaps) + "\n  stl 1\n"
           "  ldlp " + std::to_string(kLapTable + kFaultLaps) +
           "\n  stl 2\n"
           "  ldc 0\n  stl 3\n"
           "loop:\n"
           "  ldl 2\n  adc -4\n  stl 2\n"
           "  ldl 2\n  ldnl 0\n  lb\n"
           "  ldl 3\n  add\n  stl 3\n"
           "  ldl 1\n  adc -1\n  stl 1\n"
           "  ldl 1\n  cj done\n  j loop\n"
           "done:\n  stopp\n";
}

void
runFaultLoop(SingleCpu &t)
{
    const auto &s = t.cpu.shape();
    mem::Memory &m = t.cpu.memory();
    t.loadAsm(faultLoopSource());
    t.wptr0 = t.bootWptr();
    const Word data = s.index(t.wptr0, kFaultData);
    m.writeWord(data, 3);
    // lap L reads entry kFaultLaps - 1 - L (the pointer walks down)
    for (int e = 0; e < kFaultLaps; ++e)
        m.writeWord(s.index(t.wptr0, kLapTable + e),
                    e == kFaultLaps - 1 - kFaultLap ? kWildAddress
                                                    : data);
    t.cpu.boot(t.img.symbol("start"), t.wptr0);
    EXPECT_THROW(t.queue.runUntil(500'000'000), mem::MemFault);
}

} // namespace

TEST(BlockTier, FaultInAGenericOperationKeepsTheCoreState)
{
    core::Config plain_cfg, fused_cfg, block_cfg;
    plain_cfg.predecode = false;
    plain_cfg.blockCompile = false;
    fused_cfg.blockCompile = false;
    SingleCpu plain(plain_cfg), fused(fused_cfg), block(block_cfg);
    runFaultLoop(plain);
    runFaultLoop(fused);
    runFaultLoop(block);
    EXPECT_EQ(block.local(3), 3u * kFaultLap);
    // the loop compiled and ran in the block tier up to the fault
    EXPECT_GT(block.cpu.counters().blockc.compiles, 0u);
    EXPECT_GT(block.cpu.counters().blockc.enters, 0u);
    // the host-side statistics cover the laps before the fault: the
    // fused loop's and the block executor's exception paths bank them
    // (the block tier takes the loop over once its head is hot)
    const uint64_t laps = kFaultLap * kFaultLapChains;
    EXPECT_GE(fused.cpu.counters().fused.instructions, laps);
    EXPECT_GE(block.cpu.counters().blockc.chains,
              laps - (core::blockc::BlockCache::kHotThreshold + 1) *
                         kFaultLapChains);
    // fused and block: registers, memory, clocks and every
    // architectural counter (sameArchitectural)
    expectSameCpu(block.cpu, fused.cpu);
    // plain keeps no icache: registers, clocks and counts
    EXPECT_EQ(plain.cpu.instructions(), fused.cpu.instructions());
    EXPECT_EQ(plain.cpu.cycles(), fused.cpu.cycles());
    EXPECT_EQ(plain.cpu.localTime(), fused.cpu.localTime());
    EXPECT_EQ(plain.cpu.iptr(), fused.cpu.iptr());
    EXPECT_EQ(plain.cpu.wptr(), fused.cpu.wptr());
    EXPECT_EQ(plain.cpu.areg(), fused.cpu.areg());
    EXPECT_EQ(plain.cpu.breg(), fused.cpu.breg());
    EXPECT_EQ(plain.cpu.creg(), fused.cpu.creg());
    EXPECT_EQ(plain.cpu.fnCounts(), fused.cpu.fnCounts());
    EXPECT_EQ(plain.cpu.counters().op, fused.cpu.counters().op);
    EXPECT_EQ(memHash(plain.cpu), memHash(fused.cpu));
}

// ---------------------------------------------------------------------
// checkpoint/restore coherence (src/snap): compiled blocks are pure
// cache and must not survive a restore
// ---------------------------------------------------------------------

#include "net/network.hh"
#include "snap/snapshot.hh"

namespace
{

/** kHotSelfModSrc with the sum parked at a data word, network-booted
 *  (200 iterations per phase so a mid-run capture lands inside a
 *  compiled region): 200*5 + 200*7 = 2400. */
std::string
snapSelfModSource()
{
    return
        "start:\n"
        "  ldc 0\n stl 1\n"
        "  ldc 0\n stl 3\n"
        "again:\n"
        "  ldc 200\n stl 2\n"
        "loop:\n"
        "patch:\n"
        "  ldc 5\n"
        "  ldl 1\n add\n stl 1\n"
        "  ldl 2\n adc -1\n stl 2\n"
        "  ldl 2\n cj fin\n"
        "  j loop\n"
        "fin:\n"
        "  ldl 3\n cj dopatch\n"
        "  ldl 1\n"
        "  ldc result - n2\n ldpi\n"
        "n2:\n"
        "  stnl 0\n"
        "  stopp\n"
        "dopatch:\n"
        "  ldc #47\n"
        "  ldc patch - n1\n ldpi\n"
        "n1:\n"
        "  sb\n"
        "  ldc 1\n stl 3\n"
        "  j again\n"
        ".align\n"
        "result: .word 0\n";
}

struct SelfModNet
{
    std::unique_ptr<net::Network> net;
    tasm::Image img;

    SelfModNet()
    {
        net = std::make_unique<net::Network>();
        const int id = net->addTransputer(core::Config{}, "sm");
        core::Transputer &t = net->node(id);
        img = tasm::assemble(snapSelfModSource(),
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

TEST(BlockSnap, RestoreInvalidatesCompiledBlocks)
{
    // B is captured right after boot: memory still holds the original
    // 0x45 at `patch`, nothing compiled yet
    SelfModNet b;
    const snap::Snapshot s0 = snap::capture(*b.net);

    // A runs to completion: its loop compiled from PATCHED bytes
    SelfModNet a;
    a.net->run(500'000'000);
    EXPECT_EQ(a.result(), 2400u);

    // restoring boot-time state rewinds memory to the unpatched
    // bytes; a superblock surviving the restore would run ldc 7 on
    // the first phase (sum 2800)
    EXPECT_TRUE(a.net->node(0).hasBlockTable());
    snap::restore(*a.net, s0);
    EXPECT_FALSE(a.net->node(0).hasBlockTable());
    a.net->run(500'000'000);
    EXPECT_EQ(a.result(), 2400u);

    // and a fresh network built from the snapshot agrees
    auto c = snap::buildNetwork(s0);
    snap::restore(*c, s0);
    c->run(500'000'000);
    EXPECT_EQ(c->node(0).memory().readWord(a.img.symbol("result")),
              2400u);
}

TEST(BlockSnap, MidRunCaptureReplaysBitIdentical)
{
    // capture while the loop is hot (compiled blocks live), replay
    // from the snapshot on a fresh net: identical result and counters
    SelfModNet a;
    a.net->run(100'000);
    const snap::Snapshot s1 = snap::capture(*a.net);
    EXPECT_GT(s1.states.at(0).cpu.ctrs.blockc.enters, 0u);
    a.net->run(500'000'000);
    EXPECT_EQ(a.result(), 2400u);

    auto c = snap::buildNetwork(s1);
    snap::restore(*c, s1);
    c->run(500'000'000);
    EXPECT_EQ(c->node(0).memory().readWord(a.img.symbol("result")),
              2400u);
    // the replay agrees with the uninterrupted run on everything
    // architectural (cache/tier stats may differ: restore starts the
    // caches cold, the uninterrupted run kept them warm)
    EXPECT_EQ(a.net->node(0).instructions(),
              c->node(0).instructions());
    EXPECT_EQ(a.net->node(0).cycles(), c->node(0).cycles());
    EXPECT_EQ(a.net->node(0).localTime(), c->node(0).localTime());
    EXPECT_EQ(a.net->node(0).fnCounts(), c->node(0).fnCounts());
    EXPECT_EQ(memHash(a.net->node(0)), memHash(c->node(0)));

    // and two replays of the same snapshot are bit-exact in every
    // counter, cache and tier statistics included: same config, same
    // batching, so even the host-side statistics repeat
    auto d = snap::buildNetwork(s1);
    snap::restore(*d, s1);
    d->run(500'000'000);
    EXPECT_TRUE(obs::sameArchitectural(c->nodeCounters(0),
                                       d->nodeCounters(0)));
    const obs::Counters cc = c->node(0).counters();
    const obs::Counters dc = d->node(0).counters();
    EXPECT_EQ(cc.icacheHits, dc.icacheHits);
    EXPECT_EQ(cc.icacheMisses, dc.icacheMisses);
    EXPECT_EQ(cc.blockc.compiles, dc.blockc.compiles);
    EXPECT_EQ(cc.blockc.enters, dc.blockc.enters);
    EXPECT_EQ(cc.blockc.chains, dc.blockc.chains);
}

// ---------------------------------------------------------------------
// every way out of a block: tier on and tier off capture the same
// snapshot where a block has just ended, lastInstrStart included
// ---------------------------------------------------------------------

namespace
{

using core::blockc::Deopt;

/** ExitCase::why of a MemFault thrown out of a block. */
constexpr Deopt kThrows = Deopt::kCount;

/** By this limit every case has ended a block its way. */
constexpr Tick kExitHorizon = 20'000'000;

/**
 * One way a compiled block ends, on a one-node network.  `boot` loads
 * and boots the program; `why` is the exit's Deopt kind (or kThrows);
 * `sweep` is how many limits past the first such exit, a cycle apart,
 * the comparison covers.  A bound exit happens wherever the limit
 * falls inside a block, so its sweep starts at the first entry.
 */
struct ExitCase
{
    const char *name;
    core::Config cfg;
    std::string src;
    Deopt why;
    std::function<void(net::Network &, const tasm::Image &)> boot;
    int sweep = 2;
};

void
bootAtImage(net::Network &n, const tasm::Image &img)
{
    n.bootImage(0, img);
}

std::unique_ptr<net::Network>
exitNet(const ExitCase &c, bool block_compile)
{
    auto n = std::make_unique<net::Network>();
    core::Config cfg = c.cfg;
    cfg.blockCompile = block_compile;
    n->addTransputer(cfg, "x");
    core::Transputer &t = n->node(0);
    c.boot(*n, tasm::assemble(c.src, t.memory().memStart(), t.shape()));
    return n;
}

/** Run to `limit`: the text of the MemFault that ended the run, or
 *  empty. */
std::string
runTo(net::Network &n, Tick limit)
{
    try {
        n.run(limit);
    } catch (const mem::MemFault &e) {
        return e.what();
    }
    return {};
}

/** Whether a tier-on run to `limit` has ended a block c's way. */
bool
exited(const ExitCase &c, Tick limit)
{
    auto n = exitNet(c, true);
    const bool threw = !runTo(*n, limit).empty();
    const obs::BlockStats b = n->node(0).counters().blockc;
    return c.why == kThrows       ? threw
           : c.why == Deopt::Bound ? b.enters > 0
                                   : b.deopts[static_cast<size_t>(c.why)] > 0;
}

/** The least limit, on the cycle grid, by which a tier-on run has
 *  ended a block c's way: the run's last chain is that exit's. */
Tick
firstExit(const ExitCase &c)
{
    const Tick p = c.cfg.cyclePeriod;
    Tick lo = 0, hi = kExitHorizon;
    EXPECT_FALSE(exited(c, lo));
    EXPECT_TRUE(exited(c, hi));
    while (hi - lo > p) {
        const Tick mid = lo + (hi - lo) / (2 * p) * p;
        (exited(c, mid) ? hi : lo) = mid;
    }
    return hi;
}

/** Tier on and tier off, run to `limit`: the same fault, if any, and
 *  the same snapshot but for the cache statistics. */
void
expectSameCapture(const ExitCase &c, Tick limit)
{
    SCOPED_TRACE(std::string(c.name) + " to " + std::to_string(limit));
    auto on = exitNet(c, true), off = exitNet(c, false);
    EXPECT_EQ(runTo(*on, limit), runTo(*off, limit));
    snap::DiffOptions opts;
    opts.ignoreCacheStats = true;
    const auto d = snap::firstDivergence(snap::capture(*on),
                                         snap::capture(*off), opts);
    EXPECT_FALSE(d.has_value())
        << d->where << ": " << d->a << " (tier on) vs " << d->b;
}

/** A straight-line body of fused stores: long fused runs, so the
 *  promotion gate opens. */
std::string
storeBody(int groups)
{
    std::string body;
    for (int i = 0; i < groups; ++i)
        body += "  ldc 5\n  stl 2\n  ldl 2\n  adc 1\n  stl 3\n";
    return body;
}

std::vector<ExitCase>
exitCases()
{
    core::Config onchip;
    onchip.externalWaits = 0; // worst case == exact but for cj
    std::vector<ExitCase> cases;

    // the bound, everywhere in a lap and so inside fused groups, with
    // the workspace off-chip: every load and store charges waits
    core::Config offchip_ws;
    offchip_ws.externalBytes = 4096;
    cases.push_back({"bound", offchip_ws, apps::e7LoopSource(200),
                     Deopt::Bound,
                     [](net::Network &n, const tasm::Image &img) {
                         core::Transputer &t = n.node(0);
                         const auto &s = t.shape();
                         n.load(0, img);
                         t.boot(img.symbol("start"),
                                s.truncate(s.mostNeg +
                                           t.config().onchipBytes +
                                           1024));
                     },
                     400});

    core::Config small_batch = onchip;
    small_batch.maxBatch = 100;
    cases.push_back({"budget", small_batch, apps::e7LoopSource(200),
                     Deopt::Budget, bootAtImage});

    // each lap writes the loop's first code word back unchanged: a
    // store into the guards' window
    cases.push_back({"guard", onchip,
                     "start:\n  ldc 300\n  stl 1\n"
                     "loop:\n" + storeBody(4) +
                         "  ldc loop\n  ldnl 0\n  ldc loop\n  stnl 0\n"
                         "  ldl 1\n  adc -1\n  stl 1\n"
                         "  ldl 1\n  cj done\n  j loop\n"
                         "done:\n  stopp\n",
                     Deopt::GuardStale, bootAtImage});

    // two processes in two loops: a rotation at one loop's back-edge
    // resumes the other, away from the block
    core::Config sliced = onchip;
    sliced.timesliceCycles = 2000;
    cases.push_back({"deschedule", sliced,
                     "start:\n" + storeBody(4) + "  j start\n"
                     "other:\n" + storeBody(4) + "  j other\n",
                     Deopt::Deschedule,
                     [](net::Network &n, const tasm::Image &img) {
                         n.bootImage(0, img);
                         core::Transputer &t = n.node(0);
                         t.addProcess(img.symbol("other"),
                                      t.shape().index(t.wptr(), 64));
                     }});

    // an adc overflow with HaltOnError set, inside ldl; adc; stl
    cases.push_back({"halt", onchip,
                     "start:\n  sethalterr\n  ldc #7FFFFF00\n  stl 1\n"
                     "loop:\n" + storeBody(4) +
                         "  ldl 1\n  adc 1\n  stl 1\n  j loop\n",
                     Deopt::Halt, bootAtImage});

    // the loop's exit: a taken cj leaves the block
    cases.push_back({"branch out", onchip, apps::e7LoopSource(30),
                     Deopt::BranchOut, bootAtImage});

    // a lap longer than a block: the block runs off its tail
    std::string long_body;
    for (int i = 0; i < 12; ++i)
        long_body += "  ldc 5\n  stl 1\n  ldc 6\n  stl 2\n"
                     "  ldlp 3\n  stl 3\n";
    cases.push_back({"end", onchip,
                     "start:\n  ldc 100\n  stl 30\nloop:\n" + long_body +
                         "  ldl 30\n  adc -1\n  stl 30\n"
                         "  ldl 30\n  cj done\n  j loop\n"
                         "done:\n  stopp\n",
                     Deopt::End, bootAtImage});

    // the workspace climbs a lap at a time until the lap's first
    // store, the stl of an ldc; stl group, lands past populated
    // memory (whose wait states it charges first)
    std::string climb;
    for (int x = 7; x >= 0; --x)
        climb += "  ldc 5\n  stl " + std::to_string(x) + "\n";
    cases.push_back({"fault", core::Config{},
                     "start:\n" + climb + "  ajw 8\n  j start\n",
                     kThrows, bootAtImage});

    // the same climb under a call, whose stores go below the
    // workspace: the fault lands mid-call, before it enters the
    // routine, and iptr must stay at the return address
    std::string work;
    for (int i = 0; i < 8; ++i)
        work += "  ldc 5\n  adc 1\n";
    cases.push_back({"call fault", core::Config{},
                     "start:\n" + work +
                         "  call leaf\n  ajw 8\n  j start\n"
                         "leaf:\n  ret\n",
                     kThrows, bootAtImage});
    return cases;
}

} // namespace

TEST(BlockExits, EveryExitCapturesLikeTheTierOffRun)
{
    for (const ExitCase &c : exitCases()) {
        SCOPED_TRACE(c.name);
        const Tick p = c.cfg.cyclePeriod;
        const Tick first = firstExit(c);
        for (Tick l = first - p; l <= first + c.sweep * p; l += p)
            expectSameCapture(c, l);
    }
}

// ---------------------------------------------------------------------
// the tier on real workloads: dbsearch (serial and sharded) and a
// fault-injected pipeline
// ---------------------------------------------------------------------

#include "apps/dbsearch.hh"
#include "par/parallel_engine.hh"

namespace
{

/** Run a 3x3 search array to a fixed horizon and return the network
 *  (3 queries pipelined through the spanning tree). */
std::unique_ptr<apps::DbSearch>
runDbSearch(bool block_compile, int threads)
{
    apps::DbSearchConfig cfg;
    cfg.width = 3;
    cfg.height = 3;
    cfg.recordsPerNode = 80;
    // the app's constructor boots every node with this config
    cfg.node.blockCompile = block_compile;
    auto db = std::make_unique<apps::DbSearch>(cfg);
    for (int q = 0; q < 3; ++q)
        db->inject(static_cast<Word>(11 * q + 3));
    const Tick limit = db->network().queue().now() + 6'000'000;
    net::RunOptions opts;
    opts.threads = threads;
    db->network().run(limit, opts);
    return db;
}

void
expectSameDbSearch(apps::DbSearch &a, apps::DbSearch &b,
                   const std::string &what)
{
    SCOPED_TRACE(what);
    net::Network &na = a.network(), &nb = b.network();
    EXPECT_EQ(na.queue().now(), nb.queue().now());
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        EXPECT_TRUE(obs::sameArchitectural(
            na.nodeCounters(static_cast<int>(i)),
            nb.nodeCounters(static_cast<int>(i))));
        EXPECT_EQ(memHash(na.node(static_cast<int>(i))),
                  memHash(nb.node(static_cast<int>(i))));
    }
    // the host saw the very same answer bytes
    EXPECT_EQ(a.host().bytes(), b.host().bytes());
    EXPECT_GT(a.host().bytes().size(), 0u);
}

/** dbsearch never earns a block: nothing compiles, so no node has
 *  allocated a superblock table. */
void
expectNoBlockTable(apps::DbSearch &db, const std::string &what)
{
    SCOPED_TRACE(what);
    net::Network &n = db.network();
    EXPECT_EQ(n.counters().blockc.compiles, 0u);
    for (size_t i = 0; i < n.size(); ++i)
        EXPECT_FALSE(n.node(static_cast<int>(i)).hasBlockTable())
            << "node " << i;
}

} // namespace

TEST(BlockTierWorkloads, DbSearchTierOnOffBitIdentical)
{
    auto on = runDbSearch(true, 1);
    auto off = runDbSearch(false, 1);
    expectSameDbSearch(*on, *off, "3x3 dbsearch serial");
    // dbsearch is branchy and communication-bound: the fused tier's
    // observed mean run length stays under the promotion gate
    // (Transputer::blockPromotionAllowed), so the tier declines every
    // entry point and the workload keeps the faster fused-loop
    // profile (see BENCH_blockc.json)
    EXPECT_EQ(on->network().counters().blockc.enters, 0u);
    EXPECT_EQ(off->network().counters().blockc.enters, 0u);
    expectNoBlockTable(*on, "tier on");
    expectNoBlockTable(*off, "tier off");
}

TEST(BlockTierWorkloads, DbSearchTierShardedBitIdentical)
{
    auto serial = runDbSearch(true, 1);
    auto sharded = runDbSearch(true, 3);
    expectSameDbSearch(*serial, *sharded, "3x3 dbsearch x3 shards");
    expectNoBlockTable(*serial, "serial");
    expectNoBlockTable(*sharded, "x3 shards");
}

#include "fault/fault.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"

namespace
{

struct FaultRig
{
    net::Network net;
    std::unique_ptr<net::ConsoleSink> console;
    fault::FaultInjector injector;
};

/** A 6-node pipeline streaming words through a lossy middle link;
 *  watchdogs keep aborted transfers from deadlocking it. */
void
buildFaultyPipeline(FaultRig &r, const core::Config &node)
{
    constexpr int n = 6, words = 6;
    auto ids = net::buildPipeline(r.net, n, node);
    r.console = std::make_unique<net::ConsoleSink>(
        r.net.queue(), link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    net::bootOccamSource(r.net, ids[0],
                         "CHAN out:\nPLACE out AT LINK1OUT:\n"
                         "SEQ i = [1 FOR " + std::to_string(words) +
                         "]\n  out ! i * 100\n");
    const std::string fwd =
        "CHAN in, out:\n"
        "PLACE in AT LINK3IN:\nPLACE out AT LINK1OUT:\n"
        "VAR x:\n"
        "SEQ i = [1 FOR " + std::to_string(words) + "]\n"
        "  SEQ\n"
        "    in ? x\n"
        "    out ! x + 1\n";
    for (int i = 1; i < n - 1; ++i)
        net::bootOccamSource(r.net, ids[i], fwd);
    net::bootOccamSource(r.net, ids[n - 1],
                         "CHAN in, out:\n"
                         "PLACE in AT LINK3IN:\n"
                         "PLACE out AT LINK0OUT:\n"
                         "VAR x:\n"
                         "SEQ i = [1 FOR " + std::to_string(words) +
                         "]\n  SEQ\n    in ? x\n    out ! x\n");
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.line(2, 3).dataLoss = 0.10;
    plan.line(2, 3).corrupt = 0.05;
    plan.line(3, 2).ackLoss = 0.10;
    plan.line(3, 4).jitterChance = 0.25;
    plan.line(3, 4).jitterMax = 5'000;
    r.injector.arm(r.net, plan);
}

} // namespace

TEST(BlockTierWorkloads, FaultInjectedRunTierOnOffBitIdentical)
{
    FaultRig on, off;
    core::Config off_cfg;
    off_cfg.blockCompile = false;
    buildFaultyPipeline(on, core::Config{});
    buildFaultyPipeline(off, off_cfg);
    const Tick limit = 20'000'000;
    net::RunOptions on_opts, off_opts;
    // the tier-on leg also runs sharded: tier + faults + parallel
    // engine together must still match the plain serial interpreter
    on_opts.threads = 2;
    on.net.run(limit, on_opts);
    off.net.run(limit, off_opts);
    EXPECT_EQ(on.net.queue().now(), off.net.queue().now());
    ASSERT_EQ(on.net.size(), off.net.size());
    for (size_t i = 0; i < on.net.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &na = on.net.node(static_cast<int>(i));
        auto &nb = off.net.node(static_cast<int>(i));
        EXPECT_EQ(na.instructions(), nb.instructions());
        EXPECT_EQ(na.localTime(), nb.localTime());
        EXPECT_EQ(memHash(na), memHash(nb));
        EXPECT_TRUE(obs::sameArchitectural(
            on.net.nodeCounters(static_cast<int>(i)),
            off.net.nodeCounters(static_cast<int>(i))));
    }
    EXPECT_EQ(on.console->bytes(), off.console->bytes());
    // the plan actually did something
    const auto stats = on.injector.stats();
    EXPECT_GT(stats.dataDropped + stats.acksDropped +
                  stats.dataCorrupted,
              0u);
}
