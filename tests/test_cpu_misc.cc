/**
 * @file
 * Remaining instruction coverage: long add/subtract with carry and
 * borrow, loop end, the queue-register store instructions, processor
 * status operations, block moves with awkward alignments, and guest
 * errors that must stay guest errors (a wild off-chip jump).
 */

#include <gtest/gtest.h>

#include "harness.hh"

using namespace transputer;
using transputer::test::SingleCpu;

TEST(CpuMisc, LaddAndLsubCarryChains)
{
    SingleCpu t;
    // ladd: B + A + (C & 1), checked: 5 + 6 + 1 = 12
    t.runAsm("start: ldc 1\n ldc 5\n ldc 6\n ladd\n stl 1\n"
             " ldc 0\n ldc 5\n ldc 6\n ladd\n stl 2\n"
             // lsub: B - A - (C & 1): 10 - 3 - 1 = 6
             " ldc 1\n ldc 10\n ldc 3\n lsub\n stl 3\n"
             " stopp\n");
    EXPECT_EQ(t.local(1), 12u);
    EXPECT_EQ(t.local(2), 11u);
    EXPECT_EQ(t.local(3), 6u);
    EXPECT_FALSE(t.cpu.errorFlag());

    // overflow must set the error flag
    SingleCpu u;
    u.runAsm("start: ldc 1\n ldc #7FFFFFFF\n ldc 0\n ladd\n stopp\n");
    EXPECT_TRUE(u.cpu.errorFlag());
}

TEST(CpuMisc, LendLoopsExactly)
{
    // the raw loop-end instruction: control block {index, count}
    SingleCpu t;
    t.runAsm("start:\n"
             "  ldc 3\n stl 10\n"      // index starts at 3
             "  ldc 5\n stl 11\n"      // count 5
             "  ldc 0\n stl 1\n"
             "loop:\n"
             "  ldl 1\n adc 1\n stl 1\n"
             "  ldlp 10\n ldc lend0 - loop\n lend\n"
             "lend0:\n"
             "  stopp\n");
    EXPECT_EQ(t.local(1), 5u);   // body ran count times
    EXPECT_EQ(t.local(10), 7u);  // index advanced count-1 times
    EXPECT_EQ(t.local(11), 0u);  // count exhausted
}

TEST(CpuMisc, QueueRegisterStores)
{
    // sthf/stlf/sthb/stlb set the scheduling-list registers; savel /
    // saveh read them back.  Build a fake low-priority queue.
    SingleCpu t;
    t.runAsm("start:\n"
             "  ldlp 40\n stlf\n"      // front of low queue
             "  ldlp 60\n stlb\n"      // back of low queue
             "  ldlp 30\n savel\n"     // store them at W+30/31
             "  mint\n sthf\n"         // high queue reset to empty
             "  mint\n sthb\n"
             "  ldlp 32\n saveh\n"
             // restore an empty low queue before descheduling, or
             // stopp would dispatch the fake entries
             "  mint\n stlf\n"
             "  mint\n stlb\n"
             "  stopp\n");
    EXPECT_EQ(t.local(30), t.cpu.shape().index(t.wptr0, 40));
    EXPECT_EQ(t.local(31), t.cpu.shape().index(t.wptr0, 60));
    EXPECT_EQ(t.local(32), 0x80000000u);
    EXPECT_EQ(t.local(33), 0x80000000u);
}

TEST(CpuMisc, StoperrStopsOnlyWhenErrorSet)
{
    SingleCpu t;
    t.runAsm("start:\n"
             "  stoperr\n"             // error clear: continues
             "  ldc 1\n stl 1\n"
             "  seterr\n"
             "  stoperr\n"             // error set: process stops
             "  ldc 2\n stl 1\n stopp\n");
    EXPECT_EQ(t.local(1), 1u);
    EXPECT_TRUE(t.cpu.errorFlag());
    EXPECT_TRUE(t.cpu.idle());
}

TEST(CpuMisc, ClrhalterrTogglesTheFlag)
{
    SingleCpu t;
    t.runAsm("start:\n"
             "  sethalterr\n clrhalterr\n testhalterr\n stl 1\n"
             "  seterr\n"              // halt-on-error now clear:
             "  ldc 5\n stl 2\n"       // execution continues
             "  stopp\n");
    EXPECT_EQ(t.local(1), 0u);
    EXPECT_EQ(t.local(2), 5u);
    EXPECT_FALSE(t.cpu.halted());
}

TEST(CpuMisc, TestpranalPushesFalse)
{
    SingleCpu t;
    t.runAsm("start: testpranal\n stl 1\n stopp\n");
    EXPECT_EQ(t.local(1), 0u);
}

TEST(CpuMisc, MoveHandlesUnalignedAndOverlappingRegions)
{
    SingleCpu t;
    t.runAsm("start:\n"
             // source pattern
             "  ldc #11223344\n stl 10\n ldc #55667788\n stl 11\n"
             // unaligned 5-byte move: W+10 b1.. -> W+20 b0..
             "  ldlp 10\n ldnlp 0\n adc 1\n"  // src = &W[10] + 1
             "  ldlp 20\n rev\n"
             "  rev\n ldc 5\n move\n"
             " stopp\n");
    // bytes 1..5 of the pattern land at W+20 byte 0..4
    auto &m = t.cpu.memory();
    const Word dst = t.cpu.shape().index(t.wptr0, 20);
    EXPECT_EQ(m.readByte(dst + 0), 0x33);
    EXPECT_EQ(m.readByte(dst + 1), 0x22);
    EXPECT_EQ(m.readByte(dst + 2), 0x11);
    EXPECT_EQ(m.readByte(dst + 3), 0x88);
    EXPECT_EQ(m.readByte(dst + 4), 0x77);
}

TEST(CpuMisc, ProdTimeDependsOnSecondOperand)
{
    // "a quick unchecked multiply ... time taken is proportional to
    // the logarithm of the second operand" (section 3.2.9)
    auto cycles_for = [](Word a) {
        SingleCpu t;
        t.runAsm("start: ldc 3\n ldc " + std::to_string(a) +
                 "\n prod\n stopp\n");
        return t.cpu.cycles();
    };
    const auto small = cycles_for(2);
    const auto big = cycles_for(1 << 20);
    EXPECT_GT(big, small + 10);
}

TEST(CpuMisc, ShiftTimeDependsOnDistance)
{
    auto cycles_for = [](int n) {
        SingleCpu t;
        t.runAsm("start: ldc 1\n ldc " + std::to_string(n) +
                 "\n shl\n stopp\n");
        return t.cpu.cycles();
    };
    // same-length encodings: both ldc operands are 1 byte
    EXPECT_EQ(cycles_for(15) - cycles_for(5), 10u);
}

TEST(CpuMisc, ExternalMemoryCostsWaitStates)
{
    core::Config cfg;
    cfg.onchipBytes = 4096;
    cfg.externalBytes = 4096;
    cfg.externalWaits = 3;
    // data off chip: every ldnl/stnl pays the surcharge
    SingleCpu t(cfg);
    t.runAsm("start:\n"
             "  mint\n ldc 4096\n bsub\n stl 1\n" // external base
             "  ldc 9\n ldl 1\n stnl 0\n"
             "  ldl 1\n ldnl 0\n stl 2\n"
             "  stopp\n");
    EXPECT_EQ(t.local(2), 9u);
    SingleCpu u(cfg); // identical code shape, address on chip
    u.runAsm("start:\n"
             "  mint\n ldc 512\n bsub\n stl 1\n" // same encoded length
             "  ldc 9\n ldl 1\n stnl 0\n"
             "  ldl 1\n ldnl 0\n stl 2\n"
             "  stopp\n");
    EXPECT_EQ(u.local(2), 9u);
    // 2 external accesses x 3 waits, plus one extra prefix byte in
    // the external program's longer ldc 4096 operand
    EXPECT_EQ(t.cpu.cycles() - u.cpu.cycles(), 2u * 3u + 1u);
}

TEST(CpuMisc, ResetchOnALinkResetsTheEngine)
{
    // resetch on a link channel address goes to the port
    SingleCpu rig;
    // no port attached: resetch on an unattached link faults cleanly
    rig.loadAsm("start: mint\n resetch\n stopp\n");
    rig.cpu.boot(rig.img.symbol("start"), rig.bootWptr());
    EXPECT_THROW(rig.queue.runToQuiescence(), SimFatal);
}

TEST(CpuMisc, WildOffChipJumpRaisesMemFault)
{
    // gcall far beyond populated memory: the next instruction fetch
    // must raise the guest fault, not index the fetch buffer's write
    // generations out of range (which crashed the host process)
    SingleCpu rig;
    rig.loadAsm("start: ldc #7FFFFF00\n gcall\n");
    rig.cpu.boot(rig.img.symbol("start"), rig.bootWptr());
    EXPECT_THROW(rig.queue.runToQuiescence(), mem::MemFault);
}
