/**
 * @file
 * Cycle-charge regression: every direct function and a broad set of
 * operations are executed in isolation and their measured charge
 * compared with the documented cost model (isa/cycles.hh) plus the
 * one-cycle cost of each prefix byte in the operation's encoding.
 * Any silent change to a charge breaks the paper tables, so this
 * pins them all.
 */

#include <gtest/gtest.h>

#include "harness.hh"
#include "isa/cycles.hh"
#include "isa/encoding.hh"

using namespace transputer;
using transputer::test::SingleCpu;
namespace cyc = transputer::isa::cycles;
using isa::Fn;
using isa::Op;

namespace
{

/**
 * Cycles charged by `probe` appended to `setup` (the cost of
 * setup+stopp is measured separately and subtracted).
 */
int64_t
charge(const std::string &setup, const std::string &probe)
{
    SingleCpu with;
    with.runAsm("start:\n" + setup + probe + " stopp\n");
    SingleCpu without;
    without.runAsm("start:\n" + setup + " stopp\n");
    return static_cast<int64_t>(with.cpu.cycles() -
                                without.cpu.cycles());
}

/** Documented cost of an operation including its prefix bytes. */
int64_t
opCost(Op op, int64_t dynamic = 0)
{
    return cyc::op(op) + dynamic + isa::encodedOpLength(op) - 1;
}

} // namespace

TEST(CycleTable, DirectFunctions)
{
    EXPECT_EQ(charge("", "ldc 1\n"), cyc::direct(Fn::LDC));
    EXPECT_EQ(charge("", "ldlp 2\n"), cyc::direct(Fn::LDLP));
    EXPECT_EQ(charge("", "ldl 1\n"), cyc::direct(Fn::LDL));
    EXPECT_EQ(charge("ldc 7\n", "stl 1\n"), cyc::direct(Fn::STL));
    EXPECT_EQ(charge("ldc 7\n", "adc 1\n"), cyc::direct(Fn::ADC));
    EXPECT_EQ(charge("ldc 7\n", "eqc 7\n"), cyc::direct(Fn::EQC));
    EXPECT_EQ(charge("ldlp 8\n", "ldnl 0\n"), cyc::direct(Fn::LDNL));
    EXPECT_EQ(charge("ldlp 8\n", "ldnlp 1\n"),
              cyc::direct(Fn::LDNLP));
    EXPECT_EQ(charge("ldc 1\n ldlp 8\n", "stnl 0\n"),
              cyc::direct(Fn::STNL));
    EXPECT_EQ(charge("", "ajw 0\n"), cyc::direct(Fn::AJW));
    EXPECT_EQ(charge("", "j next\nnext:\n"), cyc::direct(Fn::J));
    // cj taken (Areg == 0) vs not taken (+1 for the ldc)
    EXPECT_EQ(charge("", "ldc 0\n cj next\nnext:\n"),
              1 + cyc::direct(Fn::CJ, true));
    EXPECT_EQ(charge("", "ldc 1\n cj next\nnext:\n"),
              1 + cyc::direct(Fn::CJ, false));
    // call + ret round trip (ret encodes with one prefix)
    EXPECT_EQ(charge("", "call fn\n j over\nfn: ret\nover:\n"),
              cyc::direct(Fn::CALL) + opCost(Op::RET) +
                  cyc::direct(Fn::J));
}

TEST(CycleTable, StackOperations)
{
    const std::string two = "ldc 3\n ldc 4\n";
    for (Op op : {Op::ADD, Op::SUB, Op::AND, Op::OR, Op::XOR,
                  Op::SUM, Op::DIFF, Op::REV, Op::DUP, Op::BSUB,
                  Op::GT, Op::WSUB}) {
        EXPECT_EQ(charge(two, std::string(isa::opName(op)) + "\n"),
                  opCost(op))
            << isa::opName(op);
    }
    EXPECT_EQ(charge("", "mint\n"), opCost(Op::MINT));
    EXPECT_EQ(charge("", "ldpri\n"), opCost(Op::LDPRI));
    EXPECT_EQ(charge("", "testpranal\n"), opCost(Op::TESTPRANAL));
    EXPECT_EQ(charge("", "testerr\n"), opCost(Op::TESTERR));
    EXPECT_EQ(charge("", "seterr\n testerr\n"),
              opCost(Op::SETERR) + opCost(Op::TESTERR));
    EXPECT_EQ(charge("", "ldtimer\n"), opCost(Op::LDTIMER));
}

TEST(CycleTable, MemoryAndCheckOperations)
{
    EXPECT_EQ(charge("ldc 3\n", "bcnt\n"), opCost(Op::BCNT));
    EXPECT_EQ(charge("ldlp 8\n", "wcnt\n"), opCost(Op::WCNT));
    EXPECT_EQ(charge("ldlp 8\n", "lb\n"), opCost(Op::LB));
    EXPECT_EQ(charge("ldc 65\n ldlp 8\n", "sb\n"), opCost(Op::SB));
    EXPECT_EQ(charge("ldc 3\n", "xdble\n"), opCost(Op::XDBLE));
    EXPECT_EQ(charge("ldc 3\n ldc 0\n", "csngl\n"),
              opCost(Op::CSNGL));
    EXPECT_EQ(charge("ldc 3\n ldc 9\n", "csub0\n"),
              opCost(Op::CSUB0));
    EXPECT_EQ(charge("ldc 3\n ldc 9\n", "ccnt1\n"),
              opCost(Op::CCNT1));
    EXPECT_EQ(charge("ldc 1\n ldc 2\n ldc 3\n", "ladd\n"),
              opCost(Op::LADD));
    EXPECT_EQ(charge("ldc 1\n ldc 2\n ldc 3\n", "lsum\n"),
              opCost(Op::LSUM));
    EXPECT_EQ(charge("ldc 1\n ldc 9\n ldc 3\n", "lsub\n"),
              opCost(Op::LSUB));
    EXPECT_EQ(charge("ldc 1\n ldc 9\n ldc 3\n", "ldiff\n"),
              opCost(Op::LDIFF));
}

TEST(CycleTable, DataDependentOperations)
{
    EXPECT_EQ(charge("ldc 6\n ldc 7\n", "mul\n"),
              opCost(Op::MUL, cyc::mul(word32)));
    EXPECT_EQ(charge("ldc 42\n ldc 7\n", "div\n"),
              opCost(Op::DIV, cyc::div(word32)));
    EXPECT_EQ(charge("ldc 42\n ldc 7\n", "rem\n"),
              opCost(Op::REM, cyc::rem(word32)));
    EXPECT_EQ(charge("ldc 3\n ldc 1\n", "prod\n"),
              opCost(Op::PROD, cyc::prod(1)));
    EXPECT_EQ(charge("ldc 3\n ldc 255\n", "prod\n"),
              opCost(Op::PROD, cyc::prod(255)));
    EXPECT_EQ(charge("ldc 1\n ldc 9\n", "shl\n"),
              opCost(Op::SHL, cyc::shift(9)));
    EXPECT_EQ(charge("ldc 1\n ldc 9\n", "shr\n"),
              opCost(Op::SHR, cyc::shift(9)));
    EXPECT_EQ(charge("ldlp 8\n ldlp 12\n ldc 8\n", "move\n"),
              opCost(Op::MOVE, cyc::move(word32, 8)));
    // long shifts and long multiply/divide
    EXPECT_EQ(charge("ldc 1\n ldc 0\n ldc 4\n", "lshl\n"),
              opCost(Op::LSHL, cyc::longShift(4)));
    EXPECT_EQ(charge("ldc 1\n ldc 0\n ldc 4\n", "lshr\n"),
              opCost(Op::LSHR, cyc::longShift(4)));
    EXPECT_EQ(charge("ldc 0\n ldc 6\n ldc 7\n", "lmul\n"),
              opCost(Op::LMUL, cyc::lmul(word32)));
    EXPECT_EQ(charge("ldc 0\n ldc 42\n ldc 7\n", "ldiv\n"),
              opCost(Op::LDIV, cyc::ldiv(word32)));
}

TEST(CycleTable, PrefixBytesCostOneCycleEach)
{
    EXPECT_EQ(charge("", "ldc 15\n"), 1);
    EXPECT_EQ(charge("", "ldc 16\n"), 2);
    EXPECT_EQ(charge("", "ldc 256\n"), 3);
    EXPECT_EQ(charge("", "ldc -1\n"), 2);
    EXPECT_EQ(charge("", "ldc -257\n"), 3);
}

TEST(CycleTable, SchedulerOperations)
{
    // stopp measured directly (prefix + operation)
    SingleCpu t;
    t.runAsm("start: stopp\n");
    EXPECT_EQ(t.cpu.cycles(),
              static_cast<uint64_t>(opCost(Op::STOPP)));
    // a full startp/endp/endp spawn-join, instruction by instruction
    SingleCpu u;
    u.runAsm("start:\n"
             "  ldc 2\n stl 11\n ldap succ\n stl 10\n"
             "  ldc child - c0\n ldlp -40\n startp\n"
             "c0:\n  ldlp 10\n endp\n"
             "child:\n  ldlp 50\n endp\n"
             "succ:\n ajw -10\n stopp\n");
    const int64_t expect =
        1 /*ldc 2*/ + 1 /*stl*/ + 4 /*ldap: 2B ldc + 2B ldpi*/ +
        1 /*stl*/ + 1 /*ldc off*/ + 2 /*ldlp -40 (nfix)*/ +
        opCost(Op::STARTP) + 1 /*ldlp 10*/ + opCost(Op::ENDP) +
        2 /*ldlp 50 (pfix)*/ + opCost(Op::ENDP) + 2 /*ajw -10*/ +
        opCost(Op::STOPP);
    EXPECT_EQ(u.cpu.cycles(), static_cast<uint64_t>(expect));
}

// ---------------------------------------------------------------------
// the longer paths of the dynamic operations (cycles.hh's lendLoops,
// tinWaits, altwtWaits, taltwtWaits and eventInPending), each
// measured as the whole charge of a program run to its stopp
// ---------------------------------------------------------------------

namespace
{

/** Cycles of a program run to its stopp; `prepare` runs on the rig
 *  first (to signal or schedule an event). */
template <class F>
int64_t
cyclesOf(const std::string &src, F prepare)
{
    SingleCpu t;
    prepare(t);
    t.runAsm(src);
    return static_cast<int64_t>(t.cpu.cycles());
}

/** The event pin's channel word (reserved word 8 above MostNeg). */
const std::string kEventChan = "mint\n ldnlp 8\n";
const int64_t kEventChanCost = opCost(Op::MINT) + cyc::direct(Fn::LDNLP);

} // namespace

TEST(CycleTable, LendThatLoops)
{
    static_assert(cyc::op(Op::LEND) + cyc::lendLoops == 10);
    // control block {index 0, count 2} at Wptr[4]: the first lend
    // loops back 4 bytes (ldlp, ldc and its own two), the second
    // falls through
    EXPECT_EQ(charge("ldc 0\n stl 4\n ldc 2\n stl 5\n",
                     "ldlp 4\n ldc 4\n lend\n"),
              2 * (cyc::direct(Fn::LDLP) + cyc::direct(Fn::LDC)) +
                  opCost(Op::LEND, cyc::lendLoops) + opCost(Op::LEND));
}

TEST(CycleTable, TinThatWaits)
{
    static_assert(cyc::op(Op::TIN) + cyc::tinWaits == 30);
    // five ticks ahead: tin waits for the timer
    EXPECT_EQ(charge("", "ldtimer\n adc 5\n tin\n"),
              opCost(Op::LDTIMER) + cyc::direct(Fn::ADC) +
                  opCost(Op::TIN, cyc::tinWaits));
}

TEST(CycleTable, AltwtThatWaits)
{
    static_assert(cyc::op(Op::ALTWT) + cyc::altwtWaits == 17);
    // one event-pin guard, signalled only after altwt has waited
    const std::string src = "start:\n alt\n" + kEventChan +
                            " ldc 1\n enbc\n altwt\n" + kEventChan +
                            " ldc 1\n ldc 0\n disc\n altend\n stopp\n";
    const int64_t got = cyclesOf(src, [](SingleCpu &t) {
        t.queue.schedule(100'000, [&t] { t.cpu.eventSignal(); });
    });
    EXPECT_EQ(got, opCost(Op::ALT) + 2 * kEventChanCost +
                       3 * cyc::direct(Fn::LDC) + opCost(Op::ENBC) +
                       opCost(Op::ALTWT, cyc::altwtWaits) +
                       opCost(Op::DISC) + opCost(Op::ALTEND) +
                       opCost(Op::STOPP));
}

TEST(CycleTable, TaltwtThatWaits)
{
    static_assert(cyc::op(Op::TALTWT) + cyc::taltwtWaits == 22);
    // one timer guard five ticks ahead: taltwt waits for it
    const std::string src =
        "start:\n talt\n ldtimer\n adc 5\n stl 4\n"
        " ldl 4\n ldc 1\n enbt\n taltwt\n"
        " ldl 4\n ldc 1\n ldc 0\n dist\n altend\n stopp\n";
    const int64_t got = cyclesOf(src, [](SingleCpu &) {});
    EXPECT_EQ(got, opCost(Op::TALT) + opCost(Op::LDTIMER) +
                       cyc::direct(Fn::ADC) + cyc::direct(Fn::STL) +
                       2 * cyc::direct(Fn::LDL) +
                       3 * cyc::direct(Fn::LDC) + opCost(Op::ENBT) +
                       opCost(Op::TALTWT, cyc::taltwtWaits) +
                       opCost(Op::DIST) + opCost(Op::ALTEND) +
                       opCost(Op::STOPP));
}

TEST(CycleTable, EventInputThatFindsAnEvent)
{
    static_assert(cyc::eventInPending == 4);
    // the event was signalled before the program ran, so in takes it
    // without waiting
    const std::string src =
        "start:\n ldlp 8\n" + kEventChan + " ldc 4\n in\n stopp\n";
    const int64_t got =
        cyclesOf(src, [](SingleCpu &t) { t.cpu.eventSignal(); });
    EXPECT_EQ(got, cyc::direct(Fn::LDLP) + kEventChanCost +
                       cyc::direct(Fn::LDC) +
                       opCost(Op::IN, cyc::eventInPending) +
                       opCost(Op::STOPP));
}
