/**
 * @file
 * Differential testing of the instruction set: random programs run on
 * the emulated CPU and on an independent host-side mirror of the
 * architectural state (the three-register stack, locals, and the
 * error flag).  Any divergence in any register, local, or flag fails
 * the test.  Each program runs once straight through, and once as the
 * body of a hot counted loop under all three execution tiers -- the
 * byte-at-a-time interpreter, the fused loop and the block tier --
 * which must also agree with each other on memory and counters; the
 * loop adds a move and an ALT, non-fast chains that end fused runs.
 * Runs at both word lengths.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "base/random.hh"
#include "harness.hh"
#include "obs/counters.hh"

using namespace transputer;
using transputer::test::SingleCpu;

namespace
{

/** Host-side mirror of the evaluation stack and locals. */
class Mirror
{
  public:
    Mirror(const WordShape &s, Word wptr, int nlocals)
        : s_(s), wptr_(wptr), locals_(nlocals, 0)
    {}

    void
    push(Word v)
    {
        c = b;
        b = a;
        a = v;
    }

    void
    pop()
    {
        a = b;
        b = c;
    }

    int64_t sa() const { return s_.toSigned(a); }
    int64_t sb() const { return s_.toSigned(b); }

    void
    checked(int64_t r)
    {
        if (r > s_.toSigned(s_.mostPos) || r < s_.toSigned(s_.mostNeg))
            error = true;
    }

    Word
    local(int i) const
    {
        return locals_[static_cast<size_t>(i)];
    }

    void
    setLocal(int i, Word v)
    {
        locals_[static_cast<size_t>(i)] = v;
    }

    Word
    localAddr(int i) const
    {
        return s_.index(wptr_, i);
    }

    const WordShape &s_;
    Word wptr_;
    std::vector<Word> locals_;
    Word a = 0, b = 0, c = 0;
    bool error = false;
};

/** Random program source, generated and mirrored step by step. */
struct Gen
{
    explicit Gen(uint64_t seed, const tasm::Image *layout)
        : rng(seed), img(layout)
    {}

    Random rng;
    /** The assembled program, for label addresses (nullptr while the
     *  layout is still unknown: the values then do not matter). */
    const tasm::Image *img;
    int labels = 0;
    /** Draw mostly from the direct functions, as compiled inner loops
     *  do, so the fused runs are long enough for block promotion. */
    bool directHeavy = false;

    Word
    addressOf(const std::string &label) const
    {
        return img ? img->symbol(label) : 0;
    }
};

constexpr int kSteps = 23;
/** The cases that are direct functions only. */
constexpr int kDirectCases[] = {0, 1, 2, 3, 4, 5, 6, 18, 19, 20, 21};

/** One random instruction: appended to the source and mirrored. */
void
step(Gen &g, std::string &src, Mirror &m)
{
    Random &rng = g.rng;
    const int nlocals = static_cast<int>(m.locals_.size());
    const int pick =
        g.directHeavy && rng.chance(0.93)
            ? kDirectCases[rng.below(std::size(kDirectCases))]
            : static_cast<int>(rng.below(kSteps));
    switch (pick) {
      case 0: { // ldc small
        const int64_t v = rng.range(0, 15);
        src += "  ldc " + std::to_string(v) + "\n";
        m.push(static_cast<Word>(v));
        break;
      }
      case 1: { // ldc wide (prefix chains)
        const int64_t v = m.s_.toSigned(
            m.s_.truncate(rng.next()));
        src += "  ldc " + std::to_string(v) + "\n";
        m.push(m.s_.truncate(static_cast<uint64_t>(v)));
        break;
      }
      case 2: { // ldl
        const int i = static_cast<int>(rng.below(nlocals));
        src += "  ldl " + std::to_string(i) + "\n";
        m.push(m.local(i));
        break;
      }
      case 3: { // stl
        const int i = static_cast<int>(rng.below(nlocals));
        src += "  stl " + std::to_string(i) + "\n";
        m.setLocal(i, m.a);
        m.pop();
        break;
      }
      case 4: { // ldlp
        const int i = static_cast<int>(rng.below(nlocals));
        src += "  ldlp " + std::to_string(i) + "\n";
        m.push(m.localAddr(i));
        break;
      }
      case 5: { // adc
        const int64_t k = rng.range(-300, 300);
        src += "  adc " + std::to_string(k) + "\n";
        const int64_t r = m.sa() + k;
        m.checked(r);
        m.a = m.s_.truncate(static_cast<uint64_t>(r));
        break;
      }
      case 6: { // eqc
        const int64_t k = rng.range(0, 20);
        src += "  eqc " + std::to_string(k) + "\n";
        m.a = (m.a == static_cast<Word>(k)) ? 1 : 0;
        break;
      }
      case 7: { // add (checked)
        src += "  add\n";
        const int64_t r = m.sb() + m.sa();
        m.checked(r);
        const Word v = m.s_.truncate(static_cast<uint64_t>(r));
        m.pop();
        m.a = v;
        break;
      }
      case 8: { // sub (checked)
        src += "  sub\n";
        const int64_t r = m.sb() - m.sa();
        m.checked(r);
        const Word v = m.s_.truncate(static_cast<uint64_t>(r));
        m.pop();
        m.a = v;
        break;
      }
      case 9: { // mul (checked)
        src += "  mul\n";
        const int64_t r = m.sb() * m.sa();
        m.checked(r);
        const Word v = m.s_.truncate(static_cast<uint64_t>(r));
        m.pop();
        m.a = v;
        break;
      }
      case 10: { // div (checked, error semantics mirrored)
        src += "  div\n";
        Word v;
        if (m.a == 0 ||
            (m.a == m.s_.mask && m.b == m.s_.mostNeg)) {
            m.error = true;
            v = 0;
        } else {
            v = m.s_.truncate(
                static_cast<uint64_t>(m.sb() / m.sa()));
        }
        m.pop();
        m.a = v;
        break;
      }
      case 11: { // sum / diff / prod (modulo)
        const int pick = static_cast<int>(rng.below(3));
        const char *ops[] = {"sum", "diff", "prod"};
        src += std::string("  ") + ops[pick] + "\n";
        uint64_t r = 0;
        if (pick == 0)
            r = static_cast<uint64_t>(m.b) + m.a;
        else if (pick == 1)
            r = static_cast<uint64_t>(m.b) - m.a;
        else
            r = static_cast<uint64_t>(m.b) * m.a;
        const Word v = m.s_.truncate(r);
        m.pop();
        m.a = v;
        break;
      }
      case 12: { // and / or / xor
        const int pick = static_cast<int>(rng.below(3));
        const char *ops[] = {"and", "or", "xor"};
        src += std::string("  ") + ops[pick] + "\n";
        const Word v = pick == 0   ? (m.b & m.a)
                       : pick == 1 ? (m.b | m.a)
                                   : (m.b ^ m.a);
        m.pop();
        m.a = v;
        break;
      }
      case 13: { // gt
        src += "  gt\n";
        const Word v = m.sb() > m.sa() ? 1 : 0;
        m.pop();
        m.a = v;
        break;
      }
      case 14: { // rev
        src += "  rev\n";
        std::swap(m.a, m.b);
        break;
      }
      case 15: { // mint / dup / not
        const int pick = static_cast<int>(rng.below(3));
        if (pick == 0) {
            src += "  mint\n";
            m.push(m.s_.mostNeg);
        } else if (pick == 1) {
            src += "  dup\n";
            m.push(m.a);
        } else {
            src += "  not\n";
            m.a = m.s_.truncate(~m.a);
        }
        break;
      }
      case 16: { // shl / shr with a bounded constant count
        const int n = static_cast<int>(rng.below(40));
        const bool left = rng.chance(0.5);
        src += "  ldc " + std::to_string(n) + "\n";
        src += left ? "  shl\n" : "  shr\n";
        // ldc pushes the count; shl/shr shift the value in B by A
        m.push(static_cast<Word>(n));
        const Word v =
            n >= m.s_.bits
                ? 0
                : (left ? m.s_.truncate(static_cast<uint64_t>(m.b)
                                        << n)
                        : m.s_.truncate(m.b >> n));
        m.pop();
        m.a = v;
        break;
      }
      case 18: { // ldnl through a local's address
        const int i = static_cast<int>(rng.below(nlocals));
        const int j = static_cast<int>(rng.below(nlocals - i));
        src += "  ldlp " + std::to_string(i) + "\n  ldnl " +
               std::to_string(j) + "\n";
        m.push(m.localAddr(i));
        m.a = m.local(i + j);
        break;
      }
      case 19: { // stnl through a local's address
        const int i = static_cast<int>(rng.below(nlocals));
        const int j = static_cast<int>(rng.below(nlocals - i));
        src += "  ldlp " + std::to_string(i) + "\n  stnl " +
               std::to_string(j) + "\n";
        m.push(m.localAddr(i));
        m.setLocal(i + j, m.b);
        m.a = m.c;
        break;
      }
      case 20: { // ldnlp (pointer arithmetic, any value)
        const int64_t k = rng.range(-8, 8);
        src += "  ldnlp " + std::to_string(k) + "\n";
        m.a = m.s_.index(m.a, k);
        break;
      }
      case 21: { // a balanced ajw pair around a local access
        const int k = static_cast<int>(rng.below(nlocals));
        const int j = static_cast<int>(rng.below(nlocals - k));
        const bool load = rng.chance(0.5);
        src += "  ajw " + std::to_string(k) + "\n  " +
               (load ? "ldl " : "stl ") + std::to_string(j) +
               "\n  ajw " + std::to_string(-k) + "\n";
        if (load) {
            m.push(m.local(k + j));
        } else {
            m.setLocal(k + j, m.a);
            m.pop();
        }
        break;
      }
      case 22: { // ldpi: an offset from the next instruction
        const int64_t k = rng.range(0, 63);
        const std::string label = "p" + std::to_string(g.labels++);
        src += "  ldc " + std::to_string(k) + "\n  ldpi\n" + label +
               ":\n";
        m.push(static_cast<Word>(k));
        m.a = m.s_.truncate(g.addressOf(label) + m.a);
        break;
      }
      default: { // bcnt / wcnt / xdble
        const int pick = static_cast<int>(rng.below(3));
        if (pick == 0) {
            src += "  bcnt\n";
            m.a = m.s_.truncate(static_cast<uint64_t>(m.a) *
                                m.s_.bytes);
        } else if (pick == 1) {
            src += "  wcnt\n";
            const Word p = m.a;
            m.c = m.b;
            m.b = static_cast<Word>(m.s_.byteSelect(p));
            m.a = m.s_.truncate(static_cast<uint64_t>(
                m.s_.toSigned(p) >> m.s_.byteSelectBits));
        } else {
            src += "  xdble\n";
            m.c = m.b;
            m.b = m.s_.isNeg(m.a) ? m.s_.mask : 0;
        }
        break;
      }
    }
}

constexpr int kLocals = 8;

void
runDifferential(const WordShape &shape, uint64_t seed)
{
    core::Config cfg;
    cfg.shape = shape;
    cfg.onchipBytes = shape.bits == 32 ? 8192 : 4096;
    SingleCpu rig(cfg);

    // The mirror needs the boot workspace pointer (ldlp pushes real
    // addresses) and label addresses (ldpi), which depend on the
    // program's layout.  Generation is a pure function of the seed,
    // so build the source once to learn the layout, then replay the
    // generator against a mirror primed with the real addresses.
    const int steps = 120;
    auto build = [&](Mirror &m, const tasm::Image *layout) {
        Gen gen(seed, layout);
        std::string src = "start:\n";
        for (int i = 0; i < kLocals; ++i)
            src += "  ldc 0\n  stl " + std::to_string(i) + "\n";
        for (int i = 0; i < steps; ++i)
            step(gen, src, m);
        src += "  stopp\n";
        return src;
    };
    Mirror scout(shape, 0, kLocals);
    rig.loadAsm(build(scout, nullptr));
    const tasm::Image layout = rig.img;
    Mirror m(shape, rig.bootWptr(), kLocals);
    const std::string src = build(m, &layout);

    rig.runAsm(src);
    ASSERT_EQ(rig.wptr0, m.wptr_) << "harness workspace moved";
    EXPECT_EQ(rig.cpu.areg(), m.a) << "seed " << seed;
    EXPECT_EQ(rig.cpu.breg(), m.b) << "seed " << seed;
    EXPECT_EQ(rig.cpu.creg(), m.c) << "seed " << seed;
    EXPECT_EQ(rig.cpu.errorFlag(), m.error) << "seed " << seed;
    for (int i = 0; i < kLocals; ++i)
        EXPECT_EQ(rig.local(i), m.local(i))
            << "seed " << seed << " local " << i;
}

/** FNV-1a over the full memory image. */
uint64_t
memHash(const core::Transputer &t)
{
    const auto &mem = t.memory();
    uint64_t h = 1469598103934665603ull;
    for (Word i = 0; i < mem.size(); ++i) {
        h ^= mem.readByte(t.shape().truncate(mem.base() + i));
        h *= 1099511628211ull;
    }
    return h;
}

enum class Tier
{
    Plain, ///< predecode off: the byte-at-a-time interpreter
    Fused, ///< predecode on, block compiler off
    Block, ///< both on
};

/**
 * The random program as the body of a hot counted loop, run under each
 * tier: every tier must match the mirror, and the three runs must
 * agree on registers, memory and counters.
 */
void
runHotLoop(const WordShape &shape, uint64_t seed)
{
    constexpr int laps = 40;
    constexpr int counter = kLocals + 4; // clear of the random locals
    // long enough that a lap's fused runs, cut by the six non-fast
    // chains below, still average more than the promotion gate's 16
    const int steps = 120;
    core::Config base;
    base.shape = shape;
    base.onchipBytes = shape.bits == 32 ? 8192 : 4096;
    // short dispatch batches end fused runs often, so the promotion
    // gate sees the loop's run lengths within a few laps
    base.maxBatch = 256;
    // Each lap also runs non-fast chains, each of which ends a fused
    // run: a short move from the random locals into the words after
    // the counter, and an ALT with one ready SKIP guard in a workspace
    // above them (alt, enbs, altwt, diss and altend, whose below-Wptr
    // slots stay clear of the move's words).
    const int moved = counter + 1, altWs = counter + 12;
    auto nonFast = [&](std::string &body, Mirror &m) {
        body += "  ldlp 0\n  ldlp " + std::to_string(moved) +
                "\n  ldc 8\n  move\n";
        m.push(m.localAddr(0));
        m.push(m.localAddr(moved));
        m.push(8);
        m.pop();
        m.pop();
        m.pop();
        body += "  ajw " + std::to_string(altWs) +
                "\n  alt\n  ldc 1\n  enbs\n  altwt\n"
                "  ldc 1\n  ldc 0\n  diss\n  altend\n  ajw -" +
                std::to_string(altWs) + "\n";
        m.push(1); // enbs's guard
        m.push(1); // diss: guard, offset 0 -> fired
        m.push(0);
        m.a = 1;
        m.b = m.c;
    };

    // the body is generated once; the mirror replays the same
    // generator once per lap, plus the loop control's stack effects
    auto build = [&](Mirror &m, const tasm::Image *layout) {
        std::string src = "start:\n";
        for (int i = 0; i < kLocals; ++i)
            src += "  ldc 0\n  stl " + std::to_string(i) + "\n";
        src += "  ldc " + std::to_string(laps) + "\n  stl " +
               std::to_string(counter) + "\nloop:\n";
        for (int lap = laps - 1; lap >= 0; --lap) {
            Gen gen(seed, layout);
            gen.directHeavy = true;
            std::string body;
            for (int i = 0; i < steps; ++i)
                step(gen, body, m);
            nonFast(body, m);
            if (lap == laps - 1)
                src += body;
            m.push(static_cast<Word>(lap + 1)); // ldl counter
            m.a = static_cast<Word>(lap);       // adc -1
            m.pop();                            // stl counter
            m.push(static_cast<Word>(lap));     // ldl counter
            if (lap != 0)
                m.pop(); // cj not taken
        }
        const std::string cnt = std::to_string(counter);
        src += "  ldl " + cnt + "\n  adc -1\n  stl " + cnt + "\n" +
               "  ldl " + cnt + "\n  cj done\n  j loop\n" +
               "done:\n  stopp\n";
        return src;
    };

    std::vector<std::unique_ptr<SingleCpu>> rigs;
    for (const Tier tier : {Tier::Plain, Tier::Fused, Tier::Block}) {
        core::Config cfg = base;
        cfg.predecode = tier != Tier::Plain;
        cfg.blockCompile = tier == Tier::Block;
        auto rig = std::make_unique<SingleCpu>(cfg);
        Mirror scout(shape, 0, kLocals);
        rig->loadAsm(build(scout, nullptr));
        const tasm::Image layout = rig->img;
        Mirror m(shape, rig->bootWptr(), kLocals);
        rig->runAsm(build(m, &layout));

        const char *name = tier == Tier::Plain   ? "plain"
                           : tier == Tier::Fused ? "fused"
                                                 : "block";
        SCOPED_TRACE(std::string(name) + " tier, seed " +
                     std::to_string(seed));
        ASSERT_EQ(rig->wptr0, m.wptr_) << "harness workspace moved";
        EXPECT_EQ(rig->local(counter), 0u);
        EXPECT_EQ(rig->cpu.areg(), m.a);
        EXPECT_EQ(rig->cpu.breg(), m.b);
        EXPECT_EQ(rig->cpu.creg(), m.c);
        EXPECT_EQ(rig->cpu.errorFlag(), m.error);
        for (int i = 0; i < kLocals; ++i)
            EXPECT_EQ(rig->local(i), m.local(i)) << "local " << i;
        rigs.push_back(std::move(rig));
    }

    const core::Transputer &plain = rigs[0]->cpu, &fused = rigs[1]->cpu,
                           &block = rigs[2]->cpu;
    SCOPED_TRACE("seed " + std::to_string(seed));
    for (const core::Transputer *t : {&fused, &block}) {
        EXPECT_EQ(t->iptr(), plain.iptr());
        EXPECT_EQ(t->wptr(), plain.wptr());
        EXPECT_EQ(t->localTime(), plain.localTime());
        EXPECT_EQ(memHash(*t), memHash(plain));
        EXPECT_TRUE(
            obs::sameArchitectural(t->counters(), plain.counters()));
    }
    EXPECT_TRUE(
        obs::sameArchitectural(block.counters(), fused.counters()));
    EXPECT_EQ(fused.counters().blockc.compiles, 0u);
    EXPECT_GT(block.counters().blockc.compiles, 0u);
    EXPECT_GT(block.counters().blockc.chains, 0u);
}

} // namespace

class Differential : public ::testing::TestWithParam<int>
{};

TEST_P(Differential, RandomProgramsMatchTheMirror32)
{
    for (int trial = 0; trial < 20; ++trial)
        runDifferential(word32,
                        static_cast<uint64_t>(GetParam()) * 1000 +
                            static_cast<uint64_t>(trial));
}

TEST_P(Differential, RandomProgramsMatchTheMirror16)
{
    for (int trial = 0; trial < 20; ++trial)
        runDifferential(word16,
                        static_cast<uint64_t>(GetParam()) * 977 +
                            static_cast<uint64_t>(trial) + 5);
}

TEST_P(Differential, HotLoopsAgreeAcrossTiers32)
{
    for (int trial = 0; trial < 20; ++trial)
        runHotLoop(word32, static_cast<uint64_t>(GetParam()) * 1013 +
                               static_cast<uint64_t>(trial) + 11);
}

TEST_P(Differential, HotLoopsAgreeAcrossTiers16)
{
    for (int trial = 0; trial < 20; ++trial)
        runHotLoop(word16, static_cast<uint64_t>(GetParam()) * 1019 +
                               static_cast<uint64_t>(trial) + 17);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 10));
