/**
 * @file
 * Fault-injection tests: seeded fault plans must be bit-identical
 * between serial and shard-parallel runs, link watchdogs must turn
 * lost packets into aborted (not deadlocked) transfers, the occam
 * ReliableChannel must deliver everything exactly once in order under
 * heavy loss, and the resilient dbsearch array must recover a killed
 * node's shard from its backup holder.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/dbsearch.hh"
#include "fault/fault.hh"
#include "fault/reliable.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"
#include "par/parallel_engine.hh"

using namespace transputer;
using namespace transputer::net;

namespace
{

/** FNV-1a over a node's full memory image. */
uint64_t
memHash(core::Transputer &t)
{
    const auto &m = t.memory();
    uint64_t h = 1469598103934665603ull;
    const Word base = m.base();
    for (Word i = 0; i < m.size(); ++i) {
        h ^= m.readByte(t.shape().truncate(base + i));
        h *= 1099511628211ull;
    }
    return h;
}

/** Every observable of both networks -- including every fault and
 *  link-health counter -- must match, bit for bit. */
void
expectSameNetworks(Network &a, Network &b, const std::string &what)
{
    SCOPED_TRACE(what);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.queue().now(), b.queue().now());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &na = a.node(static_cast<int>(i));
        auto &nb = b.node(static_cast<int>(i));
        EXPECT_EQ(na.instructions(), nb.instructions());
        EXPECT_EQ(na.localTime(), nb.localTime());
        EXPECT_EQ(static_cast<int>(na.state()),
                  static_cast<int>(nb.state()));
        EXPECT_EQ(na.killed(), nb.killed());
        EXPECT_EQ(na.iptr(), nb.iptr());
        EXPECT_EQ(na.wptr(), nb.wptr());
        EXPECT_EQ(na.areg(), nb.areg());
        EXPECT_EQ(na.errorFlag(), nb.errorFlag());
        EXPECT_EQ(memHash(na), memHash(nb));
    }
    std::vector<std::vector<uint64_t>> ea, eb;
    auto engineRow = [](link::LinkEngine &e) {
        return std::vector<uint64_t>{e.bytesSent(), e.bytesReceived(),
                                     e.outAborts(), e.inAborts(),
                                     e.staleAcks(), e.overrunDrops(),
                                     e.deadDrops()};
    };
    a.forEachEngine(
        [&](link::LinkEngine &e) { ea.push_back(engineRow(e)); });
    b.forEachEngine(
        [&](link::LinkEngine &e) { eb.push_back(engineRow(e)); });
    EXPECT_EQ(ea, eb);
    ASSERT_EQ(a.lines().size(), b.lines().size());
    for (size_t i = 0; i < a.lines().size(); ++i) {
        SCOPED_TRACE("line " + std::to_string(i));
        const link::Line &la = *a.lines()[i].line;
        const link::Line &lb = *b.lines()[i].line;
        EXPECT_EQ(la.busyTime(), lb.busyTime());
        EXPECT_EQ(la.dataPackets(), lb.dataPackets());
        EXPECT_EQ(la.ackPackets(), lb.ackPackets());
        EXPECT_EQ(la.dataDropped(), lb.dataDropped());
        EXPECT_EQ(la.acksDropped(), lb.acksDropped());
        EXPECT_EQ(la.dataCorrupted(), lb.dataCorrupted());
        EXPECT_EQ(la.faultJitter(), lb.faultJitter());
    }
}

/** Stream generator: n words into LINK1OUT. */
std::string
source(int n)
{
    return "CHAN out:\nPLACE out AT LINK1OUT:\n"
           "SEQ i = [1 FOR " + std::to_string(n) + "]\n"
           "  out ! i * 100\n";
}

/** Forwarder west -> east for n words. */
std::string
forwarder(int n)
{
    return "CHAN in, out:\n"
           "PLACE in AT LINK3IN:\nPLACE out AT LINK1OUT:\n"
           "VAR x:\n"
           "SEQ i = [1 FOR " + std::to_string(n) + "]\n"
           "  SEQ\n"
           "    in ? x\n"
           "    out ! x + 1\n";
}

/** Sink: n words from LINK3IN into the console on LINK0OUT. */
std::string
sink(int n)
{
    return "CHAN in, out:\n"
           "PLACE in AT LINK3IN:\nPLACE out AT LINK0OUT:\n"
           "VAR x:\n"
           "SEQ i = [1 FOR " + std::to_string(n) + "]\n"
           "  SEQ\n"
           "    in ? x\n"
           "    out ! x\n";
}

struct Rig
{
    Network net;
    std::unique_ptr<ConsoleSink> console;
    fault::FaultInjector injector;
};

/** 8-node pipeline streaming words through a faulty middle. */
void
buildFaultyPipeline(Rig &r, const fault::FaultPlan &plan)
{
    constexpr int n = 8, words = 6;
    auto ids = buildPipeline(r.net, n);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    // watchdogs keep aborted transfers from deadlocking the pipeline
    r.net.setLinkWatchdogs(100'000);
    bootOccamSource(r.net, ids[0], source(words));
    for (int i = 1; i < n - 1; ++i)
        bootOccamSource(r.net, ids[i], forwarder(words));
    bootOccamSource(r.net, ids[n - 1], sink(words));
    r.injector.arm(r.net, plan);
}

fault::FaultPlan
mixedPlan()
{
    fault::FaultPlan plan;
    plan.seed = 42;
    plan.line(2, 3).dataLoss = 0.08;
    plan.line(2, 3).corrupt = 0.05;
    plan.line(3, 2).ackLoss = 0.10;
    plan.line(4, 5).jitterChance = 0.25;
    plan.line(4, 5).jitterMax = 7'000;
    plan.node(3).stallAt = 400'000;
    plan.node(3).stallFor = 300'000;
    plan.node(6).killAt = 2'000'000;
    return plan;
}

RunOptions
options(int threads, Partition p)
{
    RunOptions o;
    o.threads = threads;
    o.partition = p;
    return o;
}

/** Collected console words (little-endian 4-byte assembly). */
std::vector<Word>
consoleWords(const ConsoleSink &console)
{
    const auto &bytes = console.bytes();
    std::vector<Word> words;
    for (size_t i = 0; i + 3 < bytes.size(); i += 4) {
        Word v = 0;
        for (int j = 3; j >= 0; --j)
            v = (v << 8) | bytes[i + static_cast<size_t>(j)];
        words.push_back(v);
    }
    return words;
}

} // namespace

// ---------------------------------------------------------------------
// determinism: seeded faulty runs are engine-independent
// ---------------------------------------------------------------------

TEST(FaultDeterminism, FaultyPipelineSerialVsParallel)
{
    const auto plan = mixedPlan();
    Rig serial, parallel;
    buildFaultyPipeline(serial, plan);
    buildFaultyPipeline(parallel, plan);
    const Tick limit = 20'000'000; // bounded: losses may starve the sink
    serial.net.run(limit);
    parallel.net.run(limit, options(4, Partition::Contiguous));
    expectSameNetworks(serial.net, parallel.net,
                       "faulty 8-node pipeline");
    EXPECT_EQ(serial.console->bytes(), parallel.console->bytes());
    // the plan actually did something
    const auto stats = serial.injector.stats();
    EXPECT_GT(stats.dataDropped + stats.acksDropped +
                  stats.dataCorrupted,
              0u);
    EXPECT_GT(stats.jitter, 0);
    EXPECT_TRUE(serial.net.node(6).killed());
    EXPECT_TRUE(parallel.net.node(6).killed());
}

TEST(FaultDeterminism, RepeatedRunsIdenticalAndSeedsDiffer)
{
    const auto plan = mixedPlan();
    Rig a, b;
    buildFaultyPipeline(a, plan);
    buildFaultyPipeline(b, plan);
    const Tick limit = 20'000'000;
    a.net.run(limit);
    b.net.run(limit, options(2, Partition::Striped));
    expectSameNetworks(a.net, b.net, "repeat");

    auto plan2 = plan;
    plan2.seed = 43;
    Rig c;
    buildFaultyPipeline(c, plan2);
    c.net.run(limit);
    // a different seed must draw a different fault pattern
    const auto sa = a.injector.stats();
    const auto sc = c.injector.stats();
    EXPECT_TRUE(sa.dataDropped != sc.dataDropped ||
                sa.acksDropped != sc.acksDropped ||
                sa.dataCorrupted != sc.dataCorrupted ||
                sa.jitter != sc.jitter);
}

// ---------------------------------------------------------------------
// injector mechanics
// ---------------------------------------------------------------------

TEST(FaultInjector, EmptyPlanInstallsNothingAndChangesNothing)
{
    auto build = [](Rig &r, bool arm) {
        auto ids = buildPipeline(r.net, 2);
        r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                                  link::WireConfig{});
        r.net.attachPeripheral(ids.back(), 0, *r.console);
        bootOccamSource(r.net, ids[0], source(4));
        bootOccamSource(r.net, ids[1], sink(4));
        if (arm)
            r.injector.arm(r.net, fault::FaultPlan{});
    };
    Rig armed, bare;
    build(armed, true);
    build(bare, false);
    armed.net.run();
    bare.net.run();
    expectSameNetworks(armed.net, bare.net, "empty plan");
    const auto stats = armed.injector.stats();
    EXPECT_EQ(stats.dataDropped, 0u);
    EXPECT_EQ(stats.dataCorrupted, 0u);
}

TEST(FaultInjector, DisarmRestoresTheWire)
{
    Rig r;
    fault::FaultPlan plan;
    plan.line(0, 1).dataLoss = 1.0; // total loss
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    bootOccamSource(r.net, ids[0], source(3));
    bootOccamSource(r.net, ids[1], sink(3));
    r.injector.arm(r.net, plan);
    r.net.run(r.net.queue().now() + 2'000'000);
    EXPECT_TRUE(r.console->bytes().empty());
    const auto lost = r.injector.stats().dataDropped;
    EXPECT_GT(lost, 0u);
    r.injector.disarm();
    // the wire is clean again; the cut-short protocol state on both
    // ends keeps this from completing cleanly in general, but bytes
    // flow and nothing is dropped any more
    r.net.run(r.net.queue().now() + 2'000'000);
    EXPECT_EQ(r.injector.stats().dataDropped, 0u); // taps are gone
}

TEST(FaultInjector, CountersReachObservability)
{
    Rig r;
    fault::FaultPlan plan;
    plan.seed = 7;
    plan.line(0, 1).dataLoss = 0.2;
    plan.line(0, 1).corrupt = 0.2;
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    bootOccamSource(r.net, ids[0], source(20));
    bootOccamSource(r.net, ids[1], sink(20));
    r.injector.arm(r.net, plan);
    r.net.run(r.net.queue().now() + 20'000'000);
    const auto agg = r.net.nodeCounters(0);
    EXPECT_GT(agg.faultDataDrops + agg.faultCorrupts, 0u);
    const auto sinkAgg = r.net.nodeCounters(1);
    EXPECT_GT(agg.linkOutAborts + sinkAgg.linkInAborts, 0u);
    const std::string json = obs::countersJson(agg);
    EXPECT_NE(json.find("fault_data_drops"), std::string::npos);
    EXPECT_NE(json.find("link_out_aborts"), std::string::npos);
}

// ---------------------------------------------------------------------
// reliable transport
// ---------------------------------------------------------------------

namespace
{

/** Sender program: `words` frames of 100 + 3i over a lossy link. */
std::string
reliableSender(int words, const fault::ReliableConfig &cfg)
{
    std::string p = "CHAN r.out, r.ack:\n"
                    "PLACE r.out AT LINK1OUT:\n"
                    "PLACE r.ack AT LINK1IN:\n"
                    "VAR sq, ok, i:\n"
                    "SEQ\n"
                    "  sq := 0\n"
                    "  ok := 1\n"
                    "  i := 0\n"
                    "  WHILE (i < " + std::to_string(words) +
                    ") AND (ok = 1)\n"
                    "    SEQ\n";
    p += fault::reliableSendBlock(6, "r.out", "r.ack",
                                  "100 + (i * 3)", "sq", "ok", cfg);
    p += "      i := i + 1\n";
    return p;
}

/** Receiver program: deliver `words` payloads to the console. */
std::string
reliableReceiver(int words, const fault::ReliableConfig &cfg)
{
    std::string p = "CHAN r.in, r.bck, con:\n"
                    "PLACE r.in AT LINK3IN:\n"
                    "PLACE r.bck AT LINK3OUT:\n"
                    "PLACE con AT LINK0OUT:\n"
                    "VAR xp, v, i:\n"
                    "SEQ\n"
                    "  xp := 0\n"
                    "  i := 0\n"
                    "  WHILE i < " + std::to_string(words) + "\n"
                    "    SEQ\n";
    p += fault::reliableRecvBlock(6, "r.in", "r.bck", "v", "xp", cfg);
    p += "      con ! v\n"
         "      i := i + 1\n";
    return p;
}

} // namespace

TEST(ReliableChannel, DeliversEverythingUnderFivePercentLoss)
{
    constexpr int words = 25;
    Rig r;
    fault::FaultPlan plan;
    plan.seed = 1234;
    // 5% byte loss in both directions plus link-level ack loss: data
    // frames, occam-level acks and hardware handshakes all suffer
    plan.line(0, 1).dataLoss = 0.05;
    plan.line(0, 1).ackLoss = 0.05;
    plan.line(1, 0).dataLoss = 0.05;
    plan.line(1, 0).ackLoss = 0.05;
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    // under the 256 us initial retry timeout, over the ~6 us ack RTT
    r.net.setLinkWatchdogs(100'000);
    const fault::ReliableConfig cfg;
    bootOccamSource(r.net, ids[0], reliableSender(words, cfg));
    bootOccamSource(r.net, ids[1], reliableReceiver(words, cfg));
    r.injector.arm(r.net, plan);
    r.net.run(r.net.queue().now() + 2'000'000'000); // 2 s budget

    // every payload arrived, exactly once, in order
    std::vector<Word> expect;
    for (int i = 0; i < words; ++i)
        expect.push_back(static_cast<Word>(100 + i * 3));
    EXPECT_EQ(consoleWords(*r.console), expect);
    EXPECT_GT(r.injector.stats().dataDropped, 0u); // loss did happen
}

TEST(ReliableChannel, CleanWireNeedsNoRetries)
{
    constexpr int words = 5;
    Rig r;
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    const fault::ReliableConfig cfg;
    bootOccamSource(r.net, ids[0], reliableSender(words, cfg));
    bootOccamSource(r.net, ids[1], reliableReceiver(words, cfg));
    r.net.run(r.net.queue().now() + 500'000'000);
    std::vector<Word> expect;
    for (int i = 0; i < words; ++i)
        expect.push_back(static_cast<Word>(100 + i * 3));
    EXPECT_EQ(consoleWords(*r.console), expect);
    uint64_t aborts = 0;
    r.net.forEachEngine([&](link::LinkEngine &e) {
        aborts += e.outAborts() + e.inAborts();
    });
    EXPECT_EQ(aborts, 0u);
}

TEST(ReliableChannel, DeclaresTheLinkDeadAfterMaxRetries)
{
    Rig r;
    fault::FaultPlan plan;
    plan.line(0, 1).dataLoss = 1.0; // nothing ever gets through
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    // the console hangs off the *sender*: it reports the verdict
    r.net.attachPeripheral(ids[0], 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    fault::ReliableConfig cfg;
    cfg.timeoutTicks = 2;
    cfg.maxRetries = 4;
    std::string p = "CHAN r.out, r.ack, con:\n"
                    "PLACE r.out AT LINK1OUT:\n"
                    "PLACE r.ack AT LINK1IN:\n"
                    "PLACE con AT LINK0OUT:\n"
                    "VAR sq, ok:\n"
                    "SEQ\n"
                    "  sq := 0\n"
                    "  ok := 1\n";
    p += fault::reliableSendBlock(2, "r.out", "r.ack", "777", "sq",
                                  "ok", cfg);
    p += "  con ! 1000 + ok\n";
    bootOccamSource(r.net, ids[0], p);
    bootOccamSource(r.net, ids[1],
                    reliableReceiver(1, fault::ReliableConfig{}));
    r.injector.arm(r.net, plan);
    r.net.run(r.net.queue().now() + 1'000'000'000);
    // verdict word: 1000 + 0 = the link was declared dead
    EXPECT_EQ(consoleWords(*r.console),
              (std::vector<Word>{Word{1000}}));
}

TEST(ReliableChannel, SurvivesJitterLossAndCorruptionAtBackoffCap)
{
    // all three fault modes at once, with the backoff ceiling set low
    // enough that long retry runs actually hit it (timeout ladder
    // 2, 4, 8, 8, 8, ... ticks): the capped sender must keep probing
    // instead of sleeping its budget away, and delivery must stay
    // exact and in order
    constexpr int words = 20;
    Rig r;
    fault::FaultPlan plan;
    plan.seed = 4242;
    plan.line(0, 1).dataLoss = 0.08;
    plan.line(0, 1).corrupt = 0.05;
    plan.line(0, 1).jitterChance = 0.25;
    plan.line(0, 1).jitterMax = 5'000;
    plan.line(1, 0).ackLoss = 0.10;
    plan.line(1, 0).dataLoss = 0.05;
    plan.line(1, 0).jitterChance = 0.25;
    plan.line(1, 0).jitterMax = 5'000;
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    fault::ReliableConfig cfg;
    cfg.timeoutTicks = 2;
    cfg.maxTimeoutTicks = 8; // the cap binds from the third retry on
    cfg.maxRetries = 40;     // capped probing, not a death sentence
    bootOccamSource(r.net, ids[0], reliableSender(words, cfg));
    bootOccamSource(r.net, ids[1], reliableReceiver(words, cfg));
    r.injector.arm(r.net, plan);
    r.net.run(r.net.queue().now() + 4'000'000'000);

    std::vector<Word> expect;
    for (int i = 0; i < words; ++i)
        expect.push_back(static_cast<Word>(100 + i * 3));
    EXPECT_EQ(consoleWords(*r.console), expect);
    // every fault mode actually fired
    const auto stats = r.injector.stats();
    EXPECT_GT(stats.dataDropped, 0u);
    EXPECT_GT(stats.dataCorrupted, 0u);
    EXPECT_GT(stats.jitter, 0);
}

TEST(ReliableChannel, DeadLinkDeclarationRespectsTheBackoffLadder)
{
    // on a totally dead wire the sender's verdict cannot appear
    // before the full capped ladder has been waited out: with
    // timeoutTicks=2, maxTimeoutTicks=8, maxRetries=5 the timer waits
    // alone are (2+4+8+8+8) ticks = 30 x 64 us = 1.92 ms, on top of
    // the per-attempt watchdog-abandoned sends
    Rig r;
    fault::FaultPlan plan;
    plan.line(0, 1).dataLoss = 1.0;
    auto ids = buildPipeline(r.net, 2);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids[0], 0, *r.console);
    r.net.setLinkWatchdogs(100'000);
    fault::ReliableConfig cfg;
    cfg.timeoutTicks = 2;
    cfg.maxTimeoutTicks = 8;
    cfg.maxRetries = 5;
    std::string p = "CHAN r.out, r.ack, con:\n"
                    "PLACE r.out AT LINK1OUT:\n"
                    "PLACE r.ack AT LINK1IN:\n"
                    "PLACE con AT LINK0OUT:\n"
                    "VAR sq, ok:\n"
                    "SEQ\n"
                    "  sq := 0\n"
                    "  ok := 1\n";
    p += fault::reliableSendBlock(2, "r.out", "r.ack", "777", "sq",
                                  "ok", cfg);
    p += "  con ! 1000 + ok\n";
    bootOccamSource(r.net, ids[0], p);
    bootOccamSource(r.net, ids[1],
                    reliableReceiver(1, fault::ReliableConfig{}));
    r.injector.arm(r.net, plan);
    // run only to the ladder's lower bound: no verdict may exist yet
    r.net.run(r.net.queue().now() + 1'920'000);
    EXPECT_TRUE(r.console->bytes().empty())
        << "link declared dead before the backoff ladder ran out";
    // a generous budget later the dead-link verdict must be out
    r.net.run(r.net.queue().now() + 1'000'000'000);
    EXPECT_EQ(consoleWords(*r.console),
              (std::vector<Word>{Word{1000}}));
}

// ---------------------------------------------------------------------
// degraded-mode dbsearch
// ---------------------------------------------------------------------

TEST(DegradedDbSearch, KilledLeafShardRecoversOnSurvivors)
{
    apps::DbSearchConfig cfg;
    cfg.width = 3;
    cfg.height = 3;
    cfg.recordsPerNode = 30;
    cfg.keySpace = 20;
    cfg.resilient = true;
    cfg.linkWatchdog = 1'000'000; // 1 ms: over every think-time
    cfg.node.externalBytes = 8192; // room for the backup shard
    apps::DbSearch db(cfg);
    const Word key = 7;

    // healthy resilient array: full answer
    EXPECT_EQ(db.degradedSearch(key), db.expectedCount(key));

    // kill the far-corner leaf of the spanning tree
    const int victim = cfg.width * cfg.height - 1;
    fault::FaultPlan plan;
    plan.node(victim).killAt = db.network().queue().now() + 1000;
    fault::FaultInjector injector;
    injector.arm(db.network(), plan);
    db.network().run(db.network().queue().now() + 2000);
    ASSERT_TRUE(db.network().node(victim).killed());

    // the degraded query alone misses exactly the victim's shard;
    // the recovery query pulls it back from the backup holder
    EXPECT_GT(db.expectedNodeCount(victim, key), 0u);
    EXPECT_EQ(db.degradedSearch(key), db.expectedCount(key));
    EXPECT_EQ(db.backupHolder(victim), victim - 1);
}

// ---------------------------------------------------------------------
// occam generator shape (independent of the fault hooks)
// ---------------------------------------------------------------------

TEST(ReliableChannel, GeneratorEmitsBalancedBlocks)
{
    const std::string s = fault::reliableSendBlock(
        0, "out", "ack", "42", "sq", "ok", fault::ReliableConfig{});
    EXPECT_NE(s.find("WHILE (ok = 0)"), std::string::npos);
    EXPECT_NE(s.find("TIME ? AFTER"), std::string::npos);
    EXPECT_NE(s.find("out ! ((rl.h >< rl.p) >< ((rl.p << 7) \\/ "
                     "(rl.p >> 25)))"),
              std::string::npos);
    const std::string r = fault::reliableRecvBlock(
        0, "in", "ack", "v", "xp", fault::ReliableConfig{});
    EXPECT_NE(r.find("(rl.h >> 16) = 23130"), std::string::npos);
    EXPECT_NE(r.find("rl.q := rl.h /\\ 65535"), std::string::npos);
    // indentation is uniform two-space steps from the requested base
    const std::string t =
        fault::reliableSendBlock(4, "o", "a", "1", "s", "k");
    EXPECT_EQ(t.rfind("    VAR", 0), 0u);
}
