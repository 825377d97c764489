/**
 * @file
 * Parallel-simulation tests: the deterministic event-dispatch order,
 * the shard plumbing (barrier, inbox, partitioner), topology-builder
 * wiring symmetry, and -- the heart of it -- bit-equivalence between
 * serial and shard-parallel runs of whole networks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/dbsearch.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"
#include "par/barrier.hh"
#include "par/parallel_engine.hh"
#include "par/shard.hh"

using namespace transputer;
using namespace transputer::net;

// ---------------------------------------------------------------------
// event queue: deterministic keyed dispatch order
// ---------------------------------------------------------------------

TEST(ParQueue, SameTickKeyOrderIsActorChannelSeq)
{
    sim::EventQueue q;
    std::vector<int> order;
    // scheduled deliberately out of key order
    q.schedule(10, sim::EventKey{2, 0, 1}, [&] { order.push_back(4); });
    q.schedule(10, sim::EventKey{1, sim::chanLine, 2},
               [&] { order.push_back(3); });
    q.schedule(10, sim::EventKey{1, sim::chanLine, 1},
               [&] { order.push_back(2); });
    q.schedule(10, sim::EventKey{1, sim::chanStep, 9},
               [&] { order.push_back(1); });
    q.schedule(5, sim::EventKey{9, 9, 9}, [&] { order.push_back(0); });
    q.runToQuiescence();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ParQueue, LegacyUnkeyedEventsStayFifoAndSortFirst)
{
    sim::EventQueue q;
    std::vector<int> order;
    q.schedule(10, sim::EventKey{3, 0, 1}, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); }); // actor 0, seq 1
    q.schedule(10, [&] { order.push_back(2); }); // actor 0, seq 2
    q.runToQuiescence();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(ParQueue, MigrationPreservesOrderAndCancellationHandles)
{
    sim::EventQueue a, b;
    std::vector<int> order;
    a.schedule(20, sim::EventKey{1, 1, 2}, [&] { order.push_back(2); });
    const sim::EventId dead =
        a.schedule(20, sim::EventKey{1, 1, 3}, [&] { order.push_back(9); });
    a.schedule(20, sim::EventKey{1, 1, 1}, [&] { order.push_back(1); });
    for (auto &p : a.extractPending())
        b.insertPending(std::move(p));
    EXPECT_TRUE(a.empty());
    // the handle from queue a still cancels after migration to b
    EXPECT_TRUE(b.cancel(dead));
    b.runToQuiescence();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(b.now(), 20);
}

// ---------------------------------------------------------------------
// shard plumbing: barrier and inbox
// ---------------------------------------------------------------------

TEST(ParBarrier, RoundsStaySynchronized)
{
    constexpr int parties = 4, rounds = 200;
    par::Barrier barrier(parties);
    std::vector<std::atomic<int>> arrived(rounds);
    for (auto &a : arrived)
        a.store(0);
    bool ok[parties];
    std::vector<std::thread> threads;
    for (int t = 0; t < parties; ++t) {
        threads.emplace_back([&, t] {
            ok[t] = true;
            for (int r = 0; r < rounds; ++r) {
                arrived[r].fetch_add(1);
                barrier.arriveAndWait();
                // after the barrier every party incremented round r
                ok[t] = ok[t] && arrived[r].load() == parties;
            }
        });
    }
    for (auto &t : threads)
        t.join();
    for (int t = 0; t < parties; ++t)
        EXPECT_TRUE(ok[t]) << "party " << t;
}

TEST(ParInbox, ConcurrentPushesAllArriveInKeyOrder)
{
    constexpr int producers = 4, per_producer = 500;
    par::Inbox inbox;
    std::vector<std::thread> threads;
    std::atomic<uint64_t> sum{0};
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < per_producer; ++i) {
                const uint64_t v =
                    static_cast<uint64_t>(p) * per_producer + i;
                inbox.push(
                    100,
                    sim::EventKey{static_cast<uint32_t>(p + 1),
                                  sim::chanLine,
                                  static_cast<uint64_t>(i + 1)},
                    sim::TypedEvent{[](void *ctx, uint64_t arg) {
                                        static_cast<std::atomic<uint64_t> *>(
                                            ctx)
                                            ->fetch_add(arg);
                                    },
                                    &sum, v});
            }
        });
    }
    for (auto &t : threads)
        t.join();
    sim::EventQueue q;
    EXPECT_EQ(inbox.drainTo(q),
              static_cast<size_t>(producers) * per_producer);
    EXPECT_EQ(q.runToQuiescence(),
              static_cast<uint64_t>(producers) * per_producer);
    const uint64_t n = static_cast<uint64_t>(producers) * per_producer;
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

// ---------------------------------------------------------------------
// partitioner
// ---------------------------------------------------------------------

TEST(ParPartition, ContiguousStripedCustom)
{
    RunOptions o;
    o.threads = 4;
    o.partition = Partition::Contiguous;
    EXPECT_EQ(par::computePartition(8, o),
              (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
    o.partition = Partition::Striped;
    EXPECT_EQ(par::computePartition(8, o),
              (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
    o.partition = Partition::Custom;
    o.shardOf = {1, 0, 3, 2, 1, 0, 3, 2};
    EXPECT_EQ(par::computePartition(8, o), o.shardOf);
    // more threads than nodes: clamped
    RunOptions wide;
    wide.threads = 8;
    EXPECT_EQ(par::computePartition(2, wide), (std::vector<int>{0, 1}));
}

// ---------------------------------------------------------------------
// topology builders: compass symmetry of the generated wiring
// ---------------------------------------------------------------------

namespace
{

/** (node, link) -> (node, link) over every transputer-to-transputer
 *  link engine in the network. */
std::map<std::pair<int, int>, std::pair<int, int>>
wiring(Network &net)
{
    std::map<const core::Transputer *, int> index;
    for (size_t i = 0; i < net.size(); ++i)
        index[&net.node(static_cast<int>(i))] = static_cast<int>(i);
    std::map<std::pair<int, int>, std::pair<int, int>> w;
    net.forEachEngine([&](link::LinkEngine &e) {
        auto *r = dynamic_cast<link::LinkEngine *>(e.tx().remote());
        if (!r)
            return; // peripheral at the other end
        w[{index.at(&e.cpu()), e.linkIndex()}] = {index.at(&r->cpu()),
                                                  r->linkIndex()};
    });
    return w;
}

} // namespace

TEST(ParTopology, GridCompassSymmetry)
{
    constexpr int W = 4, H = 3;
    Network net;
    auto ids = buildGrid(net, W, H);
    auto w = wiring(net);
    ASSERT_EQ(w.size(), 2u * (H * (W - 1) + W * (H - 1)));
    for (int y = 0; y < H; ++y) {
        for (int x = 0; x < W; ++x) {
            const int id = ids[y * W + x];
            if (x + 1 < W) {
                const int e = ids[y * W + x + 1];
                EXPECT_EQ(w.at({id, dir::east}),
                          (std::pair<int, int>{e, dir::west}));
                EXPECT_EQ(w.at({e, dir::west}),
                          (std::pair<int, int>{id, dir::east}));
            } else {
                EXPECT_EQ(w.count({id, dir::east}), 0u);
            }
            if (y + 1 < H) {
                const int s = ids[(y + 1) * W + x];
                EXPECT_EQ(w.at({id, dir::south}),
                          (std::pair<int, int>{s, dir::north}));
                EXPECT_EQ(w.at({s, dir::north}),
                          (std::pair<int, int>{id, dir::south}));
            } else {
                EXPECT_EQ(w.count({id, dir::south}), 0u);
            }
        }
    }
}

TEST(ParTopology, TorusWrapSymmetry)
{
    constexpr int W = 4, H = 3;
    Network net;
    auto ids = buildTorus(net, W, H);
    auto w = wiring(net);
    ASSERT_EQ(w.size(), 4u * W * H); // every link of every node used
    for (int y = 0; y < H; ++y)
        EXPECT_EQ(w.at({ids[y * W + W - 1], dir::east}),
                  (std::pair<int, int>{ids[y * W], dir::west}));
    for (int x = 0; x < W; ++x)
        EXPECT_EQ(w.at({ids[(H - 1) * W + x], dir::south}),
                  (std::pair<int, int>{ids[x], dir::north}));
}

TEST(ParTopology, HypercubeDimensionSymmetry)
{
    constexpr int D = 3;
    Network net;
    auto ids = buildHypercube(net, D);
    auto w = wiring(net);
    ASSERT_EQ(w.size(), (1u << D) * D);
    for (int i = 0; i < (1 << D); ++i)
        for (int k = 0; k < D; ++k)
            EXPECT_EQ(w.at({ids[i], k}),
                      (std::pair<int, int>{ids[i ^ (1 << k)], k}));
}

TEST(ParTopology, LineRegistryMatchesEnginesAndLead)
{
    Network net;
    auto ids = buildRing(net, 4);
    ConsoleSink console(net.queue(), link::WireConfig{});
    net.attachPeripheral(ids[0], 0, console);
    // one tx line per engine plus the peripheral's own tx line
    size_t engines = 0;
    net.forEachEngine([&](link::LinkEngine &) { ++engines; });
    EXPECT_EQ(net.lines().size(), engines + 1);
    for (const auto &lr : net.lines()) {
        // default wire: 10 Mbit/s, no propagation delay -> the first
        // two bits take 200 ns to reach the receiver
        EXPECT_EQ(lr.line->minDeliveryLead(), 200);
        EXPECT_GE(lr.srcNode, 0);
        EXPECT_GE(lr.dstNode, 0);
    }
}

// ---------------------------------------------------------------------
// serial vs parallel bit-equivalence
// ---------------------------------------------------------------------

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

/** Every observable of both networks must match, bit for bit. */
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
        EXPECT_EQ(na.cycles(), nb.cycles());
        EXPECT_EQ(na.localTime(), nb.localTime());
        EXPECT_EQ(static_cast<int>(na.state()),
                  static_cast<int>(nb.state()));
        EXPECT_EQ(na.iptr(), nb.iptr());
        EXPECT_EQ(na.wptr(), nb.wptr());
        EXPECT_EQ(na.areg(), nb.areg());
        EXPECT_EQ(na.breg(), nb.breg());
        EXPECT_EQ(na.creg(), nb.creg());
        EXPECT_EQ(na.errorFlag(), nb.errorFlag());
        EXPECT_EQ(memHash(na), memHash(nb));
    }
    std::vector<std::pair<uint64_t, uint64_t>> ta, tb;
    a.forEachEngine([&](link::LinkEngine &e) {
        ta.emplace_back(e.bytesSent(), e.bytesReceived());
    });
    b.forEachEngine([&](link::LinkEngine &e) {
        tb.emplace_back(e.bytesSent(), e.bytesReceived());
    });
    EXPECT_EQ(ta, tb);
    ASSERT_EQ(a.lines().size(), b.lines().size());
    for (size_t i = 0; i < a.lines().size(); ++i) {
        SCOPED_TRACE("line " + std::to_string(i));
        EXPECT_EQ(a.lines()[i].line->busyTime(),
                  b.lines()[i].line->busyTime());
        EXPECT_EQ(a.lines()[i].line->dataPackets(),
                  b.lines()[i].line->dataPackets());
        EXPECT_EQ(a.lines()[i].line->ackPackets(),
                  b.lines()[i].line->ackPackets());
    }
}

struct Rig
{
    Network net;
    std::unique_ptr<ConsoleSink> console;
    core::Config node; ///< every node the builders add
};

using BuildFn = std::function<void(Rig &)>;

/** Build the workload twice; run one serially and one sharded; every
 *  observable must be identical. */
void
checkEquivalence(const BuildFn &build, Tick limit, RunOptions opts,
                 const std::string &what, bool predecode = true)
{
    Rig serial, parallel;
    serial.node.predecode = parallel.node.predecode = predecode;
    build(serial);
    build(parallel);
    const Tick ts = serial.net.run(limit);
    const Tick tp = parallel.net.run(limit, opts);
    EXPECT_EQ(ts, tp) << what;
    expectSameNetworks(serial.net, parallel.net, what);
    if (serial.console) {
        EXPECT_EQ(serial.console->bytes(), parallel.console->bytes())
            << what;
    }
}

std::string
forwarder(int in_link, int out_link, int n)
{
    return "CHAN in, out:\n"
           "PLACE in AT LINK" + std::to_string(in_link) + "IN:\n"
           "PLACE out AT LINK" + std::to_string(out_link) + "OUT:\n"
           "VAR x:\n"
           "SEQ i = [1 FOR " + std::to_string(n) + "]\n"
           "  SEQ\n"
           "    in ? x\n"
           "    out ! x + 1\n";
}

/** 4-node pipeline streaming three words into a console. */
void
buildPipelineRig(Rig &r)
{
    auto ids = buildPipeline(r.net, 4, r.node);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids.back(), 0, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK1OUT:\n"
                    "SEQ i = [1 FOR 3]\n"
                    "  out ! i * 100\n");
    bootOccamSource(r.net, ids[1], forwarder(dir::west, dir::east, 3));
    bootOccamSource(r.net, ids[2], forwarder(dir::west, dir::east, 3));
    bootOccamSource(r.net, ids[3],
                    "CHAN in, out:\n"
                    "PLACE in AT LINK3IN:\nPLACE out AT LINK0OUT:\n"
                    "VAR x:\n"
                    "SEQ i = [1 FOR 3]\n"
                    "  SEQ\n"
                    "    in ? x\n"
                    "    out ! x\n");
}

/** 4-node ring passing a token all the way round. */
void
buildRingRig(Rig &r)
{
    auto ids = buildRing(r.net, 4, r.node);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids[0], 0, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out, in, con:\n"
                    "PLACE out AT LINK1OUT:\nPLACE in AT LINK3IN:\n"
                    "PLACE con AT LINK0OUT:\n"
                    "VAR x:\n"
                    "SEQ\n"
                    "  out ! 0\n"
                    "  in ? x\n"
                    "  con ! x\n");
    for (int i = 1; i < 4; ++i)
        bootOccamSource(r.net, ids[i],
                        forwarder(dir::west, dir::east, 1));
}

/** w x h grid with tokens snaking through every node. */
void
buildGridRig(Rig &r, int w, int h, int tokens)
{
    auto ids = buildGrid(r.net, w, h, r.node);
    // serpentine order: even rows travel east, odd rows west, rows
    // joined by the south link of the row's last node
    auto outLink = [&](int x, int y) {
        if (y % 2 == 0)
            return x + 1 < w ? dir::east : dir::south;
        return x > 0 ? dir::west : dir::south;
    };
    auto inLink = [&](int x, int y) {
        if (y % 2 == 0)
            return x > 0 ? dir::west : dir::north;
        return x + 1 < w ? dir::east : dir::north;
    };
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    const int endX = (h - 1) % 2 == 0 ? w - 1 : 0;
    const int endId = ids[(h - 1) * w + endX];
    r.net.attachPeripheral(endId, dir::south, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK" +
                        std::to_string(outLink(0, 0)) + "OUT:\n"
                        "SEQ i = [1 FOR " + std::to_string(tokens) +
                        "]\n  out ! i * 10\n");
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            if (x == 0 && y == 0)
                continue;
            const int id = ids[y * w + x];
            const int out =
                id == endId ? dir::south : outLink(x, y);
            bootOccamSource(r.net, id,
                            forwarder(inLink(x, y), out, tokens));
        }
    }
}

/** 3 x 2 torus: one token around row 0, then around column 0, using
 *  both wrap links. */
void
buildTorusRig(Rig &r)
{
    auto ids = buildTorus(r.net, 3, 2, r.node);
    bootOccamSource(r.net, ids[0],
                    "CHAN e, w, s, n:\n"
                    "PLACE e AT LINK1OUT:\nPLACE w AT LINK3IN:\n"
                    "PLACE s AT LINK2OUT:\nPLACE n AT LINK0IN:\n"
                    "VAR x, y:\n"
                    "SEQ\n"
                    "  e ! 5\n"
                    "  w ? x\n"
                    "  s ! x\n"
                    "  n ? y\n");
    bootOccamSource(r.net, ids[1], forwarder(dir::west, dir::east, 1));
    bootOccamSource(r.net, ids[2], forwarder(dir::west, dir::east, 1));
    bootOccamSource(r.net, ids[3],
                    forwarder(dir::north, dir::south, 1));
}

/** 8-node hypercube routing one word across three dimensions. */
void
buildHypercubeRig(Rig &r)
{
    auto ids = buildHypercube(r.net, 3, r.node);
    r.console = std::make_unique<ConsoleSink>(r.net.queue(),
                                              link::WireConfig{});
    r.net.attachPeripheral(ids[7], 3, *r.console);
    bootOccamSource(r.net, ids[0],
                    "CHAN out:\nPLACE out AT LINK0OUT:\nout ! 5\n");
    bootOccamSource(r.net, ids[1], forwarder(0, 1, 1));
    bootOccamSource(r.net, ids[3], forwarder(1, 2, 1));
    bootOccamSource(r.net, ids[7],
                    "CHAN in, out:\n"
                    "PLACE in AT LINK2IN:\nPLACE out AT LINK3OUT:\n"
                    "VAR x:\n"
                    "SEQ\n"
                    "  in ? x\n"
                    "  out ! x\n");
}

RunOptions
options(int threads, Partition p, std::vector<int> custom = {})
{
    RunOptions o;
    o.threads = threads;
    o.partition = p;
    o.shardOf = std::move(custom);
    return o;
}

} // namespace

TEST(ParEquivalence, PipelineToQuiescence)
{
    checkEquivalence(buildPipelineRig, maxTick,
                     options(2, Partition::Contiguous),
                     "pipeline contiguous/2");
    checkEquivalence(buildPipelineRig, maxTick,
                     options(4, Partition::Striped),
                     "pipeline striped/4");
    checkEquivalence(buildPipelineRig, maxTick,
                     options(2, Partition::Custom, {0, 1, 0, 1}),
                     "pipeline custom alternating");
    checkEquivalence(buildPipelineRig, maxTick,
                     options(1, Partition::Contiguous),
                     "pipeline single shard");
}

TEST(ParEquivalence, PipelineBoundedMidFlight)
{
    // cut the run off mid-protocol: the migrated-back event queue,
    // run-ahead horizon and clock hand-off must all line up exactly
    for (Tick limit : {50'000, 200'000, 1'000'000}) {
        checkEquivalence(buildPipelineRig, limit,
                         options(2, Partition::Contiguous),
                         "pipeline bounded t=" +
                             std::to_string(limit));
        checkEquivalence(buildPipelineRig, limit,
                         options(4, Partition::Striped),
                         "pipeline bounded striped t=" +
                             std::to_string(limit));
    }
}

TEST(ParEquivalence, RingToQuiescence)
{
    checkEquivalence(buildRingRig, maxTick,
                     options(2, Partition::Contiguous),
                     "ring contiguous/2");
    checkEquivalence(buildRingRig, maxTick,
                     options(4, Partition::Striped), "ring striped/4");
}

TEST(ParEquivalence, GridSerpentine)
{
    auto grid = [](Rig &r) { buildGridRig(r, 4, 3, 2); };
    checkEquivalence(grid, maxTick, options(3, Partition::Contiguous),
                     "grid contiguous/3");
    checkEquivalence(grid, maxTick, options(4, Partition::Striped),
                     "grid striped/4");
    checkEquivalence(
        grid, maxTick,
        options(2, Partition::Custom,
                {0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 0}),
        "grid custom checkerboard");
}

TEST(ParEquivalence, TorusWrapLinks)
{
    checkEquivalence(buildTorusRig, maxTick,
                     options(2, Partition::Contiguous),
                     "torus contiguous/2");
    checkEquivalence(buildTorusRig, maxTick,
                     options(3, Partition::Striped), "torus striped/3");
}

TEST(ParEquivalence, HypercubeDimensionRoute)
{
    checkEquivalence(buildHypercubeRig, maxTick,
                     options(2, Partition::Contiguous),
                     "hypercube contiguous/2");
    checkEquivalence(buildHypercubeRig, maxTick,
                     options(4, Partition::Striped),
                     "hypercube striped/4");
}

TEST(ParEquivalence, TopologiesWithPredecodeDisabled)
{
    // every topology once more with the predecode cache off: the
    // serial/parallel guarantee must not depend on the interpreter
    // fast path
    auto grid = [](Rig &r) { buildGridRig(r, 4, 3, 2); };
    checkEquivalence(buildPipelineRig, maxTick,
                     options(2, Partition::Contiguous),
                     "pipeline no-predecode", false);
    checkEquivalence(buildRingRig, maxTick,
                     options(2, Partition::Contiguous),
                     "ring no-predecode", false);
    checkEquivalence(grid, maxTick, options(3, Partition::Contiguous),
                     "grid no-predecode", false);
    checkEquivalence(buildTorusRig, maxTick,
                     options(2, Partition::Contiguous),
                     "torus no-predecode", false);
    checkEquivalence(buildHypercubeRig, maxTick,
                     options(2, Partition::Contiguous),
                     "hypercube no-predecode", false);
}

TEST(ParEquivalence, RepeatedParallelRunsAreIdentical)
{
    // two independent parallel runs must agree with each other (and,
    // via the other tests, with the serial run)
    Rig a, b;
    buildGridRig(a, 4, 3, 2);
    buildGridRig(b, 4, 3, 2);
    const auto opts = options(4, Partition::Striped);
    a.net.run(maxTick, opts);
    b.net.run(maxTick, opts);
    expectSameNetworks(a.net, b.net, "parallel repeatability");
    EXPECT_EQ(a.console->bytes(), b.console->bytes());
}

TEST(ParEquivalence, DbSearch128Nodes)
{
    auto make = [] {
        apps::DbSearchConfig cfg;
        cfg.width = 16;
        cfg.height = 8;
        cfg.recordsPerNode = 40;
        return std::make_unique<apps::DbSearch>(cfg);
    };
    auto serial = make();
    auto parallel = make();
    for (Word key : {7u, 13u}) {
        serial->inject(key);
        parallel->inject(key);
    }
    const Tick start = serial->network().queue().now();
    ASSERT_EQ(start, parallel->network().queue().now());
    const Tick limit = start + 5'000'000; // 5 ms: ample for 2 answers
    serial->network().run(limit);
    par::RunStats stats;
    par::runParallel(parallel->network(), limit,
                     options(4, Partition::Contiguous), &stats);

    ASSERT_EQ(serial->answers().size(), 2u);
    ASSERT_EQ(parallel->answers().size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(serial->answers()[i].count,
                  parallel->answers()[i].count);
        EXPECT_EQ(serial->answers()[i].when,
                  parallel->answers()[i].when);
        EXPECT_EQ(serial->answers()[i].count,
                  serial->expectedCount(i == 0 ? 7u : 13u));
    }
    expectSameNetworks(serial->network(), parallel->network(),
                       "dbsearch 16x8");
    EXPECT_EQ(stats.shards.size(), 4u);
    EXPECT_GT(stats.rounds, 0u);
    // shard-pair closure windows without the step credit took
    // 1,980 rounds here: busy CPUs publish their reach a
    // commSuspend past their next step, as the serial bound credits it
    EXPECT_LE(stats.rounds, 1980u);
    EXPECT_GT(stats.totalEvents(), 0u);
    EXPECT_EQ(stats.lookahead, 200); // default wire, 2 bit times
}

TEST(ParStats, ShardQueueCountsMergeIntoTheMasterQueue)
{
    // after a sharded run the master queue's statistics cover the
    // shards' dispatches (Network::dumpMetrics reads them)
    Rig r;
    buildGridRig(r, 4, 3, 2);
    const sim::EventQueue::Stats before = r.net.queue().stats();
    par::RunStats stats;
    par::runParallel(r.net, maxTick, options(4, Partition::Contiguous),
                     &stats);
    const sim::EventQueue::Stats after = r.net.queue().stats();
    ASSERT_EQ(stats.shards.size(), 4u);
    EXPECT_GT(stats.totalEvents(), 0u);
    EXPECT_EQ(after.dispatched - before.dispatched, stats.totalEvents());
    EXPECT_EQ(after.dispatchedSteps + after.dispatchedStatic +
                  after.dispatchedTyped + after.dispatchedClosure,
              after.dispatched);
    EXPECT_GT(after.boundsComputed, before.boundsComputed);
    EXPECT_GE(after.highWater, before.highWater);
}

TEST(ParFailure, GuestErrorOnAShardFailsAsTheSerialRunDoes)
{
    // a guest undefined operation on a node of shard 1: the parallel
    // run must fail with the serial run's exception, on the caller's
    // thread, and leave a network that can still be destroyed
    const auto build = [](Network &net) {
        buildPipeline(net, 4);
        for (int i = 0; i < 4; ++i) {
            auto &t = net.node(i);
            const std::string bad =
                i == 3 ? "  .byte #2F, #FF\n" : ""; // opr #FF
            const auto img = tasm::assemble(
                "start:\n ldc 200\n stl 1\n"
                "spin:\n ldl 1\n adc -1\n stl 1\n ldl 1\n cj done\n"
                " j spin\n"
                "done:\n" + bad + " stopp\n",
                t.memory().memStart(), t.shape());
            net.bootImage(i, img);
        }
    };
    std::string serial_what;
    {
        Network net;
        build(net);
        try {
            net.run();
        } catch (const SimFatal &e) {
            serial_what = e.what();
        }
    }
    ASSERT_FALSE(serial_what.empty()) << "the serial run did not fail";
    Network net;
    build(net);
    RunOptions opts;
    opts.threads = 2;
    ASSERT_EQ(par::computePartition(4, opts)[3], 1);
    std::string parallel_what;
    try {
        net.run(maxTick, opts);
    } catch (const SimFatal &e) {
        parallel_what = e.what();
    }
    EXPECT_EQ(parallel_what, serial_what);
    // every node is back on the master queue
    EXPECT_EQ(&net.node(3).queue(), &net.queue());
}
