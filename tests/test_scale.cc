/**
 * @file
 * Scale-regime coverage for the epoch-window parallel engine, the
 * per-node lookahead and the compact node state: serial-vs-parallel
 * bit-equality on a ~1k-node torus (the flood/reduce workload,
 * src/apps/flood.hh), the same with link faults injected, how far a
 * serial run of that size batches CPU instructions, and the per-node
 * host-memory budget the 100k runs depend on.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "apps/flood.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"
#include "par/parallel_engine.hh"
#include "snap/snapshot.hh"

using namespace transputer;

namespace
{

constexpr int kW = 32, kH = 32; // 1024 nodes
constexpr Tick kLimit = 60'000'000'000;

/** FNV-1a over a node's full logical memory image (lazily backed
 *  pages read as zero, so this also exercises the compact path). */
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

std::unique_ptr<apps::Flood>
makeFlood()
{
    apps::FloodConfig cfg;
    cfg.width = kW;
    cfg.height = kH;
    cfg.wrap = true; // torus wrap links change the shard adjacency
    return std::make_unique<apps::Flood>(cfg);
}

/** Architectural equality, node by node, plus the answer stream. */
void
expectSameFlood(apps::Flood &a, apps::Flood &b, const std::string &what)
{
    SCOPED_TRACE(what);
    net::Network &na = a.network(), &nb = b.network();
    EXPECT_EQ(na.queue().now(), nb.queue().now());
    ASSERT_EQ(na.size(), nb.size());
    for (size_t i = 0; i < na.size(); ++i) {
        if (!obs::sameArchitectural(
                na.nodeCounters(static_cast<int>(i)),
                nb.nodeCounters(static_cast<int>(i)))) {
            ADD_FAILURE() << what << ": counters diverge at node " << i;
            return;
        }
        if (memHash(na.node(static_cast<int>(i))) !=
            memHash(nb.node(static_cast<int>(i)))) {
            ADD_FAILURE() << what << ": memory diverges at node " << i;
            return;
        }
    }
    EXPECT_EQ(a.host().bytes(), b.host().bytes());
}

} // namespace

TEST(ScaleFlood, TorusSerialVsParallelBitIdentical)
{
    auto serial = makeFlood();
    auto parallel = makeFlood();
    ASSERT_EQ(serial->network().queue().now(),
              parallel->network().queue().now());
    // both sides run the identical protocol: same absolute limit,
    // one wave, to quiescence (a flood network goes idle once the
    // total reaches the host)
    const Tick limit = serial->network().queue().now() + 20'000'000;

    serial->inject(1);
    serial->network().run(limit);

    parallel->inject(1);
    net::RunOptions opts;
    opts.threads = 4;
    par::RunStats stats;
    par::runParallel(parallel->network(), limit, opts, &stats);

    ASSERT_EQ(serial->answers().size(), 1u);
    EXPECT_EQ(serial->answers().back().count, serial->expectedCount());
    expectSameFlood(*serial, *parallel, "1k torus flood");
    EXPECT_TRUE(stats.epochWindows);
    EXPECT_GT(stats.rounds, 0u);
    EXPECT_GT(stats.barriers, 0u);

    // the snapshot oracle: the full architectural state serializes
    // to the same bytes.  Only the scheduler sequence tags and the
    // acceleration-cache statistics may differ: both depend on how
    // the run was batched, not on what it computed.
    snap::SaveOptions so_a, so_b;
    so_a.peripherals = {&serial->host()};
    so_b.peripherals = {&parallel->host()};
    snap::DiffOptions diff;
    diff.ignoreCacheStats = true;
    diff.ignoreSchedulerSeqs = true;
    const auto d =
        snap::firstDivergence(snap::capture(serial->network(), so_a),
                              snap::capture(parallel->network(), so_b),
                              diff);
    if (d)
        FAIL() << "snapshots diverge at " << d->where << ": " << d->a
               << " != " << d->b;
}

TEST(ScaleFlood, EpochWindowsMatchLegacyWithFewerRounds)
{
    auto epoch = makeFlood();
    auto legacy = makeFlood();

    for (auto *f : {epoch.get(), legacy.get()})
        f->inject(1);

    net::RunOptions opts;
    opts.threads = 4;
    par::RunStats se, sl;
    opts.epochWindows = true;
    par::runParallel(epoch->network(),
                     epoch->network().queue().now() + kLimit, opts,
                     &se);
    opts.epochWindows = false;
    par::runParallel(legacy->network(),
                     legacy->network().queue().now() + kLimit, opts,
                     &sl);

    expectSameFlood(*epoch, *legacy, "epoch vs legacy windows");
    // every epoch window contains the legacy window that the same
    // published next-event times would produce, so batching can only
    // reduce the round count
    EXPECT_LE(se.rounds, sl.rounds);
    EXPECT_GT(epoch->answers().size(), 0u);
}

TEST(ScaleFlood, SerialLookaheadBatchesLargeNetworks)
{
    // 1024 nodes, serially: each node's CPU bounds its run-ahead by
    // its own and its in-neighbours' events only, so nodes far apart
    // no longer cut each other's instruction batches short
    apps::FloodConfig cfg; // 32x32 grid, settled by the constructor
    cfg.width = kW;
    cfg.height = kH;
    apps::Flood flood(cfg);
    net::Network &net = flood.network();
    const sim::EventQueue::Stats settled = net.queue().stats();
    EXPECT_LE(settled.dispatchedSteps, 2 * net.size());

    const Tick injected = net.queue().now();
    const uint64_t bytes0 = net.counters().linkBytesOut;
    flood.inject(1);
    flood.runUntilAnswers(1, kLimit);
    ASSERT_EQ(flood.answers().size(), 1u);
    EXPECT_EQ(flood.answers()[0].count, flood.expectedCount());
    // how far CPUs batch ahead is invisible to the guest: the answer
    // lands as long after the inject as it always has
    EXPECT_EQ(flood.answers()[0].when - injected, 924'900);
    const uint64_t steps =
        net.queue().stats().dispatchedSteps - settled.dispatchedSteps;
    const uint64_t bytes = net.counters().linkBytesOut - bytes0;
    EXPECT_EQ(bytes, 8188u);
    EXPECT_LE(steps * 5, bytes * 6) << steps << " steps"; // <= 1.2/byte
}

TEST(ScaleFlood, SerialClocksOfSmallNetworksStayPut)
{
    // A run to quiescence ends at the last event it dispatched, and
    // CPU batching decides when that is (ROADMAP, Correctness), so a
    // change of lookahead could move these clocks.  Up to 256 nodes,
    // where the serial queue already had lookahead, they are pinned:
    // the settle clock, and the absolute time the first wave answers.
    struct Case
    {
        int w, h;
        Tick answer;
    };
    for (const Case &c : {Case{4, 4, 100'250}, Case{16, 8, 357'450},
                          Case{16, 16, 454'250}}) {
        SCOPED_TRACE(std::to_string(c.w) + "x" + std::to_string(c.h));
        apps::FloodConfig cfg;
        cfg.width = c.w;
        cfg.height = c.h;
        apps::Flood flood(cfg);
        EXPECT_EQ(flood.network().queue().now(), 1'350);
        flood.inject(1);
        flood.runUntilAnswers(1, kLimit);
        ASSERT_EQ(flood.answers().size(), 1u);
        EXPECT_EQ(flood.answers()[0].count, flood.expectedCount());
        EXPECT_EQ(flood.answers()[0].when, c.answer);
    }
}

TEST(ScaleFlood, CompactNodeStateStaysSmall)
{
    // a wired but never-booted node: the cost of an idle transputer
    net::Network bare;
    net::buildGrid(bare, 8, 8, apps::FloodConfig::scaleNodeConfig());
    for (size_t i = 0; i < bare.size(); ++i)
        EXPECT_LE(bare.node(static_cast<int>(i)).footprintBytes(),
                  size_t{1024})
            << "idle node " << i;

    // after executing a whole wave, the budget still holds
    apps::FloodConfig cfg;
    cfg.width = 16;
    cfg.height = 16;
    apps::Flood flood(cfg);
    flood.inject(1);
    flood.runUntilAnswers(1, kLimit);
    ASSERT_EQ(flood.answers().size(), 1u);
    EXPECT_EQ(flood.answers().back().count, flood.expectedCount());
    for (size_t i = 0; i < flood.network().size(); ++i)
        EXPECT_LE(
            flood.network().node(static_cast<int>(i)).footprintBytes(),
            size_t{1024})
            << "node " << i << " after the wave";
}

// ---------------------------------------------------------------------
// fault-injected variant: lossy links, watchdog recovery
// ---------------------------------------------------------------------

TEST(ScaleFloodFault, LossySerialVsParallelBitIdentical)
{
    // the flood program has no retry layer, so injected losses stall
    // subtrees until the link watchdogs abandon the transfers; the
    // wave's total may then be anything, but serial and parallel runs
    // must agree on it (and on every node) bit for bit
    auto run = [](bool parallel) {
        auto flood = makeFlood();
        flood->network().setLinkWatchdogs(200'000);
        fault::FaultPlan plan;
        plan.seed = 23;
        plan.allLines.dataLoss = 0.01;
        plan.allLines.ackLoss = 0.01;
        fault::FaultInjector injector;
        injector.arm(flood->network(), plan);
        flood->inject(1);
        const Tick limit =
            flood->network().queue().now() + 20'000'000;
        if (parallel) {
            net::RunOptions opts;
            opts.threads = 4;
            flood->network().run(limit, opts);
        } else {
            flood->network().run(limit);
        }
        return flood;
    };
    auto serial = run(false);
    auto parallel = run(true);
    expectSameFlood(*serial, *parallel, "1k torus flood, lossy links");
}
