/**
 * @file
 * Checkpoint/restore (src/snap): the round-trip oracle.  Run a
 * workload to a point, capture, restore into a fresh network and
 * continue; the continuation must match the uninterrupted run on
 * every architectural field -- including with faults armed, across
 * the wire format, and when the capture is taken by the parallel
 * engine at a window barrier (src/par).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"
#include "apps/flood.hh"
#include "fault/fault.hh"
#include "par/parallel_engine.hh"
#include "par/snap_par.hh"
#include "snap/snapshot.hh"
#include "tasm/assembler.hh"

using namespace transputer;

namespace
{

/** The E7 MIPS loop on one node (same program as bench_interp). */
std::string
e7Loop(int iterations)
{
    std::string body;
    for (int r = 0; r < 6; ++r)
        body += "  ldc 5\n stl 1\n adc 3\n stl 2\n ldc 9\n"
                "  adc 1\n stl 3\n ldlp 4\n stl 4\n";
    return "start:\n"
           "  ldc " + std::to_string(iterations) + "\n stl 30\n"
           "outer:\n" + body +
           "  ldl 30\n adc -1\n stl 30\n"
           "  ldl 30\n cj done\n  j outer\n"
           "done: stopp\n";
}

std::unique_ptr<net::Network>
buildE7(bool predecode = true)
{
    auto n = std::make_unique<net::Network>();
    core::Config cfg;
    cfg.predecode = predecode;
    const int id = n->addTransputer(cfg, "e7");
    core::Transputer &t = n->node(id);
    const tasm::Image img = tasm::assemble(
        e7Loop(50'000), t.memory().memStart(), t.shape());
    n->bootImage(id, img);
    return n;
}

/** A 3x3 search array with four queries injected.  Member order
 *  matters: the injector must not outlive the network it armed, so it
 *  is declared last (destroyed first). */
struct DbRig
{
    std::unique_ptr<apps::DbSearch> db;
    fault::FaultPlan plan;
    fault::FaultInjector injector;

    DbRig(bool faulty, bool arm)
    {
        apps::DbSearchConfig cfg;
        cfg.width = 3;
        cfg.height = 3;
        if (faulty)
            cfg.linkWatchdog = 200'000;
        db = std::make_unique<apps::DbSearch>(cfg);
        for (int q = 0; q < 4; ++q)
            db->inject(static_cast<Word>(7 * q + 3));
        if (faulty) {
            plan.seed = 17;
            plan.allLines.dataLoss = 0.02;
            plan.allLines.ackLoss = 0.02;
            if (arm)
                injector.arm(db->network(), plan);
        }
    }

    net::Network &net() { return db->network(); }
};

void
expectIdentical(const snap::Snapshot &a, const snap::Snapshot &b,
                const snap::DiffOptions &opts = {})
{
    const auto d = snap::firstDivergence(a, b, opts);
    if (d)
        FAIL() << "diverged at " << d->where << ": " << d->a
               << " != " << d->b;
}

} // namespace

// ---------------------------------------------------------------------
// round-trip identity, serial
// ---------------------------------------------------------------------

TEST(SnapRoundTrip, ImmediateRecaptureIsBitExact)
{
    auto a = buildE7();
    a->run(3'000'000);
    const snap::Snapshot s = snap::capture(*a);

    auto b = snap::buildNetwork(s);
    snap::restore(*b, s);
    // nothing ran in between: even the cache statistics must match
    // (importSnap restores them), with zero diff options
    expectIdentical(s, snap::capture(*b));
}

TEST(SnapRoundTrip, E7ContinuationMatchesUninterrupted)
{
    auto a = buildE7();
    a->run(3'000'000);
    const snap::Snapshot s = snap::capture(*a);

    auto b = snap::buildNetwork(s);
    snap::restore(*b, s);
    const uint64_t dispatched0 = b->queue().dispatched();

    a->run(9'000'000);
    b->run(9'000'000);

    // the restored run re-decodes the dropped predecode cache, so
    // only its cache statistics may differ
    snap::DiffOptions opts;
    opts.ignoreCacheStats = true;
    expectIdentical(snap::capture(*a), snap::capture(*b), opts);
    // and it must dispatch exactly the events of the continuation:
    // same count on the restored queue as the baseline's delta would
    // not hold unless the event sequences were identical
    EXPECT_GT(b->queue().dispatched(), dispatched0);
}

TEST(SnapRoundTrip, FloodCapturedInsideAWaveMatchesUninterrupted)
{
    // a clean serial 8x8 flood moves its messages as link bursts;
    // every run(limit) must leave none open, so a capture after it,
    // restored and continued, matches a run that made the same
    // run(limit) calls without capturing -- scheduler seqs included
    apps::FloodConfig cfg;
    cfg.width = 8;
    cfg.height = 8;
    apps::Flood plain(cfg), captured(cfg);
    const Tick t0 = plain.network().queue().now();
    std::vector<Tick> cuts;
    for (int k = 1; k <= 10; ++k)
        cuts.push_back(t0 + k * 15'000 + 3'357);
    const Tick end = t0 + 1'000'000;
    plain.inject(5);
    captured.inject(5);
    std::vector<snap::Snapshot> snaps;
    snap::SaveOptions so;
    so.peripherals = {&captured.host()};
    for (const Tick t : cuts) {
        plain.network().run(t);
        captured.network().run(t);
        snaps.push_back(snap::capture(captured.network(), so));
    }
    plain.network().run(end);
    captured.network().run(end);
    ASSERT_EQ(plain.answers().size(), 1u);
    EXPECT_EQ(plain.answers()[0].count, plain.expectedCount());
    EXPECT_GT(plain.network().bursts().opened(), 0u);
    snap::SaveOptions po;
    po.peripherals = {&plain.host()};
    const snap::Snapshot want = snap::capture(plain.network(), po);
    expectIdentical(want, snap::capture(captured.network(), so));
    snap::DiffOptions opts;
    opts.ignoreCacheStats = true; // a restored node re-decodes
    for (size_t i = 0; i < snaps.size(); ++i) {
        SCOPED_TRACE("capture " + std::to_string(i));
        apps::Flood resumed(cfg);
        snap::RestoreOptions ro;
        ro.peripherals = {&resumed.host()};
        snap::restore(resumed.network(), snaps[i], ro);
        for (size_t j = i + 1; j < cuts.size(); ++j)
            resumed.network().run(cuts[j]);
        resumed.network().run(end);
        snap::SaveOptions ro_save;
        ro_save.peripherals = {&resumed.host()};
        expectIdentical(want, snap::capture(resumed.network(), ro_save),
                        opts);
    }
}

TEST(SnapRoundTrip, WireFormatRoundTrips)
{
    auto a = buildE7();
    a->run(2'000'000);
    const snap::Snapshot s = snap::capture(*a);

    const std::vector<uint8_t> bytes = snap::encode(s);
    const snap::Snapshot back = snap::decode(bytes);
    expectIdentical(s, back);
    // deterministic encoding: re-encode reproduces the same bytes
    EXPECT_EQ(bytes, snap::encode(back));
}

TEST(SnapRoundTrip, DbSearchWithFaultsMatchesUninterrupted)
{
    DbRig a(true, true);
    const Tick t0 = a.net().queue().now();
    a.net().run(t0 + 600'000);

    snap::SaveOptions so;
    so.peripherals.push_back(&a.db->host());
    so.fault = &a.injector;
    const snap::Snapshot s = snap::capture(a.net(), so);

    // fresh array, injector built but NOT armed: restore() re-arms it
    // with the saved PRNG streams
    DbRig b(true, false);
    snap::RestoreOptions ro;
    ro.peripherals.push_back(&b.db->host());
    ro.fault = &b.injector;
    ro.plan = &b.plan;
    snap::restore(b.net(), s, ro);

    a.net().run(t0 + 4'000'000);
    b.net().run(t0 + 4'000'000);

    snap::DiffOptions opts;
    opts.ignoreCacheStats = true;
    snap::SaveOptions so_b;
    so_b.peripherals.push_back(&b.db->host());
    so_b.fault = &b.injector;
    expectIdentical(snap::capture(a.net(), so),
                    snap::capture(b.net(), so_b), opts);
    // the host peripheral's byte stream (the answers) matched too, as
    // part of the peripheral blob; check the decoded words as well
    EXPECT_EQ(a.db->host().words(4), b.db->host().words(4));
}

// ---------------------------------------------------------------------
// parallel capture (src/par)
// ---------------------------------------------------------------------

TEST(SnapPar, BarrierCaptureEqualsSerialCapture)
{
    // same network, same instant: the sharded capture must produce
    // exactly the snapshot the serial walk produces
    DbRig rig(false, false);
    const Tick t0 = rig.net().queue().now();
    rig.net().run(t0 + 600'000);

    snap::SaveOptions so;
    so.peripherals.push_back(&rig.db->host());
    const snap::Snapshot serial = snap::capture(rig.net(), so);
    net::RunOptions opts;
    opts.threads = 4;
    const snap::Snapshot sharded =
        par::captureAtBarrier(rig.net(), opts, so);
    expectIdentical(serial, sharded);
    EXPECT_EQ(snap::encode(serial), snap::encode(sharded));
}

TEST(SnapPar, ParallelRunRoundTripMatchesSerialBaseline)
{
    // run under the parallel engine, capture, restore, continue
    // serially; baseline: uninterrupted serial run.  Architectural
    // state must match; scheduler bookkeeping (selfSeq et al) depends
    // on the engine's batching and is excluded.
    DbRig a(false, false);
    const Tick t0 = a.net().queue().now();
    net::RunOptions ropts;
    ropts.threads = 4;
    a.net().run(t0 + 600'000, ropts);

    snap::SaveOptions so_a;
    so_a.peripherals.push_back(&a.db->host());
    const snap::Snapshot s =
        par::captureAtBarrier(a.net(), ropts, so_a);

    DbRig c(false, false);
    snap::RestoreOptions ro;
    ro.peripherals.push_back(&c.db->host());
    snap::restore(c.net(), s, ro);
    c.net().run(t0 + 4'000'000);

    DbRig b(false, false);
    b.net().run(t0 + 4'000'000);

    snap::DiffOptions opts;
    opts.ignoreCacheStats = true;
    opts.ignoreSchedulerSeqs = true;
    snap::SaveOptions so_b;
    so_b.peripherals.push_back(&b.db->host());
    snap::SaveOptions so_c;
    so_c.peripherals.push_back(&c.db->host());
    expectIdentical(snap::capture(b.net(), so_b),
                    snap::capture(c.net(), so_c), opts);
    EXPECT_EQ(b.db->host().words(4), c.db->host().words(4));
}

// ---------------------------------------------------------------------
// diff localization
// ---------------------------------------------------------------------

TEST(SnapDiff, PinpointsInjectedFieldDivergence)
{
    auto a = buildE7();
    a->run(2'000'000);
    snap::Snapshot s = snap::capture(*a);
    snap::Snapshot t = s;
    t.states[0].cpu.areg ^= 1;

    const auto d = snap::firstDivergence(s, t);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->where, "node0.cpu.areg");

    // and a memory-byte divergence names the page
    snap::Snapshot u = s;
    ASSERT_FALSE(u.states[0].pages.empty());
    u.states[0].pages[0].bytes[0] ^= 0xFF;
    const auto dm = snap::firstDivergence(s, u);
    ASSERT_TRUE(dm.has_value());
    EXPECT_EQ(dm->where.rfind("node0.page", 0), 0u) << dm->where;
}

TEST(SnapDiff, IdenticalSnapshotsReportNoDivergence)
{
    auto a = buildE7();
    a->run(1'000'000);
    const snap::Snapshot s = snap::capture(*a);
    EXPECT_FALSE(snap::firstDivergence(s, s).has_value());
    EXPECT_TRUE(snap::divergences(s, s).empty());
}
