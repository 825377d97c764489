/**
 * @file
 * Virtual-channel routing tests: the packet codec must round-trip
 * every kind and reject every single-byte corruption, the interval
 * tables must partition the destination space, dead edges must
 * reroute deterministically, and routed fabrics must deliver exactly
 * -- bit-identically between serial and shard-parallel engines, with
 * kills resolving to reroutes or explicit undeliverable notices,
 * never to duplicates or hangs.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "apps/routedquery.hh"
#include "fault/fault.hh"
#include "net/network.hh"
#include "net/peripherals.hh"
#include "obs/counters.hh"
#include "obs/flight.hh"
#include "par/parallel_engine.hh"
#include "route/fabric.hh"
#include "route/packet.hh"
#include "route/switch.hh"
#include "route/table.hh"
#include "snap/snapshot.hh"

using namespace transputer;
using namespace transputer::route;

namespace
{

net::RunOptions
options(int threads, net::Partition p)
{
    net::RunOptions o;
    o.threads = threads;
    o.partition = p;
    return o;
}

/** A representative packet exercising every header field. */
Packet
samplePacket(Kind kind, size_t payloadLen)
{
    Packet p;
    p.kind = kind;
    p.dest = 0x1234;
    p.src = 0x0A05;
    p.vchan = 7;
    p.seq = 0xBEEF;
    p.hops = 9;
    p.hopSeq = 0xC4;
    for (size_t i = 0; i < payloadLen; ++i)
        p.payload.push_back(static_cast<uint8_t>(0x30 + i * 5));
    return p;
}

bool
samePacket(const Packet &a, const Packet &b)
{
    return a.kind == b.kind && a.dest == b.dest && a.src == b.src &&
           a.vchan == b.vchan && a.seq == b.seq && a.hops == b.hops &&
           a.hopSeq == b.hopSeq && a.payload == b.payload;
}

/** Feed a byte string; return every packet the decoder produces. */
std::vector<Packet>
feedAll(Decoder &dec, const std::vector<uint8_t> &bytes)
{
    std::vector<Packet> out;
    for (uint8_t b : bytes) {
        if (dec.feed(b))
            out.push_back(dec.packet());
        EXPECT_LE(dec.buffered().size(), kMaxWire);
    }
    return out;
}

/** Every attached peripheral in wiring order (what SaveOptions
 *  wants): non-engine endpoints, which the Network records one per
 *  attachPeripheral call and two per peripheral trunk. */
std::vector<net::Peripheral *>
allPeripherals(net::Network &net)
{
    std::vector<net::Peripheral *> out;
    for (const auto &rec : net.endpoints())
        if (auto *p = dynamic_cast<net::Peripheral *>(rec.ep))
            out.push_back(p);
    return out;
}

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

/** Architectural identity of two routed runs: clock, CPUs, memory
 *  images, answer streams, and every fabric counter. */
void
expectSameRoutedRuns(apps::RoutedQuery &a, apps::RoutedQuery &b,
                     const std::string &what)
{
    SCOPED_TRACE(what);
    EXPECT_EQ(a.network().queue().now(), b.network().queue().now());
    ASSERT_EQ(a.nodes(), b.nodes());
    for (int i = 0; i < a.nodes(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &na = a.fabric().cpu(i);
        auto &nb = b.fabric().cpu(i);
        EXPECT_EQ(na.instructions(), nb.instructions());
        EXPECT_EQ(na.killed(), nb.killed());
        EXPECT_EQ(memHash(na), memHash(nb));
        EXPECT_TRUE(obs::sameArchitectural(a.fabric().nodeCounters(i),
                                           b.fabric().nodeCounters(i)));
    }
    ASSERT_EQ(a.answers().size(), b.answers().size());
    for (size_t i = 0; i < a.answers().size(); ++i) {
        const auto &x = a.answers()[i];
        const auto &y = b.answers()[i];
        EXPECT_EQ(x.src, y.src) << "answer " << i;
        EXPECT_EQ(x.vchan, y.vchan) << "answer " << i;
        EXPECT_EQ(x.word, y.word) << "answer " << i;
        EXPECT_EQ(x.when, y.when) << "answer " << i;
    }
}

/** Snapshot both (quiescent) networks and demand field-level
 *  identity -- the strongest identity statement the repo can make.
 *  Scheduler re-arm sequence numbers are the one engine-dependent
 *  bookkeeping (the parallel engine batches differently), exactly as
 *  in test_snap's cross-engine comparisons; every architectural
 *  field, wire, peripheral blob and fault-injector RNG must match. */
void
expectSameSnapshots(apps::RoutedQuery &a, apps::RoutedQuery &b,
                    const fault::FaultInjector *fa,
                    const fault::FaultInjector *fb)
{
    ASSERT_TRUE(a.fabric().quiescent());
    ASSERT_TRUE(b.fabric().quiescent());
    snap::SaveOptions oa, ob;
    oa.fault = fa;
    ob.fault = fb;
    oa.peripherals = allPeripherals(a.network());
    ob.peripherals = allPeripherals(b.network());
    const snap::Snapshot sa = snap::capture(a.network(), oa);
    const snap::Snapshot sb = snap::capture(b.network(), ob);
    snap::DiffOptions opts;
    opts.ignoreSchedulerSeqs = true;
    opts.ignoreCacheStats = true; // fused-run counts batch-dependent
    const auto d = snap::firstDivergence(sa, sb, opts);
    EXPECT_FALSE(d.has_value())
        << d->where << ": " << d->a << " vs " << d->b;
}

} // namespace

// ---------------------------------------------------------------------
// packet codec
// ---------------------------------------------------------------------

TEST(RoutePacket, CodecRoundTripsEveryKindAndSize)
{
    const Kind kinds[] = {Kind::Data, Kind::Ack, Kind::Unreachable,
                          Kind::HopAck, Kind::LinkDown};
    const size_t sizes[] = {0, 1, 17, kMaxPayload};
    for (Kind k : kinds)
        for (size_t n : sizes) {
            const Packet p = samplePacket(k, n);
            const auto wire = encode(p);
            ASSERT_LE(wire.size(), kMaxWire);
            Decoder dec;
            const auto got = feedAll(dec, wire);
            ASSERT_EQ(got.size(), 1u)
                << "kind " << static_cast<int>(k) << " len " << n;
            EXPECT_TRUE(samePacket(got[0], p));
            EXPECT_EQ(dec.stats().packets, 1u);
            EXPECT_EQ(dec.stats().badHeader, 0u);
            EXPECT_EQ(dec.stats().badPayload, 0u);
            EXPECT_TRUE(dec.buffered().empty());
        }
}

TEST(RoutePacket, SingleByteCorruptionAlwaysRejected)
{
    // Fletcher-16's mod-255 sums see every one-byte change: no
    // single corrupted byte, at any position and with any XOR mask,
    // may ever decode -- and the stream must resynchronise on the
    // clean frame that follows.
    const Packet p = samplePacket(Kind::Data, 12);
    const auto wire = encode(p);
    const uint8_t masks[] = {0x01, 0x55, 0x80, 0xFF};
    for (size_t pos = 0; pos < wire.size(); ++pos)
        for (uint8_t m : masks) {
            auto bad = wire;
            bad[pos] ^= m;
            Decoder dec;
            const auto fromBad = feedAll(dec, bad);
            EXPECT_TRUE(fromBad.empty())
                << "corrupt byte " << pos << " mask " << int(m)
                << " decoded";
            const auto fromClean = feedAll(dec, wire);
            ASSERT_EQ(fromClean.size(), 1u)
                << "no resync after corrupt byte " << pos;
            EXPECT_TRUE(samePacket(fromClean[0], p));
        }
}

TEST(RoutePacket, ResyncsAcrossGarbageBetweenFrames)
{
    const Packet a = samplePacket(Kind::Data, 5);
    const Packet b = samplePacket(Kind::Ack, 0);
    std::vector<uint8_t> stream;
    uint64_t s = 0x9E3779B97F4A7C15ull; // deterministic garbage
    for (int i = 0; i < 64; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        stream.push_back(static_cast<uint8_t>(s));
    }
    const auto wa = encode(a), wb = encode(b);
    stream.insert(stream.end(), wa.begin(), wa.end());
    for (int i = 0; i < 32; ++i) {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        stream.push_back(static_cast<uint8_t>(s));
    }
    stream.insert(stream.end(), wb.begin(), wb.end());
    Decoder dec;
    const auto got = feedAll(dec, stream);
    // garbage may not forge packets (Fletcher makes a false accept a
    // ~2^-16 event; the stream is fixed, so this is deterministic)
    ASSERT_EQ(got.size(), 2u);
    EXPECT_TRUE(samePacket(got[0], a));
    EXPECT_TRUE(samePacket(got[1], b));
    EXPECT_GT(dec.stats().resyncBytes, 0u);
}

// ---------------------------------------------------------------------
// routing tables
// ---------------------------------------------------------------------

TEST(RouteTable, IntervalsPartitionTheDestinationSpace)
{
    const Topology topos[] = {Topology::torus(4, 4),
                              Topology::grid(3, 3),
                              Topology::hypercube(4)};
    for (const Topology &topo : topos) {
        const int n = topo.size();
        for (int self = 0; self < n; ++self) {
            RouteTable t(topo, self);
            std::vector<int> covered(static_cast<size_t>(n), 0);
            for (int port = 0; port < t.degree(); ++port)
                for (const auto &iv : t.intervals(port))
                    for (int d = iv.lo; d < iv.hi; ++d) {
                        ++covered[static_cast<size_t>(d)];
                        // the interval view must agree with the
                        // operational per-dest first choice
                        EXPECT_EQ(t.prefs(d).front(), port);
                    }
            for (int d = 0; d < n; ++d) {
                EXPECT_EQ(covered[static_cast<size_t>(d)],
                          d == self ? 0 : 1)
                    << "self " << self << " dest " << d;
                if (d != self) {
                    EXPECT_FALSE(t.prefs(d).empty());
                }
            }
        }
    }
}

TEST(RouteTable, DeadEdgesRerouteThenPartition)
{
    // torus: killing the direct edge 0-1 leaves an alternate whose
    // first hop avoids the dead edge but still reaches dest 1
    RouteTable t(Topology::torus(4, 4), 0);
    const uint8_t direct = t.prefs(1).front();
    EXPECT_EQ(t.neighborAt(direct), 1);
    t.applyDeadEdges({makeEdge(0, 1)});
    ASSERT_FALSE(t.prefs(1).empty());
    EXPECT_NE(t.neighborAt(t.prefs(1).front()), 1);
    // the pristine list is untouched: reroute accounting needs it
    EXPECT_EQ(t.basePrefs(1).front(), direct);
    // and reverting the dead set restores the original choice
    t.applyDeadEdges({});
    EXPECT_EQ(t.prefs(1).front(), direct);

    // a 3-node line loses everything behind a cut edge
    RouteTable line(Topology::grid(3, 1), 0);
    EXPECT_FALSE(line.prefs(1).empty());
    EXPECT_FALSE(line.prefs(2).empty());
    line.applyDeadEdges({makeEdge(0, 1)});
    EXPECT_TRUE(line.prefs(1).empty());
    EXPECT_TRUE(line.prefs(2).empty());
}

// ---------------------------------------------------------------------
// switch hardening
// ---------------------------------------------------------------------

TEST(RouteSwitch, WireSourcedNodeIdsAreValidated)
{
    // a corrupted frame that beats the checksum (~2^-16) may carry an
    // out-of-range destination; the switch must count it as malformed
    // rather than index its tables with it
    net::Network net;
    Fabric fab(net, Topology::torus(2, 2));
    Packet evil = samplePacket(Kind::Data, 4);
    evil.dest = 999;
    evil.src = 1;
    const uint64_t before = fab.sw(0).stats().malformed;
    fab.sw(0).onPacket(1, evil);
    EXPECT_EQ(fab.sw(0).stats().malformed, before + 1);
    evil.dest = 1;
    evil.src = 999;
    fab.sw(0).onPacket(1, evil);
    EXPECT_EQ(fab.sw(0).stats().malformed, before + 2);
    EXPECT_EQ(fab.sw(0).stats().delivered, 0u);
}

TEST(RouteSwitch, ForgedFutureSeqCannotPoisonTheDedupFilter)
{
    // the other thing a checksum-beating corruption can mangle is the
    // seq.  Stop-and-wait only ever advances by one (plus one per
    // message its sender declared undeliverable mid-flight), so a far
    // future seq is implausible; accepting it would blackhole every
    // later real message on the flow -- dup-dropped AND re-acked, so
    // the sender never learns.  The switch must drop it unacked.
    net::Network net;
    Fabric fab(net, Topology::torus(2, 2));
    Switch &sw = fab.sw(0);

    Packet p = samplePacket(Kind::Data, 4);
    p.dest = 0;
    p.src = 2;
    p.vchan = 3;
    p.seq = 0;
    sw.onPacket(1, p);
    EXPECT_EQ(sw.stats().delivered, 1u);

    Packet forged = p;
    forged.seq = 0x4000; // way past any legitimate window
    const uint64_t malformedBefore = sw.stats().malformed;
    sw.onPacket(1, forged);
    EXPECT_EQ(sw.stats().delivered, 1u) << "forged seq delivered";
    EXPECT_EQ(sw.stats().malformed, malformedBefore + 1);

    // the real flow keeps working right where it left off
    p.seq = 1;
    sw.onPacket(1, p);
    EXPECT_EQ(sw.stats().delivered, 2u)
        << "dedup filter was poisoned by the forged seq";

    // ...and a genuine duplicate is still recognised as one
    sw.onPacket(1, p);
    EXPECT_EQ(sw.stats().delivered, 2u);
    EXPECT_EQ(sw.stats().dupDrops, 1u);

    // a legitimate small jump (sender declared a message
    // undeliverable mid-flight, consuming its seq) still delivers
    p.seq = 3;
    sw.onPacket(1, p);
    EXPECT_EQ(sw.stats().delivered, 3u);
}

// ---------------------------------------------------------------------
// routed delivery
// ---------------------------------------------------------------------

TEST(RouteFabric, CleanTorusDeliversExactlyOnceWithoutRetries)
{
    apps::RoutedQueryConfig cfg; // 4x4 torus default
    apps::RoutedQuery rq(cfg);
    const Word key = 7;
    rq.queryAll(key);
    rq.runUntilAnswers(static_cast<size_t>(rq.nodes() - 1));
    ASSERT_EQ(rq.answers().size(), static_cast<size_t>(rq.nodes() - 1));
    EXPECT_EQ(rq.undeliverables(), 0u);
    std::set<Word> seen;
    for (const auto &a : rq.answers()) {
        EXPECT_EQ(a.vchan, 0);
        EXPECT_EQ(a.word, key + 1);
        EXPECT_TRUE(seen.insert(a.src).second)
            << "duplicate reply from " << a.src;
    }
    const obs::Counters c = rq.fabric().counters();
    // a clean wire needs none of the recovery machinery
    EXPECT_EQ(c.routeRetransmits, 0u);
    EXPECT_EQ(c.routeHopRetransmits, 0u);
    EXPECT_EQ(c.routeHopDrops, 0u);
    EXPECT_EQ(c.routeDupDrops, 0u);
    EXPECT_EQ(c.routeReroutes, 0u);
    EXPECT_EQ(c.routeLinkFloods, 0u);
    EXPECT_EQ(c.routeUndeliverable, 0u);
    // every query and every reply was delivered through a host port
    EXPECT_EQ(c.routeDelivered, 2u * (rq.nodes() - 1));
    EXPECT_GT(c.routeForwards, 0u);
}

TEST(RouteFabric, SerialVsParallelBitIdenticalClean)
{
    const Tick limit = 2'000'000'000;
    apps::RoutedQueryConfig cfg;
    apps::RoutedQuery serial(cfg), parallel(cfg);
    serial.queryAll(3);
    serial.network().run(limit);
    parallel.queryAll(3);
    parallel.network().run(limit,
                           options(4, net::Partition::Contiguous));
    expectSameRoutedRuns(serial, parallel, "clean 4x4 torus");
    EXPECT_EQ(serial.replies(), static_cast<size_t>(serial.nodes() - 1));
    expectSameSnapshots(serial, parallel, nullptr, nullptr);
}

namespace
{

/** Loss + corruption on every trunk line of a fabric. */
void
faultAllTrunks(fault::FaultPlan &plan, Fabric &fab, double dataLoss,
               double ackLoss, double corrupt)
{
    for (int a = 0; a < fab.topo().size(); ++a)
        for (const int b : fab.topo().ports[a])
            if (a < b) {
                fault::LineFaultConfig &f =
                    plan.line(fab.netNode(a), fab.netNode(b));
                f.dataLoss = dataLoss;
                f.ackLoss = ackLoss;
                f.corrupt = corrupt;
                plan.line(fab.netNode(b), fab.netNode(a)) = f;
            }
}

} // namespace

TEST(RouteFabric, SerialVsParallelBitIdenticalUnderFaults)
{
    const Tick limit = 20'000'000'000;
    auto makePlan = [](apps::RoutedQuery &rq) {
        fault::FaultPlan plan;
        plan.seed = 99;
        faultAllTrunks(plan, rq.fabric(), 0.05, 0.03, 0.005);
        plan.node(rq.fabric().netNode(5)).killAt = 300'000;
        return plan;
    };
    apps::RoutedQueryConfig cfg;
    apps::RoutedQuery serial(cfg), parallel(cfg);
    fault::FaultInjector is, ip;
    is.arm(serial.network(), makePlan(serial));
    ip.arm(parallel.network(), makePlan(parallel));
    serial.queryAll(11);
    serial.network().run(limit);
    parallel.queryAll(11);
    parallel.network().run(limit,
                           options(4, net::Partition::Contiguous));
    expectSameRoutedRuns(serial, parallel,
                         "faulty 4x4 torus with a kill");
    // the plan actually bit
    EXPECT_GT(is.stats().dataDropped, 0u);
    EXPECT_TRUE(serial.fabric().cpu(5).killed());
    EXPECT_TRUE(parallel.fabric().cpu(5).killed());
    expectSameSnapshots(serial, parallel, &is, &ip);
}

TEST(RouteFabric, KillMidRunReroutesAndResolvesEveryQuery)
{
    apps::RoutedQueryConfig cfg;
    apps::RoutedQuery rq(cfg);
    const int victim = 5;
    fault::FaultPlan plan;
    plan.node(rq.fabric().netNode(victim)).killAt =
        rq.network().queue().now() + 100'000;
    fault::FaultInjector injector;
    injector.arm(rq.network(), plan);

    const Word key1 = 20, key2 = 40;
    rq.queryAll(key1); // first wave races the kill
    rq.network().run(rq.network().queue().now() + 10'000'000'000);
    ASSERT_TRUE(rq.fabric().cpu(victim).killed());
    rq.queryAll(key2); // second wave crosses the converged tables
    rq.network().run(rq.network().queue().now() + 10'000'000'000);

    // per-node resolution accounting, per wave
    std::map<Word, int> w1, w2, notices;
    for (const auto &a : rq.answers()) {
        if (a.vchan == 0 && a.word == key1 + 1)
            ++w1[a.src];
        else if (a.vchan == 0 && a.word == key2 + 1)
            ++w2[a.src];
        else if (a.vchan == route::kCtrlVchan)
            ++notices[a.src];
        else
            FAIL() << "corrupt answer from " << a.src << ": "
                   << a.word;
    }
    for (int t = 1; t < rq.nodes(); ++t) {
        if (t == victim)
            continue;
        EXPECT_EQ(w1[t], 1) << "wave 1, node " << t;
        EXPECT_EQ(w2[t], 1) << "wave 2, node " << t;
    }
    // the victim: wave 1 raced the kill (reply or notice or nothing,
    // never both); wave 2 met converged tables -- the root itself
    // sees no route, so a notice is guaranteed and immediate
    EXPECT_LE(w1[victim], 1);
    EXPECT_EQ(w2[victim], 0);
    EXPECT_GE(notices[victim], 1);
    EXPECT_LE(notices[victim], 2);

    const obs::Counters c = rq.fabric().counters();
    EXPECT_GT(c.routeLinkFloods, 0u); // neighbours flooded the edges
    EXPECT_GT(c.routeReroutes, 0u);   // traffic took alternates
    // dead-edge state converged everywhere: every live switch knows
    // all four of the victim's edges, so its tables route around it
    for (int i = 0; i < rq.nodes(); ++i) {
        if (i == victim)
            continue;
        const RouteTable &t = rq.fabric().sw(i).table();
        EXPECT_TRUE(t.prefs(victim).empty())
            << "node " << i << " still routes toward the corpse";
    }
}

TEST(RouteFabric, PartitionedDestinationResolvesDeterministically)
{
    // 0 -- 1 -- 2: killing the middle node partitions the root from
    // node 2.  The contract: an explicit, deterministic undeliverable
    // notice, never a hang.  Run the scenario twice and demand the
    // identical answer stream, tick for tick.
    auto scenario = [](apps::RoutedQuery &rq,
                       fault::FaultInjector &injector) {
        fault::FaultPlan plan;
        plan.node(rq.fabric().netNode(1)).killAt =
            rq.network().queue().now() + 200'000;
        injector.arm(rq.network(), plan);
        rq.inject(2, 5); // pre-kill: crosses the middle, answers
        rq.network().run(rq.network().queue().now() + 5'000'000'000);
        rq.inject(2, 9); // post-kill: partitioned
        rq.network().run(rq.network().queue().now() + 30'000'000'000);
    };
    apps::RoutedQueryConfig cfg;
    cfg.topo = Topology::grid(3, 1);
    apps::RoutedQuery a(cfg), b(cfg);
    fault::FaultInjector ia, ib;
    scenario(a, ia);
    scenario(b, ib);

    ASSERT_EQ(a.answers().size(), 2u) << "partition hung or doubled";
    EXPECT_EQ(a.answers()[0].vchan, 0);
    EXPECT_EQ(a.answers()[0].src, 2);
    EXPECT_EQ(a.answers()[0].word, 6);
    EXPECT_EQ(a.answers()[1].vchan, route::kCtrlVchan);
    EXPECT_EQ(a.answers()[1].src, 2); // names the unreachable dest
    expectSameRoutedRuns(a, b, "partitioned 3-node line");
    // at least the root's failed flow; node 2's reply flow may add
    // one more if the kill beat the end-to-end ack home (delivered,
    // but the sender can no longer learn that)
    EXPECT_GE(a.fabric().counters().routeUndeliverable, 1u);
    EXPECT_LE(a.fabric().counters().routeUndeliverable, 2u);
}

TEST(RouteFabric, HypercubeFloodSurvivesLossAndAKill)
{
    // dbsearch flavour on the 16-node hypercube: every terminal is
    // queried under byte loss and corruption while an interior node
    // dies; exactness must hold for every survivor
    apps::RoutedQueryConfig cfg;
    cfg.topo = Topology::hypercube(4);
    apps::RoutedQuery rq(cfg);
    fault::FaultPlan plan;
    plan.seed = 7;
    faultAllTrunks(plan, rq.fabric(), 0.05, 0.03, 0.005);
    const int victim = 11;
    plan.node(rq.fabric().netNode(victim)).killAt =
        rq.network().queue().now() + 150'000;
    fault::FaultInjector injector;
    injector.arm(rq.network(), plan);

    const Word key = 100;
    rq.queryAll(key);
    rq.network().run(rq.network().queue().now() + 60'000'000'000);

    std::map<Word, int> perNode;
    for (const auto &a : rq.answers()) {
        ++perNode[a.src];
        if (a.vchan == 0) {
            EXPECT_EQ(a.word, key + 1)
                << "corrupt reply from " << a.src;
        }
    }
    for (int t = 1; t < rq.nodes(); ++t) {
        if (t == victim) {
            EXPECT_LE(perNode[t], 1);
            continue;
        }
        EXPECT_EQ(perNode[t], 1) << "node " << t;
    }
    EXPECT_TRUE(rq.fabric().cpu(victim).killed());
    EXPECT_GT(injector.stats().dataDropped +
                  injector.stats().dataCorrupted,
              0u);
    EXPECT_GT(rq.fabric().counters().routeLinkFloods, 0u);
}

// ---------------------------------------------------------------------
// fault integration: kills quiesce lines and surface in the recorder
// ---------------------------------------------------------------------

TEST(RouteFault, KillQuiescesAttachedLinesAndFiresNeighbourPorts)
{
    apps::RoutedQueryConfig cfg;
    apps::RoutedQuery rq(cfg);
    Fabric &fab = rq.fabric();
    const int victim = 5;
    fault::FaultPlan plan;
    plan.node(fab.netNode(victim)).killAt =
        rq.network().queue().now() + 100'000;
    fault::FaultInjector injector;
    injector.arm(rq.network(), plan);
    rq.queryAll(1);
    rq.network().run(rq.network().queue().now() + 10'000'000'000);

    ASSERT_TRUE(fab.cpu(victim).killed());
    EXPECT_TRUE(fab.sw(victim).killed());
    // every one of the victim's ports went dead (its own side), and
    // every neighbour's facing trunk port heard the peer-death
    // notification and died too -- both directions of each attached
    // line are quiesced
    for (size_t p = 0; p < fab.sw(victim).portCount(); ++p)
        EXPECT_TRUE((p == 0 ? fab.sw(victim).hostPort()
                            : fab.sw(victim).trunkPort(
                                  static_cast<int>(p) - 1))
                        .deadPort());
    const auto &nbrs = fab.topo().ports[victim];
    for (size_t i = 0; i < nbrs.size(); ++i) {
        const int nbr = nbrs[i];
        // find the neighbour's port back toward the victim
        for (size_t j = 0; j < fab.topo().ports[nbr].size(); ++j) {
            if (fab.topo().ports[nbr][j] == victim) {
                EXPECT_TRUE(fab.sw(nbr)
                                .trunkPort(static_cast<int>(j))
                                .deadPort())
                    << "neighbour " << nbr << " port " << j;
            }
        }
    }
    // with all traffic resolved, the whole fabric goes idle: nothing
    // retries forever against the corpse
    EXPECT_TRUE(fab.quiescent());
}

TEST(RouteFault, KillsAndWatchdogAbortsAreNamedInTheFlightRecorder)
{
    apps::RoutedQueryConfig cfg;
    cfg.node.flight = true; // scaleNodeConfig() turns it off; we want names
    apps::RoutedQuery rq(cfg);
    Fabric &fab = rq.fabric();
    const int victim = 10;
    fault::FaultPlan plan;
    plan.seed = 3;
    // one fully dead trunk forces watchdog aborts on a live node
    fault::LineFaultConfig &dead =
        plan.line(fab.netNode(1), fab.netNode(2));
    dead.dataLoss = 1.0;
    plan.line(fab.netNode(2), fab.netNode(1)) = dead;
    plan.node(fab.netNode(victim)).killAt =
        rq.network().queue().now() + 100'000;
    fault::FaultInjector injector;
    injector.arm(rq.network(), plan);
    rq.queryAll(1);
    rq.network().run(rq.network().queue().now() + 10'000'000'000);

    const obs::FlightReport rep =
        obs::evaluateFlightTriggers(rq.network());
    // the injected kill survives in the rings as a named record
    bool killNamed = false;
    for (const auto &k : rep.kills)
        killNamed |= k.node == fab.netNode(victim);
    EXPECT_TRUE(killNamed);
    // the dead trunk's abandoned bytes surface as named abort records
    EXPECT_TRUE(rep.watchdogAbort);
    EXPECT_FALSE(rep.aborts.empty());
    bool abortOnDeadTrunk = false;
    for (const auto &ab : rep.aborts)
        abortOnDeadTrunk |= ab.node == fab.netNode(1) ||
                            ab.node == fab.netNode(2);
    EXPECT_TRUE(abortOnDeadTrunk);
}
