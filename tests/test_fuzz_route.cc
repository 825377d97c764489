/**
 * @file
 * Fuzz tests for the routing layer's hostile-input surfaces (built
 * for the asan/ubsan sweep in tools/check.sh, like test_fuzz_snap):
 * the packet decoder chews seeded random bytes and mutated frames
 * without crashing, overflowing its bounded buffer, or accepting
 * nonsense; a live switch survives forged packets and a wire that
 * corrupts a third of everything mid-route.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "apps/routedquery.hh"
#include "fault/fault.hh"
#include "net/network.hh"
#include "route/fabric.hh"
#include "route/packet.hh"
#include "route/switch.hh"
#include "route/table.hh"

using namespace transputer;
using namespace transputer::route;

namespace
{

/** xorshift64* -- deterministic fuzz source. */
struct Rng
{
    uint64_t s;
    explicit Rng(uint64_t seed) : s(seed ? seed : 1) {}
    uint64_t
    next()
    {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        return s * 0x2545F4914F6CDD1Dull;
    }
    uint8_t byte() { return static_cast<uint8_t>(next()); }
    /** Uniform in [0, n). */
    size_t
    below(size_t n)
    {
        return static_cast<size_t>(next() % n);
    }
};

/** Feed with the invariants every byte must preserve. */
void
feedChecked(Decoder &dec, uint8_t b)
{
    const auto before = dec.stats();
    const bool got = dec.feed(b);
    const auto &after = dec.stats();
    ASSERT_LE(dec.buffered().size(), kMaxWire);
    ASSERT_GE(after.packets, before.packets);
    ASSERT_GE(after.badHeader, before.badHeader);
    ASSERT_GE(after.badPayload, before.badPayload);
    ASSERT_GE(after.resyncBytes, before.resyncBytes);
    if (got) {
        const Packet &p = dec.packet();
        ASSERT_LE(p.payload.size(), kMaxPayload);
        ASSERT_LE(static_cast<uint8_t>(p.kind), kMaxKind);
    }
}

Packet
randomPacket(Rng &rng)
{
    Packet p;
    p.kind = static_cast<Kind>(rng.below(kMaxKind + 1));
    p.dest = static_cast<uint16_t>(rng.next());
    p.src = static_cast<uint16_t>(rng.next());
    p.vchan = rng.byte();
    p.seq = static_cast<uint16_t>(rng.next());
    p.hops = rng.byte();
    p.hopSeq = rng.byte();
    const size_t n = rng.below(kMaxPayload + 1);
    for (size_t i = 0; i < n; ++i)
        p.payload.push_back(rng.byte());
    return p;
}

} // namespace

TEST(FuzzRouteDecoder, RandomBytesNeverCrashOrOverflow)
{
    Rng rng(0xF00DF00DF00Dull);
    Decoder dec;
    for (int i = 0; i < 200'000; ++i)
        feedChecked(dec, rng.byte());
    // random bytes overwhelmingly fail the checksums; everything fed
    // was accounted as resync, reject, or (rarely) a forged packet
    EXPECT_GT(dec.stats().resyncBytes + dec.stats().badHeader, 0u);
}

TEST(FuzzRouteDecoder, MutatedFramesRejectOrResync)
{
    Rng rng(0xBADC0FFEEull);
    Decoder dec;
    uint64_t cleanFed = 0;
    for (int round = 0; round < 2'000; ++round) {
        const Packet p = randomPacket(rng);
        auto wire = encode(p);
        const size_t mutations = rng.below(4);
        for (size_t m = 0; m < mutations; ++m) {
            switch (rng.below(3)) {
              case 0: // flip a byte
                wire[rng.below(wire.size())] ^= rng.byte();
                break;
              case 1: // truncate the tail
                wire.resize(wire.size() - rng.below(wire.size()));
                break;
              default: // insert a junk byte
                wire.insert(wire.begin() +
                                static_cast<long>(
                                    rng.below(wire.size() + 1)),
                            rng.byte());
                break;
            }
            if (wire.empty())
                break;
        }
        cleanFed += mutations == 0;
        for (uint8_t b : wire)
            feedChecked(dec, b);
    }
    // flush: a truncated frame can leave the decoder waiting for
    // more bytes with a clean frame buffered behind the stuck
    // candidate; non-sync padding forces every candidate to resolve
    for (size_t i = 0; i < 2 * kMaxWire; ++i)
        feedChecked(dec, 0x00);
    // at minimum every unmutated frame parsed (the decoder resyncs
    // between rounds because damage never survives a checksum)
    EXPECT_GE(dec.stats().packets, cleanFed);
    EXPECT_GT(dec.stats().badHeader + dec.stats().badPayload +
                  dec.stats().resyncBytes,
              0u);
}

TEST(FuzzRouteDecoder, ValidStreamSurvivesInterleavedGarbage)
{
    Rng rng(0x5EEDull);
    Decoder dec;
    uint64_t sent = 0;
    std::vector<Packet> expected;
    for (int round = 0; round < 500; ++round) {
        // garbage burst, then a clean frame, repeatedly: every clean
        // frame must eventually decode, in order
        const size_t junk = rng.below(40);
        for (size_t i = 0; i < junk; ++i)
            feedChecked(dec, rng.byte());
        Packet p = randomPacket(rng);
        ++sent;
        uint64_t before = dec.stats().packets;
        for (uint8_t b : encode(p))
            feedChecked(dec, b);
        // the clean frame parses by its own last byte (garbage can
        // delay but not destroy it -- resync discards at most the
        // junk ahead of the sync byte); forged packets out of the
        // junk are possible (~2^-16) but the stream is fixed, so the
        // count below is deterministic
        ASSERT_GT(dec.stats().packets, before) << "round " << round;
    }
    EXPECT_GE(dec.stats().packets, sent);
}

TEST(FuzzRouteSwitch, ForgedPacketsNeverCrashALiveSwitch)
{
    // hostile mid-route traffic: packets with arbitrary field values
    // pushed straight into every switch's wire-side entry point, as
    // if a compromised neighbour forged them
    net::Network net;
    Fabric fab(net, Topology::torus(2, 2));
    Rng rng(0xDEADBEEFull);
    for (int i = 0; i < 20'000; ++i) {
        const int node = static_cast<int>(rng.below(
            static_cast<size_t>(fab.nodes())));
        Switch &sw = fab.sw(node);
        const int port = 1 + static_cast<int>(rng.below(
            static_cast<size_t>(fab.topo().ports[node].size())));
        sw.onPacket(port, randomPacket(rng));
    }
    // let whatever the forgeries queued (acks, floods, unreachables)
    // drain through the real wires
    net.run(net.queue().now() + 50'000'000);
    for (int i = 0; i < fab.nodes(); ++i)
        EXPECT_FALSE(fab.sw(i).killed());
}

TEST(FuzzRouteSwitch, HostileWireBytesMidRouteStayExact)
{
    // a wire that corrupts 30% and drops 20% of all bytes between
    // two live switches: the decoders reject the trash, the ARQ
    // ladders repair the loss, and any reply that does arrive must
    // still be exact -- corruption may never leak into a payload
    apps::RoutedQueryConfig cfg;
    cfg.topo = Topology::torus(2, 2);
    apps::RoutedQuery rq(cfg);
    fault::FaultPlan plan;
    plan.seed = 31337;
    for (int a = 0; a < rq.fabric().topo().size(); ++a)
        for (const int b : rq.fabric().topo().ports[a])
            if (a < b) {
                fault::LineFaultConfig &f = plan.line(
                    rq.fabric().netNode(a), rq.fabric().netNode(b));
                f.dataLoss = 0.20;
                f.corrupt = 0.30;
                plan.line(rq.fabric().netNode(b),
                          rq.fabric().netNode(a)) = f;
            }
    fault::FaultInjector injector;
    injector.arm(rq.network(), plan);
    const Word key = 55;
    rq.queryAll(key);
    rq.network().run(rq.network().queue().now() + 60'000'000'000);

    std::map<Word, int> perNode;
    for (const auto &a : rq.answers()) {
        ++perNode[a.src];
        EXPECT_LE(perNode[a.src], 1) << "duplicate from " << a.src;
        if (a.vchan == 0) {
            EXPECT_EQ(a.word, key + 1)
                << "corruption leaked into a payload from " << a.src;
        }
    }
    // the wire really was hostile, and the decoders really rejected
    // frames (stats are summed across every switch port)
    EXPECT_GT(injector.stats().dataCorrupted, 0u);
    uint64_t rejected = 0;
    for (int i = 0; i < rq.fabric().nodes(); ++i) {
        Switch &sw = rq.fabric().sw(i);
        for (size_t p = 1; p < sw.portCount(); ++p) {
            const auto &s =
                sw.trunkPort(static_cast<int>(p) - 1).decoder().stats();
            rejected += s.badHeader + s.badPayload + s.resyncBytes;
        }
    }
    EXPECT_GT(rejected, 0u);
}
