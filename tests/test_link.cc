/**
 * @file
 * Link tests (paper section 2.3, Figure 1): message passing between
 * two transputers, protocol timing (11-bit data packets, 2-bit
 * acknowledges, ack overlap), single-byte-buffer flow control,
 * word-length interworking, and ALT over link channels.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "fault/fault.hh"
#include "net/network.hh"
#include "net/peripherals.hh"
#include "par/parallel_engine.hh"

using namespace transputer;
using net::Network;
using net::dir::east;
using net::dir::west;

namespace
{

/** Boot asm source on a node; returns the boot workspace pointer. */
Word
bootAsm(Network &net, int node, const std::string &src)
{
    auto &t = net.node(node);
    const auto img = tasm::assemble(src, t.memory().memStart(),
                                    t.shape());
    net.load(node, img);
    const Word wptr = t.shape().index(
        t.shape().wordAlign(img.end() + t.shape().bytes - 1), 128);
    t.boot(img.symbol("start"), wptr);
    return wptr;
}

uint8_t
byteAt(Network &net, int node, Word wptr, int slot, int i)
{
    auto &t = net.node(node);
    return t.memory().readByte(
        t.shape().truncate(t.shape().index(wptr, slot) + i));
}

Word
wordAt(Network &net, int node, Word wptr, int slot)
{
    auto &t = net.node(node);
    return t.memory().readWord(t.shape().index(wptr, slot));
}

/**
 * Sender: outputs n patterned bytes on the link whose output channel
 * is reserved word out_word (link 1 east -> word 1).
 */
std::string
senderSrc(int n, int out_word = 1)
{
    std::string s = "start:\n"
                    "  mint\n ldnlp " + std::to_string(out_word) +
                    "\n stl 1\n"
                    "  ldap tab\n ldl 1\n ldc " + std::to_string(n) +
                    "\n out\n"
                    "  ldc 1\n stl 2\n stopp\n"
                    "tab: .byte ";
    for (int i = 0; i < n; ++i)
        s += std::to_string((i + 1) & 0xFF) +
             (i + 1 < n ? ", " : "\n");
    return s;
}

/**
 * Receiver: inputs n bytes into slot 30.. from the link whose input
 * channel is reserved word in_word (link 3 west -> word 7).
 */
std::string
receiverSrc(int n, int in_word = 7)
{
    return "start:\n"
           "  mint\n ldnlp " + std::to_string(in_word) + "\n stl 1\n"
           "  ldlp 30\n ldl 1\n ldc " + std::to_string(n) + "\n in\n"
           "  ldc 1\n stl 2\n stopp\n";
}

} // namespace

TEST(Link, MessageCrossesBetweenTransputers)
{
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(8));
    const Word wb = bootAsm(net, b, receiverSrc(8));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u); // receiver completed
}

TEST(Link, FourByteMessageTakesAboutSixMicroseconds)
{
    // paper section 4.2: "It takes about 6 microseconds to send a 4
    // byte message from one transputer to another."
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(4));
    bootAsm(net, b, receiverSrc(4));
    const Tick t = net.run();
    // the wire part alone is 4 x 1.1 us of data + the final 0.2 us
    // acknowledge; instruction setup on both ends adds the rest
    EXPECT_GT(t, 4'400);
    EXPECT_LT(t, 8'000);
}

TEST(Link, ThroughputApproachesOneMegabytePerSecond)
{
    // continuous transmission at 11 bits/byte on a 10 Mbit/s line is
    // ~0.91 Mbyte/s ("about 1 Mbyte/sec", section 2.3.1)
    Network net;
    core::Config cfg;
    cfg.onchipBytes = 8192;
    const int a = net.addTransputer(cfg);
    const int b = net.addTransputer(cfg);
    net.connect(a, east, b, west);
    const int n = 4096;
    bootAsm(net, a,
            "start:\n  mint\n ldnlp 1\n stl 1\n"
            "  ldlp 40\n ldl 1\n ldc " + std::to_string(n) +
            "\n out\n stopp\n");
    bootAsm(net, b,
            "start:\n  mint\n ldnlp 7\n stl 1\n"
            "  ldlp 40\n ldl 1\n ldc " + std::to_string(n) +
            "\n in\n stopp\n");
    const Tick t = net.run();
    const double mb_per_s = n / (static_cast<double>(t) / 1e9) / 1e6;
    EXPECT_GT(mb_per_s, 0.88);
    EXPECT_LT(mb_per_s, 0.92);
}

TEST(Link, NonOverlappedAckIsSlower)
{
    // ablation: acknowledging only after each whole byte stalls the
    // sender ~13 bit-times per byte instead of streaming at 11
    auto elapsed = [](link::AckMode mode) {
        Network net;
        const int a = net.addTransputer();
        const int b = net.addTransputer();
        net.connect(a, east, b, west, link::WireConfig{}, mode);
        bootAsm(net, a, senderSrc(64));
        bootAsm(net, b, receiverSrc(64));
        return net.run();
    };
    const Tick fast = elapsed(link::AckMode::Overlap);
    const Tick slow = elapsed(link::AckMode::EndOfByte);
    EXPECT_GT(slow, fast + 10'000);
    EXPECT_NEAR(static_cast<double>(slow) / fast, 13.0 / 11.0, 0.12);
}

TEST(Link, WordLengthInterworking)
{
    // a 32-bit part talks to a 16-bit part: the byte-stream protocol
    // is word-length independent ("transputers of different
    // wordlength ... all interwork", section 2.3)
    Network net;
    core::Config c16;
    c16.shape = word16;
    c16.onchipBytes = 2048;
    const int a = net.addTransputer();    // 32-bit sender
    const int b = net.addTransputer(c16); // 16-bit receiver
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(6));
    const Word wb = bootAsm(net, b, receiverSrc(6));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, SixteenBitSenderToThirtyTwoBitReceiver)
{
    Network net;
    core::Config c16;
    c16.shape = word16;
    c16.onchipBytes = 2048;
    const int a = net.addTransputer(c16);
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(6));
    const Word wb = bootAsm(net, b, receiverSrc(6));
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, SingleByteBufferFlowControl)
{
    // the receiver posts its input ~100 us after the sender started:
    // at most one byte buffers, nothing is lost, the sender stalls on
    // withheld acknowledges
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(16));
    const Word wb = bootAsm(
        net, b,
        "start:\n"
        "  ldc 300\n stl 5\n"
        "spin:\n ldl 5\n adc -1\n stl 5\n ldl 5\n cj go\n j spin\n"
        "go:\n"
        "  mint\n ldnlp 7\n stl 1\n"
        "  ldlp 30\n ldl 1\n ldc 16\n in\n"
        "  ldc 1\n stl 2\n stopp\n");
    const Tick t = net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    // the transfer could only finish after the receiver's ~100 us spin
    EXPECT_GT(t, 100'000);
}

TEST(Link, AltAcrossALink)
{
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    bootAsm(net, a, senderSrc(4));
    const Word wb = bootAsm(
        net, b,
        "start:\n"
        "  mint\n ldnlp 7\n stl 1\n"
        "  alt\n"
        "  ldl 1\n ldc 1\n enbc\n"
        "  altwt\n"
        "  ldl 1\n ldc 1\n ldc b1 - done\n disc\n"
        "  altend\n"
        "done:\n"
        "b1:\n ldlp 30\n ldl 1\n ldc 4\n in\n"
        "  ldc 1\n stl 2\n stopp\n");
    net.run();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), i + 1);
}

TEST(Link, BidirectionalTrafficSharesTheWirePair)
{
    // both nodes stream 1024 bytes to each other simultaneously: each
    // line carries data packets plus the acks of the reverse stream
    Network net;
    core::Config cfg;
    cfg.onchipBytes = 16384;
    const int a = net.addTransputer(cfg);
    const int b = net.addTransputer(cfg);
    net.connect(a, east, b, west);
    auto src = [](int out_word, int in_word) {
        return std::string("start:\n") +
               "  mint\n ldnlp " + std::to_string(out_word) +
               "\n stl 1\n" +
               "  mint\n ldnlp " + std::to_string(in_word) +
               "\n stl 2\n" +
               // PAR of a sender and a receiver process
               "  ldc 2\n stl 11\n"
               "  ldap succ\n stl 10\n"
               "  ldc sender - c0\n ldlp -40\n startp\n"
               "c0:\n"
               "  ldlp 100\n ldl 2\n ldc 1024\n in\n"
               "  ldlp 10\n endp\n"
               "sender:\n"
               "  ldlp 440\n ldl 41\n ldc 1024\n out\n" // W+400 src
               "  ldlp 50\n endp\n"
               "succ:\n ajw -10\n ldc 1\n stl 3\n stopp\n";
    };
    const Word wa = bootAsm(net, a, src(1, 5)); // a: link 1 (east)
    const Word wb = bootAsm(net, b, src(3, 7)); // b: link 3 (west)
    const Tick t = net.run();
    EXPECT_TRUE(net.quiescent());
    EXPECT_EQ(wordAt(net, a, wa, 3), 1u);
    EXPECT_EQ(wordAt(net, b, wb, 3), 1u);
    // 1024 bytes * 13 bits at 100 ns/bit = ~1.33 ms per direction,
    // running concurrently (far less than the 2.24 ms serial time)
    EXPECT_GT(t, 1'250'000);
    EXPECT_LT(t, 1'500'000);
}

TEST(Link, OverlappedAckArrivesDuringTheDataPacket)
{
    // AckMode edge case: with the receiver already waiting, the ack
    // for each byte goes back onto the reverse line while that byte
    // is still being transmitted (paper Figure 1), and the data
    // packets stream back to back at exactly 11 bit times
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    std::vector<link::Line::Packet> data, acks;
    for (const auto &lr : net.lines()) {
        if (lr.srcNode == a)
            lr.line->onPacket = [&](const link::Line::Packet &p) {
                if (p.isData)
                    data.push_back(p);
            };
        else
            lr.line->onPacket = [&](const link::Line::Packet &p) {
                if (!p.isData)
                    acks.push_back(p);
            };
    }
    bootAsm(net, a, senderSrc(8));
    bootAsm(net, b, receiverSrc(8));
    net.run();
    EXPECT_TRUE(net.quiescent());
    ASSERT_EQ(data.size(), 8u);
    ASSERT_EQ(acks.size(), 8u);
    // steady state: zero inter-packet gap on the data line
    for (size_t i = 1; i < data.size(); ++i)
        EXPECT_EQ(data[i].start, data[i - 1].end) << "byte " << i;
    // every ack starts strictly inside its data packet's wire time
    // (it is sent when the second bit has been classified)
    for (size_t i = 1; i < data.size(); ++i) {
        EXPECT_GT(acks[i].start, data[i].start) << "ack " << i;
        EXPECT_LT(acks[i].end, data[i].end) << "ack " << i;
    }
}

TEST(Link, EndOfByteAckSetsThirteenBitPacketSpacing)
{
    // AckMode edge case: back-to-back packets at the minimum spacing
    // each mode allows -- 11 bit times overlapped, 13 (11 data + 2
    // ack) when the ack waits for the end of the byte.  Exact
    // spacing, not just a throughput ratio.
    for (const auto mode :
         {link::AckMode::Overlap, link::AckMode::EndOfByte}) {
        Network net;
        const int a = net.addTransputer();
        const int b = net.addTransputer();
        net.connect(a, east, b, west, link::WireConfig{}, mode);
        std::vector<link::Line::Packet> data;
        for (const auto &lr : net.lines())
            if (lr.srcNode == a)
                lr.line->onPacket =
                    [&](const link::Line::Packet &p) {
                        if (p.isData)
                            data.push_back(p);
                    };
        bootAsm(net, a, senderSrc(16));
        bootAsm(net, b, receiverSrc(16));
        net.run();
        EXPECT_TRUE(net.quiescent());
        ASSERT_EQ(data.size(), 16u);
        const Tick bit = link::WireConfig{}.bitTime();
        const Tick spacing =
            mode == link::AckMode::Overlap ? 11 * bit : 13 * bit;
        // skip the first gap (instruction setup); all later packets
        // run at the protocol minimum exactly
        for (size_t i = 2; i < data.size(); ++i)
            EXPECT_EQ(data[i].start - data[i - 1].start, spacing)
                << "byte " << i;
    }
}

TEST(Link, WireReconfigurationMidMessage)
{
    // AckMode edge case: the wire's behaviour changes *during* a
    // message -- a fault tap slowing every data packet is installed
    // after the transfer is underway and removed before it finishes
    // (the documented mid-flight arm/disarm path).  The transfer must
    // complete intact either way; only the middle window is slowed.
    struct SlowWire final : link::LineFaultTap
    {
        link::FaultAction
        onDataPacket(Tick, uint8_t) override
        {
            link::FaultAction fa;
            fa.jitter = 500; // half a byte time of extra lead-in
            return fa;
        }
        link::FaultAction onAckPacket(Tick) override { return {}; }
    };
    Network net;
    const int a = net.addTransputer();
    const int b = net.addTransputer();
    net.connect(a, east, b, west);
    link::Line *wire = nullptr;
    for (const auto &lr : net.lines())
        if (lr.srcNode == a)
            wire = lr.line;
    ASSERT_NE(wire, nullptr);
    bootAsm(net, a, senderSrc(64));
    const Word wb = bootAsm(net, b, receiverSrc(64));
    // 64 back-to-back bytes take ~70 us; reconfigure at 1/3 and 2/3
    SlowWire slow;
    net.run(30'000);
    wire->setFaultTap(&slow);
    net.run(55'000);
    wire->setFaultTap(nullptr);
    net.run();
    EXPECT_TRUE(net.quiescent());
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(byteAt(net, b, wb, 30, i), (i + 1) & 0xFF);
    EXPECT_EQ(wordAt(net, b, wb, 2), 1u); // receiver completed
    // only the middle window was jittered: more than none of the
    // packets, fewer than all of them
    EXPECT_GT(wire->faultJitter(), 0);
    EXPECT_LT(wire->faultJitter(), 64 * 500);
    EXPECT_EQ(wire->dataPackets(), 64u);
    EXPECT_EQ(wire->dataDropped(), 0u);
}

// ---------------------------------------------------------------------
// Message-level bursts (link/bursts.hh) must be exact.  Every scenario
// runs twice: as is, and with a packet observer on every line, which
// keeps every message on the per-byte path.  After every run(limit)
// slice the two must agree on node memories, registers, local clocks,
// architectural counters, engine and line state, and the host byte
// streams with their arrival ticks.  The clock a run to quiescence
// ends at is not compared: it follows the last CPU batch.

namespace
{

/** One step of a guest process. */
struct Op
{
    enum Kind
    {
        In,   ///< input count bytes from link into buf + off
        Out,  ///< output count bytes on link from buf + off
        Alt,  ///< ALT on the link's input, then In
        Wait, ///< timer wait of `count` clock ticks
        Spin, ///< busy loop of `count` iterations
        Mark, ///< store `count` into workspace slot 2
    };
    Kind kind;
    int link = 0;
    int count = 0;
    int off = 0;
};

using Proc = std::vector<Op>;

constexpr int kBufBytes = 1024;

std::string
procAsm(const Proc &ops, int &label)
{
    std::string s;
    const auto num = [](int v) { return std::to_string(v); };
    for (const Op &op : ops) {
        const std::string l = num(++label);
        switch (op.kind) {
        case Op::In:
            s += "  ldap buf\n adc " + num(op.off) + "\n mint\n ldnlp " +
                 num(4 + op.link) + "\n ldc " + num(op.count) + "\n in\n";
            break;
        case Op::Out:
            s += "  ldap buf\n adc " + num(op.off) + "\n mint\n ldnlp " +
                 num(op.link) + "\n ldc " + num(op.count) + "\n out\n";
            break;
        case Op::Alt:
            s += "  mint\n ldnlp " + num(4 + op.link) + "\n stl 1\n"
                 "  alt\n ldl 1\n ldc 1\n enbc\n altwt\n"
                 "  ldl 1\n ldc 1\n ldc b" + l + " - d" + l +
                 "\n disc\n altend\n"
                 "d" + l + ":\nb" + l + ":\n"
                 "  ldap buf\n adc " + num(op.off) +
                 "\n ldl 1\n ldc " + num(op.count) + "\n in\n";
            break;
        case Op::Wait:
            s += "  ldtimer\n adc " + num(op.count) + "\n tin\n";
            break;
        case Op::Spin:
            s += "  ldc " + num(op.count) + "\n stl 5\n"
                 "s" + l + ":\n ldl 5\n adc -1\n stl 5\n ldl 5\n"
                 " cj e" + l + "\n j s" + l + "\ne" + l + ":\n";
            break;
        case Op::Mark:
            s += "  ldc " + num(op.count) + "\n stl 2\n";
            break;
        }
    }
    return s;
}

/** One or two processes (PAR), then slot 3 := 1; a patterned
 *  kBufBytes data area follows the code. */
std::string
nodeAsm(const std::vector<Proc> &procs, int node)
{
    int label = 0;
    std::string s = "start:\n";
    if (procs.size() == 2) {
        s += "  ldc 2\n stl 11\n ldap succ\n stl 10\n"
             "  ldc p1 - c0\n ldlp -60\n startp\n"
             "c0:\n" + procAsm(procs[0], label) +
             "  ldlp 10\n endp\n"
             "p1:\n" + procAsm(procs[1], label) +
             "  ldlp 70\n endp\n"
             "succ:\n ajw -10\n";
    } else if (procs.size() == 1) {
        s += procAsm(procs[0], label);
    }
    s += "  ldc 1\n stl 3\n stopp\n";
    s += "buf:\n";
    for (int i = 0; i < kBufBytes; i += 32) {
        s += "  .byte ";
        for (int j = i; j < i + 32; ++j)
            s += std::to_string((j * 7 + node * 31 + 1) & 0xFF) +
                 (j + 1 < i + 32 ? ", " : "\n");
    }
    return s;
}

/** A wired network, its guests, hosts, kills and run slices. */
struct Scenario
{
    std::string name;
    int nodes = 0;
    struct Wire
    {
        int a, la, b, lb;
    };
    std::vector<Wire> wires;
    Tick propagation = 0;
    std::vector<std::vector<Proc>> progs; ///< per node
    std::vector<std::pair<int, int>> hosts; ///< (node, link) sinks
    std::map<int, Tick> kills;
    std::vector<Tick> slices; ///< run(limit) points, then run()
};

struct Rig
{
    net::Network net;
    std::vector<std::unique_ptr<net::ConsoleSink>> hosts;
    std::vector<std::vector<std::pair<uint8_t, Tick>>> streams;
    std::unique_ptr<fault::FaultInjector> injector;

    Rig(const Scenario &s, bool observe)
    {
        link::WireConfig wire;
        wire.propagationDelay = s.propagation;
        for (int i = 0; i < s.nodes; ++i)
            net.addTransputer();
        for (const auto &w : s.wires)
            net.connect(w.a, w.la, w.b, w.lb, wire);
        streams.resize(s.hosts.size());
        for (size_t h = 0; h < s.hosts.size(); ++h) {
            hosts.push_back(
                std::make_unique<net::ConsoleSink>(net.queue(), wire));
            auto &stream = streams[h];
            auto *sink = hosts.back().get();
            // the sink's own queue: a shard's while a parallel run lasts
            sink->onByte = [&stream, sink](uint8_t b) {
                stream.emplace_back(b, sink->queue().now());
            };
            net.attachPeripheral(s.hosts[h].first, s.hosts[h].second,
                                 *hosts.back());
        }
        if (observe)
            for (const auto &lr : net.lines())
                lr.line->onPacket = [](const link::Line::Packet &) {};
        for (int i = 0; i < s.nodes; ++i)
            bootAsm(net, i, nodeAsm(s.progs[i], i));
        if (!s.kills.empty()) {
            fault::FaultPlan plan;
            for (const auto &[n, at] : s.kills)
                plan.node(n).killAt = at;
            injector = std::make_unique<fault::FaultInjector>();
            injector->arm(net, plan);
        }
    }
};

void
expectSameRig(Rig &a, Rig &b, const std::string &what)
{
    SCOPED_TRACE(what);
    for (size_t i = 0; i < a.net.size(); ++i) {
        auto &x = a.net.node(static_cast<int>(i));
        auto &y = b.net.node(static_cast<int>(i));
        const std::string at = "node " + std::to_string(i);
        const auto &mx = x.memory();
        for (Word k = 0; k < mx.size(); ++k) {
            const Word addr = x.shape().truncate(mx.base() + k);
            if (mx.readByte(addr) != y.memory().readByte(addr)) {
                ADD_FAILURE() << at << ": memory differs at offset " << k;
                break;
            }
        }
        const core::CpuSnap sx = x.exportSnap(), sy = y.exportSnap();
        EXPECT_EQ(sx.iptr, sy.iptr) << at;
        EXPECT_EQ(sx.wptr, sy.wptr) << at;
        EXPECT_EQ(sx.areg, sy.areg) << at;
        EXPECT_EQ(sx.breg, sy.breg) << at;
        EXPECT_EQ(sx.creg, sy.creg) << at;
        EXPECT_EQ(sx.oreg, sy.oreg) << at;
        EXPECT_EQ(sx.pri, sy.pri) << at;
        EXPECT_EQ(sx.fptr[1], sy.fptr[1]) << at;
        EXPECT_EQ(sx.bptr[1], sy.bptr[1]) << at;
        EXPECT_EQ(sx.state, sy.state) << at;
        EXPECT_EQ(sx.time, sy.time) << at;
        EXPECT_EQ(sx.timerArmed, sy.timerArmed) << at;
        EXPECT_EQ(sx.timerWhen, sy.timerWhen) << at;
        EXPECT_EQ(x.localTime(), y.localTime()) << at;
        EXPECT_TRUE(obs::sameArchitectural(
            a.net.nodeCounters(static_cast<int>(i)),
            b.net.nodeCounters(static_cast<int>(i))))
            << at;
    }
    for (size_t i = 0; i < a.net.engineCount(); ++i) {
        const auto ex = a.net.engine(i).exportSnap();
        const auto ey = b.net.engine(i).exportSnap();
        const std::string at = "engine " + std::to_string(i);
        EXPECT_EQ(ex.outActive, ey.outActive) << at;
        EXPECT_EQ(ex.awaitingAck, ey.awaitingAck) << at;
        EXPECT_EQ(ex.outSent, ey.outSent) << at;
        EXPECT_EQ(ex.inActive, ey.inActive) << at;
        EXPECT_EQ(ex.inReceived, ey.inReceived) << at;
        EXPECT_EQ(ex.bufferValid, ey.bufferValid) << at;
        EXPECT_EQ(ex.buffer, ey.buffer) << at;
        EXPECT_EQ(ex.ackSentForCurrent, ey.ackSentForCurrent) << at;
        EXPECT_EQ(ex.bytesSent, ey.bytesSent) << at;
        EXPECT_EQ(ex.bytesReceived, ey.bytesReceived) << at;
        EXPECT_EQ(ex.outAborts, ey.outAborts) << at;
        EXPECT_EQ(ex.inAborts, ey.inAborts) << at;
        EXPECT_EQ(ex.deadDrops, ey.deadDrops) << at;
        EXPECT_EQ(ex.peerDead, ey.peerDead) << at;
    }
    const Tick now = a.net.queue().now();
    ASSERT_EQ(now, b.net.queue().now());
    for (size_t i = 0; i < a.net.lines().size(); ++i) {
        auto lx = a.net.lines()[i].line->exportSnap(now);
        auto ly = b.net.lines()[i].line->exportSnap(now);
        const std::string at = "line " + std::to_string(i);
        EXPECT_EQ(lx.seq, ly.seq) << at;
        EXPECT_EQ(lx.busyUntil, ly.busyUntil) << at;
        EXPECT_EQ(lx.busyTime, ly.busyTime) << at;
        EXPECT_EQ(lx.dataPackets, ly.dataPackets) << at;
        EXPECT_EQ(lx.ackPackets, ly.ackPackets) << at;
        EXPECT_EQ(lx.deadSquelched, ly.deadSquelched) << at;
        ASSERT_EQ(lx.inFlight.size(), ly.inFlight.size()) << at;
        for (size_t k = 0; k < lx.inFlight.size(); ++k) {
            EXPECT_EQ(lx.inFlight[k].kind, ly.inFlight[k].kind) << at;
            EXPECT_EQ(lx.inFlight[k].byte, ly.inFlight[k].byte) << at;
            EXPECT_EQ(lx.inFlight[k].when, ly.inFlight[k].when) << at;
            EXPECT_EQ(lx.inFlight[k].seq, ly.inFlight[k].seq) << at;
        }
    }
    EXPECT_EQ(a.streams, b.streams);
}

/** Bursts opened by the serial and the two-shard run. */
struct Opened
{
    uint64_t serial = 0;
    uint64_t sharded = 0;
};

/** Run s both ways, and on two shards (whose internal links burst on
 *  their own queues), comparing after every slice. */
Opened
runBothWays(const Scenario &s, const std::string &what)
{
    Rig plain(s, false), observed(s, true), sharded(s, false);
    net::RunOptions two;
    two.threads = 2;
    Opened opened;
    const auto runSharded = [&](Tick limit) {
        par::RunStats stats;
        par::runParallel(sharded.net, limit, two, &stats);
        for (const auto &sh : stats.shards)
            opened.sharded += sh.bursts;
    };
    for (size_t i = 0; i <= s.slices.size(); ++i) {
        if (i < s.slices.size()) {
            plain.net.run(s.slices[i]);
            observed.net.run(s.slices[i]);
            runSharded(s.slices[i]);
        } else {
            plain.net.run();
            observed.net.run();
            runSharded(maxTick);
            // compare at one clock: the quiescence clock is batching
            const Tick end = std::max({plain.net.queue().now(),
                                       observed.net.queue().now(),
                                       sharded.net.queue().now()});
            plain.net.run(end);
            observed.net.run(end);
            runSharded(end);
        }
        const std::string at = ", after slice " + std::to_string(i);
        expectSameRig(plain, observed, what + at);
        expectSameRig(sharded, observed, what + " on two shards" + at);
        if (::testing::Test::HasFailure())
            break;
    }
    EXPECT_EQ(observed.net.bursts().opened(), 0u) << what;
    opened.serial = plain.net.bursts().opened();
    return opened;
}

int
pick(Random &r, std::initializer_list<int> xs)
{
    return *(xs.begin() + r.below(xs.size()));
}

/** A message size: mostly short, sometimes up to 300 bytes. */
int
msgSize(Random &r)
{
    return r.below(3) == 0 ? 1 + static_cast<int>(r.below(300))
                           : pick(r, {1, 2, 4, 4, 8, 17});
}

/** A random delay: a spin, or nothing. */
void
maybeDelay(Random &r, Proc &p)
{
    if (r.below(3) == 0)
        p.push_back(Op{Op::Spin, 0, 1 + static_cast<int>(r.below(200))});
}

Scenario
makeScenario(int kind, uint64_t seed)
{
    Random r(seed * 16 + static_cast<uint64_t>(kind));
    Scenario s;
    s.propagation = pick(r, {0, 300, 1000});
    const auto pipeline = [&s](int n) {
        s.nodes = n;
        for (int i = 0; i + 1 < n; ++i)
            s.wires.push_back({i, east, i + 1, west});
    };
    switch (kind) {
    case 0: { // pipeline into a host, messages of 1-300 bytes
        const int n = 2 + static_cast<int>(r.below(4));
        pipeline(n);
        s.progs.assign(n, std::vector<Proc>(1));
        s.hosts.push_back({n - 1, east});
        const int msgs = 1 + static_cast<int>(r.below(3));
        for (int m = 0; m < msgs; ++m) {
            const int len = msgSize(r);
            for (int i = 0; i < n; ++i) {
                Proc &p = s.progs[i][0];
                maybeDelay(r, p);
                if (i > 0)
                    p.push_back(Op{Op::In, west, len, 0});
                p.push_back(Op{Op::Out, east, len, 0});
            }
        }
        s.name = "pipeline";
        break;
    }
    case 1: { // a token round a ring
        const int n = 3 + static_cast<int>(r.below(2));
        pipeline(n);
        s.wires.push_back({n - 1, east, 0, west});
        s.progs.assign(n, std::vector<Proc>(1));
        const int len = msgSize(r), laps = 1 + static_cast<int>(r.below(3));
        for (int lap = 0; lap < laps; ++lap)
            for (int i = 0; i < n; ++i) {
                Proc &p = s.progs[i][0];
                maybeDelay(r, p);
                if (i == 0) {
                    p.push_back(Op{Op::Out, east, len, 0});
                    p.push_back(Op{Op::In, west, len, 0});
                } else {
                    p.push_back(Op{Op::In, west, len, 0});
                    p.push_back(Op{Op::Out, east, len, 0});
                }
            }
        s.name = "ring";
        break;
    }
    case 2: { // a 4x4 grid flooded from the corner
        s.nodes = 16;
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x) {
                if (x + 1 < 4)
                    s.wires.push_back({y * 4 + x, east, y * 4 + x + 1, west});
                if (y + 1 < 4)
                    s.wires.push_back(
                        {y * 4 + x, net::dir::south, (y + 1) * 4 + x,
                         net::dir::north});
            }
        s.progs.assign(16, {});
        const int len = msgSize(r);
        const bool par = r.below(2) == 0;
        for (int y = 0; y < 4; ++y)
            for (int x = 0; x < 4; ++x) {
                Proc p, south;
                maybeDelay(r, p);
                if (y > 0)
                    p.push_back(Op{Op::In, net::dir::north, len, 0});
                else if (x > 0)
                    p.push_back(Op{Op::In, west, len, 0});
                const bool has_east = y == 0 && x + 1 < 4;
                if (has_east)
                    p.push_back(Op{Op::Out, east, len, 0});
                if (y + 1 < 4)
                    south.push_back(Op{Op::Out, net::dir::south, len, 0});
                auto &procs = s.progs[y * 4 + x];
                if (par && has_east && !south.empty()) {
                    // the south branch races the input into its buffer
                    south.insert(south.begin(), Op{Op::Spin, 0, 400});
                    procs = {p, south};
                } else {
                    p.insert(p.end(), south.begin(), south.end());
                    procs = {p};
                }
            }
        s.name = "grid";
        break;
    }
    case 3: { // both directions of one link at once
        pipeline(2);
        const int la = msgSize(r), lb = msgSize(r);
        s.progs = {{Proc{Op{Op::Out, east, la, 0}},
                    Proc{Op{Op::In, east, lb, 512}}},
                   {Proc{Op{Op::In, west, la, 512}},
                    Proc{Op{Op::Out, west, lb, 0}}}};
        maybeDelay(r, s.progs[0][0]);
        maybeDelay(r, s.progs[1][1]);
        s.name = "bidirectional";
        break;
    }
    case 4: { // ALT on a link input, sender first or receiver first
        pipeline(2);
        const int len = msgSize(r);
        Proc a, b;
        maybeDelay(r, a);
        a.push_back(Op{Op::Out, east, len, 0});
        maybeDelay(r, b);
        b.push_back(Op{Op::Alt, west, len, 0});
        s.progs = {{a}, {b}};
        s.name = "alt";
        break;
    }
    case 5: { // a timer wakes a process on either node mid-message
        pipeline(2);
        const int len = 30 + static_cast<int>(r.below(270));
        const Proc timer{Op{Op::Wait, 0, 1 + static_cast<int>(r.below(4))},
                         Op{Op::Mark, 0, 7}};
        const bool on_sender = r.below(2) == 0;
        s.progs = {{Proc{Op{Op::Out, east, len, 0}}},
                   {Proc{Op{Op::In, west, len, 0}}}};
        s.progs[on_sender ? 0 : 1].push_back(timer);
        s.name = "timer";
        break;
    }
    case 6: { // a fault-plan kill of either node mid-message
        pipeline(3);
        const int len = 20 + static_cast<int>(r.below(280));
        s.progs = {{Proc{Op{Op::Out, east, len, 0}}},
                   {Proc{Op{Op::In, west, len, 0},
                         Op{Op::Out, east, len, 0}}},
                   {Proc{Op{Op::In, west, len, 0}}}};
        s.kills[static_cast<int>(r.below(3))] =
            2'000 + static_cast<Tick>(r.below(2 * 1100 * len));
        s.name = "kill";
        break;
    }
    default: { // guests that race the DMA
        pipeline(3);
        const int len = msgSize(r);
        const int shift = static_cast<int>(r.below(8));
        if (r.below(2) == 0) {
            // two inputs into overlapping buffers on one node
            s.progs = {{Proc{Op{Op::Out, east, len, 0}}},
                       {Proc{Op{Op::In, west, len, 600}},
                        Proc{Op{Op::In, east, len, 600 + shift}}},
                       {Proc{Op{Op::Out, west, len, 100}}}};
        } else {
            // a forwarder outputs from a buffer still being received
            s.progs = {{Proc{Op{Op::Out, east, len, 0}}},
                       {Proc{Op{Op::In, west, len, 600}},
                        Proc{Op{Op::Spin, 0, 1 + shift},
                             Op{Op::Out, east, len, 600 + shift}}},
                       {Proc{Op{Op::In, west, len, 0}}}};
        }
        maybeDelay(r, s.progs[0][0]);
        s.name = "race";
        break;
    }
    }
    const int cuts = static_cast<int>(r.below(4));
    Tick t = 0;
    for (int i = 0; i < cuts; ++i) {
        t += 1 + static_cast<Tick>(r.below(60'000));
        s.slices.push_back(t);
    }
    return s;
}

} // namespace

TEST(LinkBursts, MatchThePerBytePathAfterEverySlice)
{
    constexpr int kKinds = 8;
    constexpr uint64_t kSeeds = 24;
    Opened opened[kKinds];
    for (int kind = 0; kind < kKinds; ++kind)
        for (uint64_t seed = 0; seed < kSeeds; ++seed) {
            const Scenario s = makeScenario(kind, seed);
            const Opened o = runBothWays(
                s, s.name + " seed " + std::to_string(seed) +
                       " propagation " + std::to_string(s.propagation));
            opened[kind].serial += o.serial;
            opened[kind].sharded += o.sharded;
            if (HasFailure())
                return;
        }
    // every kind exercises the burst path somewhere; two shards cut
    // the only link of the two-node kinds, so only the others burst
    // inside a shard
    uint64_t sharded = 0;
    for (int kind = 0; kind < kKinds; ++kind) {
        EXPECT_GT(opened[kind].serial, 0u) << "kind " << kind;
        sharded += opened[kind].sharded;
    }
    EXPECT_GT(sharded, 0u);
}

TEST(LinkBursts, CompletionTicksMatchLastAckAndLastDataBit)
{
    for (const int n : {1, 2, 4, 255}) {
        SCOPED_TRACE("n = " + std::to_string(n));
        Tick ack_end = 0, data_end = 0; // per-byte deliveries
        Tick msg_out = 0, msg_in = 0;   // the burst run's completions
        for (const bool observe : {true, false}) {
            Network net;
            const int a = net.addTransputer();
            const int b = net.addTransputer();
            net.connect(a, east, b, west);
            const Tick prop = link::WireConfig{}.propagationDelay;
            if (observe)
                for (const auto &lr : net.lines())
                    lr.line->onPacket = [&, prop](const link::Line::Packet &p) {
                        (p.isData ? data_end : ack_end) = p.end + prop;
                    };
            // receiver first: the burst opens at the sender's `out`
            bootAsm(net, b, receiverSrc(n));
            net.run(5'000);
            bootAsm(net, a, senderSrc(n));
            net.run();
            if (observe) {
                EXPECT_EQ(net.bursts().opened(), 0u);
                continue;
            }
            EXPECT_EQ(net.bursts().opened(), 1u);
            EXPECT_EQ(net.bursts().settledEarly(), 0u);
            EXPECT_EQ(net.bursts().bytes(), static_cast<uint64_t>(n));
            net.node(a).flightBuffer()->forEach([&](const obs::Record &r) {
                if (r.ev == obs::Ev::LinkMsgOut)
                    msg_out = r.when;
            });
            net.node(b).flightBuffer()->forEach([&](const obs::Record &r) {
                if (r.ev == obs::Ev::LinkMsgIn)
                    msg_in = r.when;
            });
        }
        EXPECT_GT(ack_end, 0);
        EXPECT_EQ(msg_out, ack_end);
        EXPECT_EQ(msg_in, data_end);
    }
}
