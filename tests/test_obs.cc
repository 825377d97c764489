/**
 * @file
 * Observability tests (src/obs): counter correctness against
 * hand-computed instruction counts, serial-vs-parallel counter
 * equality, the zero-perturbation guarantee of the tracer, the trace
 * ring itself, the Chrome trace exporter, and the event-queue
 * statistics surfaced through Network::dumpMetrics.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"
#include "obs/chrome_trace.hh"
#include "par/parallel_engine.hh"

#include "harness.hh"

using namespace transputer;
using namespace transputer::net;

// ---------------------------------------------------------------------
// counters vs hand-computed instruction counts
// ---------------------------------------------------------------------

namespace
{

/**
 * An e7-style countdown loop with a fully hand-computable encoding.
 * With N iterations:
 *
 *   start:  ldc N         LDC              x1
 *           stl 1         STL              x1
 *   loop:   ldl 1         LDL              xN
 *           adc -1        NFIX + ADC       xN       (2 bytes)
 *           stl 1         STL              xN
 *           ldl 1         LDL              xN
 *           cj exit       CJ               xN       (jumps on the last)
 *           j loop        NFIX + J         x(N-1)   (backward: 2 bytes)
 *   exit:   stopp         PFIX + OPR       x1       (STOPP = #15)
 *
 * Every prefix byte is an instruction (the paper's one-byte pipeline),
 * so the total is 8N + 2.
 */
std::string
countdownLoop(int n)
{
    return "start:\n"
           "  ldc " + std::to_string(n) + "\n  stl 1\n"
           "loop:\n"
           "  ldl 1\n  adc -1\n  stl 1\n  ldl 1\n  cj exit\n"
           "  j loop\n"
           "exit: stopp\n";
}

void
checkCountdownCounters(bool predecode, int n)
{
    core::Config cfg;
    cfg.predecode = predecode;
    test::SingleCpu rig(cfg);
    rig.runAsm(countdownLoop(n));
    const obs::Counters c = rig.cpu.counters();
    const uint64_t N = static_cast<uint64_t>(n);
    EXPECT_EQ(c.instructions, 8 * N + 2);
    EXPECT_EQ(c.instructions, rig.cpu.instructions());
    using isa::Fn;
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::LDC)], 1u);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::STL)], N + 1);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::LDL)], 2 * N);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::ADC)], N);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::NFIX)], 2 * N - 1);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::CJ)], N);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::J)], N - 1);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::PFIX)], 1u);
    EXPECT_EQ(c.fn[static_cast<size_t>(Fn::OPR)], 1u);
    EXPECT_EQ(c.op[static_cast<size_t>(isa::Op::STOPP)], 1u);
    // the loop ends descheduled with empty queues
    EXPECT_NE(rig.cpu.state(), core::CpuState::Running);
}

} // namespace

TEST(ObsCounters, CountdownLoopMatchesHandCount)
{
    checkCountdownCounters(true, 10);
}

TEST(ObsCounters, CountdownLoopHandCountWithoutPredecode)
{
    checkCountdownCounters(false, 10);
}

TEST(ObsCounters, PredecodeTogglePreservesArchitecturalCounters)
{
    core::Config on, off;
    on.predecode = true;
    off.predecode = false;
    test::SingleCpu a(on), b(off);
    a.runAsm(countdownLoop(25));
    b.runAsm(countdownLoop(25));
    const obs::Counters ca = a.cpu.counters();
    const obs::Counters cb = b.cpu.counters();
    // the icache itself differs (off: no lookups), everything else is
    // architectural
    EXPECT_EQ(ca.instructions, cb.instructions);
    EXPECT_EQ(ca.cycles, cb.cycles);
    EXPECT_EQ(ca.fn, cb.fn);
    EXPECT_EQ(ca.op, cb.op);
    EXPECT_GT(ca.icacheLookups(), 0u);
    EXPECT_EQ(cb.icacheLookups(), 0u);
    EXPECT_GT(ca.icacheHitRate(), 0.5);
    EXPECT_TRUE(obs::sameArchitectural(ca, cb));
}

TEST(ObsCounters, IcacheCountsAreHostSide)
{
    // the predecode cache is the emulator's own (the T424 fetches a
    // word at a time and caches no instructions): counters that
    // differ only in its statistics are architecturally equal
    obs::Counters a;
    a.instructions = 100;
    a.cycles = 300;
    a.fn[static_cast<size_t>(isa::Fn::LDC)] = 40;
    obs::Counters b = a;
    b.icacheHits = 90;
    b.icacheMisses = 10;
    b.icacheInvalidations = 2;
    EXPECT_TRUE(obs::sameArchitectural(a, b));
    EXPECT_TRUE(obs::sameArchitectural(b, a));
    // the architectural fields still count
    obs::Counters c = b;
    ++c.instructions;
    EXPECT_FALSE(obs::sameArchitectural(b, c));
    c = b;
    ++c.cycles;
    EXPECT_FALSE(obs::sameArchitectural(b, c));
    c = b;
    ++c.fn[static_cast<size_t>(isa::Fn::LDC)];
    EXPECT_FALSE(obs::sameArchitectural(b, c));
}

// ---------------------------------------------------------------------
// serial vs parallel: architectural counters are bit-identical
// ---------------------------------------------------------------------

namespace
{

struct Rig
{
    Network net;
    std::unique_ptr<ConsoleSink> console;
};

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

/** 4-node pipeline streaming three words into a console (the test_par
 *  topology). */
void
buildPipelineRig(Rig &r)
{
    auto ids = buildPipeline(r.net, 4);
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

/** 3 x 2 grid with tokens snaking through every node (the test_par
 *  serpentine topology, shrunk). */
void
buildGridRig(Rig &r)
{
    constexpr int w = 3, h = 2, tokens = 2;
    auto ids = buildGrid(r.net, w, h);
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
            const int out = id == endId ? dir::south : outLink(x, y);
            bootOccamSource(r.net, id,
                            forwarder(inLink(x, y), out, tokens));
        }
    }
}

using BuildFn = void (*)(Rig &);

void
checkCountersEquivalence(BuildFn build, int threads,
                         const std::string &what)
{
    SCOPED_TRACE(what);
    Rig serial, parallel;
    build(serial);
    build(parallel);
    RunOptions opts;
    opts.threads = threads;
    opts.trace = true; // counters must hold with the tracer active too
    serial.net.setTraceEnabled(true);
    serial.net.run();
    parallel.net.run(maxTick, opts);
    ASSERT_EQ(serial.net.size(), parallel.net.size());
    for (size_t i = 0; i < serial.net.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        EXPECT_TRUE(obs::sameArchitectural(
            serial.net.nodeCounters(static_cast<int>(i)),
            parallel.net.nodeCounters(static_cast<int>(i))));
    }
    EXPECT_TRUE(obs::sameArchitectural(serial.net.counters(),
                                       parallel.net.counters()));
    // and the counters actually saw the workload
    const obs::Counters total = serial.net.counters();
    EXPECT_GT(total.instructions, 0u);
    EXPECT_GT(total.processStarts, 0u);
    EXPECT_GT(total.chanLinkIn + total.chanLinkOut, 0u);
    EXPECT_GT(total.linkBytesOut, 0u);
    EXPECT_GT(total.idleTicks, 0);
}

} // namespace

TEST(ObsPar, PipelineCountersBitIdentical)
{
    checkCountersEquivalence(buildPipelineRig, 2, "pipeline x2");
    checkCountersEquivalence(buildPipelineRig, 4, "pipeline x4");
}

TEST(ObsPar, GridCountersBitIdentical)
{
    checkCountersEquivalence(buildGridRig, 3, "grid 3x2 x3");
}

// ---------------------------------------------------------------------
// tracing on vs off: architectural state is bit-identical
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

} // namespace

TEST(ObsTrace, TracingLeavesArchitecturalStateBitIdentical)
{
    Rig plain, traced;
    buildPipelineRig(plain);
    buildPipelineRig(traced);
    traced.net.setTraceEnabled(true);
    plain.net.run();
    traced.net.run();
    EXPECT_EQ(plain.net.queue().now(), traced.net.queue().now());
    ASSERT_EQ(plain.net.size(), traced.net.size());
    for (size_t i = 0; i < plain.net.size(); ++i) {
        SCOPED_TRACE("node " + std::to_string(i));
        auto &a = plain.net.node(static_cast<int>(i));
        auto &b = traced.net.node(static_cast<int>(i));
        EXPECT_EQ(a.instructions(), b.instructions());
        EXPECT_EQ(a.cycles(), b.cycles());
        EXPECT_EQ(a.localTime(), b.localTime());
        EXPECT_EQ(static_cast<int>(a.state()),
                  static_cast<int>(b.state()));
        EXPECT_EQ(a.iptr(), b.iptr());
        EXPECT_EQ(a.wptr(), b.wptr());
        EXPECT_EQ(a.areg(), b.areg());
        EXPECT_EQ(a.breg(), b.breg());
        EXPECT_EQ(a.creg(), b.creg());
        EXPECT_EQ(memHash(a), memHash(b));
        EXPECT_TRUE(obs::sameArchitectural(a.counters(), b.counters()));
    }
    EXPECT_EQ(plain.console->bytes(), traced.console->bytes());
    // and the traced side really traced
    uint64_t records = 0;
    for (size_t i = 0; i < traced.net.size(); ++i) {
        const obs::TraceBuffer *buf =
            traced.net.node(static_cast<int>(i)).traceBuffer();
        records += buf ? buf->total() : 0;
    }
    EXPECT_GT(records, 0u);
}

// ---------------------------------------------------------------------
// the trace ring itself
// ---------------------------------------------------------------------

TEST(ObsTraceBuffer, WrapsAndCountsDrops)
{
    obs::TraceBuffer buf(3); // capacity 8
    EXPECT_EQ(buf.capacity(), 8u);
    for (int i = 0; i < 20; ++i)
        buf.record(i, obs::Ev::Run, static_cast<uint64_t>(i));
    EXPECT_EQ(buf.total(), 20u);
    EXPECT_EQ(buf.size(), 8u);
    EXPECT_EQ(buf.dropped(), 12u);
    std::vector<uint64_t> seen;
    buf.forEach([&](const obs::Record &r) { seen.push_back(r.a); });
    EXPECT_EQ(seen, (std::vector<uint64_t>{12, 13, 14, 15, 16, 17, 18,
                                           19}));
    buf.clear();
    EXPECT_EQ(buf.size(), 0u);
}

// ---------------------------------------------------------------------
// exporter + metrics
// ---------------------------------------------------------------------

TEST(ObsExport, ChromeTraceHasSlicesAndFlows)
{
    Rig r;
    buildPipelineRig(r);
    r.net.setTraceEnabled(true);
    r.net.run();
    const std::string json = obs::chromeTrace(r.net);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"M\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"s\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"f\""), std::string::npos);
}

TEST(ObsExport, DumpMetricsCarriesCountersAndQueueStats)
{
    Rig r;
    buildPipelineRig(r);
    const uint64_t before = r.net.queue().dispatched();
    r.net.run();
    EXPECT_GT(r.net.queue().dispatched(), before);
    EXPECT_GT(r.net.queue().highWater(), 0u);
    const std::string json = r.net.dumpMetrics();
    for (const char *key :
         {"\"simulated_ns\"", "\"queue\"", "\"dispatched\"",
          "\"high_water\"", "\"bounds_computed\"",
          "\"bounds_reused\"", "\"total\"", "\"per_node\"",
          "\"instructions\"", "\"icache_hit_rate\"",
          "\"link_bytes_out\"", "\"fn\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}
