/**
 * @file
 * Host-side microbenchmarks of the emulator itself (google-benchmark):
 * emulated instructions per second, event-queue operation rate (one
 * number per event kind: closure, static, typed), the cost of a CPU's
 * lookahead bound (computed, and served again), and link byte
 * throughput.  These bound how large a network the
 * co-simulation can handle; the paper-facing results live in the
 * bench_e* harnesses.
 */

#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "core/transputer.hh"
#include "link/link.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"
#include "tasm/assembler.hh"

using namespace transputer;

namespace
{

/** The cold closure path: a std::function plus a live-set entry. */
void
BM_EventQueue(benchmark::State &state)
{
    sim::EventQueue q;
    int64_t n = 0;
    for (auto _ : state) {
        q.scheduleIn(1, [&n] { ++n; });
        q.runOne();
    }
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueue);

/** One StaticEvent re-armed in place (CPU step, timers, watchdogs). */
void
BM_EventQueueStatic(benchmark::State &state)
{
    sim::EventQueue q;
    int64_t n = 0;
    sim::StaticEvent ev([](void *ctx) { ++*static_cast<int64_t *>(ctx); },
                        &n);
    uint64_t seq = 0;
    for (auto _ : state) {
        q.scheduleStatic(q.now() + 1,
                         sim::EventKey{1, sim::chanStep, ++seq}, ev);
        q.runOne();
    }
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueStatic);

/** One typed fire-and-forget event (a line delivery). */
void
BM_EventQueueTyped(benchmark::State &state)
{
    sim::EventQueue q;
    int64_t n = 0;
    const sim::TypedEvent ev{[](void *ctx, uint64_t arg) {
                                 *static_cast<int64_t *>(ctx) +=
                                     static_cast<int64_t>(arg);
                             },
                             &n, 1};
    uint64_t seq = 0;
    for (auto _ : state) {
        q.scheduleTyped(q.now() + 1,
                        sim::EventKey{1, sim::chanLine, ++seq}, ev);
        q.runOne();
    }
    benchmark::DoNotOptimize(n);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueTyped);

/**
 * EventQueue::nextTimeFor on a 16x8 grid whose every node has a CPU
 * step pending, as on the paper's 128-transputer search board: the
 * bound a CPU reads before each batch (fresh: each query names another
 * node, so none is served from the memo) and after each non-fast
 * instruction that left the queue untouched (reused).
 */
void
BM_NextTimeFor(benchmark::State &state, bool reused)
{
    constexpr uint32_t kCols = 16, kRows = 8, kNodes = kCols * kRows;
    constexpr Tick kLead = 200;       // a wire's minimum delivery lead
    constexpr Tick kStepExtra = 1000; // commSuspend: 20 cycles of 50 ns
    std::vector<int32_t> group_of(kNodes + 1, -1); // actor 0: global
    std::vector<sim::Topology::Line> lines;
    for (uint32_t g = 0; g < kNodes; ++g) {
        group_of[g + 1] = static_cast<int32_t>(g);
        const uint32_t x = g % kCols, y = g / kCols;
        if (x + 1 < kCols) {
            lines.push_back({g, g + 1, kLead});
            lines.push_back({g + 1, g, kLead});
        }
        if (y + 1 < kRows) {
            lines.push_back({g, g + kCols, kLead});
            lines.push_back({g + kCols, g, kLead});
        }
    }
    sim::EventQueue q;
    q.setTopology(sim::Topology::build(group_of, kNodes, lines,
                                       kStepExtra));
    std::deque<sim::StaticEvent> steps;
    for (uint32_t g = 0; g < kNodes; ++g) {
        steps.emplace_back([](void *) {}, nullptr);
        q.scheduleStatic(static_cast<Tick>(g * 37 % 1200),
                         sim::EventKey{g + 1, sim::chanStep, 1},
                         steps.back());
    }
    uint32_t actor = 1;
    Tick sum = 0;
    for (auto _ : state) {
        sum += q.nextTimeFor(actor);
        if (!reused)
            actor = actor % kNodes + 1;
    }
    benchmark::DoNotOptimize(sum);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK_CAPTURE(BM_NextTimeFor, fresh, false);
BENCHMARK_CAPTURE(BM_NextTimeFor, reused, true);

void
BM_EmulatedArithmetic(benchmark::State &state)
{
    sim::EventQueue q;
    core::Transputer cpu(q, {});
    const auto img = tasm::assemble("p: ldl 1\n adc 1\n stl 1\n"
                                    " ldl 2\n ldl 1\n add\n stl 2\n"
                                    " j p\n",
                                    cpu.memory().memStart(),
                                    cpu.shape());
    cpu.memory().load(img.origin, img.bytes.data(), img.bytes.size());
    cpu.boot(img.symbol("p"),
             cpu.shape().index(img.end() + 64 * 4, 0));
    uint64_t before = cpu.instructions();
    for (auto _ : state) {
        // run one scheduling batch
        q.runOne();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(cpu.instructions() - before));
}
BENCHMARK(BM_EmulatedArithmetic);

void
BM_LinkBytes(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        net::Network net;
        core::Config cfg;
        cfg.onchipBytes = 16384;
        const int a = net.addTransputer(cfg);
        const int b = net.addTransputer(cfg);
        net.connect(a, net::dir::east, b, net::dir::west);
        auto boot = [&](int node, const std::string &src) {
            auto &t = net.node(node);
            const auto img = tasm::assemble(
                src, t.memory().memStart(), t.shape());
            net.load(node, img);
            t.boot(img.symbol("start"),
                   t.shape().index(t.shape().wordAlign(img.end() + 3),
                                   128));
        };
        boot(a, "start:\n mint\n ldnlp 1\n stl 1\n"
                " ldlp 40\n ldl 1\n ldc 8192\n out\n stopp\n");
        boot(b, "start:\n mint\n ldnlp 7\n stl 1\n"
                " ldlp 40\n ldl 1\n ldc 8192\n in\n stopp\n");
        state.ResumeTiming();
        net.run();
    }
    state.SetBytesProcessed(state.iterations() * 8192);
}
BENCHMARK(BM_LinkBytes);

} // namespace

BENCHMARK_MAIN();
