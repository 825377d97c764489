/**
 * @file
 * The price of link watchdogs and reliable-transport goodput.
 *
 * Two questions, answered in one harness (results to stdout and
 * BENCH_fault.json):
 *
 *   1. What does arming link watchdogs cost?  A two-node link stream
 *      runs bare and with watchdog timers armed (never firing), by
 *      bench/report.hh's protocol: one untimed round, then 5 rounds
 *      in rotating order, the price being the median of per-round
 *      ratios.  Arming a watchdog schedules a real timer event per
 *      transfer step, so this is a feature price, reported without a
 *      bar; the CPU path runs no fault code at all.
 *
 *   2. What goodput does the occam ReliableChannel sustain as the
 *      injected byte-loss rate rises?  A two-node rig streams
 *      payload words through reliableSendBlock/reliableRecvBlock
 *      under symmetric data+ack loss.  The bar is correctness, not
 *      completion: every delivered prefix must be exact (in order,
 *      no duplicates, no corruption).  Under heavy loss the sender
 *      may declare the link dead after maxRetries -- that is the
 *      designed bounded-retry behaviour and is reported, not failed.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hh"
#include "fault/reliable.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr int kRounds = 5;

// ----- 1. the watchdog feature price ---------------------------------

struct StreamRun
{
    double seconds = 0;
    obs::Counters ctrs;
};

/** A 4096-word link stream, bare (variant 0) or with watchdog timers
 *  armed (variant 1). */
StreamRun
linkStream(size_t watchdogs)
{
    constexpr int words = 4096;
    net::Network net;
    core::Config cfg;
    cfg.onchipBytes = 8192;
    const int a = net.addTransputer(cfg);
    const int b = net.addTransputer(cfg);
    net.connect(a, net::dir::east, b, net::dir::west);
    if (watchdogs)
        net.setLinkWatchdogs(10'000'000); // armed, never fires
    net::bootOccamSource(
        net, a,
        "CHAN out:\nPLACE out AT LINK1OUT:\n"
        "SEQ i = [1 FOR " + std::to_string(words) + "]\n"
        "  out ! i\n");
    net::bootOccamSource(
        net, b,
        "CHAN in:\nPLACE in AT LINK3IN:\n"
        "VAR x:\n"
        "SEQ i = [1 FOR " + std::to_string(words) + "]\n"
        "  in ? x\n");
    const double t0 = cpuSeconds();
    net.run();
    return {cpuSeconds() - t0, net.counters()};
}

// ----- 2. goodput vs injected loss -----------------------------------

/** Stream 40 words at `loss`; `allExact` keeps whether every
 *  delivered prefix so far was exact: in order, no duplicates, no
 *  corruption. */
Row
measureGoodput(double loss, bool &allExact)
{
    constexpr int words = 40;
    net::Network net;
    fault::FaultInjector injector;
    auto ids = net::buildPipeline(net, 2);
    net::ConsoleSink console(net.queue(), link::WireConfig{});
    net.attachPeripheral(ids[1], 0, console);
    net.setLinkWatchdogs(100'000);
    // generous retry budget: the backoff ceiling keeps each attempt
    // cheap, so heavy loss degrades goodput instead of giving up
    fault::ReliableConfig cfg;
    cfg.maxRetries = 64;

    std::string sender = "CHAN r.out, r.ack:\n"
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
    sender += fault::reliableSendBlock(6, "r.out", "r.ack",
                                       "1000 + (i * 7)", "sq", "ok",
                                       cfg);
    sender += "      i := i + 1\n";

    std::string receiver = "CHAN r.in, r.bck, con:\n"
                           "PLACE r.in AT LINK3IN:\n"
                           "PLACE r.bck AT LINK3OUT:\n"
                           "PLACE con AT LINK0OUT:\n"
                           "VAR xp, v, i:\n"
                           "SEQ\n"
                           "  xp := 0\n"
                           "  i := 0\n"
                           "  WHILE i < " + std::to_string(words) +
                           "\n"
                           "    SEQ\n";
    receiver +=
        fault::reliableRecvBlock(6, "r.in", "r.bck", "v", "xp", cfg);
    receiver += "      con ! v\n"
                "      i := i + 1\n";

    net::bootOccamSource(net, ids[0], sender);
    net::bootOccamSource(net, ids[1], receiver);

    if (loss > 0) {
        fault::FaultPlan plan;
        plan.seed = 99;
        plan.line(0, 1).dataLoss = loss;
        plan.line(0, 1).ackLoss = loss;
        plan.line(1, 0).dataLoss = loss;
        plan.line(1, 0).ackLoss = loss;
        injector.arm(net, plan);
    }

    const Tick start = net.queue().now();
    Tick lastByte = start;
    console.onByte = [&](uint8_t) { lastByte = net.queue().now(); };
    net.run(start + 4'000'000'000); // 4 s budget

    const std::vector<Word> got = console.words();
    const int delivered = static_cast<int>(got.size());
    bool exact = true;
    for (int i = 0; i < delivered && exact; ++i)
        exact = got[static_cast<size_t>(i)] ==
                static_cast<Word>(1000 + i * 7);
    allExact = allExact && exact;
    const double simMs = static_cast<double>(lastByte - start) / 1e6;
    uint64_t aborts = 0; // watchdog-aborted transfers (retries)
    net.forEachEngine([&](link::LinkEngine &e) {
        aborts += e.outAborts() + e.inAborts();
    });
    // not completed: the link was declared dead after maxRetries, by
    // design
    return Row()
        .col("loss", "loss", loss)
        .col("delivered", "delivered", delivered)
        .col("exact", "exact", exact)
        .col("done", "completed", delivered == words)
        .col("sim (ms)", "sim_ms", simMs)
        .col("words/ms", "words_per_ms",
             simMs > 0 ? delivered / simMs : 0.0)
        .col("drops", "data_drops", injector.stats().dataDropped)
        .col("aborts", "link_aborts", aborts);
}

} // namespace

int
main()
{
    heading("fault machinery: watchdog price, goodput under loss");

    // -- 1: link stream bare vs watchdog timers armed (for the
    //       record; an armed watchdog schedules a real timer event
    //       per transfer step, so this is a feature price, no bar)
    const auto stream = runRounds(
        2, kRounds, linkStream, [](const StreamRun &x, const StreamRun &y) {
            return obs::sameArchitectural(x.ctrs, y.ctrs);
        });
    const double bareMs = stream.time(0).median * 1e3;
    const double armedMs = stream.time(1).median * 1e3;
    const double armedPct = 100.0 * (1.0 / stream.ratio(1) - 1.0);
    std::cout << "link stream: " << bareMs << " ms host (bare), "
              << armedMs << " ms (watchdogs armed): +" << armedPct
              << "% (median of per-round ratios; feature price, "
                 "informational)\n\n";

    // -- 2: goodput vs loss
    bool allExact = true;
    std::vector<Row> points;
    for (const double loss : {0.0, 0.01, 0.02, 0.05, 0.10})
        points.push_back(measureGoodput(loss, allExact));
    Report report;
    report.add("bench", "fault_overhead_and_goodput")
        .add("link_stream_host_ms_bare", bareMs)
        .add("link_stream_host_ms_watchdogs", armedMs)
        .add("watchdog_feature_price_pct", armedPct)
        .add("identical", stream.identical)
        .add("all_exact", allExact);
    report.table("goodput", points);
    std::cout << "\nevery delivered prefix exact: "
              << (allExact ? "yes" : "NO") << "\n";
    report.write("BENCH_fault.json");
    return allExact && stream.identical ? 0 : 1;
}
