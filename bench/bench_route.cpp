/**
 * @file
 * Routing-fabric robustness bench: delivery, reroute latency and
 * hop-stretch on an 8x8 torus (results to stdout and
 * BENCH_route.json).
 *
 * Three scenarios, same workload: the RoutedQuery root floods a key
 * to all 63 terminals, twice -- once while the fault plan is landing
 * (wave 1) and once in the post-fault steady state (wave 2):
 *
 *   clean        no faults; the baseline for hops and wave latency
 *   loss10       10% data loss + 5% ack loss + 1% corruption on every
 *                trunk line; the ARQ ladders repair everything
 *   loss10_kill3 the same wire, plus three interior nodes killed
 *                mid-wave; the switches reroute around the corpses
 *
 * The bar is the tentpole's robustness contract, not speed: in every
 * scenario each live terminal answers exactly once with the exact
 * payload, and each killed destination resolves to an explicit
 * undeliverable notice in the steady-state wave -- never a hang.
 * Reroute latency is the wave-2 completion time (inject to last live
 * reply) against the clean baseline, and hop-stretch is the mean
 * delivered-packet hop count against the same baseline; both are
 * simulated-time metrics, so they are deterministic run to run.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/routedquery.hh"
#include "fault/fault.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

constexpr Tick waveBudget = 30'000'000'000; ///< sim ns per wave

/** What later scenarios are compared with. */
struct Wave
{
    double hops = 0; ///< mean hops of a delivered packet
    double ms = 0;   ///< steady state: inject -> last live reply
};

/** Answers [from, end) split per source node. */
std::map<Word, int>
perNode(const std::vector<apps::RoutedAnswer> &answers, size_t from)
{
    std::map<Word, int> out;
    for (size_t i = from; i < answers.size(); ++i)
        ++out[answers[i].src];
    return out;
}

/** Run one scenario and add its row to `rows`; `clean` is the clean
 *  run's wave (none for the clean run itself), and `pass` keeps the
 *  robustness bar. */
Wave
runScenario(const std::string &name, bool loss,
            const std::vector<int> &victims, const Wave &clean,
            std::vector<Row> &rows, bool &pass)
{
    const double host0 = cpuSeconds();

    apps::RoutedQueryConfig cfg;
    cfg.topo = route::Topology::torus(8, 8);
    apps::RoutedQuery rq(cfg);
    route::Fabric &fab = rq.fabric();

    fault::FaultPlan plan;
    plan.seed = 4242;
    if (loss)
        for (int a = 0; a < fab.topo().size(); ++a)
            for (const int b : fab.topo().ports[a])
                if (a < b) {
                    fault::LineFaultConfig &f =
                        plan.line(fab.netNode(a), fab.netNode(b));
                    f.dataLoss = 0.10;
                    f.ackLoss = 0.05;
                    f.corrupt = 0.01;
                    plan.line(fab.netNode(b), fab.netNode(a)) = f;
                }
    // kills land while wave 1 is in flight
    const Tick now0 = rq.network().queue().now();
    for (size_t i = 0; i < victims.size(); ++i)
        plan.node(fab.netNode(victims[i])).killAt =
            now0 + 300'000 + 100'000 * static_cast<Tick>(i);
    fault::FaultInjector injector;
    if (loss || !victims.empty())
        injector.arm(rq.network(), plan);

    // wave 1: queries race the fault plan
    const Word key1 = 20;
    const Tick t1 = rq.network().queue().now();
    rq.queryAll(key1);
    rq.network().run(t1 + waveBudget);
    const size_t wave1End = rq.answers().size();
    Tick last1 = t1;
    for (const auto &a : rq.answers())
        last1 = std::max(last1, a.when);
    const double wave1Ms = static_cast<double>(last1 - t1) / 1e6;

    // wave 2: the fabric has rerouted; this is the steady state the
    // delivery and latency bars apply to
    const Word key2 = 40;
    const Tick t2 = rq.network().queue().now();
    rq.queryAll(key2);
    rq.network().run(t2 + waveBudget);
    {
        const size_t before = rq.answers().size();
        rq.network().run(rq.network().queue().now() +
                         5'000'000'000);
        if (rq.answers().size() != before)
            std::cout << name << ": " << rq.answers().size() - before
                      << " answers arrived after the wave budget\n";
    }

    Tick lastLive = t2;
    bool exact = true; // every reply payload right, no dupes
    const auto w2 = perNode(rq.answers(), wave1End);
    std::map<Word, int> notices;
    for (size_t i = wave1End; i < rq.answers().size(); ++i) {
        const auto &a = rq.answers()[i];
        if (a.vchan == 0) {
            if (a.word != key2 + 1)
                exact = false;
            lastLive = std::max(lastLive, a.when);
        } else {
            ++notices[a.src];
        }
    }
    int liveReplies = 0, liveTerminals = 0, killedTerminals = 0;
    bool resolved = true; // every killed dest noticed in wave 2
    for (int t = 1; t < rq.nodes(); ++t) {
        const bool killed = fab.cpu(t).killed();
        const int got = w2.count(t) ? w2.at(t) : 0;
        if (killed) {
            ++killedTerminals;
            if (!notices.count(t))
                resolved = false;
        } else {
            ++liveTerminals;
            if (got == 1 && !notices.count(t)) {
                ++liveReplies;
            } else {
                exact = false; // silence, duplicate, or a notice
                std::cout << name << ": live terminal " << t
                          << " resolved " << got << " times in wave 2"
                          << (notices.count(t) ? " (incl. a notice)"
                                               : "")
                          << "\n";
            }
        }
    }
    const double deliveryPct =
        liveTerminals ? 100.0 * liveReplies / liveTerminals : 0.0;
    pass = pass && exact && resolved && deliveryPct == 100.0;

    const obs::Counters c = fab.counters();
    Wave w;
    w.ms = static_cast<double>(lastLive - t2) / 1e6;
    w.hops = c.routeDelivered ? static_cast<double>(c.routeHops) /
                                    static_cast<double>(c.routeDelivered)
                              : 0.0;
    const double cleanHops = clean.hops > 0 ? clean.hops : w.hops;
    rows.push_back(Row()
                       .col("scenario", "name", name)
                       .add("live_terminals", liveTerminals)
                       .add("killed_terminals", killedTerminals)
                       .col("delivery", "delivery_pct", deliveryPct)
                       .col("exact", "exact", exact)
                       .add("killed_resolved", resolved)
                       .add("wave1_ms", wave1Ms)
                       .col("w2 (ms)", "wave2_ms", w.ms)
                       .col("hops/pkt", "avg_hops", w.hops)
                       .col("stretch", "hop_stretch",
                            cleanHops > 0 ? w.hops / cleanHops : 0.0)
                       .col("reroute", "reroutes", c.routeReroutes)
                       .col("floods", "link_floods", c.routeLinkFloods)
                       .col("rexmit", "retransmits", c.routeRetransmits)
                       .add("undeliverable", c.routeUndeliverable)
                       .add("congestion_drops", c.routeCongestionDrops)
                       .add("hop_drops", c.routeHopDrops)
                       .add("ttl_drops", c.routeTtlDrops)
                       .add("host_secs", cpuSeconds() - host0));
    return w;
}

} // namespace

int
main()
{
    heading("routing fabric: delivery, reroute latency, hop-stretch");

    bool pass = true;
    std::vector<Row> rows;
    const Wave clean = runScenario("clean", false, {}, {}, rows, pass);
    runScenario("loss10", true, {}, clean, rows, pass);
    const Wave k = runScenario("loss10_kill3", true, {18, 27, 45}, clean,
                               rows, pass);
    Report report;
    report.add("bench", "route_fabric_robustness")
        .add("topology", "torus8x8")
        .add("clean_avg_hops", clean.hops)
        .add("clean_wave_ms", clean.ms);
    report.table("scenarios", rows);

    std::cout << "\nreroute latency: steady-state wave " << k.ms
              << " ms with 3 dead nodes vs " << clean.ms
              << " ms clean (+"
              << (clean.ms > 0 ? 100.0 * (k.ms / clean.ms - 1.0) : 0.0)
              << "%), hop-stretch "
              << (clean.hops > 0 ? k.hops / clean.hops : 0.0) << "\n"
              << "robustness bar (100% live delivery, exact, every "
              << "killed dest noticed): " << (pass ? "yes" : "NO")
              << "\n";

    report.add("pass", pass);
    report.write("BENCH_route.json");
    return pass ? 0 : 1;
}
