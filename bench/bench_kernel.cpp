/**
 * @file
 * Host instructions per dispatched event in the event kernel's two
 * busiest settings, counted deterministically (results to stdout and
 * BENCH_kernel.json):
 *
 *   dbsearch_16x8 -- the serial 16x8 database search board as
 *                    bench_par_scaling builds it, loaded as perfbench's
 *                    dbsearch_16x8 with seed 1 (32 pipelined queries):
 *                    CPU batches of about a dozen instructions, each
 *                    one queue event with a fresh per-node bound;
 *   routed_loss10 -- the routed 8x8 torus at 10% data loss, 5% ack
 *                    loss and 1% corruption as bench_route's loss10
 *                    scenario builds it, during its first wave: link
 *                    deliveries and watchdog re-arms.
 *
 * A forked child runs each to the start of a fixed simulated window,
 * raises SIGSTOP, runs the window, raises SIGSTOP again and reports
 * the window's dispatched events; the parent counts the child's
 * ptrace single steps between the markers (countHostSteps).  The
 * count covers the whole host path of an event -- the kernel, the
 * CPU batch, the link engine -- and, unlike a timing, does not move
 * with code placement or a noisy neighbour, so tools/check.sh
 * compares it with the committed artifact.  Where ptrace is refused
 * the bench prints why and writes `skipped`.
 */

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "apps/dbsearch.hh"
#include "apps/routedquery.hh"
#include "base/random.hh"
#include "fault/fault.hh"

#include "report.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

/** A run and its window: `lead` simulated ns after the inject, `span`
 *  long. */
struct Window
{
    const char *name;
    Tick lead;
    Tick span;
};

constexpr Window kDbsearch{"dbsearch_16x8", 5'000'000, 3'000};
constexpr Window kRouted{"routed_loss10", 300'000, 250'000};

/** The serial dbsearch board with perfbench's 32 seed-1 queries, run
 *  to its window. */
std::function<std::optional<uint64_t>()>
dbsearchWindow()
{
    apps::DbSearchConfig cfg;
    cfg.width = 16;
    cfg.height = 8;
    auto db = std::make_shared<apps::DbSearch>(cfg);
    Random keys(1);
    for (int i = 0; i < 32; ++i)
        db->inject(static_cast<Word>(
            keys.below(static_cast<uint64_t>(cfg.keySpace))));
    const Tick start = db->network().queue().now() + kDbsearch.lead;
    db->network().run(start);
    return [db, start]() -> std::optional<uint64_t> {
        sim::EventQueue &q = db->network().queue();
        const uint64_t before = q.dispatched();
        q.runUntil(start + kDbsearch.span);
        return q.dispatched() - before;
    };
}

/** bench_route's loss10 scenario, wave 1, run to its window. */
std::function<std::optional<uint64_t>()>
routedWindow()
{
    struct Rig
    {
        apps::RoutedQuery rq;
        fault::FaultInjector injector;

        Rig() : rq(config()) {}

        static apps::RoutedQueryConfig
        config()
        {
            apps::RoutedQueryConfig cfg;
            cfg.topo = route::Topology::torus(8, 8);
            return cfg;
        }
    };
    auto rig = std::make_shared<Rig>();
    route::Fabric &fab = rig->rq.fabric();
    fault::FaultPlan plan;
    plan.seed = 4242;
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
    rig->injector.arm(rig->rq.network(), plan);
    const Tick t1 = rig->rq.network().queue().now();
    rig->rq.queryAll(20);
    const Tick start = t1 + kRouted.lead;
    rig->rq.network().run(start);
    return [rig, start]() -> std::optional<uint64_t> {
        sim::EventQueue &q = rig->rq.network().queue();
        const uint64_t before = q.dispatched();
        q.runUntil(start + kRouted.span);
        return q.dispatched() - before;
    };
}

/** One run's row, or nullopt with `why` set when the count was
 *  skipped. */
std::optional<Row>
count(const Window &w,
      std::function<std::optional<uint64_t>()> (*prepare)(),
      std::string &why)
{
    const HostSteps h = countHostSteps(prepare);
    if (h.steps < 0 || h.result == 0) {
        why = h.steps < 0 ? h.why : "an empty window";
        return std::nullopt;
    }
    const double per =
        static_cast<double>(h.steps) / static_cast<double>(h.result);
    std::cout << w.name << ": " << h.steps << " host instructions over "
              << h.result << " events: " << per << " per event\n";
    return Row()
        .add("per_event", per)
        .add("instructions", h.steps)
        .add("events", h.result)
        .add("window_ns",
             Row().add("after_inject", w.lead).add("span", w.span));
}

} // namespace

int
main()
{
    heading("event kernel: host instructions per dispatched event");
    Report report;
    Row per;
    std::string why;
    for (const auto &[w, prepare] :
         {std::pair{kDbsearch, &dbsearchWindow},
          std::pair{kRouted, &routedWindow}}) {
        const std::optional<Row> r = count(w, prepare, why);
        if (!r) {
            std::cout << "host instructions per event: skipped (" << why
                      << ")\n";
            per = Row().add("skipped", why);
            break;
        }
        per.add(w.name, *r);
    }
    report.add("host_instr_per_event", per);
    report.write("BENCH_kernel.json");
    return 0;
}
