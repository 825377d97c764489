/**
 * @file
 * tsnap: save, restore, inspect and diff simulation snapshots
 * (src/snap; DESIGN.md section 4.5).
 *
 *   tsnap save --scenario e7 --iters 200000 --run-for 5000000 \
 *         --out e7.tsnap
 *   tsnap save --scenario dbsearch --width 4 --height 4 --queries 4 \
 *         [--loss 0.01 --seed 7 --watchdog 200000] [--threads 4] \
 *         --run-for 2000000 --out db.tsnap
 *   tsnap restore db.tsnap --run-for 2000000 [--threads 4] \
 *         [--verify] [--out later.tsnap]
 *   tsnap info db.tsnap
 *   tsnap diff a.tsnap b.tsnap [--ignore-cache-stats]
 *
 * The save command embeds the scenario parameters in the snapshot's
 * SCEN section, so `tsnap restore` can rebuild the matching network
 * in a fresh process with no other input.  --verify replays the whole
 * history uninterrupted in the same process and diffs the two end
 * states field by field: a correct restore is bit-identical on every
 * architectural field.
 */

#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/dbsearch.hh"
#include "apps/e7.hh"
#include "fault/fault.hh"
#include "par/parallel_engine.hh"
#include "par/snap_par.hh"
#include "snap/snapshot.hh"
#include "tasm/assembler.hh"

using namespace transputer;

namespace
{

using Kv = std::map<std::string, std::string>;

int64_t
num(const Kv &kv, const std::string &key, int64_t def)
{
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::stoll(it->second);
}

double
fnum(const Kv &kv, const std::string &key, double def)
{
    const auto it = kv.find(key);
    return it == kv.end() ? def : std::stod(it->second);
}

/** A rebuilt workload: the network plus everything around it. */
struct Scenario
{
    Kv kv;
    std::unique_ptr<net::Network> net;  ///< e7
    std::unique_ptr<apps::DbSearch> db; ///< dbsearch
    fault::FaultPlan plan;
    bool faulty = false;
    std::unique_ptr<fault::FaultInjector> injector;

    net::Network &network() { return db ? db->network() : *net; }

    snap::SaveOptions
    saveOptions()
    {
        snap::SaveOptions so;
        if (db)
            so.peripherals.push_back(&db->host());
        if (faulty)
            so.fault = injector.get();
        so.scenario = kv;
        return so;
    }

    snap::RestoreOptions
    restoreOptions()
    {
        snap::RestoreOptions ro;
        if (db)
            ro.peripherals.push_back(&db->host());
        if (faulty) {
            ro.fault = injector.get();
            ro.plan = &plan;
        }
        return ro;
    }
};

/**
 * Build the scenario kv describes.  With `arm` the fault plan is
 * armed for a fresh run; without, the injector is left unarmed for
 * restore() to arm with the saved PRNG streams.
 */
Scenario
buildScenario(const Kv &kv, bool arm)
{
    Scenario sc;
    sc.kv = kv;
    const auto it = kv.find("scenario");
    const std::string name = it == kv.end() ? "" : it->second;
    if (name == "e7") {
        core::Config cfg;
        cfg.predecode = num(kv, "predecode", 1) != 0;
        sc.net = std::make_unique<net::Network>();
        const int id = sc.net->addTransputer(cfg, "e7");
        core::Transputer &t = sc.net->node(id);
        const tasm::Image img = tasm::assemble(
            apps::e7LoopSource(num(kv, "iters", 200'000)),
            t.memory().memStart(), t.shape());
        sc.net->bootImage(id, img);
    } else if (name == "dbsearch") {
        apps::DbSearchConfig cfg;
        cfg.width = static_cast<int>(num(kv, "width", 4));
        cfg.height = static_cast<int>(num(kv, "height", 4));
        cfg.node.predecode = num(kv, "predecode", 1) != 0;
        const Tick watchdog = num(kv, "watchdog", 0);
        if (watchdog > 0)
            cfg.linkWatchdog = watchdog;
        sc.db = std::make_unique<apps::DbSearch>(cfg);
        const int64_t queries = num(kv, "queries", 4);
        for (int64_t q = 0; q < queries; ++q)
            sc.db->inject(static_cast<Word>(7 * q + 3));
        const double loss = fnum(kv, "loss", 0.0);
        if (loss > 0) {
            sc.faulty = true;
            sc.plan.seed = static_cast<uint64_t>(num(kv, "seed", 1));
            sc.plan.allLines.dataLoss = loss;
            sc.plan.allLines.ackLoss = loss;
            sc.injector = std::make_unique<fault::FaultInjector>();
            if (arm)
                sc.injector->arm(sc.network(), sc.plan);
        }
    } else {
        throw std::runtime_error(
            "unknown scenario '" + name +
            "' (tsnap rebuilds: e7, dbsearch)");
    }
    return sc;
}

Tick
runScenario(net::Network &n, Tick limit, int threads)
{
    if (threads <= 1)
        return n.run(limit);
    net::RunOptions opts;
    opts.threads = threads;
    return n.run(limit, opts);
}

void
printSummary(Scenario &sc)
{
    net::Network &n = sc.network();
    const obs::Counters c = n.counters();
    std::cout << "tick " << n.queue().now() << ": " << c.instructions
              << " instructions, " << c.cycles << " cycles\n";
    if (sc.db) {
        const std::vector<Word> words =
            sc.db->host().words(sc.db->config().node.shape.bytes);
        std::cout << "answers so far:";
        for (Word w : words)
            std::cout << ' ' << w;
        std::cout << '\n';
    }
}

int
cmdSave(const Kv &kv)
{
    const auto out = kv.find("out");
    if (out == kv.end())
        throw std::runtime_error("save needs --out FILE");
    const Tick run_for = num(kv, "runFor", 0);
    if (run_for <= 0)
        throw std::runtime_error("save needs --run-for TICKS");
    const int threads = static_cast<int>(num(kv, "threads", 1));

    // keep "threads" in the embedded scenario: restore --verify needs
    // to know the save ran under src/par (scheduler bookkeeping
    // depends on the engine, see DiffOptions::ignoreSchedulerSeqs)
    Kv scen = kv;
    scen.erase("out");
    Scenario sc = buildScenario(scen, true);
    runScenario(sc.network(), run_for, threads);

    const snap::SaveOptions so = sc.saveOptions();
    snap::Snapshot s;
    if (threads > 1) {
        net::RunOptions opts;
        opts.threads = threads;
        s = par::captureAtBarrier(sc.network(), opts, so);
    } else {
        s = snap::capture(sc.network(), so);
    }
    snap::writeFile(out->second, s);
    std::cout << "wrote " << out->second << "\n" << snap::info(s);
    printSummary(sc);
    return 0;
}

int
cmdRestore(const std::string &file, const Kv &kv)
{
    const snap::Snapshot s = snap::readFile(file);
    if (s.scenario.find("scenario") == s.scenario.end())
        throw std::runtime_error(
            file + " carries no scenario metadata; restore it "
                   "through the library API instead");
    const Tick run_for = num(kv, "runFor", 0);
    const int threads = static_cast<int>(num(kv, "threads", 1));

    Scenario sc = buildScenario(s.scenario, false);
    snap::restore(sc.network(), s, sc.restoreOptions());
    std::cout << "restored " << file << " at tick " << s.now << '\n';
    if (run_for > 0)
        runScenario(sc.network(), s.now + run_for, threads);
    printSummary(sc);

    if (kv.count("verify")) {
        // replay the whole history uninterrupted and diff end states
        Scenario base = buildScenario(s.scenario, true);
        const Tick saved_at = num(s.scenario, "runFor", 0);
        runScenario(base.network(), saved_at, 1);
        if (run_for > 0)
            runScenario(base.network(), s.now + run_for, 1);
        const snap::Snapshot a =
            snap::capture(sc.network(), sc.saveOptions());
        const snap::Snapshot b =
            snap::capture(base.network(), base.saveOptions());
        snap::DiffOptions dopts;
        // a restored run re-decodes dropped predecode entries, so its
        // cache statistics legitimately differ
        dopts.ignoreCacheStats = num(s.scenario, "predecode", 1) != 0;
        // the baseline replays serially; a parallel save or a
        // parallel continuation batches differently
        dopts.ignoreSchedulerSeqs =
            num(s.scenario, "threads", 1) > 1 || threads > 1;
        const auto d = snap::firstDivergence(a, b, dopts);
        if (d) {
            std::cout << "DIVERGED at " << d->where << ": restored="
                      << d->a << " baseline=" << d->b << '\n';
            return 1;
        }
        std::cout << "verified: restored continuation matches the "
                     "uninterrupted run\n";
    }

    const auto out = kv.find("out");
    if (out != kv.end()) {
        const snap::Snapshot cont =
            snap::capture(sc.network(), sc.saveOptions());
        snap::writeFile(out->second, cont);
        std::cout << "wrote " << out->second << '\n';
    }
    return 0;
}

int
cmdInfo(const std::string &file)
{
    std::cout << snap::info(snap::readFile(file));
    return 0;
}

int
cmdDiff(const std::string &fa, const std::string &fb, const Kv &kv)
{
    const snap::Snapshot a = snap::readFile(fa);
    const snap::Snapshot b = snap::readFile(fb);
    snap::DiffOptions opts;
    opts.ignoreCacheStats = kv.count("ignore-cache-stats") != 0;
    opts.ignoreSchedulerSeqs =
        kv.count("ignore-scheduler-seqs") != 0;
    const auto all = snap::divergences(a, b, opts);
    if (all.empty()) {
        std::cout << "identical\n";
        return 0;
    }
    const size_t shown = kv.count("all") ? all.size() : 1;
    std::cout << (shown > 1 ? "divergences" : "first divergence");
    std::cout << " (" << all.size() << " total):\n";
    for (size_t i = 0; i < shown; ++i)
        std::cout << "  " << all[i].where << ": " << fa << "="
                  << all[i].a << "  " << fb << "=" << all[i].b
                  << '\n';
    return 1;
}

int
usage()
{
    std::cerr <<
        "usage:\n"
        "  tsnap save --scenario e7|dbsearch --run-for T --out F\n"
        "        [--iters N] [--width W --height H --queries Q]\n"
        "        [--loss P --seed S --watchdog T] [--predecode 0|1]\n"
        "        [--threads K]\n"
        "  tsnap restore F [--run-for T] [--threads K] [--verify]\n"
        "        [--out F2]\n"
        "  tsnap info F\n"
        "  tsnap diff A B [--ignore-cache-stats]\n"
        "        [--ignore-scheduler-seqs] [--all]\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string cmd = args[0];

    // positional operands, then --key value options (--verify and
    // --ignore-cache-stats are flags); --run-for maps to key "runFor"
    std::vector<std::string> pos;
    Kv kv;
    for (size_t i = 1; i < args.size(); ++i) {
        const std::string &a = args[i];
        if (a.rfind("--", 0) != 0) {
            pos.push_back(a);
            continue;
        }
        std::string key = a.substr(2);
        if (key == "run-for")
            key = "runFor";
        if (key == "verify" || key == "ignore-cache-stats" ||
            key == "ignore-scheduler-seqs" || key == "all") {
            kv[key] = "1";
            continue;
        }
        if (i + 1 >= args.size()) {
            std::cerr << "missing value for --" << key << '\n';
            return usage();
        }
        kv[key] = args[++i];
    }

    try {
        if (cmd == "save" && pos.empty())
            return cmdSave(kv);
        if (cmd == "restore" && pos.size() == 1)
            return cmdRestore(pos[0], kv);
        if (cmd == "info" && pos.size() == 1)
            return cmdInfo(pos[0]);
        if (cmd == "diff" && pos.size() == 2)
            return cmdDiff(pos[0], pos[1], kv);
    } catch (const std::exception &e) {
        std::cerr << "tsnap: " << e.what() << '\n';
        return 1;
    }
    return usage();
}
