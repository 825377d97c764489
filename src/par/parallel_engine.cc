/**
 * @file
 * The conservative window-round scheduler (see parallel_engine.hh).
 *
 * Round protocol.  Two barriers per round:
 *
 *   barrier A  -- every shard has finished dispatching the previous
 *                 window, so every cross-shard delivery it produced
 *                 is in the destination inbox;
 *   (each shard drains its inbox and publishes its next event time
 *    and its reach)
 *   barrier B  -- every shard has published;
 *   (every shard independently computes its window end from the
 *    published values, then dispatches its events inside the window)
 *
 * Safety.  runParallel builds one sim::Topology with the shards as
 * its groups and the cut lines as its lines.  Every shard publishes
 * its reach (EventQueue::nextReach: its earliest event, a CPU step
 * credited commSuspend, as the serial per-node rule credits it).
 * Inboxes drain only at barrier A, so an event shard s has not yet
 * received ends a causal chain that starts at some shard t's
 * undispatched event and crosses at least one cut line: a single cut
 * line t -> s adds at least its lead, and two or more -- a neighbour's
 * bounce back at s included (a link acknowledge claims the reverse
 * wire with no process wakeup in between) -- add at least multiHop,
 * twice the narrowest cut lead.  So nothing can arrive before
 *
 *   earliestInput(s) = min( reach(t) + lead(t -> s), over the cut
 *                           lines into s;
 *                           min over all t of reach(t) + multiHop )
 *
 * and each shard dispatches strictly below that.  An idle shard
 * publishes maxTick and drops out of everyone's minimum.  Every cut
 * lead is positive, so the shard holding the earliest event always
 * makes progress.
 *
 * Determinism follows from the (tick, actor, channel, seq) dispatch
 * order, which is the same total order the serial queue uses.
 *
 * Failure.  A guest error raised while a shard dispatches (SimFatal,
 * SimPanic, ...) is caught on its worker thread.  The shard stops
 * dispatching, every shard leaves the loop after the next barrier A
 * (all of them read the flag only there, so all agree on the round),
 * the shards merge back as on a normal return, and runParallel
 * rethrows on the caller's thread -- the lowest-numbered shard's
 * exception if several failed.
 */

#include "par/parallel_engine.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <thread>
#include <unordered_map>

#include "base/logging.hh"
#include "par/barrier.hh"
#include "par/shard.hh"

namespace transputer::par
{

namespace
{

using sim::satAdd;

/** Shared round state (written before the spawn / at barriers). */
struct Coord
{
    explicit Coord(int parties) : barrier(parties) {}

    Barrier barrier;
    Tick limit = maxTick;
    Tick limitCap = maxTick; ///< satAdd(limit, 1): dispatch bound
    /** The shards as the groups of a lookahead table whose lines are
     *  the cut lines. */
    std::shared_ptr<const sim::Topology> cut;
    /** Some shard caught an exception: all stop at the next barrier. */
    std::atomic<bool> failed{false};
    std::vector<std::exception_ptr> errors; ///< per shard
};

/**
 * One shard's round loop.  Every worker computes the same global next
 * time from the published per-shard values, so no coordinator thread
 * is needed and all workers exit the loop on the same round.
 */
void
workerLoop(Shard &self, int sidx,
           std::vector<std::unique_ptr<Shard>> &shards, Coord &c,
           uint64_t *rounds, uint64_t *barriers)
{
    std::vector<Tick> reach(shards.size(), maxTick);
    while (true) {
        c.barrier.arriveAndWait(); // A: all deliveries posted
        if (c.failed.load(std::memory_order_acquire))
            return;
        self.inbox.drainTo(self.queue);
        self.localNext.store(self.queue.nextTime(),
                             std::memory_order_release);
        self.localReach.store(self.queue.nextReach(),
                              std::memory_order_release);
        c.barrier.arriveAndWait(); // B: all next times published
        if (barriers)
            *barriers += 2;
        Tick global_next = maxTick;
        for (size_t t = 0; t < shards.size(); ++t) {
            global_next = std::min(
                global_next,
                shards[t]->localNext.load(std::memory_order_acquire));
            reach[t] =
                shards[t]->localReach.load(std::memory_order_acquire);
        }
        if (global_next >= c.limitCap)
            return; // quiescent, or nothing left inside the limit
        if (rounds)
            ++*rounds;
        const Tick window_end = std::min(
            c.cut->earliestInput(static_cast<uint32_t>(sidx), reach),
            c.limitCap);
        // CPUs may batch instructions ahead of dispatched events, but
        // not into the next window (another shard's delivery may land
        // there) and not past the limit (so the final run-ahead
        // matches the serial run's horizon)
        self.queue.setHorizon(std::min(window_end, c.limit));
        const uint64_t before = self.events;
        try {
            while (self.queue.nextTime() < window_end) {
                self.queue.runOne();
                ++self.events;
            }
        } catch (...) {
            c.errors[static_cast<size_t>(sidx)] = std::current_exception();
            c.failed.store(true, std::memory_order_release);
        }
        if (self.events == before)
            ++self.stalls;
        else
            ++self.epochs;
    }
}

} // namespace

std::vector<int>
computePartition(size_t nodes, const net::RunOptions &opts)
{
    if (opts.partition == net::Partition::Custom) {
        TRANSPUTER_ASSERT(opts.shardOf.size() == nodes,
                          "custom partition must map every node");
        for (int s : opts.shardOf)
            TRANSPUTER_ASSERT(s >= 0 && s < opts.threads,
                              "custom partition shard out of range");
        return opts.shardOf;
    }
    const size_t t = std::clamp<size_t>(
        static_cast<size_t>(std::max(opts.threads, 1)), 1,
        std::max<size_t>(nodes, 1));
    std::vector<int> map(nodes, 0);
    for (size_t i = 0; i < nodes; ++i)
        map[i] = opts.partition == net::Partition::Striped
                     ? static_cast<int>(i % t)
                     : static_cast<int>(i * t / nodes);
    return map;
}

Tick
runParallel(net::Network &net, Tick limit, const net::RunOptions &opts,
            RunStats *stats)
{
    auto &master = net.queue();
    const size_t n = net.size();
    if (opts.trace)
        for (size_t i = 0; i < n; ++i)
            net.node(i).setTraceEnabled(*opts.trace);
    if (opts.profile)
        for (size_t i = 0; i < n; ++i)
            net.node(i).setProfileEnabled(*opts.profile);
    if (opts.timeseries)
        for (size_t i = 0; i < n; ++i)
            net.node(i).setTimeseriesEnabled(*opts.timeseries);
    if (n == 0)
        return net.run(limit);
    // every burst is re-homed with its nodes from the per-byte state
    net.settleLinks();

    const std::vector<int> shard_of = computePartition(n, opts);
    const int nshards =
        opts.partition == net::Partition::Custom
            ? std::max(opts.threads, 1)
            : *std::max_element(shard_of.begin(), shard_of.end()) + 1;

    if (nshards == 1) {
        // one shard is just the serial simulation: run it on the
        // master queue, where the network's per-actor lookahead
        // topology lets CPUs batch past other nodes' events
        const uint64_t before = master.dispatched();
        const Tick reached = net.run(limit);
        if (stats) {
            stats->rounds = 0;
            stats->barriers = 0;
            stats->lookahead = maxTick;
            stats->shards = {ShardStats{static_cast<int>(n),
                                        master.dispatched() - before,
                                        0, 0}};
        }
        return reached;
    }

    // every shard bounds its CPUs with the network's one per-node
    // lookahead table: a node's in-neighbours on other shards have no
    // events in its queue, and the window horizon covers them
    const auto &topo = net.topology();
    std::vector<std::unique_ptr<Shard>> shards;
    for (int s = 0; s < nshards; ++s) {
        shards.push_back(std::make_unique<Shard>());
        shards.back()->queue.setTopology(topo);
        shards.back()->bursts.reset();
        shards.back()->queue.setNow(master.now());
    }
    for (size_t i = 0; i < n; ++i)
        shards[shard_of[i]]->nodes.push_back(static_cast<int>(i));

    // actor -> shard (actor 0, the legacy unkeyed channel, pins to
    // shard 0: unkeyed events must not touch nodes of other shards)
    std::unordered_map<uint32_t, int> shard_of_actor;
    shard_of_actor[0] = 0;
    for (size_t i = 0; i < n; ++i)
        shard_of_actor[net.node(i).actor()] = shard_of[i];
    for (const auto &er : net.endpoints())
        shard_of_actor[er.ep->actor()] = shard_of[er.homeNode];

    // re-home every node and endpoint onto its shard's queue, and
    // migrate the pending events to the shard of their actor
    for (size_t i = 0; i < n; ++i)
        net.node(i).setQueue(shards[shard_of[i]]->queue);
    for (const auto &er : net.endpoints())
        er.ep->setHomeQueue(shards[shard_of[er.homeNode]]->queue);
    // an engine pair inside a shard bursts on that shard's queue
    net.forEachEngine([&](link::LinkEngine &e) {
        if (e.bursts())
            e.setBursts(&shards[shard_of_actor.at(e.actor())]->bursts);
    });
    for (auto &p : master.extractPending()) {
        const auto it = shard_of_actor.find(p.key.actor);
        const int s = it == shard_of_actor.end() ? 0 : it->second;
        shards[s]->queue.insertPending(std::move(p));
    }

    // route cut lines into the destination shard's inbox; they are
    // the lines of the shards' lookahead table
    std::vector<sim::Topology::Line> cut_lines;
    Tick lookahead = maxTick;
    for (const auto &lr : net.lines()) {
        if (shard_of[lr.srcNode] == shard_of[lr.dstNode]) {
            lr.line->setRouter(nullptr);
            continue;
        }
        const Tick lead = lr.line->minDeliveryLead();
        lookahead = std::min(lookahead, lead);
        cut_lines.push_back(sim::Topology::Line{
            static_cast<uint32_t>(shard_of[lr.srcNode]),
            static_cast<uint32_t>(shard_of[lr.dstNode]), lead});
        lr.line->setRouter(&shards[shard_of[lr.dstNode]]->inbox);
    }
    TRANSPUTER_ASSERT(lookahead > 0, "cut line with zero lookahead");

    Coord coord(nshards);
    coord.limit = limit;
    coord.limitCap = satAdd(limit, 1);
    coord.cut = sim::Topology::build({}, static_cast<uint32_t>(nshards),
                                     std::move(cut_lines),
                                     topo->stepExtra);
    coord.errors.resize(static_cast<size_t>(nshards));

    uint64_t rounds = 0, barriers = 0;
    std::vector<std::thread> workers;
    for (int s = 1; s < nshards; ++s)
        workers.emplace_back([&shards, &coord, s] {
            workerLoop(*shards[s], s, shards, coord, nullptr, nullptr);
        });
    workerLoop(*shards[0], 0, shards, coord, &rounds, &barriers);
    for (auto &w : workers)
        w.join();

    // merge back: any undelivered (post-limit) deliveries first, then
    // every shard's remaining events, then the clock; finally restore
    // the serial wiring
    const bool failed = coord.failed.load();
    Tick reached = master.now();
    for (auto &sh : shards) {
        sh->inbox.drainTo(sh->queue);
        // the clock reaches the limit, as the serial run(limit)'s
        // does, and open bursts close at the end of its tick
        if (limit != maxTick && !failed)
            sh->queue.setNow(std::max(sh->queue.now(), limit));
        sh->bursts.settleAll();
        reached = std::max(reached, sh->queue.now());
        for (auto &p : sh->queue.extractPending())
            master.insertPending(std::move(p));
        master.absorbStats(sh->queue.stats());
    }
    // a failed run stops where its shards did, before any event still
    // pending on one of them
    if (failed)
        reached = std::max(master.now(),
                           std::min(reached, master.nextTime()));
    master.setNow(reached);

    for (size_t i = 0; i < n; ++i)
        net.node(i).setQueue(master);
    for (const auto &er : net.endpoints())
        er.ep->setHomeQueue(master);
    net.forEachEngine([&](link::LinkEngine &e) {
        if (e.bursts())
            e.setBursts(&net.bursts());
    });
    for (const auto &lr : net.lines())
        lr.line->setRouter(nullptr);

    if (stats) {
        stats->rounds = rounds;
        stats->barriers = barriers;
        stats->lookahead = lookahead;
        stats->shards.clear();
        for (const auto &sh : shards)
            stats->shards.push_back(ShardStats{
                static_cast<int>(sh->nodes.size()), sh->events,
                sh->inbox.pushes(), sh->stalls, sh->epochs,
                sh->bursts.opened()});
    }
    for (const std::exception_ptr &e : coord.errors)
        if (e)
            std::rethrow_exception(e);
    return master.now();
}

} // namespace transputer::par

namespace transputer::net
{

// declared in net/network.hh; lives here so transputer_net does not
// depend on transputer_par (callers of the parallel overload link
// transputer_par explicitly)
Tick
Network::run(Tick limit, const RunOptions &opts)
{
    const Tick reached = par::runParallel(*this, limit, opts);
    // the post-run hook (obs::armFlightDump) also fires inside the
    // serial run() that single-shard configurations delegate to; a
    // second evaluation here is cheap and the dump itself is one-shot
    if (postRun_)
        postRun_(*this);
    return reached;
}

} // namespace transputer::net
