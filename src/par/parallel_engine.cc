/**
 * @file
 * The conservative window-round scheduler (see parallel_engine.hh).
 *
 * Round protocol.  Two barriers per round:
 *
 *   barrier A  -- every shard has finished dispatching the previous
 *                 window, so every cross-shard delivery it produced
 *                 is in the destination inbox;
 *   (each shard drains its inbox and publishes its next event time)
 *   barrier B  -- every shard has published;
 *   (every shard independently computes its window end from the
 *    published times, then dispatches its events inside the window)
 *
 * Safety, legacy global window (epochWindows = false).  Every event a
 * shard dispatches in a round has when >= globalNext.  A cross-shard
 * delivery it produces is timed at least Line::minDeliveryLead()
 * after its cause, so it lands at when >= globalNext + lookahead =
 * windowEnd: nothing a shard dispatches inside the window can be
 * affected by a delivery that has not yet been drained.
 *
 * Safety, per-shard epoch windows (the default).  Let d(t, s) be the
 * narrowest lead of the cut lines from shard t to shard s, and D the
 * all-pairs shortest-path closure of d under addition (with
 * D[s][s] = the shortest cycle through s, never zero).  Inboxes drain
 * only at barrier A, so the earliest event shard s can ever receive
 * that is not already in its queue is the head of a causal chain
 * starting from some shard t's next undispatched event: it arrives at
 *
 *   EIT(s) = min over all t of (localNext(t) + D[t][s])
 *
 * -- the t = s term covers responses bounced back by a neighbour
 * (e.g. a link acknowledge claims the reverse wire with no process
 * wakeup in between, so the round trip is d(s,t) + d(t,s) with no
 * slack).  Each shard dispatches strictly below its own EIT; a shard
 * with no incoming cut paths (or whose peers are idle) runs an
 * arbitrarily long epoch per round.  EIT(s) >= globalNext + narrowest
 * lead always, so epoch windows strictly contain the legacy windows
 * and a run never takes more rounds than the legacy mode.
 *
 * Determinism in both modes follows from the (tick, actor, channel,
 * seq) dispatch order, which is the same total order the serial
 * queue uses.
 */

#include "par/parallel_engine.hh"

#include <algorithm>
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
    Tick limitCap = maxTick;  ///< satAdd(limit, 1): dispatch bound
    Tick lookahead = maxTick; ///< legacy window width (maxTick: uncut)
    bool epoch = true;        ///< per-shard-pair epoch windows
    int nshards = 1;
    /** All-pairs shortest cut-link lead, row-major [from][to]; the
     *  diagonal holds the shortest cycle through the shard (maxTick
     *  where no cut path exists). */
    std::vector<Tick> dist;
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
    std::vector<Tick> next(static_cast<size_t>(c.nshards), maxTick);
    while (true) {
        c.barrier.arriveAndWait(); // A: all deliveries posted
        self.inbox.drainTo(self.queue);
        self.localNext.store(self.queue.nextTime(),
                             std::memory_order_release);
        c.barrier.arriveAndWait(); // B: all next times published
        if (barriers)
            *barriers += 2;
        Tick global_next = maxTick;
        for (int t = 0; t < c.nshards; ++t) {
            next[static_cast<size_t>(t)] =
                shards[static_cast<size_t>(t)]->localNext.load(
                    std::memory_order_acquire);
            global_next =
                std::min(global_next, next[static_cast<size_t>(t)]);
        }
        if (global_next >= c.limitCap)
            return; // quiescent, or nothing left inside the limit
        if (rounds)
            ++*rounds;
        Tick window_end;
        if (c.epoch) {
            // earliest possible not-yet-drained arrival at this shard
            Tick eit = maxTick;
            for (int t = 0; t < c.nshards; ++t)
                eit = std::min(
                    eit,
                    satAdd(next[static_cast<size_t>(t)],
                           c.dist[static_cast<size_t>(t) *
                                      static_cast<size_t>(c.nshards) +
                                  static_cast<size_t>(sidx)]));
            window_end = std::min(eit, c.limitCap);
        } else {
            window_end =
                std::min(satAdd(global_next, c.lookahead), c.limitCap);
        }
        // CPUs may batch instructions ahead of dispatched events, but
        // not into the next window (another shard's delivery may land
        // there) and not past the limit (so the final run-ahead
        // matches the serial run's horizon)
        self.queue.setHorizon(std::min(window_end, c.limit));
        const uint64_t before = self.events;
        while (self.queue.nextTime() < window_end) {
            self.queue.runOne();
            ++self.events;
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
            stats->epochWindows = false;
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
    for (auto &p : master.extractPending()) {
        const auto it = shard_of_actor.find(p.key.actor);
        const int s = it == shard_of_actor.end() ? 0 : it->second;
        shards[s]->queue.insertPending(std::move(p));
    }

    // route cut lines into the destination shard's inbox; the
    // narrowest cut line sets the legacy lookahead and the cut leads
    // seed the per-shard-pair distance matrix
    const size_t ns = static_cast<size_t>(nshards);
    std::vector<Tick> dist(ns * ns, maxTick);
    Tick lookahead = maxTick;
    for (const auto &lr : net.lines()) {
        if (shard_of[lr.srcNode] == shard_of[lr.dstNode]) {
            lr.line->setRouter(nullptr);
            continue;
        }
        const Tick lead = lr.line->minDeliveryLead();
        lookahead = std::min(lookahead, lead);
        Tick &d = dist[static_cast<size_t>(shard_of[lr.srcNode]) * ns +
                       static_cast<size_t>(shard_of[lr.dstNode])];
        d = std::min(d, lead);
        lr.line->setRouter(&shards[shard_of[lr.dstNode]]->inbox);
    }
    TRANSPUTER_ASSERT(lookahead > 0, "cut line with zero lookahead");

    // Floyd-Warshall closure over the shards (nshards is the thread
    // count, so this is tiny).  The diagonal starts at maxTick, not
    // zero, so dist[s][s] converges to the shortest cycle through s:
    // the earliest a shard's own output can bounce back at it.
    for (size_t k = 0; k < ns; ++k)
        for (size_t i = 0; i < ns; ++i) {
            const Tick ik = dist[i * ns + k];
            if (ik == maxTick)
                continue;
            for (size_t j = 0; j < ns; ++j)
                dist[i * ns + j] = std::min(
                    dist[i * ns + j], satAdd(ik, dist[k * ns + j]));
        }

    Coord coord(nshards);
    coord.limit = limit;
    coord.limitCap = satAdd(limit, 1);
    coord.lookahead = lookahead;
    coord.epoch = opts.epochWindows;
    coord.nshards = nshards;
    coord.dist = std::move(dist);

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
    Tick reached = master.now();
    for (auto &sh : shards) {
        sh->inbox.drainTo(sh->queue);
        reached = std::max(reached, sh->queue.now());
        for (auto &p : sh->queue.extractPending())
            master.insertPending(std::move(p));
    }
    if (limit != maxTick)
        reached = std::max(master.now(), limit);
    master.setNow(reached);

    for (size_t i = 0; i < n; ++i)
        net.node(i).setQueue(master);
    for (const auto &er : net.endpoints())
        er.ep->setHomeQueue(master);
    for (const auto &lr : net.lines())
        lr.line->setRouter(nullptr);

    if (stats) {
        stats->rounds = rounds;
        stats->barriers = barriers;
        stats->lookahead = lookahead;
        stats->epochWindows = opts.epochWindows;
        stats->shards.clear();
        for (const auto &sh : shards)
            stats->shards.push_back(ShardStats{
                static_cast<int>(sh->nodes.size()), sh->events,
                sh->inbox.pushes(), sh->stalls, sh->epochs});
    }
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
