/**
 * @file
 * Conservative parallel discrete-event simulation of a network.
 *
 * The network's nodes are partitioned into shards, one worker thread
 * each, and the simulation advances in barrier-synchronized window
 * rounds.  A link's earliest remote effect trails its local cause by
 * at least Line::minDeliveryLead() (two bit times plus the
 * propagation delay), which bounds how far each shard can dispatch
 * without waiting for the others.  Each shard's window ends where the
 * serial queue's per-node lookahead rule (DESIGN.md section 4.8) puts
 * it, with the shards as the nodes and the cut lines as the wires
 * (sim::Topology::earliestInput).  Cross-shard deliveries travel
 * through lock-free inboxes and carry their
 * (tick, actor, channel, seq) dispatch keys, so each shard's queue
 * dispatches exactly the event sequence the single serial queue
 * would: an N-thread run is bit-identical to the serial run.  There
 * is no rollback.
 */

#ifndef TRANSPUTER_PAR_PARALLEL_ENGINE_HH
#define TRANSPUTER_PAR_PARALLEL_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/types.hh"
#include "net/network.hh"

namespace transputer::par
{

/** What one parallel run did (per-shard breakdown). */
struct ShardStats
{
    int nodes = 0;            ///< nodes assigned to the shard
    uint64_t events = 0;      ///< events the shard dispatched
    uint64_t inboxPushes = 0; ///< cross-shard events posted to it
    uint64_t stalls = 0;      ///< rounds where it dispatched nothing
    uint64_t epochs = 0;      ///< rounds where it dispatched events
    uint64_t bursts = 0;      ///< link bursts opened on its queue
};

struct RunStats
{
    uint64_t rounds = 0;   ///< synchronization windows executed
    uint64_t barriers = 0; ///< barrier crossings (2 per round + exit)
    Tick lookahead = 0;    ///< narrowest cut lead (maxTick: uncut)
    std::vector<ShardStats> shards;

    uint64_t
    totalEvents() const
    {
        uint64_t n = 0;
        for (const auto &s : shards)
            n += s.events;
        return n;
    }

    /** Busiest shard's share of events over the mean (1.0: perfectly
     *  balanced; only meaningful when totalEvents() > 0). */
    double
    imbalance() const
    {
        const uint64_t total = totalEvents();
        if (shards.empty() || !total)
            return 1.0;
        uint64_t most = 0;
        for (const auto &s : shards)
            most = std::max<uint64_t>(most, s.events);
        return static_cast<double>(most) * shards.size() /
               static_cast<double>(total);
    }
};

/**
 * The node -> shard map Network::run(limit, opts) will use.  Exposed
 * for tests and benchmarks.  The shard count is opts.threads clamped
 * to the node count (Custom maps are taken as given and validated).
 */
std::vector<int> computePartition(size_t nodes,
                                  const net::RunOptions &opts);

/**
 * Run the network on opts.threads shard worker threads until limit
 * (maxTick: to quiescence).  Bit-identical to net.run(limit).
 * @return the simulated time reached.
 */
Tick runParallel(net::Network &net, Tick limit,
                 const net::RunOptions &opts,
                 RunStats *stats = nullptr);

} // namespace transputer::par

#endif // TRANSPUTER_PAR_PARALLEL_ENGINE_HH
