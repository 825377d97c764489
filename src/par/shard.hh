/**
 * @file
 * One shard of a partitioned network simulation.
 *
 * A shard owns a slice of the network's nodes, a private event queue
 * for them, and a lock-free inbound queue (Inbox) that other shards
 * post cross-link deliveries into.  The inbox is a Treiber stack:
 * producers push with a CAS, the owning shard drains it with a single
 * exchange at the start of each window round.  Stack (LIFO) order is
 * irrelevant because every delivery carries its (tick, actor,
 * channel, seq) dispatch key -- the event queue restores the order.
 */

#ifndef TRANSPUTER_PAR_SHARD_HH
#define TRANSPUTER_PAR_SHARD_HH

#include <atomic>
#include <vector>

#include "base/types.hh"
#include "link/bursts.hh"
#include "sim/event_queue.hh"

namespace transputer::par
{

/** A lock-free multi-producer single-consumer mailbox of typed
 *  events (the cut lines' deliveries, link::Line::Router). */
class Inbox final : public sim::TypedSink
{
  public:
    Inbox() = default;
    Inbox(const Inbox &) = delete;
    Inbox &operator=(const Inbox &) = delete;
    ~Inbox();

    /** Post an event (any thread). */
    void push(Tick when, const sim::EventKey &key,
              const sim::TypedEvent &ev) override;

    /**
     * Move every posted event into the queue (owning thread only;
     * concurrent pushes land in the next drain).
     * @return number of events moved.
     */
    size_t drainTo(sim::EventQueue &q);

    /** Events ever posted (cross-shard traffic statistic). */
    uint64_t
    pushes() const
    {
        return pushes_.load(std::memory_order_relaxed);
    }

  private:
    struct Node
    {
        Tick when;
        sim::EventKey key;
        sim::TypedEvent ev;
        Node *next;
    };

    std::atomic<Node *> head_{nullptr};
    std::atomic<uint64_t> pushes_{0};
};

/** Per-shard simulation state (one worker thread each). */
struct Shard
{
    sim::EventQueue queue;
    /** The bursts of the shard's internal links (a cut line's two
     *  engines live on different queues and never burst). */
    link::Bursts bursts{queue};
    Inbox inbox;
    /** This shard's next event time and its reach
     *  (sim::EventQueue::nextReach), published at the round barrier. */
    std::atomic<Tick> localNext{maxTick};
    std::atomic<Tick> localReach{maxTick};
    /** Node indices assigned to this shard. */
    std::vector<int> nodes;
    /** Events dispatched by this shard (statistics). */
    uint64_t events = 0;
    /** Window rounds in which this shard had nothing to dispatch:
     *  barrier overhead paid for no work (horizon stalls). */
    uint64_t stalls = 0;
    /** Window rounds in which this shard dispatched at least one
     *  event (its active epochs). */
    uint64_t epochs = 0;
};

} // namespace transputer::par

#endif // TRANSPUTER_PAR_SHARD_HH
