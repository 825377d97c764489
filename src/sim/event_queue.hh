/**
 * @file
 * The discrete-event simulation kernel.
 *
 * An EventQueue drives a set of actors (CPUs, link engines, wires,
 * peripherals) that interact exclusively through scheduled events,
 * which makes multi-transputer co-simulation exact at event
 * granularity.
 *
 * Determinism.  Events are dispatched in the total order
 * (tick, actor, channel, seq): `actor` is the component the event
 * acts upon, `channel` is a structural source within that actor (CPU
 * step, timer, per-link wire, ...) and `seq` is a per-channel FIFO
 * sequence number assigned by the scheduling side.  Because the order
 * never depends on heap internals or on *when* an event was inserted
 * relative to other actors' activity, a network partitioned across
 * several shard-local queues (src/par) dispatches each actor's events
 * in exactly the order the single serial queue would -- the basis of
 * the serial/parallel bit-equivalence guarantee.  Events scheduled
 * through the legacy unkeyed API fall into actor 0 / channel 0 and
 * keep their classic FIFO-among-ties behaviour.
 *
 * Event kinds.  Every pending event is one compact heap entry carrying
 * one of three payloads; the kind never affects the dispatch order.
 *  - static: a StaticEvent living inside its owner (CPU step and
 *    timer, link and switch-port watchdogs, hop timers), re-armed in
 *    place and cancelled lazily;
 *  - typed: a fire-and-forget TypedEvent record (function pointer,
 *    context, 64-bit argument) -- the per-packet line deliveries;
 *  - closure: a std::function kept in a live-set map, the only kind
 *    cancel(EventId) applies to.  The cold path: tests, examples,
 *    peripheral latency, fault-plan node events, route flow timers.
 * The static and typed kinds allocate nothing per event.
 */

#ifndef TRANSPUTER_SIM_EVENT_QUEUE_HH
#define TRANSPUTER_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"

namespace transputer::sim
{

/** Opaque handle identifying a scheduled event (for cancellation). */
using EventId = uint64_t;

/** No-event sentinel. */
constexpr EventId invalidEventId = 0;

/**
 * Deterministic dispatch key for simultaneous events.
 *
 * Same-tick events fire in (actor, channel, seq) order.  Channels are
 * structural: a given (actor, channel) pair always names the same
 * event source, so the order of two simultaneous events never depends
 * on scheduling history.
 */
struct EventKey
{
    uint32_t actor = 0;   ///< component the event acts upon (0: none)
    uint32_t channel = 0; ///< structural source within the actor
    uint64_t seq = 0;     ///< FIFO sequence within (actor, channel)
};

/** @name Channel numbering convention (shared by core/link/net) */
///@{
constexpr uint32_t chanStep = 0;  ///< CPU instruction-batch events
constexpr uint32_t chanTimer = 1; ///< timer expiry events
constexpr uint32_t chanSelf = 2;  ///< actor-internal (peripherals)
constexpr uint32_t chanFault = 3; ///< fault-plan events (src/fault)
constexpr uint32_t chanLine = 8;  ///< + line id: wire deliveries
///@}

/**
 * A fire-and-forget event payload: dispatch calls fn(ctx, arg).
 *
 * Plain data, so it is copied into a heap entry -- or into a
 * cross-shard mailbox record (src/par) -- without allocating.  A typed
 * event cannot be cancelled.
 */
struct TypedEvent
{
    using Fn = void (*)(void *ctx, uint64_t arg);

    Fn fn = nullptr;
    void *ctx = nullptr;
    uint64_t arg = 0;
};

/**
 * Where typed events go when they must not be scheduled on the
 * producer's own queue: a shard's inbound mailbox (par::Inbox), which
 * the owning shard drains into its queue.
 */
class TypedSink
{
  public:
    virtual void push(Tick when, const EventKey &key,
                      const TypedEvent &ev) = 0;

  protected:
    ~TypedSink() = default;
};

class EventQueue;

/**
 * A preallocated, reusable event: the allocation-free path for an
 * owner's recurring events (CPU step and timer, watchdogs).
 *
 * The object lives inside its owner, carries a plain function pointer
 * + context instead of a std::function, and is re-armed in place
 * (EventQueue::scheduleStatic).  Cancelling (EventQueue::cancelStatic)
 * only clears the armed flag: the heap entry left behind is dead
 * because its id no longer matches the current arming.  A re-arming
 * on the same actor and channel, strictly later than the event's
 * newest entry still in the heap, pushes nothing -- that entry stands
 * in for it and, on reaching the top, re-queues the arming under its
 * exact (tick, key, id) -- so a watchdog pushed back on every byte
 * costs no heap traffic.  Dispatch order is unchanged:
 * the stand-in sorts before the arming it carries, so the arming is
 * back in the heap before anything after it can run.
 *
 * At most one arming may be outstanding; the owner re-arms it from
 * inside the fire callback (or later).  Migration between queues
 * (EventQueue::extractPending/insertPending, src/par) moves the object
 * itself with its tick, key and id, so it is pending() again on the
 * new queue.  Destroying it unlinks it from the queue still holding
 * its entries (armed or dead), so an owner may die before its queue.
 */
class StaticEvent
{
  public:
    using FireFn = void (*)(void *);

    StaticEvent(FireFn fire, void *ctx) : fire_(fire), ctx_(ctx) {}
    StaticEvent(const StaticEvent &) = delete;
    StaticEvent &operator=(const StaticEvent &) = delete;
    ~StaticEvent();

    /** True while armed on some queue. */
    bool pending() const { return armed_; }

    /** @name Scheduling introspection (src/snap, tests)
     *  Valid only while pending(): the tick, key and dispatch id of the
     *  current arming, so a checkpoint can re-schedule the event
     *  exactly.
     */
    ///@{
    Tick scheduledAt() const { return when_; }
    const EventKey &scheduledKey() const { return key_; }
    EventId id() const { return id_; }
    ///@}

  private:
    friend class EventQueue;

    FireFn fire_;
    void *ctx_;
    Tick when_ = 0;
    EventKey key_{};
    EventId id_ = invalidEventId;
    EventQueue *home_ = nullptr; ///< queue whose heap names this event
    Tick headWhen_ = 0;          ///< tick of the newest entry pushed
    uint32_t entries_ = 0;       ///< heap entries (live or dead) there
    bool armed_ = false;
    bool headValid_ = false; ///< that entry is still in the heap
    bool deferred_ = false;  ///< armed, carried by an earlier entry
};

/**
 * A time-ordered queue of events.
 *
 * Cancellation is lazy: cancelled entries stay in the heap and are
 * skipped when popped, which keeps schedule/cancel O(log n) without a
 * decrease-key structure.
 *
 * Event ids are unique across every EventQueue instance in the
 * process, so an event migrated between queues (src/par shard
 * partitioning) keeps a valid cancellation handle.
 */
class EventQueue
{
  public:
    EventQueue() : nextId_(s_idEpoch.fetch_add(1) << idEpochShift) {}
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Releases the static events it still names (see clear()). */
    ~EventQueue() { clear(); }

    /** Current simulated time (time of the last dispatched event). */
    Tick now() const { return now_; }

    /**
     * Force the clock forward (no events before t may be pending).
     * Used when handing simulated time between queues (src/par) and
     * by runUntil.
     */
    void
    setNow(Tick t)
    {
        TRANSPUTER_ASSERT(t >= now_, "setNow must move time forward");
        TRANSPUTER_ASSERT(nextTime() >= t,
                          "setNow would skip pending events");
        now_ = t;
    }

    /**
     * The time horizon this queue is allowed to see (maxTick when
     * unbounded).  A conservative parallel run bounds each shard's
     * horizon to the synchronization window; actors that run ahead of
     * dispatched events (the CPU instruction batcher) must not advance
     * past it, because events from other shards may still arrive up to
     * the horizon.
     */
    Tick horizon() const { return horizon_; }
    void setHorizon(Tick h) { horizon_ = h; }

    /** @name Topology-aware per-actor lookahead (net::Network)
     *
     * The co-simulation bounds every CPU's instruction run-ahead at
     * the earliest pending event that could affect it.  The global
     * nextTime() is a correct such bound, but tighter than physics
     * requires: an event acting on *another* node can only influence
     * this one through a link, whose delivery arrives at least the
     * wire's minimum lead after its cause -- the same lookahead
     * argument the shard-parallel engine applies across a cut
     * (src/par), here applied per node inside one queue.  The network
     * registers each actor's group (its node) and the minimum
     * link-lead distance between groups; nextTimeFor(actor) then
     * credits another group's events with the connecting distance
     * while counting the actor's own group's events at face value.
     * Without a registered topology it degrades to nextTime(), the
     * exact legacy bound.
     */
    ///@{
    /**
     * Register the actor->group map (indexed by actor id; -1 or out
     * of range: a global actor whose events reach every group
     * immediately) and the ngroups x ngroups matrix of minimum
     * link-lead distances in ticks (row-major, dist[from][to];
     * dist[g][g] must be 0).
     *
     * step_extra is an additional credit for another group's
     * chanStep events on top of the wire lead: a CPU batch event
     * only executes instructions, and every instruction path from
     * execution to a wire claim charges the architectural clock
     * first (channelOut/channelIn charge cyc::commSuspend before
     * the engine sees the request -- see link::LinkEngine), so a
     * foreign step at T cannot make its first claim before
     * T + step_extra.  Engine, timer, and fault events keep the
     * bare wire lead.
     */
    void
    setTopology(std::vector<int32_t> group_of_actor, int ngroups,
                std::vector<Tick> dist, Tick step_extra = 0)
    {
        TRANSPUTER_ASSERT(dist.size() ==
                              static_cast<size_t>(ngroups) * ngroups,
                          "topology distance matrix size mismatch");
        groupOf_ = std::move(group_of_actor);
        ngroups_ = ngroups;
        dist_ = std::move(dist);
        stepExtra_ = step_extra;
    }

    /** Drop the topology map: nextTimeFor reverts to nextTime(). */
    void
    clearTopology()
    {
        groupOf_.clear();
        dist_.clear();
        ngroups_ = 0;
        stepExtra_ = 0;
    }

    /**
     * Earliest tick at which any pending event could act on the given
     * actor's group.  Never earlier than now(), never later than the
     * earliest pending event of the actor's own group.  Cancelled
     * entries still in the heap are ignored: the bound must be a
     * function of the live event set alone, which a restored snapshot
     * reproduces exactly -- counting dead entries would make batch
     * boundaries (and the step-event seq counters) depend on lazily
     * cancelled garbage a restored run does not have.
     */
    Tick
    nextTimeFor(uint32_t actor)
    {
        skipDead();
        const int32_t me = ngroups_ == 0 ? -1 : groupOf(actor);
        if (me < 0)
            return heap_.empty() ? maxTick : heap_.front().when;
        Tick best = maxTick;
        for (const HeapEntry &e : heap_) {
            Tick d = 0;
            const int32_t g = groupOf(e.key.actor);
            if (g >= 0 && g != me) {
                d = dist_[static_cast<size_t>(g) * ngroups_ + me];
                if (e.key.channel == chanStep)
                    d += stepExtra_; // see setTopology
            }
            Tick t = d >= maxTick - e.when ? maxTick : e.when + d;
            // liveness is checked only when the entry would lower the
            // bound, so the common far-future entries cost no lookup
            if (t >= best || !alive(e))
                continue;
            if (const StaticEvent *s = staticOf(e); s && s->deferred_)
                t = d >= maxTick - s->when_ ? maxTick : s->when_ + d;
            best = std::min(best, t);
        }
        return best;
    }
    ///@}

    /** Number of live (non-cancelled) pending events of every kind. */
    size_t
    pending() const
    {
        return live_.size() + staticLive_ + typedLive_;
    }

    /** @name Queue statistics (src/obs, Network::dumpMetrics) */
    ///@{
    /** Events dispatched by runOne over this queue's lifetime. */
    uint64_t
    dispatched() const
    {
        return dispatchedStatic_ + dispatchedTyped_ + dispatchedClosure_;
    }
    /** Largest live pending-event count ever observed. */
    size_t highWater() const { return highWater_; }

    /** One coherent snapshot of the statistics above, for exporters
     *  that want the numbers as a value (tprof --json, time-series).
     *  The per-kind counts show how much traffic still takes the
     *  allocating closure path. */
    struct Stats
    {
        Tick now = 0;
        uint64_t dispatched = 0;
        size_t pending = 0;
        size_t highWater = 0;
        uint64_t dispatchedStatic = 0;
        uint64_t dispatchedTyped = 0;
        uint64_t dispatchedClosure = 0;
    };
    Stats
    stats() const
    {
        return Stats{now_,        dispatched(),      pending(),
                     highWater_,  dispatchedStatic_, dispatchedTyped_,
                     dispatchedClosure_};
    }
    ///@}

    /**
     * Arm a StaticEvent at absolute time when (>= now).  The event
     * must not already be pending.
     * @return the dispatch id (for determinism tie-breaks; static
     * events are cancelled via cancelStatic, not this id).
     */
    EventId
    scheduleStatic(Tick when, const EventKey &key, StaticEvent &ev)
    {
        TRANSPUTER_ASSERT(when >= now_,
                          "event scheduled in the past");
        TRANSPUTER_ASSERT(!ev.armed_, "static event already pending");
        arm(ev, when, key, ++nextId_);
        return ev.id_;
    }

    /**
     * Disarm a pending StaticEvent (lazy, like cancel()).
     * @return true if it was pending.
     */
    bool
    cancelStatic(StaticEvent &ev)
    {
        if (!ev.armed_)
            return false;
        TRANSPUTER_ASSERT(ev.home_ == this,
                          "static event armed on another queue");
        ev.armed_ = false;
        ev.deferred_ = false;
        --staticLive_;
        return true;
    }

    /** Schedule a fire-and-forget typed event at absolute time when
     *  (>= now) with a deterministic dispatch key. */
    void
    scheduleTyped(Tick when, const EventKey &key, const TypedEvent &ev)
    {
        TRANSPUTER_ASSERT(when >= now_,
                          "event scheduled in the past");
        TRANSPUTER_ASSERT(ev.fn, "typed event without a handler");
        pushHeap(HeapEntry{when, key, ++nextId_, ev});
        ++typedLive_;
        noteHighWater();
    }

    /**
     * Schedule fn at absolute time when (>= now) with a deterministic
     * dispatch key.
     * @return a handle usable with cancel().
     */
    EventId
    schedule(Tick when, const EventKey &key, std::function<void()> fn)
    {
        TRANSPUTER_ASSERT(when >= now_,
                          "event scheduled in the past");
        const EventId id = ++nextId_;
        live_.emplace(id, Live{std::move(fn), when, key});
        pushHeap(HeapEntry{when, key, id, {}});
        noteHighWater();
        return id;
    }

    /**
     * Schedule fn at absolute time when (>= now).  Legacy unkeyed
     * form: actor 0, channel 0, FIFO among ties on this queue.
     */
    EventId
    schedule(Tick when, std::function<void()> fn)
    {
        return schedule(when, EventKey{0, 0, ++defaultSeq_},
                        std::move(fn));
    }

    /** Schedule fn delta ticks from now. */
    EventId
    scheduleIn(Tick delta, std::function<void()> fn)
    {
        return schedule(now_ + delta, std::move(fn));
    }

    /**
     * Cancel a previously scheduled closure event.
     * @return true if the event was still pending.
     */
    bool
    cancel(EventId id)
    {
        return live_.erase(id) != 0;
    }

    /** True while the closure event id is pending on this queue. */
    bool
    isPending(EventId id) const
    {
        return live_.count(id) != 0;
    }

    /**
     * Reposition the clock in either direction (src/snap restore).
     * Legal only while the queue holds no live events -- restore first
     * drains the queue (clear), resets the clock to the snapshot's
     * tick, then re-schedules every saved event with its exact
     * original (tick, key).  This is the one sanctioned way time may
     * move backwards: onto an empty queue, where no dispatch order can
     * be violated.
     */
    void
    resetTime(Tick t)
    {
        TRANSPUTER_ASSERT(pending() == 0,
                          "resetTime with events pending");
        clear();
        now_ = t;
    }

    /**
     * Drop every pending event, live or cancelled, without running
     * it; the clock is unchanged.  Static events end up disarmed.
     */
    void
    clear()
    {
        for (const HeapEntry &e : heap_)
            if (StaticEvent *s = staticOf(e)) {
                s->armed_ = false;
                s->deferred_ = false;
                release(*s);
            }
        heap_.clear();
        live_.clear();
        staticLive_ = 0;
        typedLive_ = 0;
    }

    /** Time of the earliest pending event, or maxTick if none. */
    Tick
    nextTime()
    {
        skipDead();
        return heap_.empty() ? maxTick : heap_.front().when;
    }

    /** True if no live events remain. */
    bool
    empty()
    {
        skipDead();
        return heap_.empty();
    }

    /**
     * Dispatch the earliest pending event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    runOne()
    {
        skipDead();
        if (heap_.empty())
            return false;
        const HeapEntry e = heap_.front();
        popHeap();
        TRANSPUTER_ASSERT(e.when >= now_, "time went backwards");
        now_ = e.when;
        if (e.ev.fn) {
            --typedLive_;
            ++dispatchedTyped_;
            e.ev.fn(e.ev.ctx, e.ev.arg);
            return true;
        }
        if (StaticEvent *s = staticOf(e)) {
            release(*s);
            s->armed_ = false;
            --staticLive_;
            ++dispatchedStatic_;
            s->fire_(s->ctx_);
            return true;
        }
        auto it = live_.find(e.id);
        TRANSPUTER_ASSERT(it != live_.end());
        auto fn = std::move(it->second.fn);
        live_.erase(it);
        ++dispatchedClosure_;
        fn();
        return true;
    }

    /**
     * Run events up to and including time limit.
     * @return number of events dispatched.
     */
    uint64_t
    runUntil(Tick limit)
    {
        uint64_t n = 0;
        while (nextTime() <= limit && runOne())
            ++n;
        if (now_ < limit)
            now_ = limit;
        return n;
    }

    /** Run until no events remain (or maxEvents dispatched). */
    uint64_t
    runToQuiescence(uint64_t max_events = UINT64_MAX)
    {
        uint64_t n = 0;
        while (n < max_events && runOne())
            ++n;
        return n;
    }

    /** A pending event in transit between queues (src/par).  Exactly
     *  one payload is set: sev, typed.fn, or fn. */
    struct Pending
    {
        Tick when;
        EventKey key;
        EventId id;
        StaticEvent *sev = nullptr; ///< static: the event object itself
        TypedEvent typed;           ///< typed: its payload
        std::function<void()> fn;   ///< closure
    };

    /**
     * Remove and return every live pending event (in no particular
     * order; the keys carry the dispatch order).  The queue is left
     * empty with its clock unchanged.  Static events travel disarmed
     * until insertPending re-arms them.
     */
    std::vector<Pending>
    extractPending()
    {
        std::vector<Pending> out;
        out.reserve(pending());
        for (const HeapEntry &e : heap_) {
            if (e.ev.fn) {
                out.push_back(Pending{e.when, e.key, e.id, nullptr, e.ev,
                                      {}});
            } else if (StaticEvent *s = staticOf(e); s && alive(e)) {
                // the arming itself, which a stand-in may carry
                out.push_back(
                    Pending{s->when_, s->key_, s->id_, s, {}, {}});
                s->armed_ = false; // listed once; clear() releases it
            }
        }
        for (auto &[id, ev] : live_)
            out.push_back(Pending{ev.when, ev.key, id, nullptr, {},
                                  std::move(ev.fn)});
        clear();
        return out;
    }

    /**
     * Insert an event extracted from another queue, preserving its id
     * (so cancellation handles stay valid) and key (so the dispatch
     * order is unchanged).
     */
    void
    insertPending(Pending p)
    {
        TRANSPUTER_ASSERT(p.when >= now_,
                          "migrated event in the past");
        if (p.sev) {
            TRANSPUTER_ASSERT(!p.sev->armed_,
                              "migrated static event still armed");
            arm(*p.sev, p.when, p.key, p.id);
            return;
        }
        if (p.typed.fn) {
            pushHeap(HeapEntry{p.when, p.key, p.id, p.typed});
            ++typedLive_;
        } else {
            pushHeap(HeapEntry{p.when, p.key, p.id, {}});
            live_.emplace(p.id, Live{std::move(p.fn), p.when, p.key});
        }
        noteHighWater();
    }

  private:
    friend class StaticEvent;

    struct Live
    {
        std::function<void()> fn;
        Tick when;
        EventKey key;
    };

    /**
     * One pending (or lazily cancelled) event.  The payload kind is
     * implicit in ev: a handler makes it typed; no handler but a
     * context makes the context the StaticEvent; neither makes it a
     * closure held in live_ under id.
     */
    struct HeapEntry
    {
        Tick when;
        EventKey key;
        EventId id;
        TypedEvent ev;

        /** The dispatch order: (tick, actor, channel, seq, id). */
        bool
        before(const HeapEntry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (key.actor != o.key.actor)
                return key.actor < o.key.actor;
            if (key.channel != o.key.channel)
                return key.channel < o.key.channel;
            if (key.seq != o.key.seq)
                return key.seq < o.key.seq;
            return id < o.id;
        }
    };
    // nextTimeFor scans the whole heap on every CPU batch
    static_assert(sizeof(HeapEntry) <= 64, "heap entry over 64 bytes");

    static StaticEvent *
    staticOf(const HeapEntry &e)
    {
        return e.ev.fn ? nullptr : static_cast<StaticEvent *>(e.ev.ctx);
    }

    /** False for a cancelled closure or a superseded static arming;
     *  true for the stand-in of a deferred one (see StaticEvent). */
    bool
    alive(const HeapEntry &e) const
    {
        if (e.ev.fn)
            return true; // typed events cannot be cancelled
        if (const StaticEvent *s = staticOf(e))
            return s->armed_ && (s->id_ == e.id || s->deferred_);
        return live_.count(e.id) != 0;
    }

    void
    noteHighWater()
    {
        const size_t n = pending();
        if (n > highWater_)
            highWater_ = n;
    }

    /** @name 4-ary min-heap over heap_ (front = earliest pending)
     *
     * A plain vector, so nextTimeFor can scan the pending set.  Four
     * children per node halve the depth of a binary heap: a pop of a
     * 100k-event heap (every node of a large network armed at once)
     * touches half as many levels, and the four children of a node
     * are adjacent in memory.
     */
    ///@{
    static constexpr size_t kArity = 4;

    void
    pushHeap(const HeapEntry &e)
    {
        size_t i = heap_.size();
        heap_.push_back(e);
        while (i > 0) {
            const size_t parent = (i - 1) / kArity;
            if (!e.before(heap_[parent]))
                break;
            heap_[i] = heap_[parent];
            i = parent;
        }
        heap_[i] = e;
    }

    void
    popHeap()
    {
        const HeapEntry last = heap_.back();
        heap_.pop_back();
        const size_t n = heap_.size();
        if (n == 0)
            return;
        size_t i = 0;
        while (true) {
            const size_t first = i * kArity + 1;
            if (first >= n)
                break;
            size_t best = first;
            const size_t end = std::min(first + kArity, n);
            for (size_t c = first + 1; c < end; ++c)
                if (heap_[c].before(heap_[best]))
                    best = c;
            if (!heap_[best].before(last))
                break;
            heap_[i] = heap_[best];
            i = best;
        }
        heap_[i] = last;
    }

    /** Restore the heap property after arbitrary removals (a sorted
     *  vector is a valid heap). */
    void
    rebuildHeap()
    {
        std::sort(heap_.begin(), heap_.end(),
                  [](const HeapEntry &a, const HeapEntry &b) {
                      return a.before(b);
                  });
    }
    ///@}

    /** Group of an actor, -1 when unmapped (a global actor). */
    int32_t
    groupOf(uint32_t actor) const
    {
        return actor < groupOf_.size() ? groupOf_[actor] : -1;
    }

    /** Drop cancelled entries from the top of the heap, and re-queue
     *  the deferred arming a stand-in at the top carries: afterwards
     *  the top, if any, is the next event to dispatch. */
    void
    skipDead()
    {
        while (!heap_.empty()) {
            const HeapEntry &top = heap_.front();
            StaticEvent *s = staticOf(top);
            if (s ? s->armed_ && s->id_ == top.id : alive(top))
                return;
            popHeap();
            if (!s)
                continue;
            release(*s);
            if (s->deferred_) {
                s->deferred_ = false;
                pushStatic(*s);
            }
        }
    }

    /** @name StaticEvent bookkeeping
     *
     * A static event's heap entries all live on its home queue; the
     * entry count says when none are left, so neither side ever holds
     * a pointer to the other after it is destroyed.
     */
    ///@{
    void
    arm(StaticEvent &ev, Tick when, const EventKey &key, EventId id)
    {
        // dead entries on a queue the owner has since moved away from
        if (ev.home_ && ev.home_ != this)
            ev.home_->forget(ev);
        // strictly later than an entry still queued for the same actor
        // and channel: that entry pops first, so it can stand in (and
        // nextTimeFor credits it with the same lead)
        ev.deferred_ = ev.headValid_ && ev.headWhen_ < when &&
                       key.actor == ev.key_.actor &&
                       key.channel == ev.key_.channel;
        ev.when_ = when;
        ev.key_ = key;
        ev.id_ = id;
        ev.armed_ = true;
        ++staticLive_;
        if (!ev.deferred_)
            pushStatic(ev);
        noteHighWater();
    }

    /** Queue ev's current arming under its exact (tick, key, id). */
    void
    pushStatic(StaticEvent &ev)
    {
        ev.home_ = this;
        ++ev.entries_;
        ev.headWhen_ = ev.when_;
        ev.headValid_ = true;
        pushHeap(HeapEntry{ev.when_, ev.key_, ev.id_,
                           TypedEvent{nullptr, &ev, 0}});
    }

    /** One heap entry naming ev has left the heap.  It may have been
     *  the newest, so that one no longer stands in for a re-arming. */
    static void
    release(StaticEvent &ev)
    {
        ev.headValid_ = false;
        if (--ev.entries_ == 0)
            ev.home_ = nullptr;
    }

    /** Remove every heap entry naming ev (it is being destroyed or
     *  re-homed); O(heap), off every hot path. */
    void
    forget(StaticEvent &ev)
    {
        if (ev.armed_) {
            ev.armed_ = false;
            --staticLive_;
        }
        std::erase_if(heap_, [&ev](const HeapEntry &e) {
            return staticOf(e) == &ev;
        });
        rebuildHeap();
        ev.entries_ = 0;
        ev.home_ = nullptr;
        ev.headValid_ = false;
        ev.deferred_ = false;
    }
    ///@}

    /** Per-queue id epoch: ids unique across all queues. */
    static constexpr int idEpochShift = 40;
    static inline std::atomic<uint64_t> s_idEpoch{0};

    Tick now_ = 0;
    Tick horizon_ = maxTick;
    uint64_t dispatchedStatic_ = 0;
    uint64_t dispatchedTyped_ = 0;
    uint64_t dispatchedClosure_ = 0;
    size_t highWater_ = 0;
    EventId nextId_;
    uint64_t defaultSeq_ = 0;
    std::vector<HeapEntry> heap_;
    std::unordered_map<EventId, Live> live_; ///< closure events
    size_t staticLive_ = 0;                  ///< armed static events
    size_t typedLive_ = 0;                   ///< pending typed events
    std::vector<int32_t> groupOf_; ///< actor -> group (topology)
    std::vector<Tick> dist_;       ///< group-to-group min link lead
    Tick stepExtra_ = 0;           ///< extra lead for foreign steps
    int ngroups_ = 0;              ///< 0: no topology registered
};

inline StaticEvent::~StaticEvent()
{
    if (home_)
        home_->forget(*this);
}

} // namespace transputer::sim

#endif // TRANSPUTER_SIM_EVENT_QUEUE_HH
