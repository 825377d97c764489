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
 * Event kinds.  Every pending event is one compact entry carrying
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
 *
 * Lanes.  Pending events are kept apart per node: each group of
 * actors (a node, see Topology) has one lane for its CPU steps and
 * one for everything else, and two small top-level heaps order the
 * lanes by their earliest entry.  The dispatch order is the same as
 * one flat heap's; what the split buys is that every node's earliest
 * event is at hand, so nextTimeFor costs the links of one node rather
 * than a scan of the pending set.
 */

#ifndef TRANSPUTER_SIM_EVENT_QUEUE_HH
#define TRANSPUTER_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
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

/** a + b clamped to maxTick (a, b >= 0). */
constexpr Tick
satAdd(Tick a, Tick b)
{
    return b >= maxTick - a ? maxTick : a + b;
}

/**
 * The per-node lookahead table of a wired network
 * (net::Network::refreshTopology).
 *
 * Actors are grouped by node: a transputer, its link engines and the
 * peripherals co-located with it form one group.  For every group the
 * table lists its in-lines -- the wires that deliver into it from
 * another group -- with each wire's minimum delivery lead: a byte
 * cannot act on its receiver before its second bit has crossed the
 * wire (the paper's Figure 1).  Immutable once built, so the serial
 * queue and every shard queue of a parallel run share one copy.
 */
struct Topology
{
    /** A wire from one group to another, with its minimum lead. */
    struct Line
    {
        uint32_t from;
        uint32_t to;
        Tick lead;
    };

    /** One wire into a group.  The lead is clamped to 32 bits: a
     *  shorter credit is always a safe one. */
    struct InLine
    {
        uint32_t from;
        uint32_t lead;
    };

    /**
     * Build the table.  group_of_actor maps an actor id to its group
     * (-1, or an id past its end: a global actor, whose events count
     * for every group at face value).  Lines may repeat a pair (the
     * narrowest lead wins) and may loop inside a group (ignored: a
     * group's own events already count at face value).  step_extra
     * is the extra credit of another group's chanStep events (see
     * EventQueue::nextTimeFor).
     */
    static std::shared_ptr<const Topology>
    build(std::vector<int32_t> group_of_actor, uint32_t ngroups,
          std::vector<Line> lines, Tick step_extra)
    {
        auto t = std::make_shared<Topology>();
        t->groupOf = std::move(group_of_actor);
        t->stepExtra = step_extra;
        std::erase_if(lines, [](const Line &l) { return l.from == l.to; });
        std::sort(lines.begin(), lines.end(),
                  [](const Line &a, const Line &b) {
                      if (a.to != b.to)
                          return a.to < b.to;
                      if (a.from != b.from)
                          return a.from < b.from;
                      return a.lead < b.lead;
                  });
        t->inBegin.assign(ngroups + 1, 0);
        Tick least = maxTick;
        for (size_t i = 0; i < lines.size(); ++i) {
            const Line &l = lines[i];
            TRANSPUTER_ASSERT(l.from < ngroups && l.to < ngroups &&
                                  l.lead >= 0,
                              "topology line out of range");
            if (i > 0 && lines[i - 1].to == l.to &&
                lines[i - 1].from == l.from)
                continue; // a wider parallel wire
            t->in.push_back(InLine{
                l.from, static_cast<uint32_t>(
                            std::min<Tick>(l.lead, UINT32_MAX))});
            ++t->inBegin[l.to + 1];
            least = std::min(least, l.lead);
        }
        for (uint32_t g = 0; g < ngroups; ++g)
            t->inBegin[g + 1] += t->inBegin[g];
        t->multiHop = satAdd(least, least);
        return t;
    }

    uint32_t
    groups() const
    {
        return static_cast<uint32_t>(inBegin.size() - 1);
    }

    std::vector<int32_t> groupOf;  ///< actor -> group, -1: global
    /** Group g's in-lines are in[inBegin[g], inBegin[g + 1]). */
    std::vector<uint32_t> inBegin;
    std::vector<InLine> in;
    Tick stepExtra = 0;      ///< extra lead of another group's step
    Tick multiHop = maxTick; ///< least lead of a path of >= 2 lines
};

/**
 * A fire-and-forget event payload: dispatch calls fn(ctx, arg).
 *
 * Plain data, so it is copied into a queue entry -- or into a
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
 * only clears the armed flag: the entry left behind is dead because
 * its id no longer matches the current arming.  A re-arming on the
 * same actor and channel, strictly later than the event's newest
 * entry still queued, pushes nothing -- that entry stands in for it
 * and, on reaching the head of its lane, re-queues the arming under
 * its exact (tick, key, id) -- so a watchdog pushed back on every byte
 * costs no queue traffic.  Dispatch order is unchanged: the stand-in
 * sorts before the arming it carries, so the arming is back in the
 * queue before anything after it can run.
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
    EventQueue *home_ = nullptr; ///< queue whose entries name this event
    Tick headWhen_ = 0;          ///< tick of the newest entry pushed
    uint32_t entries_ = 0;       ///< entries (live or dead) there
    bool armed_ = false;
    bool headValid_ = false; ///< that entry is still queued
    bool deferred_ = false;  ///< armed, carried by an earlier entry
};

/**
 * A time-ordered queue of events.
 *
 * Cancellation is lazy: cancelled entries stay queued and are skipped
 * when they reach the head of their lane, which keeps schedule/cancel
 * O(log n) without a decrease-key structure.
 *
 * Event ids are unique across every EventQueue instance in the
 * process, so an event migrated between queues (src/par shard
 * partitioning) keeps a valid cancellation handle.
 */
class EventQueue
{
  public:
    EventQueue()
        : nextId_(s_idEpoch.fetch_add(1) << idEpochShift), lanes_(2)
    {
    }
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

    /** @name Per-node lookahead (net::Network)
     *
     * The co-simulation bounds every CPU's instruction run-ahead at
     * the earliest pending event that could affect it.  The global
     * nextTime() is a correct such bound, but tighter than physics
     * requires: an event acting on *another* node can only influence
     * this one through a link, whose delivery arrives at least the
     * wire's minimum lead after its cause -- the same lookahead
     * argument the shard-parallel engine applies across a cut
     * (src/par), here applied per node inside one queue.  Without a
     * registered Topology every actor is global and nextTimeFor is
     * nextTime(), the exact legacy bound.
     */
    ///@{
    /**
     * Register the lookahead table (null: none).  Pending entries are
     * re-filed into the new table's lanes; the dispatch order does not
     * change.
     */
    void
    setTopology(std::shared_ptr<const Topology> topo)
    {
        std::vector<HeapEntry> all;
        forEachEntry([&all](const HeapEntry &e) { all.push_back(e); });
        resetLanes();
        topo_ = std::move(topo);
        groupOf_ = topo_ ? topo_->groupOf.data() : nullptr;
        nactors_ = topo_ ? static_cast<uint32_t>(topo_->groupOf.size())
                         : 0;
        globalGroup_ = topo_ ? topo_->groups() : 0;
        lanes_.assign(2 * (static_cast<size_t>(globalGroup_) + 1),
                      Lane{});
        for (const HeapEntry &e : all)
            pushEntry(e);
    }

    const std::shared_ptr<const Topology> &topology() const
    {
        return topo_;
    }

    /**
     * Earliest tick at which any pending event could act on the given
     * actor's group g: the minimum of
     *  - g's own earliest event and any global actor's, at face value;
     *  - for each in-line of g, its source group's earliest event plus
     *    the line's lead, where a CPU step (chanStep) is credited
     *    Topology::stepExtra on top: a step event only executes
     *    instructions, and every instruction path from execution to a
     *    wire claim charges the architectural clock first
     *    (channelOut/channelIn charge cyc::commSuspend before the
     *    engine sees the request -- see link::LinkEngine);
     *  - the whole queue's earliest event, steps credited the same
     *    way, plus Topology::multiHop: every path of two or more lines
     *    is at least that long.
     * Each term is at most the exact all-pairs shortest-lead bound, so
     * the result is sound; it is never earlier than nextTime() and
     * never later than g's own earliest event.  It is earlier than the
     * exact bound when the event that sets it is two or more lines
     * away along a path longer than two least leads; a CPU batch then
     * ends sooner, which the guest cannot see, but the clock at which
     * a run to quiescence stops follows the last batch.  Cancelled
     * entries are ignored: the bound must be a function of the live
     * event set alone, which a restored snapshot reproduces exactly --
     * counting dead entries would make batch boundaries (and the
     * step-event seq counters) depend on lazily cancelled garbage a
     * restored run does not have.
     */
    Tick
    nextTimeFor(uint32_t actor)
    {
        const int32_t g = actor < nactors_ ? groupOf_[actor] : -1;
        const uint32_t front = frontLane();
        if (front == kNil)
            return maxTick;
        // no bound is earlier than the next event, which is the bound
        // itself when it acts on this group or on every group
        const Tick first = head(front).when;
        const uint32_t own = 2 * static_cast<uint32_t>(g);
        const uint32_t global = 2 * globalGroup_;
        if (g < 0 || front >> 1 == own >> 1 || front >> 1 == globalGroup_)
            return first;
        const Topology &t = *topo_;
        Tick best = std::min(std::min(liveWhen(own), liveWhen(own + 1)),
                             std::min(liveWhen(global),
                                      liveWhen(global + 1)));
        // a lane can only lower the bound if even its head, dead or
        // not, would: the rest are skipped without a liveness check
        const auto credit = [&](uint32_t lane, Tick lead) {
            if (lanes_[lane].root != kNil &&
                satAdd(head(lane).when, lead) < best)
                best = std::min(best, satAdd(liveWhen(lane), lead));
        };
        for (uint32_t i = t.inBegin[g];
             i < t.inBegin[g + 1] && best > first; ++i) {
            const Topology::InLine &in = t.in[i];
            credit(2 * in.from, in.lead);
            credit(2 * in.from + 1, satAdd(in.lead, t.stepExtra));
        }
        if (satAdd(first, t.multiHop) < best) {
            const Tick other = rootWhen(0);
            const Tick step = satAdd(rootWhen(1), t.stepExtra);
            best = std::min(best, satAdd(std::min(other, step),
                                         t.multiHop));
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
        return dispatchedSteps_ + dispatchedStatic_ + dispatchedTyped_ +
               dispatchedClosure_;
    }
    /** Largest live pending-event count ever observed. */
    size_t highWater() const { return highWater_; }

    /** One coherent snapshot of the statistics above, for exporters
     *  that want the numbers as a value (tprof --json, time-series).
     *  The per-kind counts show how much traffic still takes the
     *  allocating closure path, and how often CPUs stopped to let the
     *  queue catch up (static chanStep events, counted apart from the
     *  other static events). */
    struct Stats
    {
        Tick now = 0;
        uint64_t dispatched = 0;
        size_t pending = 0;
        size_t highWater = 0;
        uint64_t dispatchedSteps = 0;
        uint64_t dispatchedStatic = 0;
        uint64_t dispatchedTyped = 0;
        uint64_t dispatchedClosure = 0;
    };
    Stats
    stats() const
    {
        return Stats{now_,
                     dispatched(),
                     pending(),
                     highWater_,
                     dispatchedSteps_,
                     dispatchedStatic_,
                     dispatchedTyped_,
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
        pushEntry(HeapEntry{when, key, ++nextId_, ev});
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
        pushEntry(HeapEntry{when, key, id, {}});
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
        forEachEntry([](const HeapEntry &e) {
            if (StaticEvent *s = staticOf(e)) {
                s->armed_ = false;
                s->deferred_ = false;
                release(*s);
            }
        });
        resetLanes();
        live_.clear();
        staticLive_ = 0;
        typedLive_ = 0;
    }

    /** Time of the earliest pending event, or maxTick if none. */
    Tick
    nextTime()
    {
        const uint32_t lane = frontLane();
        return lane == kNil ? maxTick : head(lane).when;
    }

    /** True if no live events remain. */
    bool empty() { return frontLane() == kNil; }

    /**
     * Dispatch the earliest pending event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    runOne()
    {
        const uint32_t lane = frontLane();
        if (lane == kNil)
            return false;
        dispatch(lane);
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
        for (uint32_t lane; (lane = frontLane()) != kNil &&
                            head(lane).when <= limit;
             ++n)
            dispatch(lane);
        if (now_ < limit)
            now_ = limit;
        return n;
    }

    /** Run until no events remain (or maxEvents dispatched). */
    uint64_t
    runToQuiescence(uint64_t max_events = UINT64_MAX)
    {
        uint64_t n = 0;
        for (uint32_t lane; n < max_events && (lane = frontLane()) != kNil;
             ++n)
            dispatch(lane);
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
        forEachEntry([this, &out](const HeapEntry &e) {
            if (e.ev.fn) {
                out.push_back(Pending{e.when, e.key, e.id, nullptr, e.ev,
                                      {}});
            } else if (StaticEvent *s = staticOf(e); s && alive(e)) {
                // the arming itself, which a stand-in may carry
                out.push_back(
                    Pending{s->when_, s->key_, s->id_, s, {}, {}});
                s->armed_ = false; // listed once; clear() releases it
            }
        });
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
            pushEntry(HeapEntry{p.when, p.key, p.id, p.typed});
            ++typedLive_;
        } else {
            pushEntry(HeapEntry{p.when, p.key, p.id, {}});
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

    /** @name Lanes
     *
     * Group g's step events go to lane 2g + 1, its other events to
     * lane 2g; global actors (unmapped, actor 0) form the last group.
     * A lane is a pairing heap of pool nodes: an insert is one
     * comparison with the root, a node's handful of pending events
     * keeps the pairing passes short, and a 100k-node network pays for
     * its pending events rather than for a container per node.  Each
     * non-empty lane sits in one of two 4-ary top-level heaps (step
     * lanes apart, so the earliest step and the earliest other event
     * are both at hand), keyed by its root's (tick, actor): two lanes
     * in one top-level heap never share an actor, so that order is
     * exact.
     */
    ///@{
    static constexpr uint32_t kNil = UINT32_MAX;
    static constexpr size_t kArity = 4;

    /** A lane member; id == invalidEventId marks a free node. */
    struct alignas(64) Node
    {
        HeapEntry e;
        uint32_t child; ///< first child
        uint32_t next;  ///< next sibling (free list: next free node)
    };
    static_assert(sizeof(Node) == 64, "lane node is one cache line");

    struct Lane
    {
        uint32_t root = kNil;
        uint32_t pos = kNil; ///< index in its top-level heap
    };

    struct TopEntry
    {
        Tick when;
        uint32_t actor;
        uint32_t lane;

        bool
        before(const TopEntry &o) const
        {
            if (when != o.when)
                return when < o.when;
            if (actor != o.actor)
                return actor < o.actor;
            return lane < o.lane;
        }
    };

    const HeapEntry &head(uint32_t lane) const
    {
        return pool_[lanes_[lane].root].e;
    }

    uint32_t
    laneOf(const EventKey &key) const
    {
        const int32_t g = key.actor < nactors_ ? groupOf_[key.actor] : -1;
        const uint32_t grp =
            g < 0 ? globalGroup_ : static_cast<uint32_t>(g);
        return 2 * grp + (key.channel == chanStep ? 1 : 0);
    }

    /** Visit every queued entry, live or dead. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const Node &n : pool_)
            if (n.e.id != invalidEventId)
                fn(n.e);
    }

    void
    pushEntry(const HeapEntry &e)
    {
        const uint32_t lane = laneOf(e.key);
        uint32_t n;
        if (free_ != kNil) {
            n = free_;
            free_ = pool_[n].next;
            pool_[n] = Node{e, kNil, kNil};
        } else {
            n = static_cast<uint32_t>(pool_.size());
            pool_.push_back(Node{e, kNil, kNil});
        }
        Lane &l = lanes_[lane];
        if (l.root == kNil) {
            l.root = n;
            auto &top = top_[lane & 1];
            top.emplace_back();
            topSiftUp(lane & 1, top.size() - 1,
                      TopEntry{e.when, e.key.actor, lane});
        } else if (e.before(pool_[l.root].e)) {
            pool_[n].child = l.root;
            l.root = n;
            topSiftUp(lane & 1, l.pos,
                      TopEntry{e.when, e.key.actor, lane});
        } else {
            pool_[n].next = pool_[l.root].child;
            pool_[l.root].child = n;
        }
    }

    /** Remove a lane's root (the caller has copied it). */
    void
    popLane(uint32_t lane)
    {
        Lane &l = lanes_[lane];
        const uint32_t r = l.root;
        l.root = mergePairs(pool_[r].child);
        pool_[r].e.id = invalidEventId;
        pool_[r].next = free_;
        free_ = r;
        const int k = static_cast<int>(lane & 1);
        if (l.root == kNil) {
            topRemove(k, l.pos);
            l.pos = kNil;
        } else {
            const HeapEntry &e = pool_[l.root].e;
            topSiftDown(k, l.pos, TopEntry{e.when, e.key.actor, lane});
        }
    }

    /** Link two roots: the later becomes the earlier's first child. */
    uint32_t
    meld(uint32_t a, uint32_t b)
    {
        if (pool_[b].e.before(pool_[a].e))
            std::swap(a, b);
        pool_[b].next = pool_[a].child;
        pool_[a].child = b;
        return a;
    }

    /** Two-pass pairing of a sibling list into one root. */
    uint32_t
    mergePairs(uint32_t first)
    {
        if (first == kNil || pool_[first].next == kNil)
            return first;
        uint32_t stack = kNil; // melded pairs, threaded through next
        while (first != kNil) {
            const uint32_t a = first, b = pool_[a].next;
            if (b == kNil) {
                pool_[a].next = stack;
                stack = a;
                break;
            }
            first = pool_[b].next;
            pool_[a].next = pool_[b].next = kNil;
            const uint32_t m = meld(a, b);
            pool_[m].next = stack;
            stack = m;
        }
        uint32_t root = stack;
        stack = pool_[root].next;
        pool_[root].next = kNil;
        while (stack != kNil) {
            const uint32_t s = stack;
            stack = pool_[s].next;
            pool_[s].next = kNil;
            root = meld(root, s);
        }
        return root;
    }

    void
    topPlace(int k, size_t i, const TopEntry &t)
    {
        top_[k][i] = t;
        lanes_[t.lane].pos = static_cast<uint32_t>(i);
    }

    void
    topSiftUp(int k, size_t i, const TopEntry &t)
    {
        auto &h = top_[k];
        while (i > 0) {
            const size_t parent = (i - 1) / kArity;
            if (!t.before(h[parent]))
                break;
            topPlace(k, i, h[parent]);
            i = parent;
        }
        topPlace(k, i, t);
    }

    void
    topSiftDown(int k, size_t i, const TopEntry &t)
    {
        auto &h = top_[k];
        const size_t n = h.size();
        while (true) {
            const size_t first = i * kArity + 1;
            if (first >= n)
                break;
            size_t best = first;
            const size_t end = std::min(first + kArity, n);
            for (size_t c = first + 1; c < end; ++c)
                if (h[c].before(h[best]))
                    best = c;
            if (!h[best].before(t))
                break;
            topPlace(k, i, h[best]);
            i = best;
        }
        topPlace(k, i, t);
    }

    void
    topRemove(int k, size_t i)
    {
        auto &h = top_[k];
        const TopEntry last = h.back();
        h.pop_back();
        if (i == h.size())
            return;
        if (i > 0 && last.before(h[(i - 1) / kArity]))
            topSiftUp(k, i, last);
        else
            topSiftDown(k, i, last);
    }

    /** Empty every lane (entries are dropped, not released). */
    void
    resetLanes()
    {
        for (auto &top : top_) {
            for (const TopEntry &t : top)
                lanes_[t.lane] = Lane{};
            top.clear();
        }
        pool_.clear();
        free_ = kNil;
    }

    /** True when a lane's root is the live arming it names; a
     *  stand-in is not (dropHead re-queues what it carries). */
    bool
    headLive(uint32_t lane) const
    {
        const HeapEntry &e = head(lane);
        if (e.ev.fn)
            return true;
        if (const StaticEvent *s = staticOf(e))
            return s->armed_ && s->id_ == e.id;
        return live_.count(e.id) != 0;
    }

    /** Drop a dead root, re-queueing the deferred arming a stand-in
     *  carries (it lands in the same lane: same actor and channel). */
    void
    dropHead(uint32_t lane)
    {
        StaticEvent *s = staticOf(head(lane));
        popLane(lane);
        if (!s)
            return;
        release(*s);
        if (s->deferred_) {
            s->deferred_ = false;
            pushStatic(*s);
        }
    }

    /** Tick of a lane's earliest live event (maxTick: none). */
    Tick
    liveWhen(uint32_t lane)
    {
        while (lanes_[lane].root != kNil) {
            if (headLive(lane))
                return head(lane).when;
            dropHead(lane);
        }
        return maxTick;
    }

    /** Tick of the earliest live event in top-level heap k. */
    Tick
    rootWhen(int k)
    {
        while (!top_[k].empty()) {
            const TopEntry &t = top_[k][0];
            if (headLive(t.lane))
                return t.when;
            dropHead(t.lane);
        }
        return maxTick;
    }

    /** The lane holding the next event to dispatch (kNil: none),
     *  after dropping the dead entries ahead of it. */
    uint32_t
    frontLane()
    {
        while (true) {
            uint32_t lane;
            if (top_[0].empty()) {
                if (top_[1].empty())
                    return kNil;
                lane = top_[1][0].lane;
            } else if (top_[1].empty()) {
                lane = top_[0][0].lane;
            } else {
                // same tick and actor: the step (channel 0) goes first
                const TopEntry &o = top_[0][0], &s = top_[1][0];
                lane = o.when != s.when    ? (o.when < s.when ? o.lane
                                                              : s.lane)
                       : o.actor != s.actor ? (o.actor < s.actor ? o.lane
                                                                 : s.lane)
                                            : s.lane;
            }
            if (headLive(lane))
                return lane;
            dropHead(lane);
        }
    }

    /** Dispatch the root of a lane frontLane() returned. */
    void
    dispatch(uint32_t lane)
    {
        const HeapEntry e = head(lane);
        popLane(lane);
        TRANSPUTER_ASSERT(e.when >= now_, "time went backwards");
        now_ = e.when;
        if (e.ev.fn) {
            --typedLive_;
            ++dispatchedTyped_;
            e.ev.fn(e.ev.ctx, e.ev.arg);
            return;
        }
        if (StaticEvent *s = staticOf(e)) {
            release(*s);
            s->armed_ = false;
            --staticLive_;
            ++(e.key.channel == chanStep ? dispatchedSteps_
                                         : dispatchedStatic_);
            s->fire_(s->ctx_);
            return;
        }
        auto it = live_.find(e.id);
        TRANSPUTER_ASSERT(it != live_.end());
        auto fn = std::move(it->second.fn);
        live_.erase(it);
        ++dispatchedClosure_;
        fn();
    }
    ///@}

    /** @name StaticEvent bookkeeping
     *
     * A static event's entries all live on its home queue; the entry
     * count says when none are left, so neither side ever holds a
     * pointer to the other after it is destroyed.
     */
    ///@{
    void
    arm(StaticEvent &ev, Tick when, const EventKey &key, EventId id)
    {
        // dead entries on a queue the owner has since moved away from
        if (ev.home_ && ev.home_ != this)
            ev.home_->forget(ev);
        // strictly later than an entry still queued for the same actor
        // and channel: that entry -- in the same lane -- reaches the
        // lane's head first, so it can stand in
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
        pushEntry(HeapEntry{ev.when_, ev.key_, ev.id_,
                            TypedEvent{nullptr, &ev, 0}});
    }

    /** One entry naming ev has left the queue.  It may have been the
     *  newest, so that one no longer stands in for a re-arming. */
    static void
    release(StaticEvent &ev)
    {
        ev.headValid_ = false;
        if (--ev.entries_ == 0)
            ev.home_ = nullptr;
    }

    /** Remove every entry naming ev (it is being destroyed or
     *  re-homed); O(pending), off every hot path. */
    void
    forget(StaticEvent &ev)
    {
        if (ev.armed_) {
            ev.armed_ = false;
            --staticLive_;
        }
        std::vector<HeapEntry> keep;
        forEachEntry([&](const HeapEntry &e) {
            if (staticOf(e) != &ev)
                keep.push_back(e);
        });
        resetLanes();
        for (const HeapEntry &e : keep)
            pushEntry(e);
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
    uint64_t dispatchedSteps_ = 0;
    uint64_t dispatchedStatic_ = 0;
    uint64_t dispatchedTyped_ = 0;
    uint64_t dispatchedClosure_ = 0;
    size_t highWater_ = 0;
    EventId nextId_;
    uint64_t defaultSeq_ = 0;
    std::unordered_map<EventId, Live> live_; ///< closure events
    size_t staticLive_ = 0;                  ///< armed static events
    size_t typedLive_ = 0;                   ///< pending typed events

    std::vector<Node> pool_; ///< lane nodes, free ones chained
    uint32_t free_ = kNil;   ///< first free node
    std::vector<Lane> lanes_;
    std::vector<TopEntry> top_[2]; ///< [0]: other lanes, [1]: steps

    std::shared_ptr<const Topology> topo_;
    const int32_t *groupOf_ = nullptr; ///< topo_->groupOf, hot path
    uint32_t nactors_ = 0;             ///< its size
    uint32_t globalGroup_ = 0;         ///< group of unmapped actors
};

inline StaticEvent::~StaticEvent()
{
    if (home_)
        home_->forget(*this);
}

} // namespace transputer::sim

#endif // TRANSPUTER_SIM_EVENT_QUEUE_HH
