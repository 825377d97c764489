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
 *    place;
 *  - typed: a fire-and-forget TypedEvent record (function pointer,
 *    context, 64-bit argument) -- the per-packet line deliveries;
 *  - closure: a std::function kept in a live-set map, the only kind
 *    cancel(EventId) applies to.  The cold path: tests, examples,
 *    peripheral latency, fault-plan node events, route flow timers.
 * The static and typed kinds allocate nothing per event.
 *
 * Lanes.  Pending events are kept apart per node: each group of
 * actors (a node, see Topology) has one lane for its CPU steps and
 * one for everything else.  Every lane's root is a live event.  Two
 * winner trees over the non-empty lanes (steps apart) keep the lanes
 * in the dispatch order and cover only the lanes that hold events;
 * their leaves are the lanes' ticks, so nextTimeFor reads two ticks
 * per in-line of one node rather than scanning the pending set.  The
 * dispatch order is the same as one flat heap's.
 */

#ifndef TRANSPUTER_SIM_EVENT_QUEUE_HH
#define TRANSPUTER_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <atomic>
#include <bit>
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

    /**
     * Earliest tick at which other groups' pending events could act on
     * group g, given each group's reach (EventQueue::nextReach): each
     * in-line's source reach plus its lead, or any reach plus multiHop
     * (a round trip back into g included).  EventQueue::nextTimeFor's
     * rule over whole groups: src/par's shard windows end here.
     */
    Tick
    earliestInput(uint32_t g, const std::vector<Tick> &reach) const
    {
        TRANSPUTER_ASSERT(reach.size() == groups(), "one reach per group");
        Tick best =
            satAdd(*std::min_element(reach.begin(), reach.end()), multiHop);
        for (uint32_t i = inBegin[g]; i < inBegin[g + 1]; ++i)
            best = std::min(best, satAdd(reach[in[i].from], in[i].lead));
        return best;
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
 * (EventQueue::scheduleStatic).  It remembers its newest queue entry,
 * so cancelling (EventQueue::cancelStatic) marks that entry dead where
 * it sits, and drops it at once if it leads its lane.  A re-arming on
 * the same actor and channel, strictly later than that entry, pushes
 * nothing -- the entry stands in for it and, on surfacing at the head
 * of its lane, re-queues the arming under its exact (tick, key, id) --
 * so a watchdog pushed back on every byte costs no queue traffic.
 * Dispatch order is unchanged: the stand-in sorts before the arming it
 * carries, so the arming is back in the queue before anything after it
 * can run.  A CPU step alone in its lane (the usual case) needs no
 * queue node at all: the lane holds the object itself.
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
    /** The newest entry still queued there (live, standing in, or
     *  cancelled): a queue node, or the step lane holding the object
     *  (EventQueue::kInline); UINT32_MAX: none. */
    uint32_t node_ = UINT32_MAX;
    uint32_t entries_ = 0;  ///< entries (live or dead) there
    bool armed_ = false;
    bool deferred_ = false; ///< armed, carried by that entry
};

/**
 * A time-ordered queue of events.
 *
 * Every lane's root is live.  A cancelled or superseded entry is
 * marked dead where it sits (its owner knows its node) and leaves the
 * queue at once if it leads its lane, or when it surfaces there after
 * a pop; so schedule and cancel stay O(log n) without a decrease-key
 * structure, and no reader of a lane head ever skips a dead one.
 *
 * Event ids are unique across every EventQueue instance in the
 * process, so an event migrated between queues (src/par shard
 * partitioning) keeps a valid cancellation handle.
 */
class EventQueue
{
  public:
    EventQueue()
        : nextId_(s_idEpoch.fetch_add(1) << idEpochShift), lanes_(2),
          watch_(1, 0)
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
     * wire's minimum lead after its cause.  The shard-parallel engine
     * (src/par) applies the same rule to whole shards
     * (Topology::earliestInput, nextReach).  Without a
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
        const std::vector<HeapEntry> live = takeLive();
        topo_ = std::move(topo);
        groupOf_ = topo_ ? topo_->groupOf.data() : nullptr;
        nactors_ = topo_ ? static_cast<uint32_t>(topo_->groupOf.size())
                         : 0;
        globalGroup_ = topo_ ? topo_->groups() : 0;
        lanes_.assign(2 * (static_cast<size_t>(globalGroup_) + 1),
                      Lane{});
        watch_.assign(static_cast<size_t>(globalGroup_) + 1, 0);
        // size each tree once for the lanes the entries can fill
        size_t steps = 0;
        for (const HeapEntry &e : live)
            steps += e.key.channel == chanStep;
        const size_t lanes = static_cast<size_t>(globalGroup_) + 1;
        for (const auto &[k, n] : {std::pair{0, live.size() - steps},
                                  std::pair{1, steps}})
            if (std::min(n, lanes) > order_[k].cap)
                resize(k, static_cast<uint32_t>(
                              std::bit_ceil(std::min(n, lanes))));
        for (const HeapEntry &e : live)
            requeue(e);
        liveSetChanged();
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
     *  - nextReach() plus Topology::multiHop: every path of two or
     *    more lines is at least that long.
     * Each term is at most the exact all-pairs shortest-lead bound, so
     * the result is sound; it is never earlier than nextTime() and
     * never later than g's own earliest event.  It is earlier than the
     * exact bound when the event that sets it is two or more lines
     * away along a path longer than two least leads; a CPU batch then
     * ends sooner, which the guest cannot see, but the clock at which
     * a run to quiescence stops follows the last batch.  Dead
     * entries never count: the bound must be a function of the live
     * event set alone, which a restored snapshot reproduces exactly --
     * counting them would make batch boundaries (and the step-event
     * seq counters) depend on cancelled garbage a restored run does
     * not have.  Since every lane root is live, each term is one read
     * of a lane's tick, its tree leaf.
     *
     * Being a function of the live set and the topology, the answer is
     * kept for the last actor asked and served again until one of the
     * two changes: every operation that adds or removes a live event
     * (schedule, arm, cancel, dispatch, migration, clear) and
     * setTopology drop it.  A CPU re-reads its bound after every
     * non-fast instruction, and most of those leave the queue
     * untouched.
     */
    Tick
    nextTimeFor(uint32_t actor)
    {
        if (boundValid_ && boundActor_ == actor) {
            ++boundsReused_;
            return bound_;
        }
        ++boundsComputed_;
        bound_ = computeNextTimeFor(actor);
        boundActor_ = actor;
        boundValid_ = true;
        return bound_;
    }

    /**
     * Earliest tick at which a pending event could act on another
     * group, before any line's lead: the earliest live event, a CPU
     * step credited Topology::stepExtra; maxTick when none.  A global
     * actor's events (the legacy unkeyed ones share the step channel)
     * count at face value.  Each shard publishes it (src/par).
     */
    Tick
    nextReach() const
    {
        return std::min({orderWhen(0),
                         satAdd(orderWhen(1), topo_ ? topo_->stepExtra : 0),
                         laneWhen(2 * globalGroup_ + 1)});
    }
    ///@}

    /** @name Settle hook (link bursts, src/link)
     *
     * A representation that batches several actors' events into fewer
     * queue entries (link::Bursts) registers one settle function and
     * marks the groups whose state it is holding back.  Before any
     * event acting on a marked group dispatches, and whenever touch()
     * names an actor of a marked group, the function runs with the
     * point -- (tick, key) -- at which that group is about to be acted
     * upon, so it can apply everything ordered before it.  An event of
     * a global actor may act on any group: it settles every group.
     */
    ///@{
    using SettleFn = void (*)(void *ctx, uint32_t group, Tick when,
                              const EventKey &key);

    void
    setSettle(SettleFn fn, void *ctx)
    {
        settleFn_ = fn;
        settleCtx_ = ctx;
    }

    /** The group of an actor; groups() for a global actor. */
    uint32_t
    groupOf(uint32_t actor) const
    {
        const int32_t g = actor < nactors_ ? groupOf_[actor] : -1;
        return g < 0 ? globalGroup_ : static_cast<uint32_t>(g);
    }

    /** Number of groups of the registered topology (0: none). */
    uint32_t groups() const { return globalGroup_; }

    /** Mark (delta 1) or unmark (-1) a group as held back. */
    void
    watch(uint32_t group, int delta)
    {
        watch_[group] += static_cast<uint32_t>(delta);
        watch_[globalGroup_] += static_cast<uint32_t>(delta);
    }

    /** Settle the actor's group, if held back, at the current point:
     *  the event being dispatched, or the end of tick now() between
     *  dispatches. */
    void
    touch(uint32_t actor)
    {
        const uint32_t g = groupOf(actor);
        if (watch_[g])
            settleFn_(settleCtx_, g, now_, curKey_);
    }

    /** Key of the event being dispatched; endOfTick between
     *  dispatches. */
    const EventKey &currentKey() const { return curKey_; }

    /** Orders after every key: the point that closes a tick. */
    static constexpr EventKey endOfTick{UINT32_MAX, UINT32_MAX,
                                        UINT64_MAX};

    /** (a_when, a) before (b_when, b) in the dispatch order. */
    static bool
    keyBefore(Tick a_when, const EventKey &a, Tick b_when,
              const EventKey &b)
    {
        if (a_when != b_when)
            return a_when < b_when;
        if (a.actor != b.actor)
            return a.actor < b.actor;
        if (a.channel != b.channel)
            return a.channel < b.channel;
        return a.seq < b.seq;
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
        /** nextTimeFor answers computed, and served again unchanged
         *  (the live set had not changed since the last question). */
        uint64_t boundsComputed = 0;
        uint64_t boundsReused = 0;
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
                     dispatchedClosure_,
                     boundsComputed_,
                     boundsReused_};
    }

    /** Add another queue's dispatch and bound counts to this one's
     *  (src/par merges shard queues back); the larger high water. */
    void
    absorbStats(const Stats &s)
    {
        dispatchedSteps_ += s.dispatchedSteps;
        dispatchedStatic_ += s.dispatchedStatic;
        dispatchedTyped_ += s.dispatchedTyped;
        dispatchedClosure_ += s.dispatchedClosure;
        boundsComputed_ += s.boundsComputed;
        boundsReused_ += s.boundsReused;
        highWater_ = std::max(highWater_, s.highWater);
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
     * Disarm a pending StaticEvent: its entry is dead (see kill).
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
        kill(ev.node_, laneOf(ev.key_));
        liveSetChanged();
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
        liveSetChanged();
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
        const uint32_t node = pushEntry(HeapEntry{when, key, id, {}});
        live_.emplace(id, Live{std::move(fn), when, key, node});
        noteHighWater();
        liveSetChanged();
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
        const auto it = live_.find(id);
        if (it == live_.end())
            return false;
        const uint32_t node = it->second.node;
        const uint32_t lane = laneOf(it->second.key);
        live_.erase(it);
        kill(node, lane);
        liveSetChanged();
        return true;
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
                detach(*s);
            }
        });
        resetLanes();
        live_.clear();
        staticLive_ = 0;
        typedLive_ = 0;
        liveSetChanged();
    }

    /** Time of the earliest pending event, or maxTick if none. */
    Tick nextTime() const { return std::min(orderWhen(0), orderWhen(1)); }

    /** True if no live events remain. */
    bool empty() const { return frontLane() == kNil; }

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
                            laneWhen(lane) <= limit;
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
        forEachEntry([&out](const HeapEntry &e) {
            if (e.ev.fn) {
                out.push_back(Pending{e.when, e.key, e.id, nullptr, e.ev,
                                      {}});
            } else if (StaticEvent *s = staticOf(e);
                       s && e.ev.arg != kDead) {
                // the arming itself, which a stand-in may carry
                out.push_back(
                    Pending{s->when_, s->key_, s->id_, s, {}, {}});
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
            const uint32_t node =
                pushEntry(HeapEntry{p.when, p.key, p.id, {}});
            live_.emplace(p.id,
                          Live{std::move(p.fn), p.when, p.key, node});
        }
        noteHighWater();
        liveSetChanged();
    }

  private:
    friend class StaticEvent;

    struct Live
    {
        std::function<void()> fn;
        Tick when;
        EventKey key;
        uint32_t node; ///< its queue node
    };

    /**
     * One pending (or dead) event.  The payload kind is implicit in
     * ev: a handler makes it typed; no handler but a context makes the
     * context the StaticEvent; neither makes it a closure held in live_
     * under id.  Only typed events use ev.arg, so a static or closure
     * entry keeps its state there (kLive, kDead, kStandIn).
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

    /** @name Entry states (HeapEntry::ev.arg of a static or closure) */
    ///@{
    static constexpr uint64_t kLive = 0;
    static constexpr uint64_t kDead = 1;    ///< cancelled or superseded
    static constexpr uint64_t kStandIn = 2; ///< carries a later arming
    ///@}

    static StaticEvent *
    staticOf(const HeapEntry &e)
    {
        return e.ev.fn ? nullptr : static_cast<StaticEvent *>(e.ev.ctx);
    }

    static bool isLive(const HeapEntry &e)
    {
        return e.ev.fn || e.ev.arg == kLive;
    }

    /** The entry of a static event's current arming. */
    static HeapEntry
    armingOf(StaticEvent &ev)
    {
        return HeapEntry{ev.when_, ev.key_, ev.id_,
                         TypedEvent{nullptr, &ev, kLive}};
    }

    /** The live event set (or the topology) changed: the next
     *  nextTimeFor recomputes. */
    void liveSetChanged() { boundValid_ = false; }

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
     * its pending events rather than for a container per node.  A
     * static event alone in a step lane -- a CPU's one step -- takes no
     * node: the lane holds it (kInline) until a second entry arrives.
     *
     * Every root is live.  Each non-empty lane holds a leaf of one of
     * two winner trees (step lanes apart, so the earliest step and the
     * earliest other event are both at hand) ranked by its root's
     * (tick, actor, lane): two lanes in one tree never share an actor,
     * so that order is exact.  The leaves are the dense ticks
     * nextTimeFor reads: an empty lane's leaf is 0, the entry t[0]
     * that no tree uses and that always reads empty (maxTick), so a
     * read is two loads and no test.  A root change replays one leaf up to where its
     * subtree's winner is unchanged: one comparison per level, no
     * sift-down.  Free leaves are reused last-out first, so a step
     * re-armed by its own handler takes back the leaf it left; a tree
     * doubles when full and halves, packing its leaves, when a quarter
     * full, so it covers only the lanes that hold events.  A lane
     * itself is 8 bytes, like the lanes of a shard queue that never
     * hold anything.
     */
    ///@{
    static constexpr uint32_t kNil = UINT32_MAX;
    static constexpr uint32_t kInline = UINT32_MAX - 1;
    static constexpr uint32_t kMinLeaves = 16;

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
        uint32_t root = kNil; ///< a pool node, kInline, or kNil
        uint32_t leaf = 0;    ///< its leaf in order_[lane & 1] (0: none)
    };

    /** (tick, actor, lane ^ 1) as one unsigned number (ticks are never
     *  negative), so a comparison has no data-dependent branch; the
     *  flipped lane bit puts a step lane before its group's other lane,
     *  so the lesser of the two trees' winners is the next event. */
    using Rank = unsigned __int128;
    static constexpr Rank kEmpty =
        static_cast<Rank>(static_cast<uint64_t>(maxTick)) << 64 |
        (UINT64_MAX - 1); ///< a free leaf: after every lane; lane kNil

    static Rank
    rank(Tick when, uint32_t actor, uint32_t lane)
    {
        return static_cast<Rank>(static_cast<uint64_t>(when)) << 64 |
               (static_cast<uint64_t>(actor) << 32 | (lane ^ 1));
    }

    static uint32_t rankLane(Rank r) { return static_cast<uint32_t>(r) ^ 1; }
    static Tick whenOf(Rank r) { return static_cast<Tick>(r >> 64); }

    /** A winner tree: t[1] is the least leaf, the leaves are
     *  t[cap, 2 cap), and t[0] is the empty lanes' leaf. */
    struct Order
    {
        std::vector<Rank> t = std::vector<Rank>(2, kEmpty);
        /** free[0, nfree): the free leaves, lowest last */
        std::vector<uint32_t> free = {1};
        uint32_t nfree = 1;
        uint32_t cap = 1;
    };

    /** Tick of a tree's earliest lane (maxTick: none). */
    Tick orderWhen(int k) const { return whenOf(order_[k].t[1]); }

    /** Tick of a lane's root (maxTick: empty). */
    Tick
    laneWhen(uint32_t lane) const
    {
        return whenOf(order_[lane & 1].t[lanes_[lane].leaf]);
    }

    /** The static event a step lane holds (kInline), by its leaf. */
    StaticEvent *&
    held(uint32_t leaf)
    {
        return inline_[leaf - order_[1].cap];
    }

    uint32_t
    laneOf(const EventKey &key) const
    {
        return 2 * groupOf(key.actor) + (key.channel == chanStep ? 1 : 0);
    }

    /** Visit every queued entry, live or dead. */
    template <typename Fn>
    void
    forEachEntry(Fn &&fn) const
    {
        for (const Node &n : pool_)
            if (n.e.id != invalidEventId)
                fn(n.e);
        for (StaticEvent *s : inline_)
            if (s)
                fn(armingOf(*s));
    }

    [[gnu::always_inline]] uint32_t
    newNode(const HeapEntry &e)
    {
        uint32_t n;
        if (free_ != kNil) {
            n = free_;
            free_ = pool_[n].next;
            pool_[n] = Node{e, kNil, kNil};
        } else {
            n = static_cast<uint32_t>(pool_.size());
            pool_.push_back(Node{e, kNil, kNil});
        }
        return n;
    }

    void
    freeNode(uint32_t n)
    {
        pool_[n].e.id = invalidEventId;
        pool_[n].next = free_;
        free_ = n;
    }

    /**
     * Put a live entry into its lane, leaving the lane's leaf to
     * sync().  @return its node (kInline: a static event alone in a
     * step lane); root is set when it became the lane's root.
     */
    [[gnu::always_inline]] uint32_t
    insert(uint32_t lane, const HeapEntry &e, bool &root)
    {
        Lane &l = lanes_[lane];
        root = true;
        if (l.root == kNil) {
            if (StaticEvent *s = staticOf(e); s && (lane & 1))
                return hold(l, *s);
            return l.root = newNode(e);
        }
        if (l.root == kInline) { // a second entry: the step takes a node
            StaticEvent *&s = held(l.leaf);
            l.root = s->node_ = newNode(armingOf(*s));
            s = nullptr;
        }
        const uint32_t n = newNode(e);
        Node &r = pool_[l.root];
        if (e.before(r.e)) {
            pool_[n].child = l.root;
            l.root = n;
        } else {
            pool_[n].next = r.child;
            r.child = n;
            root = false;
        }
        return n;
    }

    /** Make an empty step lane hold ev itself (kInline). */
    uint32_t
    hold(Lane &l, StaticEvent &ev)
    {
        if (l.leaf == 0)
            l.leaf = takeLeaf(1);
        held(l.leaf) = &ev;
        return l.root = kInline;
    }

    /** insert() and, for a new root, sync(). */
    uint32_t
    pushEntry(const HeapEntry &e)
    {
        const uint32_t lane = laneOf(e.key);
        bool root;
        const uint32_t n = insert(lane, e, root);
        if (root)
            sync(lane);
        return n;
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
        return pairUp(first);
    }

    [[gnu::noinline]] uint32_t
    pairUp(uint32_t first)
    {
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

    /** Pop a lane's dead roots until a live one (or none) leads it.  A
     *  stand-in re-queues the arming it carries, in the same lane. */
    void
    dropDead(uint32_t lane)
    {
        const Lane &l = lanes_[lane];
        if (l.root < kInline && !isLive(pool_[l.root].e)) [[unlikely]]
            dropDeadRoots(lane);
    }

    [[gnu::noinline]] void
    dropDeadRoots(uint32_t lane)
    {
        Lane &l = lanes_[lane];
        while (l.root < kInline && !isLive(pool_[l.root].e)) {
            const uint32_t r = l.root;
            StaticEvent *s = staticOf(pool_[r].e);
            const bool stand_in = pool_[r].e.ev.arg == kStandIn;
            l.root = mergePairs(pool_[r].child);
            freeNode(r);
            if (!s)
                continue;
            release(*s, r);
            if (stand_in) {
                s->deferred_ = false;
                bool root;
                queueArming(*s, lane, root);
            }
        }
    }

    /**
     * An entry stopped being live (a cancelled closure, a disarmed
     * static event): mark it dead where it sits.  A root leaves at
     * once, with the dead entries behind it, so every root stays live;
     * any other leaves when it surfaces.
     */
    void
    kill(uint32_t node, uint32_t lane)
    {
        Lane &l = lanes_[lane];
        if (node == kInline) {
            StaticEvent *&s = held(l.leaf);
            release(*s, kInline);
            s = nullptr;
            l.root = kNil;
            sync(lane);
            return;
        }
        pool_[node].e.ev.arg = kDead;
        if (l.root == node) {
            dropDead(lane);
            sync(lane);
        }
    }

    /** Bring a lane's leaf up to date with its root.  Winner: the lane
     *  was its tree's winner, whose whole path changes. */
    template <bool Winner = false>
    [[gnu::always_inline]] void
    sync(uint32_t lane)
    {
        Lane &l = lanes_[lane];
        const int k = static_cast<int>(lane & 1);
        if (l.root == kNil) {
            if (l.leaf != 0) {
                const uint32_t leaf = l.leaf;
                l.leaf = 0;
                replay<Winner>(k, leaf, kEmpty);
                putLeaf(k, leaf);
            }
            return;
        }
        Tick when;
        uint32_t actor;
        if (l.root == kInline) {
            const StaticEvent &s = *held(l.leaf);
            when = s.when_;
            actor = s.key_.actor;
        } else {
            const HeapEntry &e = pool_[l.root].e;
            when = e.when;
            actor = e.key.actor;
        }
        if (l.leaf == 0)
            l.leaf = takeLeaf(k);
        replay<Winner>(k, l.leaf, rank(when, actor, lane));
    }

    /** Set a leaf and replay it toward the root, stopping where a
     *  subtree's winner is unchanged (its ancestors are too); the
     *  winner's path changes all the way up. */
    template <bool Winner = false>
    void
    replay(int k, uint32_t leaf, Rank r)
    {
        // walked by byte offset: a sibling is one bit away, a parent
        // one shift, with no index scaling at each level
        constexpr size_t kSize = sizeof(Rank);
        char *t = reinterpret_cast<char *>(order_[k].t.data());
        size_t at = leaf * kSize;
        *reinterpret_cast<Rank *>(t + at) = r;
        while (at > kSize) {
            const Rank sibling = *reinterpret_cast<Rank *>(t + (at ^ kSize));
            r = sibling < r ? sibling : r;
            at = at >> 1 & ~(kSize - 1);
            Rank &up = *reinterpret_cast<Rank *>(t + at);
            if (!Winner && up == r)
                break;
            up = r;
        }
    }

    uint32_t
    takeLeaf(int k)
    {
        Order &o = order_[k];
        if (o.nfree == 0) [[unlikely]]
            resize(k, 2 * o.cap);
        return o.free[--o.nfree];
    }

    void
    putLeaf(int k, uint32_t leaf)
    {
        Order &o = order_[k];
        o.free[o.nfree++] = leaf;
        // fewer than a quarter taken
        if (4 * (o.cap - o.nfree) < o.cap && o.cap > kMinLeaves)
            [[unlikely]] resize(k, o.cap / 2);
    }

    /** Rebuild tree k over cap leaves (a power of two that holds every
     *  taken one), packing the taken leaves at its start. */
    [[gnu::noinline]] void
    resize(int k, uint32_t cap)
    {
        Order &o = order_[k];
        std::vector<Rank> t(2 * static_cast<size_t>(cap), kEmpty);
        std::vector<StaticEvent *> steps(k ? cap : 0, nullptr);
        uint32_t n = cap;
        for (uint32_t i = o.cap; i < 2 * o.cap; ++i) {
            const Rank r = o.t[i];
            if (r == kEmpty)
                continue;
            if (k)
                steps[n - cap] = inline_[i - o.cap];
            lanes_[rankLane(r)].leaf = n;
            t[n++] = r;
        }
        for (size_t i = cap; i-- > 1;)
            t[i] = std::min(t[2 * i], t[2 * i + 1]);
        o.free.resize(cap);
        o.nfree = 0;
        for (uint32_t i = 2 * cap; i-- > n;)
            o.free[o.nfree++] = i;
        o.t = std::move(t);
        o.cap = cap;
        if (k)
            inline_ = std::move(steps);
    }

    /** Empty every lane (entries are dropped, not released). */
    void
    resetLanes()
    {
        for (Order &o : order_) {
            for (uint32_t i = o.cap; i < 2 * o.cap; ++i)
                if (o.t[i] != kEmpty)
                    lanes_[rankLane(o.t[i])] = Lane{};
            o = Order{};
        }
        inline_.assign(1, nullptr);
        pool_.clear();
        free_ = kNil;
    }

    /** Every live event's current entry (a stand-in gives the arming
     *  it carries), leaving the queue empty.  A static event's entry
     *  count is left as requeue() will find it: its dead entries are
     *  released here, and a live one's (or a stand-in's) count goes to
     *  the entry requeued for it; only those entries touch the owner. */
    std::vector<HeapEntry>
    takeLive()
    {
        std::vector<HeapEntry> live;
        for (uint32_t n = 0; n < pool_.size(); ++n) {
            const HeapEntry &e = pool_[n].e;
            if (e.id == invalidEventId)
                continue;
            StaticEvent *s = staticOf(e);
            if (isLive(e)) {
                live.push_back(e);
            } else if (s && e.ev.arg == kStandIn) {
                s->deferred_ = false;
                live.push_back(armingOf(*s));
            } else if (s) {
                release(*s, n);
            }
        }
        for (StaticEvent *s : inline_)
            if (s)
                live.push_back(armingOf(*s));
        resetLanes();
        return live;
    }

    /** Queue a live entry takeLive() returned, re-pointing its owner. */
    void
    requeue(const HeapEntry &e)
    {
        bool root;
        const uint32_t lane = laneOf(e.key);
        const uint32_t n = insert(lane, e, root);
        if (root)
            sync(lane);
        if (StaticEvent *s = staticOf(e))
            s->node_ = n;
        else if (!e.ev.fn)
            live_.find(e.id)->second.node = n;
    }

    /** nextTimeFor without the memo. */
    Tick
    computeNextTimeFor(uint32_t actor) const
    {
        const Rank other_first = order_[0].t[1];
        const Rank step_first = order_[1].t[1];
        const Rank next = std::min(other_first, step_first);
        const uint32_t front = rankLane(next);
        if (front == kNil)
            return maxTick;
        // no bound is earlier than the next event, which is the bound
        // itself when it acts on this group or on every group
        const Tick first = whenOf(next);
        const int32_t g = actor < nactors_ ? groupOf_[actor] : -1;
        if (g < 0 || front >> 1 == static_cast<uint32_t>(g) ||
            front >> 1 == globalGroup_)
            return first;
        // Each term is a tick plus a lead, both at most maxTick, so in
        // unsigned arithmetic the sum cannot wrap, and min(best, sum)
        // with best <= maxTick is min(best, satAdd(tick, lead)).
        const auto least = [](uint64_t a, uint64_t b) {
            return a < b ? a : b;
        };
        const Topology &t = *topo_;
        const Lane *lanes = lanes_.data();
        const Rank *other = order_[0].t.data();
        const Rank *step = order_[1].t.data();
        const auto when = [lanes](const Rank *tree, uint32_t lane) {
            return static_cast<uint64_t>(whenOf(tree[lanes[lane].leaf]));
        };
        const uint32_t own = 2 * static_cast<uint32_t>(g);
        const uint32_t global = 2 * globalGroup_;
        const uint64_t global_step = when(step, global + 1);
        uint64_t best = least(least(when(other, own), when(step, own + 1)),
                              least(when(other, global), global_step));
        const uint64_t extra = static_cast<uint64_t>(t.stepExtra);
        const uint64_t stop = static_cast<uint64_t>(first);
        for (const Topology::InLine *in = t.in.data() + t.inBegin[g],
                                    *end = t.in.data() + t.inBegin[g + 1];
             in != end && best > stop; ++in) {
            const uint64_t lead = in->lead;
            const uint32_t from = 2 * in->from;
            best = least(best, when(other, from) + lead);
            best = least(best, when(step, from + 1) +
                                   least(lead + extra, maxTick));
        }
        // nextReach(), from the values at hand
        const uint64_t hop = static_cast<uint64_t>(t.multiHop);
        if (stop + hop < best) {
            const uint64_t reach = least(
                least(static_cast<uint64_t>(whenOf(other_first)),
                      least(static_cast<uint64_t>(whenOf(step_first)) +
                                extra,
                            maxTick)),
                global_step);
            best = least(best, reach + hop);
        }
        return static_cast<Tick>(best);
    }

    /** The lane holding the next event to dispatch (kNil: none). */
    uint32_t
    frontLane() const
    {
        return rankLane(std::min(order_[0].t[1], order_[1].t[1]));
    }

    /** Dispatch the root of a lane frontLane() returned, settling its
     *  group first if it is held back (see setSettle). */
    void
    dispatch(uint32_t lane)
    {
        Lane &l = lanes_[lane];
        if (l.root == kInline) { // a CPU's one step: no node to pop
            StaticEvent *&held_step = held(l.leaf);
            StaticEvent &s = *held_step;
            held_step = nullptr;
            l.root = kNil;
            const uint32_t leaf = l.leaf;
            l.leaf = 0;
            replay<true>(1, leaf, kEmpty);
            putLeaf(1, leaf);
            begin(lane, s.when_, s.key_);
            Done done{curKey_};
            fireStatic(s);
            return;
        }
        const uint32_t r = l.root;
        const HeapEntry e = pool_[r].e;
        l.root = mergePairs(pool_[r].child);
        freeNode(r);
        dropDead(lane);
        sync<true>(lane);
        begin(lane, e.when, e.key);
        Done done{curKey_};
        fire(e);
    }

    /** The dispatch of (when, key), popped from lane, begins. */
    void
    begin(uint32_t lane, Tick when, const EventKey &key)
    {
        liveSetChanged();
        TRANSPUTER_ASSERT(when >= now_, "time went backwards");
        now_ = when;
        if (watch_[lane >> 1]) [[unlikely]]
            settleFn_(settleCtx_, lane >> 1, when, key);
        curKey_ = key;
    }

    /** Resets the current key between dispatches, also after a
     *  handler has thrown. */
    struct Done
    {
        EventKey &key;
        ~Done() { key = endOfTick; }
    };

    void
    fireStatic(StaticEvent &s)
    {
        release(s, s.node_); // a live entry is the newest
        s.armed_ = false;
        --staticLive_;
        ++(s.key_.channel == chanStep ? dispatchedSteps_
                                      : dispatchedStatic_);
        s.fire_(s.ctx_);
    }

    /** Run a popped entry's payload. */
    void
    fire(const HeapEntry &e)
    {
        if (e.ev.fn) {
            --typedLive_;
            ++dispatchedTyped_;
            e.ev.fn(e.ev.ctx, e.ev.arg);
            return;
        }
        if (StaticEvent *s = staticOf(e)) {
            fireStatic(*s);
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
        // strictly later than its newest entry, for the same actor and
        // channel: that entry (cancelled, so not a root) sits in the
        // same lane and reaches its head first, so it can stand in
        const uint32_t old = ev.node_;
        const bool defer = old < kInline && pool_[old].e.when < when &&
                           key.actor == ev.key_.actor &&
                           key.channel == ev.key_.channel;
        ev.when_ = when;
        ev.key_ = key;
        ev.id_ = id;
        ev.armed_ = true;
        ev.deferred_ = defer;
        ++staticLive_;
        const uint32_t lane = laneOf(key);
        Lane &l = lanes_[lane];
        if (defer) {
            pool_[old].e.ev.arg = kStandIn;
        } else if (l.root == kNil && (lane & 1)) { // a CPU's one step
            ev.home_ = this;
            ++ev.entries_;
            ev.node_ = hold(l, ev);
            replay(1, l.leaf, rank(when, key.actor, lane));
        } else {
            bool root;
            queueArming(ev, lane, root);
            if (root)
                sync(lane);
        }
        noteHighWater();
        liveSetChanged();
    }

    /** Insert ev's current arming under its exact (tick, key, id). */
    void
    queueArming(StaticEvent &ev, uint32_t lane, bool &root)
    {
        ev.home_ = this;
        ++ev.entries_;
        ev.node_ = insert(lane, armingOf(ev), root);
    }

    /** One entry naming ev (node) has left the queue. */
    static void
    release(StaticEvent &ev, uint32_t node)
    {
        if (ev.node_ == node)
            ev.node_ = kNil;
        if (--ev.entries_ == 0)
            ev.home_ = nullptr;
    }

    /** No entry names ev any more (the queue is being emptied). */
    static void
    detach(StaticEvent &ev)
    {
        ev.home_ = nullptr;
        ev.node_ = kNil;
        ev.entries_ = 0;
        ev.deferred_ = false;
    }

    /** Remove every entry naming ev (it is being destroyed or
     *  re-homed): each becomes an anonymous dead entry; O(pending),
     *  off every hot path. */
    void
    forget(StaticEvent &ev)
    {
        if (ev.armed_) {
            ev.armed_ = false;
            --staticLive_;
        }
        if (ev.node_ == kInline)
            kill(kInline, laneOf(ev.key_));
        std::vector<uint32_t> led; // lanes one of them leads
        for (uint32_t n = 0; n < pool_.size(); ++n) {
            HeapEntry &e = pool_[n].e;
            if (e.id == invalidEventId || staticOf(e) != &ev)
                continue;
            e.ev = TypedEvent{nullptr, nullptr, kDead};
            if (lanes_[laneOf(e.key)].root == n)
                led.push_back(laneOf(e.key));
        }
        for (const uint32_t lane : led) {
            dropDead(lane);
            sync(lane);
        }
        detach(ev);
        liveSetChanged();
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

    /** The last nextTimeFor answer, valid until the live set or the
     *  topology changes (liveSetChanged). */
    Tick bound_ = 0;
    uint32_t boundActor_ = 0;
    bool boundValid_ = false;
    uint64_t boundsComputed_ = 0;
    uint64_t boundsReused_ = 0;

    std::vector<Node> pool_; ///< lane nodes, free ones chained
    uint32_t free_ = kNil;   ///< first free node
    std::vector<Lane> lanes_;
    Order order_[2]; ///< [0]: other lanes, [1]: step lanes
    /** Per step-tree leaf: the static event its lane holds (kInline). */
    std::vector<StaticEvent *> inline_ = {nullptr};

    /** Per group (the global one last): held-back count; the global
     *  entry counts every group's. */
    std::vector<uint32_t> watch_;
    SettleFn settleFn_ = nullptr;
    void *settleCtx_ = nullptr;
    EventKey curKey_ = endOfTick; ///< key of the event being dispatched

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
