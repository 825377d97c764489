/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using namespace transputer;
using transputer::sim::EventKey;
using transputer::sim::EventQueue;
using transputer::sim::StaticEvent;
using transputer::sim::Topology;
using transputer::sim::TypedEvent;

namespace
{

/** Fire target of the StaticEvents below: counts its dispatches and
 *  appends its tag to a shared order log. */
struct Probe
{
    std::vector<int> *order = nullptr;
    int tag = 0;
    int fired = 0;

    static void
    fire(void *ctx)
    {
        auto *p = static_cast<Probe *>(ctx);
        ++p->fired;
        if (p->order)
            p->order->push_back(p->tag);
    }
};

/** A typed event appending arg to the order log at ctx. */
TypedEvent
logTyped(std::vector<int> &order, int tag)
{
    return TypedEvent{[](void *ctx, uint64_t arg) {
                          static_cast<std::vector<int> *>(ctx)->push_back(
                              static_cast<int>(arg));
                      },
                      &order, static_cast<uint64_t>(tag)};
}

} // namespace

TEST(EventQueue, StartsEmptyAtTimeZero)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.nextTime(), maxTick);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runToQuiescence();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTickIsFifo)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        q.schedule(5, [&order, i] { order.push_back(i); });
    q.runToQuiescence();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue q;
    bool ran = false;
    auto id = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // second cancel is a no-op
    q.runToQuiescence();
    EXPECT_FALSE(ran);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtLimitAndAdvancesNow)
{
    EventQueue q;
    int count = 0;
    q.schedule(10, [&] { ++count; });
    q.schedule(20, [&] { ++count; });
    q.schedule(30, [&] { ++count; });
    EXPECT_EQ(q.runUntil(20), 2u);
    EXPECT_EQ(count, 2);
    EXPECT_EQ(q.now(), 20);
    q.runToQuiescence();
    EXPECT_EQ(count, 3);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue q;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 100)
            q.scheduleIn(7, chain);
    };
    q.schedule(0, chain);
    q.runToQuiescence();
    EXPECT_EQ(depth, 100);
    EXPECT_EQ(q.now(), 99 * 7);
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(100, [] {});
    q.runToQuiescence();
    EXPECT_THROW(q.schedule(50, [] {}), SimPanic);
}

TEST(EventQueue, NextTimeSkipsCancelledEvents)
{
    EventQueue q;
    auto id = q.schedule(10, [] {});
    q.schedule(20, [] {});
    q.cancel(id);
    EXPECT_EQ(q.nextTime(), 20);
}

TEST(EventQueue, RunToQuiescenceHonoursEventCap)
{
    EventQueue q;
    std::function<void()> forever = [&] { q.scheduleIn(1, forever); };
    q.schedule(0, forever);
    EXPECT_EQ(q.runToQuiescence(1000), 1000u);
    EXPECT_FALSE(q.empty());
}

// ---------------------------------------------------------------------
// the three event kinds: static, typed, closure
// ---------------------------------------------------------------------

TEST(EventQueue, SameTickOrderFollowsTheKeyAcrossKinds)
{
    EventQueue q;
    std::vector<int> order;
    Probe first{&order, 1}, step{&order, 2}, wire2{&order, 5};
    StaticEvent sFirst(&Probe::fire, &first), sStep(&Probe::fire, &step),
        sWire2(&Probe::fire, &wire2);
    // scheduled deliberately out of key order, kinds interleaved
    q.scheduleTyped(10, EventKey{2, sim::chanStep, 1}, logTyped(order, 6));
    q.scheduleStatic(10, EventKey{1, sim::chanLine, 2}, sWire2);
    q.schedule(10, EventKey{1, sim::chanTimer, 1},
               [&] { order.push_back(3); });
    q.scheduleTyped(10, EventKey{1, sim::chanLine, 1}, logTyped(order, 4));
    q.scheduleStatic(10, EventKey{1, sim::chanStep, 9}, sStep);
    q.scheduleStatic(9, EventKey{7, 7, 7}, sFirst);
    EXPECT_EQ(q.runToQuiescence(), 6u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
    const EventQueue::Stats st = q.stats();
    EXPECT_EQ(st.dispatchedSteps, 1u); // sStep: a static chanStep event
    EXPECT_EQ(st.dispatchedStatic, 2u);
    EXPECT_EQ(st.dispatchedTyped, 2u);
    EXPECT_EQ(st.dispatchedClosure, 1u);
    EXPECT_EQ(st.dispatched, 6u);
    EXPECT_EQ(q.dispatched(), 6u);
}

TEST(EventQueue, CancelledStaticEntryNeverFiresOrLowersTheBound)
{
    // actors 1, 2, 3 in groups 0, 1, 2; group 2 is 100 ticks from the
    // others, groups 0 and 1 are 5 apart
    EventQueue q;
    q.setTopology(Topology::build({-1, 0, 1, 2}, 3,
                                  {{0, 1, 5},
                                   {0, 2, 5},
                                   {1, 0, 5},
                                   {1, 2, 5},
                                   {2, 0, 100},
                                   {2, 1, 100}},
                                  0));
    // a far-away event, early enough to run before the static one but
    // late enough that its multi-hop credit (two least leads, 10)
    // bounds no group below the figures checked here
    q.scheduleTyped(35, EventKey{3, sim::chanLine, 1},
                    TypedEvent{[](void *, uint64_t) {}, nullptr, 0});
    Probe p;
    StaticEvent ev(&Probe::fire, &p);
    q.scheduleStatic(30, EventKey{1, sim::chanSelf, 1}, ev);
    EXPECT_EQ(q.nextTimeFor(2), 35);
    // pulled in: the entry at 30 is dead
    q.cancelStatic(ev);
    q.scheduleStatic(20, EventKey{1, sim::chanSelf, 2}, ev);
    EXPECT_EQ(q.nextTimeFor(2), 25);
    // pushed back: the entry at 20 stands in and counts as 40
    q.cancelStatic(ev);
    q.scheduleStatic(40, EventKey{1, sim::chanSelf, 3}, ev);
    EXPECT_EQ(q.nextTimeFor(1), 40);
    EXPECT_EQ(q.nextTimeFor(2), 45);
    EXPECT_EQ(q.pending(), 2u);
    EXPECT_EQ(q.runUntil(39), 1u); // only the typed event at 35
    EXPECT_EQ(p.fired, 0);
    EXPECT_EQ(q.nextTime(), 40);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), 40);
    EXPECT_EQ(p.fired, 1);
    EXPECT_EQ(q.nextTime(), maxTick);
    EXPECT_EQ(q.runToQuiescence(), 0u);
    EXPECT_EQ(p.fired, 1);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PushedBackStaticEventFiresOnceAtItsExactKey)
{
    // a watchdog pushed back on every byte: earlier armings stand in
    // for the last one, which still dispatches at its own tick and in
    // key order among same-tick events
    EventQueue q;
    std::vector<int> order;
    Probe dog{&order, 3};
    StaticEvent wd(&Probe::fire, &dog);
    uint64_t seq = 0;
    for (Tick t = 100; t <= 149; ++t) {
        q.cancelStatic(wd);
        q.scheduleStatic(t, EventKey{2, sim::chanSelf, ++seq}, wd);
    }
    EXPECT_EQ(q.pending(), 1u);
    q.schedule(149, EventKey{3, 0, 1}, [&] { order.push_back(4); });
    q.schedule(149, EventKey{1, sim::chanSelf, 1},
               [&] { order.push_back(2); });
    q.schedule(120, EventKey{9, 0, 1}, [&] { order.push_back(1); });
    EXPECT_EQ(q.nextTime(), 120);
    EXPECT_EQ(q.runToQuiescence(), 4u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
    EXPECT_EQ(dog.fired, 1);
    EXPECT_EQ(q.now(), 149);
}

TEST(EventQueue, DeadEntryAheadOfAStandInQueuesTheArming)
{
    // the first firing re-arms at 20 and pushes that back to 30, so
    // the entry at 20 stands in for 30 while a dead entry from the
    // first arming (10) still sits ahead of it
    struct Rearm
    {
        EventQueue *q = nullptr;
        StaticEvent *ev = nullptr;
        int fired = 0;

        static void
        fire(void *ctx)
        {
            auto *r = static_cast<Rearm *>(ctx);
            if (++r->fired > 1)
                return;
            r->q->scheduleStatic(20, EventKey{1, sim::chanSelf, 3}, *r->ev);
            r->q->cancelStatic(*r->ev);
            r->q->scheduleStatic(30, EventKey{1, sim::chanSelf, 4}, *r->ev);
        }
    };
    EventQueue q;
    Rearm r{&q};
    StaticEvent ev(&Rearm::fire, &r);
    r.ev = &ev;
    q.scheduleStatic(10, EventKey{1, sim::chanSelf, 1}, ev);
    q.cancelStatic(ev);
    q.scheduleStatic(5, EventKey{1, sim::chanSelf, 2}, ev);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(q.now(), 5);
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.nextTime(), 30);
    EXPECT_TRUE(q.runOne());
    EXPECT_EQ(r.fired, 2);
    EXPECT_EQ(q.now(), 30);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, MigrationMovesStaticAndTypedEventsIntact)
{
    EventQueue a, b;
    Probe p;
    StaticEvent ev(&Probe::fire, &p);
    a.scheduleStatic(40, EventKey{1, sim::chanTimer, 7}, ev);
    // a pushed-back arming leaves a stand-in entry behind; it must
    // travel once, as the current arming
    a.cancelStatic(ev);
    a.scheduleStatic(50, EventKey{1, sim::chanTimer, 8}, ev);
    const sim::EventId id = ev.id();
    uint64_t got = 0;
    a.scheduleTyped(45, EventKey{2, sim::chanLine, 1},
                    TypedEvent{[](void *ctx, uint64_t arg) {
                                   *static_cast<uint64_t *>(ctx) = arg;
                               },
                               &got, 0xABCDEF0123ull});
    auto moved = a.extractPending();
    ASSERT_EQ(moved.size(), 2u);
    EXPECT_EQ(a.pending(), 0u);
    EXPECT_TRUE(a.empty());
    EXPECT_FALSE(ev.pending()); // in transit
    for (auto &m : moved)
        b.insertPending(std::move(m));
    EXPECT_TRUE(ev.pending());
    EXPECT_EQ(ev.id(), id);
    EXPECT_EQ(ev.scheduledAt(), 50);
    EXPECT_EQ(ev.scheduledKey().seq, 8u);
    EXPECT_EQ(b.pending(), 2u);
    // the same object, now cancellable on its new queue
    EXPECT_TRUE(b.cancelStatic(ev));
    EXPECT_FALSE(ev.pending());
    EXPECT_EQ(b.runToQuiescence(), 1u);
    EXPECT_EQ(got, 0xABCDEF0123ull);
    EXPECT_EQ(p.fired, 0);
    // and re-armable there
    b.scheduleStatic(60, EventKey{1, sim::chanTimer, 9}, ev);
    EXPECT_EQ(b.runToQuiescence(), 1u);
    EXPECT_EQ(p.fired, 1);
}

TEST(EventQueue, PendingAndHighWaterCountEveryKind)
{
    EventQueue q;
    Probe p;
    StaticEvent ev(&Probe::fire, &p);
    std::vector<int> order;
    q.scheduleStatic(10, EventKey{1, sim::chanStep, 1}, ev);
    q.scheduleTyped(10, EventKey{2, sim::chanLine, 1}, logTyped(order, 1));
    const sim::EventId c =
        q.schedule(10, EventKey{3, sim::chanSelf, 1}, [] {});
    EXPECT_EQ(q.pending(), 3u);
    EXPECT_EQ(q.highWater(), 3u);
    EXPECT_TRUE(q.isPending(c));
    EXPECT_TRUE(q.cancelStatic(ev));
    EXPECT_TRUE(q.cancel(c));
    EXPECT_FALSE(q.isPending(c));
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.highWater(), 3u);
    EXPECT_EQ(q.stats().pending, 1u);
    EXPECT_EQ(q.runToQuiescence(), 1u);
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_EQ(q.stats().dispatchedTyped, 1u);
    EXPECT_EQ(q.stats().dispatchedStatic, 0u);
    EXPECT_EQ(q.stats().dispatchedClosure, 0u);
}

TEST(EventQueue, DestroyedStaticEventLeavesTheQueueConsistent)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    Probe p;
    {
        StaticEvent armed(&Probe::fire, &p);
        q.scheduleStatic(3, EventKey{1, sim::chanTimer, 1}, armed);
        StaticEvent stale(&Probe::fire, &p);
        q.scheduleStatic(4, EventKey{2, sim::chanTimer, 1}, stale);
        q.cancelStatic(stale);
        q.scheduleStatic(8, EventKey{2, sim::chanTimer, 2}, stale);
        EXPECT_EQ(q.pending(), 3u);
    }
    EXPECT_EQ(q.pending(), 1u);
    EXPECT_EQ(q.nextTime(), 5);
    EXPECT_EQ(q.runToQuiescence(), 1u);
    EXPECT_EQ(order, (std::vector<int>{1}));
    EXPECT_EQ(p.fired, 0);
    EXPECT_TRUE(q.empty());

    // the other way round: a queue dies under an armed event, which
    // is then free to arm elsewhere
    StaticEvent survivor(&Probe::fire, &p);
    {
        EventQueue gone;
        gone.scheduleStatic(1, EventKey{1, sim::chanStep, 1}, survivor);
    }
    EXPECT_FALSE(survivor.pending());
    q.scheduleStatic(q.now() + 1, EventKey{1, sim::chanStep, 2},
                     survivor);
    EXPECT_EQ(q.runToQuiescence(), 1u);
    EXPECT_EQ(p.fired, 1);
}

TEST(EventQueue, StaticEventRearmedOnAnotherQueueDropsItsOldEntries)
{
    EventQueue a, b;
    Probe p;
    StaticEvent ev(&Probe::fire, &p);
    a.scheduleStatic(10, EventKey{1, sim::chanSelf, 1}, ev);
    a.cancelStatic(ev);
    // the owner moved without a migration: a's dead entry must not
    // outlive the event's new arming
    b.scheduleStatic(5, EventKey{1, sim::chanSelf, 2}, ev);
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(b.runToQuiescence(), 1u);
    EXPECT_EQ(p.fired, 1);
    EXPECT_EQ(a.runToQuiescence(), 0u);
}

TEST(EventQueue, ClearAndResetTimeReleaseEveryKind)
{
    EventQueue q;
    Probe p;
    StaticEvent ev(&Probe::fire, &p);
    std::vector<int> order;
    q.scheduleStatic(10, EventKey{1, sim::chanStep, 1}, ev);
    q.scheduleTyped(20, EventKey{2, sim::chanLine, 1}, logTyped(order, 1));
    q.schedule(30, [&] { order.push_back(2); });
    q.runUntil(5);
    q.clear();
    EXPECT_EQ(q.pending(), 0u);
    EXPECT_FALSE(ev.pending());
    q.resetTime(0);
    EXPECT_EQ(q.now(), 0);
    EXPECT_EQ(q.runToQuiescence(), 0u);
    EXPECT_TRUE(order.empty());
    EXPECT_EQ(p.fired, 0);
    EXPECT_THROW(q.scheduleTyped(1, EventKey{}, TypedEvent{}), SimPanic);
}

// ---------------------------------------------------------------------
// per-node lookahead: never earlier than the queue head, never later
// than the exact all-pairs bound, and a function of the live set alone
// ---------------------------------------------------------------------

namespace
{

/** A random wiring: groups 0..n-1 are nodes (actors 1..n), actor n+1
 *  is a peripheral co-located with node `home`, actor 0 and actor n+2
 *  are global. */
struct Wiring
{
    uint32_t n = 0;
    uint32_t home = 0;
    std::vector<Topology::Line> lines;
};

Wiring
randomWiring(std::mt19937_64 &rng)
{
    Wiring w;
    const auto lead = [&] { return static_cast<Tick>(50 + rng() % 351); };
    const auto link = [&](uint32_t a, uint32_t b) {
        w.lines.push_back({a, b, lead()});
        w.lines.push_back({b, a, lead()});
    };
    const int shape = static_cast<int>(rng() % 4);
    if (shape < 2) { // pipeline, ring
        w.n = 2 + static_cast<uint32_t>(rng() % 11);
        for (uint32_t i = 0; i + 1 < w.n; ++i)
            link(i, i + 1);
        if (shape == 1)
            link(w.n - 1, 0);
    } else { // grid, torus (a 2-wide torus doubles its wrap wires)
        const uint32_t cols = 2 + static_cast<uint32_t>(rng() % 5);
        const uint32_t rows = 2 + static_cast<uint32_t>(rng() % 5);
        w.n = cols * rows;
        for (uint32_t y = 0; y < rows; ++y)
            for (uint32_t x = 0; x < cols; ++x) {
                const uint32_t id = y * cols + x;
                if (x + 1 < cols)
                    link(id, id + 1);
                else if (shape == 3)
                    link(id, y * cols);
                if (y + 1 < rows)
                    link(id, id + cols);
                else if (shape == 3)
                    link(id, x);
            }
    }
    w.home = static_cast<uint32_t>(rng() % w.n);
    link(w.home, w.home); // the peripheral's wire pair
    return w;
}

/** All-pairs shortest lead over w's lines between distinct groups
 *  (Floyd-Warshall).  The diagonal is 0, or with `cycles` the
 *  shortest path of at least one line back into the group. */
std::vector<std::vector<Tick>>
allPairs(const Wiring &w, bool cycles)
{
    std::vector<std::vector<Tick>> dist(w.n,
                                        std::vector<Tick>(w.n, maxTick));
    for (const Topology::Line &l : w.lines)
        if (l.from != l.to)
            dist[l.from][l.to] = std::min(dist[l.from][l.to], l.lead);
    for (uint32_t k = 0; k < w.n; ++k)
        for (uint32_t i = 0; i < w.n; ++i)
            for (uint32_t j = 0; j < w.n; ++j)
                dist[i][j] = std::min(dist[i][j],
                                      sim::satAdd(dist[i][k], dist[k][j]));
    if (!cycles)
        for (uint32_t i = 0; i < w.n; ++i)
            dist[i][i] = 0;
    return dist;
}

/** Everything the test scheduled, to tell the live set without asking
 *  the queue. */
struct Ledger
{
    struct Rec
    {
        Tick when;
        EventKey key;
        sim::EventId id = sim::invalidEventId; ///< closures only
        bool gone = false; ///< dispatched, or a cancelled closure
    };
    std::vector<Rec> typed, closures;
    std::deque<Probe> probes;
    /** Emptied when the driver destroys an event, re-made on use. */
    std::deque<std::optional<StaticEvent>> statics;

    std::vector<Rec>
    live() const
    {
        std::vector<Rec> out;
        for (const auto *v : {&typed, &closures})
            for (const Rec &r : *v)
                if (!r.gone)
                    out.push_back(r);
        for (const std::optional<StaticEvent> &s : statics)
            if (s && s->pending())
                out.push_back(Rec{s->scheduledAt(), s->scheduledKey()});
        return out;
    }

    /** Static event i, made afresh if it was destroyed. */
    StaticEvent &
    staticAt(size_t i)
    {
        if (!statics[i])
            statics[i].emplace(&Probe::fire, &probes[i]);
        return *statics[i];
    }
};

void
markTyped(void *ctx, uint64_t i)
{
    static_cast<Ledger *>(ctx)->typed[i].gone = true;
}

/** nextTimeFor(actor) of a fresh queue holding one event at each of
 *  recs' (tick, key)s: the bound is a function of those alone. */
Tick
freshBound(const std::shared_ptr<const Topology> &topo,
           const std::vector<Ledger::Rec> &recs, uint32_t actor)
{
    EventQueue q;
    q.setTopology(topo);
    for (const Ledger::Rec &r : recs)
        q.scheduleTyped(r.when, r.key,
                        TypedEvent{[](void *, uint64_t) {}, nullptr, 0});
    return q.nextTimeFor(actor);
}

/** The settle hook of the driver below: it posts one typed event for
 *  an actor of the settled group, as a link burst posts the per-byte
 *  deliveries it held back. */
struct SettlePoster
{
    EventQueue *q = nullptr;
    Ledger *led = nullptr;
    std::vector<uint64_t> *seq = nullptr;
    std::vector<uint32_t> actorOfGroup; ///< an actor of each group

    static void
    post(void *ctx, uint32_t group, Tick when, const EventKey &)
    {
        auto *p = static_cast<SettlePoster *>(ctx);
        const uint32_t actor = group < p->actorOfGroup.size()
                                   ? p->actorOfGroup[group]
                                   : 0;
        const EventKey key{actor, sim::chanLine + 2, ++(*p->seq)[actor]};
        const Tick at = when + 1 + static_cast<Tick>(group % 7) * 40;
        p->led->typed.push_back({at, key});
        p->q->scheduleTyped(at, key,
                            TypedEvent{markTyped, p->led,
                                       p->led->typed.size() - 1});
    }
};

} // namespace

TEST(EventQueueLookahead, NeverLaterThanTheAllPairsBoundNorMovedByMigration)
{
    constexpr Tick kStepExtra = 1000;
    for (uint64_t seed = 1; seed <= 200; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const Wiring w = randomWiring(rng);
        const uint32_t peripheral = w.n + 1, unmapped = w.n + 2;
        std::vector<int32_t> group_of(w.n + 2, -1);
        for (uint32_t i = 0; i < w.n; ++i)
            group_of[i + 1] = static_cast<int32_t>(i);
        group_of[peripheral] = static_cast<int32_t>(w.home);
        const auto topo =
            Topology::build(group_of, w.n, w.lines, kStepExtra);

        // the reference: the closure of the wiring ...
        const auto dist = allPairs(w, false);
        // ... and a scan of the live set
        Ledger led;
        const auto reference = [&](uint32_t actor) {
            const int32_t me =
                actor < group_of.size() ? group_of[actor] : -1;
            Tick best = maxTick;
            for (const Ledger::Rec &r : led.live()) {
                const int32_t g = r.key.actor < group_of.size()
                                      ? group_of[r.key.actor]
                                      : -1;
                Tick d = 0;
                if (g >= 0 && me >= 0 && g != me) {
                    d = dist[static_cast<size_t>(g)]
                            [static_cast<size_t>(me)];
                    if (r.key.channel == sim::chanStep)
                        d = sim::satAdd(d, kStepExtra);
                }
                best = std::min(best, sim::satAdd(r.when, d));
            }
            return best;
        };

        // the same wiring without the step credit, to swap in
        const auto flat = Topology::build(group_of, w.n, w.lines, 0);
        std::shared_ptr<const Topology> cur = topo;

        std::vector<uint64_t> seq(unmapped + 1, 0);
        SettlePoster poster;
        poster.led = &led;
        poster.seq = &seq;
        for (uint32_t g = 0; g < w.n; ++g)
            poster.actorOfGroup.push_back(g + 1);
        std::unique_ptr<EventQueue> q;
        const auto adopt = [&](std::unique_ptr<EventQueue> next) {
            next->setSettle(&SettlePoster::post, &poster);
            poster.q = next.get();
            q = std::move(next);
        };
        adopt(std::make_unique<EventQueue>());
        q->setTopology(topo);
        // two static events per mapped actor, moved between the step
        // and timer channels
        for (uint32_t a = 1; a <= peripheral; ++a)
            for (int k = 0; k < 2; ++k) {
                led.probes.emplace_back();
                led.statics.emplace_back();
            }
        const auto randomKey = [&] {
            const uint32_t actor =
                static_cast<uint32_t>(rng() % (unmapped + 1));
            static constexpr uint32_t channels[] = {
                sim::chanStep, sim::chanTimer, sim::chanSelf,
                sim::chanLine + 1};
            return EventKey{actor, channels[rng() % 4], ++seq[actor]};
        };

        for (int round = 0; round < 8; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            // dense and sparse rounds: where few nodes have events,
            // the multi-hop term decides more bounds
            const int ops = 1 + static_cast<int>(rng() % 40);
            const Tick spread = 1 + static_cast<Tick>(rng() % 5000);
            for (int op = 0; op < ops; ++op) {
                const Tick when =
                    q->now() +
                    static_cast<Tick>(rng() % static_cast<uint64_t>(spread));
                // the memo: one actor's bound, asked before and after a
                // single operation, must be what a fresh queue holding
                // the live set answers
                const uint32_t focus =
                    static_cast<uint32_t>(rng() % (unmapped + 1));
                const Tick before = q->nextTimeFor(focus);
                const uint64_t reused = q->stats().boundsReused;
                ASSERT_EQ(q->nextTimeFor(focus), before);
                ASSERT_EQ(q->stats().boundsReused, reused + 1);
                const int kind = static_cast<int>(rng() % 13);
                SCOPED_TRACE("op kind " + std::to_string(kind));
                switch (kind) {
                case 0: {
                    const EventKey key = randomKey();
                    led.typed.push_back({when, key});
                    q->scheduleTyped(when, key,
                                     TypedEvent{markTyped, &led,
                                                led.typed.size() - 1});
                    break;
                }
                case 1: {
                    const EventKey key = randomKey();
                    const size_t i = led.closures.size();
                    led.closures.push_back({when, key});
                    led.closures[i].id = q->schedule(
                        when, key, [&led, i] { led.closures[i].gone = true; });
                    break;
                }
                case 2: { // legacy actor-0 event
                    const size_t i = led.closures.size();
                    led.closures.push_back({when, EventKey{}});
                    led.closures[i].id = q->schedule(
                        when, [&led, i] { led.closures[i].gone = true; });
                    led.closures[i].key = EventKey{0, 0, 0};
                    break;
                }
                case 3: { // cancel a pending closure
                    if (led.closures.empty())
                        break;
                    auto &r = led.closures[rng() % led.closures.size()];
                    if (!r.gone && q->cancel(r.id))
                        r.gone = true;
                    break;
                }
                case 4:
                case 5:
                case 6: { // (re-)arm a static event, maybe pulled in
                          // or pushed back (a deferred arming)
                    const size_t i = rng() % led.statics.size();
                    StaticEvent &s = led.staticAt(i);
                    const uint32_t actor = 1 + static_cast<uint32_t>(i / 2);
                    const uint32_t channel =
                        rng() % 3 == 0 ? sim::chanTimer : sim::chanStep;
                    q->cancelStatic(s);
                    if (rng() % 4 != 0)
                        q->scheduleStatic(
                            when, EventKey{actor, channel, ++seq[actor]},
                            s);
                    break;
                }
                case 7: // dispatch
                    q->runOne();
                    break;
                case 8: { // a settle hook posts an event
                    const uint32_t actor =
                        static_cast<uint32_t>(rng() % (unmapped + 1));
                    const uint32_t g = q->groupOf(actor);
                    q->watch(g, 1);
                    q->touch(actor);
                    q->watch(g, -1);
                    break;
                }
                case 9: { // migration, the bound asked after each insert
                    auto next = std::make_unique<EventQueue>();
                    next->setTopology(cur);
                    ASSERT_EQ(next->nextTimeFor(focus), maxTick);
                    auto moved = q->extractPending();
                    ASSERT_EQ(q->nextTimeFor(focus), maxTick);
                    std::vector<Ledger::Rec> in;
                    for (auto &p : moved) {
                        in.push_back({p.when, p.key});
                        next->insertPending(std::move(p));
                        ASSERT_EQ(next->nextTimeFor(focus),
                                  freshBound(cur, in, focus));
                    }
                    next->setNow(q->now());
                    adopt(std::move(next));
                    break;
                }
                case 10: // a new lookahead table
                    cur = rng() % 3 == 0 ? nullptr
                          : cur == topo  ? flat
                                         : topo;
                    q->setTopology(cur);
                    break;
                case 11: { // an armed owner dies
                    const size_t i = rng() % led.statics.size();
                    led.statics[i].reset();
                    break;
                }
                default: // the whole queue dropped, rarely
                    if (rng() % 4 != 0)
                        break;
                    q->clear();
                    for (auto *v : {&led.typed, &led.closures})
                        for (Ledger::Rec &r : *v)
                            r.gone = true;
                    break;
                }
                ASSERT_EQ(q->nextTimeFor(focus),
                          freshBound(cur, led.live(), focus))
                    << "actor " << focus;
            }
            if (cur != topo) {
                cur = topo;
                q->setTopology(topo);
            }

            // the bound of every actor, checked against the reference
            std::vector<Tick> bound(unmapped + 1);
            for (uint32_t a = unmapped + 1; a-- > 0;)
                bound[a] = q->nextTimeFor(a);
            const Tick head = q->nextTime();
            for (uint32_t a = 0; a <= unmapped; ++a) {
                ASSERT_LE(head, bound[a]) << "actor " << a;
                ASSERT_LE(bound[a], reference(a)) << "actor " << a;
            }
            Tick live_head = maxTick, live_reach = maxTick;
            for (const Ledger::Rec &r : led.live()) {
                live_head = std::min(live_head, r.when);
                const bool step = r.key.channel == sim::chanStep &&
                                  r.key.actor < group_of.size() &&
                                  group_of[r.key.actor] >= 0;
                live_reach = std::min(
                    live_reach, sim::satAdd(r.when, step ? kStepExtra : 0));
            }
            ASSERT_EQ(head, live_head);
            ASSERT_EQ(q->nextReach(), live_reach);

            // the live events alone, in a fresh queue, bound the same
            const size_t live = q->pending();
            auto fresh = std::make_unique<EventQueue>();
            fresh->setTopology(topo);
            for (auto &p : q->extractPending())
                fresh->insertPending(std::move(p));
            fresh->setNow(q->now());
            ASSERT_EQ(fresh->pending(), live);
            for (uint32_t a = 0; a <= unmapped; ++a)
                ASSERT_EQ(fresh->nextTimeFor(a), bound[a]) << "actor " << a;
            adopt(std::move(fresh));

            // advance, leaving dead entries and stand-ins behind
            for (int k = static_cast<int>(rng() % (ops + 1)); k > 0; --k)
                q->runOne();
        }
    }
}

TEST(EventQueueLookahead, EarliestInputBracketedByThePathsIntoAGroup)
{
    // the shard-parallel window bound (src/par): groups stand for
    // shards, lines for cut lines, and each group's reach is what its
    // shard published -- maxTick for an idle one
    for (uint64_t seed = 1; seed <= 250; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const Wiring w = randomWiring(rng);
        const auto topo = Topology::build({}, w.n, w.lines, 1000);
        const auto path = allPairs(w, true);
        Tick least = maxTick;
        for (const Topology::Line &l : w.lines)
            if (l.from != l.to)
                least = std::min(least, l.lead);

        for (int trial = 0; trial < 8; ++trial) {
            // up to three quarters of the groups idle; all in the last
            const int idle = trial == 7 ? 4 : static_cast<int>(rng() % 4);
            std::vector<Tick> reach(w.n);
            for (Tick &r : reach)
                r = static_cast<int>(rng() % 4) < idle
                        ? maxTick
                        : static_cast<Tick>(rng() % 3000);
            const Tick low = *std::min_element(reach.begin(), reach.end());
            for (uint32_t g = 0; g < w.n; ++g) {
                const Tick bound = topo->earliestInput(g, reach);
                // sound: no chain of one or more lines from any
                // group's reach lands earlier
                Tick exact = maxTick;
                for (uint32_t t = 0; t < w.n; ++t)
                    exact = std::min(exact,
                                     sim::satAdd(reach[t], path[t][g]));
                ASSERT_LE(bound, exact) << "group " << g;
                // and never below one least lead past the least reach
                ASSERT_GE(bound, sim::satAdd(low, least)) << "group " << g;
            }
        }
    }
}

namespace
{

/**
 * The kernel differential driver: random operations on an EventQueue
 * beside a reference -- a std::set of the live events in the dispatch
 * order -- and a brute-force evaluation of nextTimeFor's documented
 * rule over that set.
 */
class Differential
{
  public:
    /** Groups 0..n-1 (actors 1..n, and a peripheral actor n+1 in group
     *  `home`); actor 0 and actor n+2 are global. */
    Differential(uint32_t n, uint32_t home, std::vector<Topology::Line> lines,
                 uint64_t seed)
        : n_(n), rng_(seed), lines_(std::move(lines))
    {
        groupOf_.assign(n + 2, -1);
        for (uint32_t i = 0; i < n; ++i)
            groupOf_[i + 1] = static_cast<int32_t>(i);
        groupOf_[n + 1] = static_cast<int32_t>(home);
        topos_[0] = Topology::build(groupOf_, n, lines_, kStepExtra);
        topos_[1] = Topology::build(groupOf_, n, lines_, 0);
        in_.resize(n);
        Tick least = maxTick;
        for (const Topology::Line &l : lines_)
            if (l.from != l.to) {
                in_[l.to].push_back({l.from, l.lead});
                least = std::min(least, l.lead);
            }
        multiHop_ = sim::satAdd(least, least);
        for (uint32_t a = 1; a <= n + 1; ++a)
            for (int k = 0; k < 2; ++k)
                statics_.push_back(std::make_unique<StaticRec>(
                    this, a, tag(2, statics_.size())));
        fresh(0);
    }

    /** Run `ops` random operations, checking after each; `all`: ask
     *  every actor's bound each time, else a sample. */
    void
    run(int ops, bool all)
    {
        for (int op = 0; op < ops; ++op) {
            const int kind = static_cast<int>(rng_() % 16);
            SCOPED_TRACE("op " + std::to_string(op) + " kind " +
                         std::to_string(kind));
            step(kind);
            if (::testing::Test::HasFatalFailure())
                return;
            check(all || op % 100 == 0);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }

    /** Arm a CPU step on every node, as a network boot does. */
    void
    bootAll()
    {
        for (size_t i = 0; i < statics_.size(); i += 2)
            arm(*statics_[i], q_->now() + static_cast<Tick>(rng_() % 50),
                sim::chanStep);
        check(false);
    }

    /** Dispatch everything, checking as it goes. */
    void
    drain()
    {
        while (q_->runOne())
            if (::testing::Test::HasFatalFailure())
                return;
        check(true);
    }

  private:
    static constexpr Tick kStepExtra = 700;

    /** One live event of the reference, in the dispatch order.  Typed
     *  events have unique keys, so their unseen id never decides. */
    struct Ref
    {
        Tick when;
        EventKey key;
        sim::EventId id;
        uint64_t tag;

        auto
        order() const
        {
            return std::tie(when, key.actor, key.channel, key.seq, id, tag);
        }
        bool operator<(const Ref &o) const { return order() < o.order(); }
    };

    struct StaticRec
    {
        Differential *d;
        uint32_t actor;
        uint64_t tag;
        std::optional<StaticEvent> ev;
        Ref ref{};

        StaticRec(Differential *owner, uint32_t a, uint64_t t)
            : d(owner), actor(a), tag(t)
        {
        }

        /** Checks the dispatch; half the time the handler re-arms its
         *  event, as a CPU re-arms its step. */
        static void
        fire(void *ctx)
        {
            auto *r = static_cast<StaticRec *>(ctx);
            r->d->fired(r->ref);
            if (r->d->rng_() % 2 == 0)
                r->d->arm(*r, r->d->randomWhen(), r->ref.key.channel);
        }

        StaticEvent &
        event()
        {
            if (!ev)
                ev.emplace(&StaticRec::fire, this);
            return *ev;
        }
    };

    /** The dispatched event must be the reference's least. */
    void
    fired(const Ref &r)
    {
        ASSERT_FALSE(live_.empty());
        const Ref &least = *live_.begin();
        ASSERT_EQ(least.tag, r.tag);
        ASSERT_EQ(q_->now(), r.when);
        const EventKey &k = q_->currentKey();
        ASSERT_EQ(std::tie(k.actor, k.channel, k.seq),
                  std::tie(r.key.actor, r.key.channel, r.key.seq));
        live_.erase(live_.begin());
    }

    static void
    firedTyped(void *ctx, uint64_t arg)
    {
        auto *d = static_cast<Differential *>(ctx);
        d->fired(d->typed_[arg]);
    }

    /** A new queue on the current topology (nullptr: none). */
    void
    fresh(int t)
    {
        cur_ = t;
        auto q = std::make_unique<EventQueue>();
        q->setTopology(t < 2 ? topos_[t] : nullptr);
        q_ = std::move(q);
        defaultSeq_ = 0;
    }

    uint32_t randomActor() { return static_cast<uint32_t>(rng_() % (n_ + 3)); }

    uint32_t
    randomChannel()
    {
        static constexpr uint32_t kChannels[] = {
            sim::chanStep, sim::chanTimer, sim::chanSelf, sim::chanLine + 1};
        return kChannels[rng_() % 4];
    }

    Tick
    randomWhen()
    {
        // clustered ticks, so keys tie on the tick and often on more
        return q_->now() + static_cast<Tick>(rng_() % 4 == 0
                                                 ? rng_() % 4
                                                 : rng_() % 3000);
    }

    void
    arm(StaticRec &s, Tick when, uint32_t channel)
    {
        StaticEvent &ev = s.event();
        if (ev.pending()) {
            live_.erase(s.ref);
            q_->cancelStatic(ev);
        }
        const EventKey key{s.actor, channel, ++seq_};
        const sim::EventId id = q_->scheduleStatic(when, key, ev);
        s.ref = Ref{when, key, id, s.tag};
        live_.insert(s.ref);
    }

    static uint64_t tag(int kind, uint64_t i) { return 3 * i + kind; }

    void
    step(int kind)
    {
        switch (kind) {
        case 0:
        case 1: { // a typed event
            const EventKey key{randomActor(), randomChannel(), ++seq_};
            const Tick when = randomWhen();
            typed_.push_back(Ref{when, key, 0, tag(0, typed_.size())});
            live_.insert(typed_.back());
            q_->scheduleTyped(when, key,
                              TypedEvent{&Differential::firedTyped, this,
                                         typed_.size() - 1});
            break;
        }
        case 2:
        case 3: { // a closure: keyed, legacy, or tied with another
            Tick when = randomWhen();
            EventKey key{randomActor(), randomChannel(), ++seq_};
            const uint64_t t = tag(1, closures_.size());
            if (rng_() % 4 == 0 && !closures_.empty()) {
                const Ref &twin = closures_[rng_() % closures_.size()];
                if (live_.count(twin)) {
                    when = twin.when;
                    key = twin.key;
                }
            }
            sim::EventId id;
            if (rng_() % 5 == 0) {
                key = EventKey{0, 0, ++defaultSeq_};
                id = q_->schedule(when, [this, t] { firedClosure(t); });
            } else {
                id = q_->schedule(when, key, [this, t] { firedClosure(t); });
            }
            closures_.push_back(Ref{when, key, id, t});
            live_.insert(closures_.back());
            break;
        }
        case 4: { // cancel a closure, pending or not
            if (closures_.empty())
                break;
            const Ref &r = closures_[rng_() % closures_.size()];
            const bool was = live_.erase(r) != 0;
            ASSERT_EQ(q_->cancel(r.id), was);
            break;
        }
        case 5:
        case 6:
        case 7: { // arm, or re-arm earlier or later (a stand-in)
            StaticRec &s = *statics_[rng_() % statics_.size()];
            Tick when = randomWhen();
            uint32_t channel =
                rng_() % 3 == 0 ? sim::chanTimer : sim::chanStep;
            if (s.ev && s.ev->pending() && rng_() % 2 == 0) {
                channel = s.ref.key.channel;
                const Tick d = static_cast<Tick>(rng_() % 500);
                when = rng_() % 2 ? s.ref.when + d
                                  : std::max(q_->now(), s.ref.when - d);
            }
            arm(s, when, channel);
            break;
        }
        case 8: { // cancel a static event
            StaticRec &s = *statics_[rng_() % statics_.size()];
            if (!s.ev)
                break;
            const bool was = s.ev->pending();
            if (was)
                live_.erase(s.ref);
            ASSERT_EQ(q_->cancelStatic(*s.ev), was);
            break;
        }
        case 9: { // an owner dies, armed or not
            StaticRec &s = *statics_[rng_() % statics_.size()];
            if (s.ev && s.ev->pending())
                live_.erase(s.ref);
            s.ev.reset();
            break;
        }
        case 10:
        case 11:
        case 12: // dispatch
            ASSERT_EQ(q_->runOne(), !live_.empty());
            break;
        case 13: { // migrate into a fresh queue
            auto moved = q_->extractPending();
            ASSERT_EQ(moved.size(), live_.size());
            ASSERT_EQ(q_->pending(), 0u);
            // keys travel; a fresh queue's legacy seq starts over, so
            // later legacy events may tie with moved ones on the key
            const Tick now = q_->now();
            fresh(cur_);
            for (auto &p : moved)
                q_->insertPending(std::move(p));
            q_->setNow(now);
            break;
        }
        case 14: // another lookahead table (or none)
            cur_ = static_cast<int>(rng_() % 3);
            q_->setTopology(cur_ < 2 ? topos_[cur_] : nullptr);
            break;
        default: // the whole queue dropped, rarely
            if (rng_() % 8 != 0)
                break;
            q_->clear();
            live_.clear();
            for (auto &s : statics_)
                ASSERT_TRUE(!s->ev || !s->ev->pending());
            break;
        }
    }

    void
    firedClosure(uint64_t t)
    {
        fired(closures_[t / 3]);
    }

    int32_t
    groupOf(uint32_t actor) const
    {
        return cur_ < 2 && actor < groupOf_.size() ? groupOf_[actor] : -1;
    }

    /** nextTimeFor's documented rule, evaluated over the reference. */
    Tick
    bruteBound(uint32_t actor) const
    {
        if (live_.empty())
            return maxTick;
        const Ref &front = *live_.begin();
        const int32_t g = groupOf(actor);
        const int32_t fg = groupOf(front.key.actor);
        if (g < 0 || fg < 0 || fg == g)
            return front.when;
        const Tick extra = cur_ == 0 ? kStepExtra : 0;
        Tick best = maxTick, reach = maxTick;
        for (const Ref &e : live_) {
            const int32_t h = groupOf(e.key.actor);
            const bool step = e.key.channel == sim::chanStep;
            reach = std::min(reach, h >= 0 && step
                                        ? sim::satAdd(e.when, extra)
                                        : e.when);
            if (h < 0 || h == g) {
                best = std::min(best, e.when);
                continue;
            }
            for (const auto &[from, lead] : in_[static_cast<size_t>(g)])
                if (from == static_cast<uint32_t>(h))
                    best = std::min(
                        best, sim::satAdd(e.when,
                                          step ? sim::satAdd(lead, extra)
                                               : lead));
        }
        if (sim::satAdd(front.when, multiHop_) < best)
            best = std::min(best, sim::satAdd(reach, multiHop_));
        return best;
    }

    /** The queue against the reference: size, head, reach, bounds. */
    void
    check(bool all)
    {
        ASSERT_EQ(q_->pending(), live_.size());
        ASSERT_EQ(q_->nextTime(),
                  live_.empty() ? maxTick : live_.begin()->when);
        const uint32_t actors = n_ + 3;
        const uint32_t asked = all ? actors : std::min(actors, 24u);
        for (uint32_t i = 0; i < asked; ++i) {
            const uint32_t a = all ? i : randomActor();
            ASSERT_EQ(q_->nextTimeFor(a), bruteBound(a)) << "actor " << a;
        }
        if (cur_ < 2) {
            Tick reach = maxTick;
            const Tick extra = cur_ == 0 ? kStepExtra : 0;
            for (const Ref &e : live_)
                reach = std::min(reach, groupOf(e.key.actor) >= 0 &&
                                                e.key.channel ==
                                                    sim::chanStep
                                            ? sim::satAdd(e.when, extra)
                                            : e.when);
            ASSERT_EQ(q_->nextReach(), reach);
        }
    }

    uint32_t n_;
    std::mt19937_64 rng_;
    std::vector<Topology::Line> lines_;
    std::vector<int32_t> groupOf_;
    std::shared_ptr<const Topology> topos_[2]; ///< step credit, none
    std::vector<std::vector<std::pair<uint32_t, Tick>>> in_;
    Tick multiHop_ = maxTick;
    int cur_ = 0; ///< topos_ index, 2: no topology

    std::unique_ptr<EventQueue> q_;
    std::set<Ref> live_;
    std::vector<Ref> typed_, closures_;
    std::vector<std::unique_ptr<StaticRec>> statics_;
    uint64_t seq_ = 0;
    uint64_t defaultSeq_ = 0; ///< the queue's legacy seq
};

} // namespace

TEST(EventQueueDifferential, EveryDispatchAndBoundMatchesTheLiveSet)
{
    for (uint64_t seed = 1; seed <= 120; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        std::mt19937_64 rng(seed);
        const Wiring w = randomWiring(rng);
        Differential d(w.n, w.home, w.lines, seed);
        d.run(400, true);
        if (HasFatalFailure())
            return;
        d.drain();
        if (HasFatalFailure())
            return;
    }
}

TEST(EventQueueDifferential, TwoThousandGroupsGrowAndShrinkTheOrder)
{
    // a 50x40 torus: every node's step at once (a boot), drained, then
    // random traffic over the whole array
    constexpr uint32_t kCols = 50, kRows = 40;
    std::vector<Topology::Line> lines;
    for (uint32_t y = 0; y < kRows; ++y)
        for (uint32_t x = 0; x < kCols; ++x) {
            const uint32_t id = y * kCols + x;
            const uint32_t right = y * kCols + (x + 1) % kCols;
            const uint32_t down = ((y + 1) % kRows) * kCols + x;
            for (const uint32_t to : {right, down}) {
                lines.push_back({id, to, 60 + static_cast<Tick>(id % 7)});
                lines.push_back({to, id, 60 + static_cast<Tick>(to % 5)});
            }
        }
    Differential d(kCols * kRows, 17, lines, 2026);
    for (int round = 0; round < 2; ++round) {
        d.bootAll();
        if (HasFatalFailure())
            return;
        d.run(1500, false);
        if (HasFatalFailure())
            return;
        d.drain();
        if (HasFatalFailure())
            return;
    }
}
