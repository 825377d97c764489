/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <random>
#include <string>
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
    std::deque<StaticEvent> statics;

    std::vector<Rec>
    live() const
    {
        std::vector<Rec> out;
        for (const auto *v : {&typed, &closures})
            for (const Rec &r : *v)
                if (!r.gone)
                    out.push_back(r);
        for (const StaticEvent &s : statics)
            if (s.pending())
                out.push_back(Rec{s.scheduledAt(), s.scheduledKey()});
        return out;
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

        // the reference: Floyd-Warshall closure of the wiring
        std::vector<std::vector<Tick>> dist(
            w.n, std::vector<Tick>(w.n, maxTick));
        for (uint32_t i = 0; i < w.n; ++i)
            dist[i][i] = 0;
        for (const Topology::Line &l : w.lines)
            dist[l.from][l.to] = std::min(dist[l.from][l.to], l.lead);
        for (uint32_t k = 0; k < w.n; ++k)
            for (uint32_t i = 0; i < w.n; ++i)
                for (uint32_t j = 0; j < w.n; ++j)
                    dist[i][j] = std::min(
                        dist[i][j], sim::satAdd(dist[i][k], dist[k][j]));
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

        auto q = std::make_unique<EventQueue>();
        q->setTopology(topo);
        // two static events per mapped actor, moved between the step
        // and timer channels
        for (uint32_t a = 1; a <= peripheral; ++a)
            for (int k = 0; k < 2; ++k) {
                led.probes.emplace_back();
                led.statics.emplace_back(&Probe::fire, &led.probes.back());
            }
        std::vector<uint64_t> seq(unmapped + 1, 0);
        const auto randomKey = [&] {
            const uint32_t actor =
                static_cast<uint32_t>(rng() % (unmapped + 1));
            static constexpr uint32_t channels[] = {
                sim::chanStep, sim::chanTimer, sim::chanSelf,
                sim::chanLine + 1};
            return EventKey{actor, channels[rng() % 4], ++seq[actor]};
        };
        const auto markTyped = [](void *ctx, uint64_t i) {
            static_cast<Ledger *>(ctx)->typed[i].gone = true;
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
                switch (rng() % 6) {
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
                default: { // (re-)arm a static event, maybe pulled in
                           // or pushed back (a deferred arming)
                    const size_t i = rng() % led.statics.size();
                    StaticEvent &s = led.statics[i];
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
                }
            }

            // the bound of every actor, checked against the reference
            // (the bounds first, while dead entries may still lead
            // the lanes they read)
            std::vector<Tick> bound(unmapped + 1);
            for (uint32_t a = unmapped + 1; a-- > 0;)
                bound[a] = q->nextTimeFor(a);
            const Tick head = q->nextTime();
            for (uint32_t a = 0; a <= unmapped; ++a) {
                ASSERT_LE(head, bound[a]) << "actor " << a;
                ASSERT_LE(bound[a], reference(a)) << "actor " << a;
            }
            Tick live_head = maxTick;
            for (const Ledger::Rec &r : led.live())
                live_head = std::min(live_head, r.when);
            ASSERT_EQ(head, live_head);

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
            q = std::move(fresh);

            // advance, leaving dead entries and stand-ins behind
            for (int k = static_cast<int>(rng() % (ops + 1)); k > 0; --k)
                q->runOne();
        }
    }
}
