/**
 * @file
 * Unit tests for the discrete-event kernel.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/event_queue.hh"

using namespace transputer;
using transputer::sim::EventKey;
using transputer::sim::EventQueue;
using transputer::sim::StaticEvent;
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
    EXPECT_EQ(st.dispatchedStatic, 3u);
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
    q.setTopology({-1, 0, 1, 2}, 3, {0, 5, 5, 5, 0, 5, 100, 100, 0});
    // an early far-away event keeps the stale entries below the top,
    // so nextTimeFor meets them in its scan
    q.scheduleTyped(5, EventKey{3, sim::chanLine, 1},
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
    EXPECT_EQ(q.runUntil(39), 1u); // only the typed event at 5
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
