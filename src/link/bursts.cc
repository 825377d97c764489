#include "link/bursts.hh"

#include <algorithm>

#include "link/link.hh"

namespace transputer::link
{

using sim::EventKey;

namespace
{

bool
sameKey(const EventKey &a, const EventKey &b)
{
    return a.actor == b.actor && a.channel == b.channel && a.seq == b.seq;
}

/** A line nothing observes, disturbs or routes elsewhere. */
bool
plainLine(const Line &l)
{
    return !l.lineDead() && !l.faultTap() && !l.onPacket;
}

/** The per-byte deliveries a burst implies, per byte. */
enum class Step : uint8_t
{
    DataStart, ///< receiver classifies the packet and acknowledges
    Ack,       ///< sender gets the ack and sends the next byte
    DataEnd,   ///< receiver stores the byte
};

} // namespace

/**
 * One open burst.  The bytes [first, first + events / 3) of the
 * sender's message each imply three deliveries, numbered in dispatch
 * order: 3r is byte first + r's data start, 3r + 1 and 3r + 2 its
 * acknowledge and data end in whichever order their points fall.
 * The last two are the burst's own events.
 */
struct Bursts::Burst
{
    Burst(Bursts *o, uint32_t i)
        : owner(o), index(i),
          ackEv([](void *p) {
              auto *b = static_cast<Burst *>(p);
              b->owner->finish(*b, true);
          }, this),
          dataEv([](void *p) {
              auto *b = static_cast<Burst *>(p);
              b->owner->finish(*b, false);
          }, this)
    {}

    Bursts *const owner;
    const uint32_t index; ///< in the pool
    bool open = false;
    LinkEngine *tx = nullptr; ///< the sender
    LinkEngine *rx = nullptr; ///< the receiver
    uint32_t group[2] = {};   ///< the sender's and the receiver's
    uint32_t next[2] = {};    ///< next burst in each group's list
    Word first = 0;       ///< message index of the byte sent at open
    uint32_t events = 0;  ///< implied deliveries, 3 per byte
    uint32_t cursor = 0;  ///< the next one to apply
    bool ackFirst = true; ///< a byte's ack is dispatched before its end
    Tick start = 0;       ///< first bit of byte `first` leaves
    Tick period = 0;      ///< data packet spacing
    Tick dataTime = 0;    ///< wire time of a data packet
    Tick ackTime = 0;     ///< wire time of an acknowledge
    Tick dsLead = 0;      ///< packet start to its data start delivery
    Tick ackLead = 0;     ///< packet start to its ack delivery
    Tick deLead = 0;      ///< packet start to its data end delivery
    uint64_t txSeq = 0;   ///< data line seq before the first packet
    uint64_t rxSeq = 0;   ///< ack line seq before the first ack
    sim::StaticEvent ackEv;  ///< the last acknowledge, at the sender
    sim::StaticEvent dataEv; ///< the last data end, at the receiver

    Step
    step(uint32_t i) const
    {
        switch (i % 3) {
        case 0:
            return Step::DataStart;
        case 1:
            return ackFirst ? Step::Ack : Step::DataEnd;
        default:
            return ackFirst ? Step::DataEnd : Step::Ack;
        }
    }

    uint32_t
    indexOf(Step s, uint32_t r) const
    {
        if (s == Step::DataStart)
            return 3 * r;
        return 3 * r + ((s == Step::Ack) == ackFirst ? 1 : 2);
    }

    Tick
    when(uint32_t i) const
    {
        const Tick packet = start + static_cast<Tick>(i / 3) * period;
        switch (step(i)) {
        case Step::DataStart:
            return packet + dsLead;
        case Step::Ack:
            return packet + ackLead;
        default:
            return packet + deLead;
        }
    }

    EventKey
    key(uint32_t i) const
    {
        const uint64_t r = i / 3;
        switch (step(i)) {
        case Step::DataStart:
            return EventKey{rx->actor(), sim::chanLine + tx->tx().lineId(),
                            txSeq + 2 * r + 1};
        case Step::Ack:
            return EventKey{tx->actor(), sim::chanLine + rx->tx().lineId(),
                            rxSeq + r + 1};
        default:
            return EventKey{rx->actor(), sim::chanLine + tx->tx().lineId(),
                            txSeq + 2 * r + 2};
        }
    }

    /** The delivery whose effect schedules delivery i (-1: the
     *  transmission at open). */
    int64_t
    cause(uint32_t i) const
    {
        const uint32_t r = i / 3;
        if (step(i) == Step::Ack)
            return indexOf(Step::DataStart, r);
        if (r == 0)
            return -1;
        return indexOf(Step::Ack, r - 1);
    }

    /** The sender's byte at message index k (its memory cannot change
     *  while the burst is open: see the file comment). */
    uint8_t
    byte(Word k) const
    {
        core::Transputer &cpu = tx->cpu();
        return cpu.memory().readByte(
            cpu.shape().truncate(tx->outPtr_ + k));
    }

    uint32_t &
    nextIn(uint32_t g)
    {
        return group[0] == g ? next[0] : next[1];
    }

    bool
    isOwnEvent(Tick t, const EventKey &k) const
    {
        return (ackEv.scheduledAt() == t &&
                sameKey(ackEv.scheduledKey(), k)) ||
               (dataEv.scheduledAt() == t &&
                sameKey(dataEv.scheduledKey(), k));
    }
};

Bursts::Bursts(sim::EventQueue &q) : queue_(q)
{
    queue_.setSettle(&Bursts::settleHook, this);
}

Bursts::~Bursts()
{
    queue_.setSettle(nullptr, nullptr);
}

void
Bursts::reset()
{
    for (const auto &b : pool_)
        TRANSPUTER_ASSERT(!b->open, "resizing with a burst open");
    head_.assign(queue_.groups(), kNil);
}

bool
Bursts::open(LinkEngine &tx, Tick not_before)
{
    LinkEngine *const peer = tx.peer_;
    const EventKey cur = queue_.currentKey();
    if (!peer || &tx.queue() != &queue_ || &peer->queue() != &queue_ ||
        sameKey(cur, sim::EventQueue::endOfTick))
        return false;
    LinkEngine &rx = *peer;
    // both ends strict, healthy and unobserved, on idle CPUs
    const auto clean = [](const LinkEngine &e) {
        return e.ackMode_ == AckMode::Overlap && !e.dead_ &&
               !e.peerDead_ && e.watchdogTimeout_ == 0 &&
               (!e.wdogs_ ||
                (!e.wdogs_->out.pending() && !e.wdogs_->in.pending())) &&
               e.cpu_.idle() && !e.cpu_.traceEnabled() &&
               plainLine(e.tx_) && !e.tx_.route_;
    };
    if (!clean(tx) || !clean(rx))
        return false;
    // the byte just read (index first) and the rest of the message
    const Word first = tx.outSent_ - 1;
    const Word n = tx.outCount_ - first;
    // the receiver waits with room for all of it, and its own output
    // is idle, so its line carries nothing but the acknowledges
    if (!rx.inActive_ || rx.outActive_ || rx.awaitingAck_ ||
        rx.bufferValid_ || rx.inCount_ - rx.inReceived_ < n ||
        n > (UINT32_MAX / 3))
        return false;
    // nothing left in flight on either line
    const Tick now = queue_.now();
    const auto drained = [&](const Line &l) {
        return l.seq_ == 0 ||
               !sim::EventQueue::keyBefore(
                   now, cur, l.lastWhen_,
                   EventKey{l.remote()->actor(),
                            sim::chanLine + l.lineId(), l.seq_});
    };
    if (!drained(tx.tx_) || !drained(rx.tx_))
        return false;
    // a node sends in any number of bursts or receives in one
    const uint32_t ga = queue_.groupOf(tx.actor());
    const uint32_t gb = queue_.groupOf(rx.actor());
    if (ga == queue_.groups() || gb == queue_.groups() || ga == gb ||
        head_[gb] != kNil)
        return false;
    for (uint32_t i = head_[ga]; i != kNil; i = pool_[i]->nextIn(ga))
        if (pool_[i]->group[1] == ga)
            return false;
    // every later byte is read and stored inside populated memory, as
    // the per-byte path would without faulting
    const auto inside = [](const core::Transputer &cpu, Word from,
                           Word count) {
        if (count == 0)
            return true;
        const Word lo = cpu.shape().truncate(from);
        const Word hi = cpu.shape().truncate(from + count - 1);
        return lo <= hi && cpu.memory().contains(lo) &&
               cpu.memory().contains(hi);
    };
    if (!inside(tx.cpu_, tx.outPtr_ + first + 1, n - 1) ||
        !inside(rx.cpu_, rx.inPtr_ + rx.inReceived_, n))
        return false;

    uint32_t idx;
    if (free_.empty()) {
        idx = static_cast<uint32_t>(pool_.size());
        pool_.push_back(std::make_unique<Burst>(this, idx));
    } else {
        idx = free_.back();
        free_.pop_back();
    }
    Burst &b = *pool_[idx];
    Line &data = tx.tx_;
    const Line &acks = rx.tx_;
    const Tick bit = data.config().bitTime();
    const Tick ack_bit = acks.config().bitTime();
    b.open = true;
    b.tx = &tx;
    b.rx = &rx;
    b.group[0] = ga;
    b.group[1] = gb;
    b.first = first;
    b.events = 3 * static_cast<uint32_t>(n);
    b.cursor = 0;
    b.dataTime = 11 * bit;
    b.ackTime = 2 * ack_bit;
    b.dsLead = 2 * bit + data.config().propagationDelay;
    b.ackLead = b.dsLead + b.ackTime + acks.config().propagationDelay;
    b.deLead = b.dataTime + data.config().propagationDelay;
    b.period = std::max(b.dataTime, b.ackLead);
    b.txSeq = data.seq_;
    b.rxSeq = acks.seq_;
    // the byte just read leaves as transmitData would send it
    b.start = data.claim(not_before, b.dataTime);
    ++data.dataPackets_;
    data.seq_ += 2;
    data.lastWhen_ = b.start + b.deLead;
    b.ackFirst = sim::EventQueue::keyBefore(
        b.ackLead, EventKey{tx.actor(), sim::chanLine + acks.lineId(), 0},
        b.deLead, EventKey{rx.actor(), sim::chanLine + data.lineId(), 0});
    const uint32_t last = b.events / 3 - 1; // the message's last byte
    const uint32_t ack = b.indexOf(Step::Ack, last);
    const uint32_t end = b.indexOf(Step::DataEnd, last);
    queue_.scheduleStatic(b.when(ack), b.key(ack), b.ackEv);
    queue_.scheduleStatic(b.when(end), b.key(end), b.dataEv);
    for (int side = 0; side < 2; ++side) {
        b.next[side] = head_[b.group[side]];
        head_[b.group[side]] = idx;
        queue_.watch(b.group[side], 1);
    }
    ++bytes_;
    ++opened_;
    return true;
}

void
Bursts::settleHook(void *ctx, uint32_t group, Tick when,
                   const EventKey &key)
{
    static_cast<Bursts *>(ctx)->settleGroup(group, when, key);
}

void
Bursts::settleGroup(uint32_t group, Tick when, const EventKey &key)
{
    if (group == queue_.groups()) {
        // a global actor's event may act on any node
        for (const auto &b : pool_)
            if (b->open) {
                ++settledEarly_;
                settle(*b, when, key);
            }
        return;
    }
    for (uint32_t i = head_[group]; i != kNil;) {
        Burst &b = *pool_[i];
        i = b.nextIn(group);
        if (b.isOwnEvent(when, key))
            continue; // finish() settles it
        ++settledEarly_;
        settle(b, when, key);
    }
}

void
Bursts::settleAll()
{
    settleGroup(queue_.groups(), queue_.now(), queue_.currentKey());
}

void
Bursts::settle(Burst &b, Tick when, const EventKey &key)
{
    LinkEngine &tx = *b.tx, &rx = *b.rx;
    Line &data = tx.tx_, &acks = rx.tx_;
    // apply the implied deliveries ordered before the point, exactly
    // as the per-byte handlers would have (never the last two: they
    // are the burst's own events)
    for (; b.cursor < b.events - 2 &&
           sim::EventQueue::keyBefore(b.when(b.cursor), b.key(b.cursor),
                                      when, key);
         ++b.cursor) {
        const Tick t = b.when(b.cursor);
        switch (b.step(b.cursor)) {
        case Step::DataStart:
            // onDataStart: acknowledge at once (transmitAck)
            rx.ackSentForCurrent_ = true;
            acks.busyUntil_ = t + b.ackTime;
            acks.busyTime_ += b.ackTime;
            ++acks.ackPackets_;
            ++acks.seq_;
            acks.lastWhen_ = t - b.dsLead + b.ackLead;
            break;
        case Step::DataEnd: {
            // onDataEnd: store the byte; the message is not complete
            const Word k = b.first + b.cursor / 3;
            ++rx.bytesReceived_;
            rx.cpu_.noteLinkByteIn();
            rx.cpu_.memory().writeByte(
                rx.cpu_.shape().truncate(rx.inPtr_ + rx.inReceived_),
                b.byte(k));
            ++rx.inReceived_;
            rx.ackSentForCurrent_ = false;
            break;
        }
        case Step::Ack: {
            // onAckEnd, then sendNextByte and transmitData of the next
            const Tick packet = t - b.ackLead + b.period;
            ++tx.outSent_;
            ++tx.bytesSent_;
            tx.cpu_.noteLinkByteOut();
            tx.awaitingAck_ = true;
            data.busyUntil_ = packet + b.dataTime;
            data.busyTime_ += b.dataTime;
            ++data.dataPackets_;
            data.seq_ += 2;
            data.lastWhen_ = packet + b.deLead;
            ++bytes_;
            break;
        }
        }
    }
    // queue what the per-byte path would now have in flight: every
    // later delivery whose cause has been applied
    for (uint32_t i = b.cursor; i < b.events; ++i) {
        if (b.cause(i) >= static_cast<int64_t>(b.cursor)) {
            if (b.step(i) == Step::DataStart)
                break; // this byte and the rest are still unsent
            continue;
        }
        const Tick t = b.when(i);
        const EventKey k = b.key(i);
        if (t == when && sameKey(k, key))
            continue; // being dispatched
        switch (b.step(i)) {
        case Step::DataStart:
            data.post(Line::InFlight{Line::kDataStart, 0, t, k.seq});
            break;
        case Step::Ack:
            acks.post(Line::InFlight{Line::kAckEnd, 0, t, k.seq});
            break;
        case Step::DataEnd:
            data.post(Line::InFlight{Line::kDataEnd,
                                     b.byte(b.first + i / 3), t, k.seq});
            break;
        }
    }
    close(b);
}

void
Bursts::finish(Burst &b, bool ack)
{
    LinkEngine &tx = *b.tx, &rx = *b.rx;
    const uint8_t last = b.byte(b.first + b.events / 3 - 1);
    settle(b, queue_.now(), queue_.currentKey());
    if (ack)
        tx.onAckEnd();
    else
        rx.onDataEnd(last);
}

void
Bursts::close(Burst &b)
{
    queue_.cancelStatic(b.ackEv);
    queue_.cancelStatic(b.dataEv);
    for (int side = 0; side < 2; ++side) {
        const uint32_t g = b.group[side];
        uint32_t *link = &head_[g];
        while (*link != b.index)
            link = &pool_[*link]->nextIn(g);
        *link = b.nextIn(g);
        queue_.watch(g, -1);
    }
    b.open = false;
    free_.push_back(b.index);
}

} // namespace transputer::link
