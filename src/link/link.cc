#include "link/link.hh"

#include <algorithm>

#include "link/bursts.hh"

namespace transputer::link
{

// ---------------------------------------------------------------------
// Line
// ---------------------------------------------------------------------

Tick
Line::claim(Tick not_before, Tick duration)
{
    // retire in-flight records for callbacks that have certainly run:
    // strictly-before-now only, because a delivery at exactly now may
    // still be undispatched (same-tick events order by key).  This is
    // the sender's thread, the only one allowed to touch the list.
    const Tick fired_before = queue_->now();
    std::erase_if(inFlight_, [fired_before](const InFlight &r) {
        return r.when < fired_before;
    });
    const Tick start = std::max({not_before, queue_->now(), busyUntil_});
    busyUntil_ = start + duration;
    busyTime_ += duration;
    return start;
}

namespace
{

/** The typed-event handler of every line delivery: ctx is the
 *  receiving endpoint, arg packs (kind << 8) | byte. */
void
fireDelivery(void *ctx, uint64_t arg)
{
    auto *remote = static_cast<LinkEndpoint *>(ctx);
    switch (static_cast<uint8_t>(arg >> 8)) {
    case Line::kDataStart:
        remote->onDataStart();
        break;
    case Line::kDataEnd:
        remote->onDataEnd(static_cast<uint8_t>(arg));
        break;
    case Line::kPeerDead:
        remote->onPeerDead();
        break;
    default:
        remote->onAckEnd();
        break;
    }
}

} // namespace

void
Line::scheduleDelivery(const InFlight &rec)
{
    // remote callbacks are keyed to the *receiving* endpoint: per-line
    // deliveries are FIFO (when is monotone in seq because the line is
    // serial), so the key order matches the wire order regardless of
    // which queue the event lands on
    const sim::EventKey key{remote_->actor(), sim::chanLine + lineId_,
                            rec.seq};
    const sim::TypedEvent ev{&fireDelivery, remote_,
                             (uint64_t{rec.kind} << 8) | rec.byte};
    if (route_)
        route_->push(rec.when, key, ev);
    else
        queue_->scheduleTyped(rec.when, key, ev);
}

void
Line::deliver(Tick when, uint8_t kind, uint8_t byte)
{
    lastWhen_ = when;
    post(InFlight{kind, byte, when, ++seq_});
}

void
Line::post(const InFlight &rec)
{
    inFlight_.push_back(rec);
    scheduleDelivery(rec);
}

void
Line::settle() const
{
    if (remote_)
        queue_->touch(remote_->actor());
}

// ----- checkpoint/restore (src/snap) ---------------------------------

Line::LineSnap
Line::exportSnap(Tick now)
{
    // at a snapshot point (after runUntil) every undispatched delivery
    // is strictly in the future, so at-or-before now has fired
    std::erase_if(inFlight_, [now](const InFlight &r) {
        return r.when <= now;
    });
    LineSnap s;
    s.seq = seq_;
    s.busyUntil = busyUntil_;
    s.busyTime = busyTime_;
    s.dataPackets = dataPackets_;
    s.ackPackets = ackPackets_;
    s.dataDropped = dataDropped_;
    s.acksDropped = acksDropped_;
    s.dataCorrupted = dataCorrupted_;
    s.faultJitter = faultJitter_;
    s.dead = dead_;
    s.deadSquelched = deadSquelched_;
    s.inFlight = inFlight_;
    return s;
}

void
Line::importSnap(const LineSnap &s)
{
    TRANSPUTER_ASSERT(remote_, "restoring an unconnected line");
    seq_ = s.seq;
    busyUntil_ = s.busyUntil;
    busyTime_ = s.busyTime;
    dataPackets_ = s.dataPackets;
    ackPackets_ = s.ackPackets;
    dataDropped_ = s.dataDropped;
    acksDropped_ = s.acksDropped;
    dataCorrupted_ = s.dataCorrupted;
    faultJitter_ = s.faultJitter;
    dead_ = s.dead;
    deadSquelched_ = s.deadSquelched;
    inFlight_ = s.inFlight;
    lastWhen_ = 0;
    for (const InFlight &rec : inFlight_) {
        lastWhen_ = std::max(lastWhen_, rec.when);
        scheduleDelivery(rec);
    }
}

void
Line::transmitPeerDeath()
{
    if (!remote_ || dead_)
        return;
    // after anything already committed to the wire, and never closer
    // than the lookahead bound the parallel engine relies on
    const Tick when =
        std::max(queue_->now(), busyUntil_) + minDeliveryLead();
    deliver(when, kPeerDead, 0);
}

void
Line::transmitData(Tick not_before, uint8_t byte)
{
    TRANSPUTER_ASSERT(remote_, "line not connected");
    if (dead_) {
        ++deadSquelched_;
        return;
    }
    FaultAction fa;
    if (fault_)
        fa = fault_->onDataPacket(std::max(not_before, busyUntil_),
                                  byte);
    const Tick bit = cfg_.bitTime();
    // jitter is modelled as extra lead-in on the wire: the packet's
    // first bit leaves late, so every delivery is only ever delayed
    // and minDeliveryLead() (the parallel engine's lookahead) holds
    const Tick start =
        claim(not_before, fa.jitter + 11 * bit) + fa.jitter;
    ++dataPackets_;
    faultJitter_ += fa.jitter;
    if (fa.flip) {
        byte ^= fa.flip;
        ++dataCorrupted_;
    }
    if (onPacket)
        onPacket(Packet{true, byte, start, start + 11 * bit});
    if (fa.drop) {
        // the sender still drove the wire; the receiver saw noise
        ++dataDropped_;
        return;
    }
    // the receiver can classify the packet once the second bit (the
    // one following the start bit) has arrived
    deliver(start + 2 * bit + cfg_.propagationDelay, kDataStart, 0);
    deliver(start + 11 * bit + cfg_.propagationDelay, kDataEnd, byte);
}

void
Line::transmitAck(Tick not_before)
{
    TRANSPUTER_ASSERT(remote_, "line not connected");
    if (dead_) {
        ++deadSquelched_;
        return;
    }
    FaultAction fa;
    if (fault_)
        fa = fault_->onAckPacket(std::max(not_before, busyUntil_));
    const Tick bit = cfg_.bitTime();
    const Tick start =
        claim(not_before, fa.jitter + 2 * bit) + fa.jitter;
    ++ackPackets_;
    faultJitter_ += fa.jitter;
    if (onPacket)
        onPacket(Packet{false, 0, start, start + 2 * bit});
    if (fa.drop) {
        ++acksDropped_;
        return;
    }
    deliver(start + 2 * bit + cfg_.propagationDelay, kAckEnd, 0);
}

// ---------------------------------------------------------------------
// LinkEngine
// ---------------------------------------------------------------------

LinkEngine::LinkEngine(core::Transputer &cpu, int link_index,
                       const WireConfig &cfg, AckMode ack_mode)
    : LinkEndpoint(cpu.queue(), cfg), cpu_(cpu),
      linkIndex_(link_index), ackMode_(ack_mode)
{
    altWdesc_ = cpu.notProcess();
}

void
LinkEngine::connect(LinkEngine &a, LinkEngine &b, Bursts *bursts)
{
    LinkEndpoint::join(a, b);
    a.peer_ = &b;
    b.peer_ = &a;
    a.bursts_ = b.bursts_ = bursts;
    a.cpu_.attachOutputPort(a.linkIndex_, &a);
    a.cpu_.attachInputPort(a.linkIndex_, &a);
    b.cpu_.attachOutputPort(b.linkIndex_, &b);
    b.cpu_.attachInputPort(b.linkIndex_, &b);
}

// ----- CPU side -------------------------------------------------------
//
// Wire claims made from CPU context are stamped with the CPU's
// architectural clock, into which channelOut/channelIn have already
// charged cyc::commSuspend.  EventQueue's foreign-step lead credit
// (net::Network::refreshTopology) relies on no CPU-context claim
// landing earlier than that charge after the step event's dispatch.

void
LinkEngine::requestOutput(Word wdesc, Word pointer, Word count)
{
    TRANSPUTER_ASSERT(!outActive_, "link output already in use");
    if (dead_)
        return; // a dead chip never completes; the process stays put
    if (peerDead_) {
        // the remote host is known dead: abort instantly, exactly as
        // a fired watchdog would, instead of timing out per message
        ++outAborts_;
        cpu_.traceLink(obs::Ev::LinkAbortOut, wdesc, flowOut(),
                       static_cast<uint32_t>(linkIndex_));
        cpu_.completeOutput(wdesc);
        return;
    }
    if (count == 0) {
        cpu_.completeOutput(wdesc);
        return;
    }
    outActive_ = true;
    outWdesc_ = wdesc;
    outPtr_ = pointer;
    outCount_ = count;
    outSent_ = 0;
    if (!awaitingAck_)
        sendNextByte(cpu_.localTime());
}

void
LinkEngine::requestInput(Word wdesc, Word pointer, Word count)
{
    TRANSPUTER_ASSERT(!inActive_, "link input already in use");
    if (dead_)
        return; // a dead chip never completes; the process stays put
    if (count == 0) {
        cpu_.completeInput(wdesc);
        return;
    }
    inActive_ = true;
    inWdesc_ = wdesc;
    inPtr_ = pointer;
    inCount_ = count;
    inReceived_ = 0;
    if (bufferValid_) {
        bufferValid_ = false;
        cpu_.memory().writeByte(inPtr_, buffer_);
        inReceived_ = 1;
        // the freed buffer lets the sender proceed; this runs in CPU
        // context, so the ack is timed by the CPU's architectural
        // clock (identical in serial and shard-parallel runs), not the
        // queue clock (which depends on how execution was batched)
        sendAck(cpu_.localTime());
        if (inReceived_ == inCount_) {
            inActive_ = false;
            cpu_.traceLink(obs::Ev::LinkMsgIn, inWdesc_, flowIn(),
                           static_cast<uint32_t>(linkIndex_));
            cpu_.completeInput(inWdesc_);
            return;
        }
        armInWatchdog(cpu_.localTime());
    }
    if (inActive_ && peerDead_) {
        // nothing further can ever arrive: complete the message short
        // now (the frame checksum catches the stale tail), as the in
        // watchdog eventually would
        disarmInWatchdog();
        ++inAborts_;
        cpu_.traceLink(obs::Ev::LinkAbortIn, inWdesc_, flowIn(),
                       static_cast<uint32_t>(linkIndex_));
        inActive_ = false;
        cpu_.completeInput(inWdesc_);
    }
}

bool
LinkEngine::enableInput(Word wdesc)
{
    if (bufferValid_)
        return true;
    altEnabled_ = true;
    altWdesc_ = wdesc;
    return false;
}

bool
LinkEngine::disableInput()
{
    altEnabled_ = false;
    altWdesc_ = cpu_.notProcess();
    return bufferValid_;
}

void
LinkEngine::reset()
{
    outActive_ = false;
    awaitingAck_ = false;
    inActive_ = false;
    bufferValid_ = false;
    ackSentForCurrent_ = false;
    altEnabled_ = false;
    disarmOutWatchdog();
    disarmInWatchdog();
}

// ----- wire side ------------------------------------------------------

void
LinkEngine::onDataStart()
{
    if (dead_)
        return; // no acknowledge: the remote end sees a stuck link
    ackSentForCurrent_ = false;
    if (ackMode_ != AckMode::Overlap)
        return;
    // ack as soon as reception starts, if a process is waiting for
    // the byte (paper section 2.3): transmission can be continuous
    if (inActive_) {
        sendAck(queue_->now());
        ackSentForCurrent_ = true;
    }
}

void
LinkEngine::onDataEnd(uint8_t byte)
{
    if (dead_) {
        ++deadDrops_;
        return;
    }
    ++bytesReceived_;
    cpu_.noteLinkByteIn(); // time-series link utilisation (src/obs)
    if (inActive_) {
        cpu_.memory().writeByte(
            cpu_.shape().truncate(inPtr_ + inReceived_), byte);
        ++inReceived_;
        if (!ackSentForCurrent_)
            sendAck(queue_->now());
        ackSentForCurrent_ = false;
        if (inReceived_ == inCount_) {
            inActive_ = false;
            disarmInWatchdog();
            cpu_.traceLink(obs::Ev::LinkMsgIn, inWdesc_, flowIn(),
                           static_cast<uint32_t>(linkIndex_));
            cpu_.completeInput(inWdesc_);
            return;
        }
        armInWatchdog(queue_->now());
        return;
    }
    // no process: the single-byte buffer takes it; the deferred ack
    // is sent when a process inputs the byte
    if (bufferValid_) {
        // a fault-tolerant link counts the overrun a stale ack can
        // produce and keeps the older byte; strict mode treats it as
        // the protocol violation it would be on perfect wires
        TRANSPUTER_ASSERT(watchdogTimeout_ > 0,
                          "link protocol violation: byte overrun");
        ++overrunDrops_;
        return;
    }
    bufferValid_ = true;
    buffer_ = byte;
    ackSentForCurrent_ = false;
    if (altEnabled_)
        cpu_.altReady(altWdesc_);
}

void
LinkEngine::onAckEnd()
{
    if (dead_)
        return;
    if (!awaitingAck_) {
        // the receiver acknowledged a byte whose output the watchdog
        // has already abandoned: tolerated (counted) on a supervised
        // link, a protocol violation on perfect wires
        TRANSPUTER_ASSERT(watchdogTimeout_ > 0,
                          "link protocol violation: unexpected ack");
        ++staleAcks_;
        return;
    }
    awaitingAck_ = false;
    disarmOutWatchdog();
    if (!outActive_)
        return;
    if (outSent_ == outCount_) {
        outActive_ = false;
        cpu_.traceLink(obs::Ev::LinkMsgOut, outWdesc_, flowOut(),
                       static_cast<uint32_t>(linkIndex_));
        cpu_.completeOutput(outWdesc_);
        return;
    }
    sendNextByte(queue_->now());
}

void
LinkEngine::sendNextByte(Tick not_before)
{
    TRANSPUTER_ASSERT(outActive_ && !awaitingAck_);
    const uint8_t byte = cpu_.memory().readByte(
        cpu_.shape().truncate(outPtr_ + outSent_));
    ++outSent_;
    ++bytesSent_;
    cpu_.noteLinkByteOut(); // time-series link utilisation (src/obs)
    awaitingAck_ = true;
    cpu_.traceLink(obs::Ev::LinkByte, byte, flowOut(),
                   static_cast<uint32_t>(linkIndex_));
    // a clean message between two idle nodes carries its remaining
    // bytes as one burst (link/bursts.hh), timed exactly as below
    if (bursts_ && bursts_->open(*this, not_before))
        return;
    tx_.transmitData(not_before, byte);
    armOutWatchdog(not_before);
}

// ----- link health (src/fault) ---------------------------------------

void
LinkEngine::onPeerDead()
{
    if (peerDead_)
        return;
    peerDead_ = true;
    // quiesce our direction of the link too: nothing we transmit can
    // ever be consumed, and a silent wire is cheaper to simulate than
    // packets nobody acknowledges
    tx_.setDead();
    if (dead_)
        return;
    if (awaitingAck_ || outActive_) {
        disarmOutWatchdog();
        ++outAborts_;
        cpu_.traceLink(obs::Ev::LinkAbortOut, outWdesc_, flowOut(),
                       static_cast<uint32_t>(linkIndex_));
        awaitingAck_ = false;
        if (outActive_) {
            outActive_ = false;
            cpu_.completeOutput(outWdesc_);
        }
    }
    if (inActive_) {
        disarmInWatchdog();
        ++inAborts_;
        cpu_.traceLink(obs::Ev::LinkAbortIn, inWdesc_, flowIn(),
                       static_cast<uint32_t>(linkIndex_));
        inActive_ = false;
        ackSentForCurrent_ = false;
        cpu_.completeInput(inWdesc_);
    }
}

void
LinkEngine::onHostKilled()
{
    setDead();
    tx_.setDead();
    disarmOutWatchdog();
    disarmInWatchdog();
}

LinkEngine::Watchdogs &
LinkEngine::watchdogs()
{
    if (!wdogs_)
        wdogs_ = std::make_unique<Watchdogs>(this);
    return *wdogs_;
}

void
LinkEngine::armOutWatchdog(Tick from)
{
    if (watchdogTimeout_ == 0 || dead_)
        return;
    disarmOutWatchdog();
    // `from` is architectural (the CPU clock or a dispatched event's
    // time), so the deadline -- and everything an abort then does --
    // is bit-identical between serial and shard-parallel runs
    armSelfAt(std::max(queue_->now(), from + watchdogTimeout_),
              watchdogs().out);
}

void
LinkEngine::armInWatchdog(Tick from)
{
    if (watchdogTimeout_ == 0 || dead_)
        return;
    disarmInWatchdog();
    armSelfAt(std::max(queue_->now(), from + watchdogTimeout_),
              watchdogs().in);
}

void
LinkEngine::disarmOutWatchdog()
{
    if (wdogs_)
        queue_->cancelStatic(wdogs_->out);
}

void
LinkEngine::disarmInWatchdog()
{
    if (wdogs_)
        queue_->cancelStatic(wdogs_->in);
}

void
LinkEngine::outWatchdogFired()
{
    if (dead_ || !awaitingAck_)
        return;
    // abandon the transfer; hardware never retransmits.  The process
    // resumes as if the message completed -- only frame-level software
    // (fault::ReliableChannel) can tell the difference, by checksum.
    ++outAborts_;
    cpu_.traceLink(obs::Ev::LinkAbortOut, outWdesc_, flowOut(),
                   static_cast<uint32_t>(linkIndex_));
    awaitingAck_ = false;
    if (!outActive_)
        return;
    outActive_ = false;
    cpu_.completeOutput(outWdesc_);
}

void
LinkEngine::inWatchdogFired()
{
    if (dead_ || !inActive_)
        return;
    // a partly received message has stalled: complete it short.  The
    // unwritten tail of the process's buffer is stale, which is what
    // the frame checksum exists to catch.
    ++inAborts_;
    cpu_.traceLink(obs::Ev::LinkAbortIn, inWdesc_, flowIn(),
                   static_cast<uint32_t>(linkIndex_));
    inActive_ = false;
    ackSentForCurrent_ = false;
    cpu_.completeInput(inWdesc_);
}

// ----- checkpoint/restore (src/snap) ---------------------------------

LinkEngine::EngineSnap
LinkEngine::exportSnap() const
{
    queue_->touch(actor_);
    EngineSnap s;
    s.outActive = outActive_;
    s.awaitingAck = awaitingAck_;
    s.outWdesc = outWdesc_;
    s.outPtr = outPtr_;
    s.outCount = outCount_;
    s.outSent = outSent_;
    s.inActive = inActive_;
    s.inWdesc = inWdesc_;
    s.inPtr = inPtr_;
    s.inCount = inCount_;
    s.inReceived = inReceived_;
    s.bufferValid = bufferValid_;
    s.buffer = buffer_;
    s.ackSentForCurrent = ackSentForCurrent_;
    s.altEnabled = altEnabled_;
    s.altWdesc = altWdesc_;
    s.bytesSent = bytesSent_;
    s.bytesReceived = bytesReceived_;
    s.watchdogTimeout = watchdogTimeout_;
    s.dead = dead_;
    s.peerDead = peerDead_;
    s.outAborts = outAborts_;
    s.inAborts = inAborts_;
    s.staleAcks = staleAcks_;
    s.overrunDrops = overrunDrops_;
    s.deadDrops = deadDrops_;
    s.selfSeq = selfSeq_;
    if (wdogs_ && wdogs_->out.pending()) {
        s.outWdogArmed = true;
        s.outWdogWhen = wdogs_->out.scheduledAt();
        s.outWdogSeq = wdogs_->out.scheduledKey().seq;
    }
    if (wdogs_ && wdogs_->in.pending()) {
        s.inWdogArmed = true;
        s.inWdogWhen = wdogs_->in.scheduledAt();
        s.inWdogSeq = wdogs_->in.scheduledKey().seq;
    }
    return s;
}

void
LinkEngine::importSnap(const EngineSnap &s)
{
    disarmOutWatchdog();
    disarmInWatchdog();
    outActive_ = s.outActive;
    awaitingAck_ = s.awaitingAck;
    outWdesc_ = s.outWdesc;
    outPtr_ = s.outPtr;
    outCount_ = s.outCount;
    outSent_ = s.outSent;
    inActive_ = s.inActive;
    inWdesc_ = s.inWdesc;
    inPtr_ = s.inPtr;
    inCount_ = s.inCount;
    inReceived_ = s.inReceived;
    bufferValid_ = s.bufferValid;
    buffer_ = s.buffer;
    ackSentForCurrent_ = s.ackSentForCurrent;
    altEnabled_ = s.altEnabled;
    altWdesc_ = s.altWdesc;
    bytesSent_ = s.bytesSent;
    bytesReceived_ = s.bytesReceived;
    watchdogTimeout_ = s.watchdogTimeout;
    dead_ = s.dead;
    peerDead_ = s.peerDead;
    outAborts_ = s.outAborts;
    inAborts_ = s.inAborts;
    staleAcks_ = s.staleAcks;
    overrunDrops_ = s.overrunDrops;
    deadDrops_ = s.deadDrops;
    selfSeq_ = s.selfSeq;
    if (s.outWdogArmed)
        queue_->scheduleStatic(
            s.outWdogWhen,
            sim::EventKey{actor_, sim::chanSelf, s.outWdogSeq},
            watchdogs().out);
    if (s.inWdogArmed)
        queue_->scheduleStatic(
            s.inWdogWhen,
            sim::EventKey{actor_, sim::chanSelf, s.inWdogSeq},
            watchdogs().in);
}

bool
LinkEngine::receiverCanAccept() const
{
    return inActive_ || !bufferValid_;
}

void
LinkEngine::sendAck(Tick not_before)
{
    cpu_.traceLink(obs::Ev::LinkAck, 0, 0,
                   static_cast<uint32_t>(linkIndex_));
    tx_.transmitAck(not_before);
}

} // namespace transputer::link
