#include "route/switch.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/transputer.hh"
#include "obs/counters.hh"

namespace transputer::route
{

/* ------------------------------------------------------------------ */
/* SwitchPort                                                          */
/* ------------------------------------------------------------------ */

SwitchPort::SwitchPort(Switch &sw, int index, bool host,
                       sim::EventQueue &queue,
                       const link::WireConfig &wire)
    : net::Peripheral(queue, wire), sw_(sw), index_(index), host_(host)
{
    // on lossy wires the watchdog abandons bytes whose ack is merely
    // late; the base class must treat the eventual ack as stale, not
    // as a protocol violation
    tolerateStaleAcks_ = true;
}

void
SwitchPort::onDataStart()
{
    if (!dead_)
        net::Peripheral::onDataStart();
    // a dead port never acks: the sender's own watchdog cleans up
}

void
SwitchPort::onAckEnd()
{
    const bool active = awaitingAck();
    net::Peripheral::onAckEnd();
    if (!active)
        return; // stale ack of an abandoned byte; counted by the base
    consecAborts_ = 0;
    disarmWatchdog();
    ensureWatchdog();
}

void
SwitchPort::onPeerDead()
{
    markDead();
}

void
SwitchPort::onHostKilled()
{
    markDead();
    link::LinkEndpoint::onHostKilled(); // latch the tx line dead
    sw_.hostKilled();
}

void
SwitchPort::markDead()
{
    if (dead_)
        return;
    dead_ = true;
    clearTx();
    disarmWatchdog();
    disarmHopTimer();
    hopDrops_ += hopQueue_.size();
    hopQueue_.clear();
    hopInFlight_ = false;
    hopTries_ = 0;
    consecAborts_ = 0;
    sw_.portDied(index_);
}

void
SwitchPort::receiveByte(uint8_t byte)
{
    if (dead_)
        return;
    if (host_) {
        sw_.onHostByte(byte);
        return;
    }
    if (!dec_.feed(byte))
        return;
    const Packet pkt = dec_.packet();
    if (pkt.kind == Kind::HopAck) {
        onHopAck(pkt.hopSeq);
        return;
    }
    // hop-level dedup: stop-and-wait means the only duplicate the
    // in-order byte stream can carry is a retransmit of the packet we
    // already accepted (our HopAck was lost) -- re-ack, don't forward
    if (static_cast<int>(pkt.hopSeq) == hopLastRx_) {
        sendHopAck(pkt.hopSeq);
        return;
    }
    hopLastRx_ = pkt.hopSeq;
    sendHopAck(pkt.hopSeq);
    sw_.onPacket(index_, pkt);
}

/* ---------------------- hop-level packet ARQ ---------------------- */

void
SwitchPort::enqueuePacket(const Packet &pkt)
{
    if (dead_)
        return;
    hopQueue_.push_back(pkt);
    pumpHop();
}

void
SwitchPort::pumpHop()
{
    if (dead_ || hopInFlight_ || hopQueue_.empty())
        return;
    hopInFlight_ = true;
    hopTries_ = 0;
    transmitHop();
}

void
SwitchPort::transmitHop()
{
    ++hopTries_;
    if (hopTries_ > 1)
        ++hopRetransmits_;
    Packet p = hopQueue_.front();
    p.hopSeq = hopTxSeq_;
    // a retransmit just appends a fresh copy: stale bytes of the
    // failed try still drain ahead of it (the byte watchdog keeps the
    // pump moving) and the peer's decoder resynchronises over them
    sendBytes(encode(p));
    ensureWatchdog();
    armHopTimer();
}

void
SwitchPort::armHopTimer()
{
    TRANSPUTER_ASSERT(!hopTimer_.pending(),
                      "route: hop timer already armed");
    armSelfAt(queue_->now() + sw_.config().hopTimeout, hopTimer_);
}

void
SwitchPort::disarmHopTimer()
{
    queue_->cancelStatic(hopTimer_);
}

void
SwitchPort::hopTimerFired()
{
    if (dead_ || !hopInFlight_)
        return;
    if (hopTries_ >= sw_.config().hopMaxTries) {
        // hand recovery to the end-to-end layer; the seq still
        // advances so the peer's dedup never confuses the next packet
        // with this one
        ++hopDrops_;
        hopQueue_.pop_front();
        hopInFlight_ = false;
        hopTries_ = 0;
        ++hopTxSeq_;
        pumpHop();
        return;
    }
    transmitHop();
}

void
SwitchPort::onHopAck(uint8_t seq)
{
    if (dead_ || !hopInFlight_ || seq != hopTxSeq_)
        return; // stale ack of an attempt we already moved past
    disarmHopTimer();
    hopQueue_.pop_front();
    hopInFlight_ = false;
    hopTries_ = 0;
    ++hopTxSeq_;
    pumpHop();
}

void
SwitchPort::sendHopAck(uint8_t seq)
{
    if (dead_)
        return;
    Packet a;
    a.kind = Kind::HopAck;
    a.hopSeq = seq;
    // unacknowledged fire-and-forget: if it is lost the peer simply
    // retransmits and we re-ack the duplicate
    sendBytes(encode(a));
    ensureWatchdog();
}

void
SwitchPort::ensureWatchdog()
{
    if (dead_ || !awaitingAck() || wdog_.pending())
        return;
    armSelfAt(queue_->now() + sw_.config().portWatchdog, wdog_);
}

void
SwitchPort::disarmWatchdog()
{
    queue_->cancelStatic(wdog_);
}

void
SwitchPort::watchdogFired()
{
    if (dead_ || !awaitingAck())
        return;
    abortCurrentTx(); // skip the stuck byte, pump the next
    ++txAborts_;
    ++consecAborts_;
    sw_.portAborted(index_);
    if (consecAborts_ >= sw_.config().portDeadThreshold) {
        markDead();
        return;
    }
    ensureWatchdog();
}

void
SwitchPort::snapSave(std::vector<uint8_t> &out) const
{
    net::Peripheral::snapSave(out);
    out.push_back(dead_ ? 1 : 0);
    net::snapio::putU64(out, static_cast<uint64_t>(consecAborts_));
    net::snapio::putU64(out, txAborts_);
    const auto &s = dec_.stats();
    net::snapio::putU64(out, s.packets);
    net::snapio::putU64(out, s.badHeader);
    net::snapio::putU64(out, s.badPayload);
    net::snapio::putU64(out, s.resyncBytes);
    net::snapio::putBlob(out, dec_.buffered().data(),
                         dec_.buffered().size());
    // hop ARQ: counters and sequence state; queued packets travel as
    // their encoded frames (capture happens at quiescence, so the
    // queue is normally empty)
    net::snapio::putU64(out, hopRetransmits_);
    net::snapio::putU64(out, hopDrops_);
    out.push_back(hopTxSeq_);
    net::snapio::putU64(out,
                        static_cast<uint64_t>(hopLastRx_ + 1));
    net::snapio::putU64(out, hopQueue_.size());
    for (const Packet &p : hopQueue_) {
        const std::vector<uint8_t> enc = encode(p);
        net::snapio::putBlob(out, enc.data(), enc.size());
    }
}

bool
SwitchPort::snapLoad(const uint8_t *data, size_t n)
{
    const uint8_t *p = data, *end = data + n;
    BaseSnap b;
    uint8_t dead, txSeq;
    uint64_t consec, aborts, hopRetx, hopDrops, lastRx, queued;
    Decoder::Stats s;
    std::vector<uint8_t> buffered;
    if (!parseBase(p, end, b) || !net::snapio::getU8(p, end, dead) ||
        !net::snapio::getU64(p, end, consec) ||
        !net::snapio::getU64(p, end, aborts) ||
        !net::snapio::getU64(p, end, s.packets) ||
        !net::snapio::getU64(p, end, s.badHeader) ||
        !net::snapio::getU64(p, end, s.badPayload) ||
        !net::snapio::getU64(p, end, s.resyncBytes) ||
        !net::snapio::getBlob(p, end, buffered) ||
        buffered.size() > kMaxWire ||
        !net::snapio::getU64(p, end, hopRetx) ||
        !net::snapio::getU64(p, end, hopDrops) ||
        !net::snapio::getU8(p, end, txSeq) ||
        !net::snapio::getU64(p, end, lastRx) || lastRx > 256 ||
        !net::snapio::getU64(p, end, queued))
        return false;
    std::deque<Packet> queue;
    for (uint64_t i = 0; i < queued; ++i) {
        std::vector<uint8_t> frame;
        if (!net::snapio::getBlob(p, end, frame) ||
            frame.size() > kMaxWire)
            return false;
        Decoder d;
        bool got = false;
        for (const uint8_t byte : frame)
            got = d.feed(byte);
        if (!got)
            return false;
        queue.push_back(d.packet());
    }
    if (p != end)
        return false;
    commitBase(std::move(b));
    dead_ = dead != 0;
    consecAborts_ = static_cast<int>(consec);
    txAborts_ = aborts;
    dec_.setStats(s);
    dec_.setBuffered(std::move(buffered));
    hopRetransmits_ = hopRetx;
    hopDrops_ = hopDrops;
    hopTxSeq_ = txSeq;
    hopLastRx_ = static_cast<int>(lastRx) - 1;
    hopQueue_ = std::move(queue);
    hopInFlight_ = false;
    hopTries_ = 0;
    if (!dead_ && !hopQueue_.empty())
        pumpHop(); // restart transmission of anything captured queued
    return true;
}

/* ------------------------------------------------------------------ */
/* Switch                                                              */
/* ------------------------------------------------------------------ */

Switch::Switch(core::Transputer &cpu, RouteTable table,
               const SwitchConfig &cfg)
    : cpu_(cpu), self_(static_cast<uint16_t>(table.self())),
      table_(std::move(table)), cfg_(cfg)
{
    TRANSPUTER_ASSERT(cfg_.bytesPerWord > 0 &&
                          cfg_.bytesPerWord <= 8 &&
                          kMaxPayload % cfg_.bytesPerWord == 0,
                      "route: bad word width");
}

Switch::~Switch() = default;

SwitchPort &
Switch::makeHostPort(sim::EventQueue &q, const link::WireConfig &wire)
{
    TRANSPUTER_ASSERT(ports_.empty(), "route: host port must be first");
    ports_.push_back(
        std::make_unique<SwitchPort>(*this, 0, true, q, wire));
    return *ports_.back();
}

SwitchPort &
Switch::makeTrunkPort(sim::EventQueue &q, const link::WireConfig &wire)
{
    TRANSPUTER_ASSERT(!ports_.empty(), "route: host port missing");
    TRANSPUTER_ASSERT(
        static_cast<int>(ports_.size()) <= table_.degree(),
        "route: more trunks than topology ports");
    ports_.push_back(std::make_unique<SwitchPort>(
        *this, static_cast<int>(ports_.size()), false, q, wire));
    trunkAlive_.push_back(true);
    return *ports_.back();
}

uint64_t
Switch::flowId(uint16_t src, uint16_t dest, uint8_t vchan,
               uint16_t seq)
{
    return (1ull << 62) | (uint64_t{src} << 40) |
           (uint64_t{dest} << 24) | (uint64_t{vchan} << 16) | seq;
}

void
Switch::trace(obs::Ev ev, uint64_t a, uint64_t b, uint32_t c)
{
    cpu_.traceLink(ev, a, b, c);
}

void
Switch::portAborted(int portIndex)
{
    // named in the node's flight ring like an engine abort; wdesc 0
    // says "switch port, no process", c carries the port index
    trace(obs::Ev::LinkAbortOut, 0, 0,
          static_cast<uint32_t>(portIndex));
}

bool
Switch::quiescent() const
{
    for (const auto &[k, f] : flows_)
        if (f.inFlight || !f.queue.empty())
            return false;
    for (const auto &p : ports_)
        if (!p->hopIdle())
            return false;
    return true;
}

void
Switch::fillCounters(obs::Counters &c) const
{
    c.routeForwards += stats_.forwards;
    c.routeDelivered += stats_.delivered;
    c.routeHops += stats_.hops;
    c.routeReroutes += stats_.reroutes;
    c.routeRetransmits += stats_.retransmits;
    c.routeDupDrops += stats_.dupDrops;
    c.routeCongestionDrops += stats_.congestionDrops;
    c.routeTtlDrops += stats_.ttlDrops;
    c.routeUndeliverable += stats_.undeliverable;
    c.routeLinkFloods += stats_.linkFloods;
    uint64_t malformed = stats_.malformed;
    for (const auto &p : ports_) {
        const Decoder::Stats &s = p->decoder().stats();
        malformed += s.badHeader + s.badPayload;
        c.routeHopRetransmits += p->hopRetransmits();
        c.routeHopDrops += p->hopDrops();
    }
    c.routeMalformed += malformed;
}

/* --------------------------- host side ---------------------------- */

void
Switch::onHostByte(uint8_t b)
{
    if (killed_)
        return;
    hostWord_ |= Word{b} << (8 * hostByte_);
    if (++hostByte_ < cfg_.bytesPerWord)
        return;
    hostCmd_.push_back(hostWord_);
    hostWord_ = 0;
    hostByte_ = 0;
    if (hostCmd_.size() < 3)
        return;
    // [dest][vchan][n][n payload words]
    const uint64_t dest = hostCmd_[0];
    const uint64_t vchan = hostCmd_[1];
    const uint64_t n = hostCmd_[2];
    const uint64_t maxWords = kMaxPayload / cfg_.bytesPerWord;
    if (dest >= static_cast<uint64_t>(table_.nodes()) ||
        vchan >= kCtrlVchan || n > maxWords) {
        ++stats_.malformed;
        trace(obs::Ev::RouteDrop,
              flowId(self_, static_cast<uint16_t>(dest & 0xFFFF),
                     static_cast<uint8_t>(vchan & 0xFF), 0),
              kDropMalformed);
        hostCmd_.clear();
        return;
    }
    if (hostCmd_.size() < 3 + n)
        return;
    std::vector<uint8_t> payload;
    payload.reserve(n * cfg_.bytesPerWord);
    for (uint64_t i = 0; i < n; ++i) {
        Word w = hostCmd_[3 + i];
        for (int j = 0; j < cfg_.bytesPerWord; ++j) {
            payload.push_back(static_cast<uint8_t>(w & 0xFF));
            w >>= 8;
        }
    }
    hostCmd_.clear();
    sendMessage(static_cast<uint16_t>(dest),
                static_cast<uint8_t>(vchan), std::move(payload));
}

void
Switch::sendMessage(uint16_t dest, uint8_t vchan,
                    std::vector<uint8_t> payload)
{
    if (killed_)
        return;
    if (dest >= table_.nodes() || vchan == kCtrlVchan ||
        payload.size() > kMaxPayload) {
        ++stats_.malformed;
        trace(obs::Ev::RouteDrop, flowId(self_, dest, vchan, 0),
              kDropMalformed);
        return;
    }
    if (dest == self_) {
        // loopback: no packets, no ARQ -- the fabric is not involved
        Flow &f = flows_[flowKey(dest, vchan)];
        const uint16_t seq = f.nextSeq++;
        const uint64_t id = flowId(self_, dest, vchan, seq);
        trace(obs::Ev::RouteSend, id, seq);
        ++stats_.delivered;
        trace(obs::Ev::RouteDeliver, id, 0);
        deliverToHost(self_, vchan, payload);
        return;
    }
    Flow &f = flows_[flowKey(dest, vchan)];
    f.queue.push_back(std::move(payload));
    if (!f.inFlight)
        startNext(dest, vchan, f);
}

void
Switch::deliverToHost(uint16_t src, uint8_t vchan,
                      const std::vector<uint8_t> &payload)
{
    SwitchPort &host = hostPort();
    if (host.deadPort())
        return;
    const int bpw = cfg_.bytesPerWord;
    const uint64_t n = payload.size() / bpw;
    std::vector<uint8_t> bytes;
    bytes.reserve((3 + n) * bpw);
    auto putWord = [&](Word w) {
        for (int j = 0; j < bpw; ++j) {
            bytes.push_back(static_cast<uint8_t>(w & 0xFF));
            w >>= 8;
        }
    };
    putWord(src);
    putWord(vchan);
    putWord(static_cast<Word>(n));
    bytes.insert(bytes.end(), payload.begin(),
                 payload.begin() + static_cast<long>(n * bpw));
    if (host.pendingTx() + bytes.size() > cfg_.portQueueCap) {
        ++stats_.congestionDrops;
        trace(obs::Ev::RouteDrop, flowId(src, self_, vchan, 0),
              kDropCongestion, 0);
        return;
    }
    host.enqueue(bytes);
}

/* ------------------------- sender-side ARQ ------------------------ */

void
Switch::startNext(uint16_t dest, uint8_t vchan, Flow &f)
{
    TRANSPUTER_ASSERT(!f.inFlight && !f.queue.empty(),
                      "route: startNext misuse");
    f.cur = std::move(f.queue.front());
    f.queue.pop_front();
    f.curSeq = f.nextSeq++;
    f.inFlight = true;
    f.tries = 0;
    f.rto = cfg_.rtoInit;
    trace(obs::Ev::RouteSend, flowId(self_, dest, vchan, f.curSeq),
          f.curSeq);
    transmitCurrent(dest, vchan, f);
}

void
Switch::transmitCurrent(uint16_t dest, uint8_t vchan, Flow &f)
{
    ++f.tries;
    const uint64_t id = flowId(self_, dest, vchan, f.curSeq);
    if (f.tries > 1) {
        ++stats_.retransmits;
        trace(obs::Ev::RouteRetransmit, id,
              static_cast<uint64_t>(f.tries));
    }
    Packet p;
    p.kind = Kind::Data;
    p.dest = dest;
    p.src = self_;
    p.vchan = vchan;
    p.seq = f.curSeq;
    p.payload = f.cur;
    // arm before forwarding: a synchronous Unreachable (local
    // no-route) re-enters flowSetback, which must find the timer to
    // cancel rather than leave a stale one behind
    armFlowTimer(dest, vchan, f);
    forward(std::move(p));
}

void
Switch::armFlowTimer(uint16_t dest, uint8_t vchan, Flow &f)
{
    const uint32_t key = flowKey(dest, vchan);
    f.timer = hostPort().scheduleIn(f.rto, [this, key, dest, vchan] {
        auto it = flows_.find(key);
        if (it == flows_.end())
            return;
        Flow &flow = it->second;
        flow.timer = sim::invalidEventId;
        if (!flow.inFlight)
            return;
        flowSetback(dest, vchan, flow);
    });
}

void
Switch::cancelFlowTimer(Flow &f)
{
    if (f.timer == sim::invalidEventId)
        return;
    hostPort().cancelEvent(f.timer);
    f.timer = sim::invalidEventId;
}

void
Switch::flowSetback(uint16_t dest, uint8_t vchan, Flow &f)
{
    cancelFlowTimer(f);
    if (f.tries >= cfg_.maxTries) {
        declareUndeliverable(dest, vchan, f);
        return;
    }
    f.rto = std::min(f.rto * 2, cfg_.rtoMax);
    transmitCurrent(dest, vchan, f);
}

void
Switch::declareUndeliverable(uint16_t dest, uint8_t vchan, Flow &f)
{
    trace(obs::Ev::RouteUndeliverable,
          flowId(self_, dest, vchan, f.curSeq));
    // one notification per failed message: the current one plus
    // everything queued behind it on the same virtual channel
    const uint64_t failed = 1 + f.queue.size();
    stats_.undeliverable += failed;
    std::vector<uint8_t> note;
    for (int j = 0; j < cfg_.bytesPerWord; ++j)
        note.push_back(j == 0 ? vchan : 0);
    for (uint64_t i = 0; i < failed; ++i)
        deliverToHost(dest, kCtrlVchan, note);
    f.cur.clear();
    f.queue.clear();
    f.inFlight = false;
    f.tries = 0;
    // nextSeq is preserved: a later send must still look strictly
    // newer to the receiver's dedup filter
}

/* ------------------------- forwarding core ------------------------ */

void
Switch::onPacket(int portIndex, const Packet &pkt)
{
    if (pkt.kind == Kind::LinkDown) {
        handleLinkDown(portIndex, pkt);
        return;
    }
    forward(pkt); // local destinations branch to handleLocal there
}

void
Switch::forward(Packet pkt)
{
    const uint64_t id = flowId(pkt.src, pkt.dest, pkt.vchan, pkt.seq);
    if (killed_) {
        trace(obs::Ev::RouteDrop, id, kDropDead);
        return;
    }
    if (pkt.dest >= table_.nodes() || pkt.src >= table_.nodes()) {
        // a corrupted frame can survive the 8-bit checksums about
        // once in 2^16; node ids from the wire are re-validated here
        // so hostile bytes can never index outside the fabric
        ++stats_.malformed;
        trace(obs::Ev::RouteDrop, id, kDropMalformed);
        return;
    }
    if (pkt.dest == self_) {
        handleLocal(pkt);
        return;
    }
    if (pkt.hops >= cfg_.ttl) {
        // only possible while the link-state flood is still
        // converging (consistent tables are loop-free); tell the
        // source so it retries instead of waiting out its timer
        ++stats_.ttlDrops;
        trace(obs::Ev::RouteDrop, id, kDropTtl);
        if (pkt.kind == Kind::Data)
            sendUnreachable(pkt);
        return;
    }
    ++pkt.hops;
    const auto &prefs = table_.prefs(pkt.dest);
    int chosen = -1;
    for (const uint8_t p : prefs)
        if (trunkAlive_[p] && !trunkPort(p).deadPort()) {
            chosen = p;
            break;
        }
    if (chosen < 0) {
        // no live route: transit drop, and for data the source gets
        // an Unreachable so it can back off deterministically instead
        // of waiting out the full timeout ladder
        ++stats_.congestionDrops;
        trace(obs::Ev::RouteDrop, id, kDropNoRoute);
        if (pkt.kind == Kind::Data)
            sendUnreachable(pkt);
        return;
    }
    // anything but the pristine first choice means the fabric routed
    // around damage
    const auto &base = table_.basePrefs(pkt.dest);
    if (!base.empty() && chosen != base[0]) {
        ++stats_.reroutes;
        trace(obs::Ev::RouteReroute, id, 0,
              static_cast<uint32_t>(chosen));
    }
    SwitchPort &port = trunkPort(chosen);
    if (port.hopBacklog() >= cfg_.hopQueueCap) {
        ++stats_.congestionDrops;
        trace(obs::Ev::RouteDrop, id, kDropCongestion,
              static_cast<uint32_t>(chosen));
        return;
    }
    ++stats_.forwards;
    trace(obs::Ev::RouteFwd, id, 0, static_cast<uint32_t>(chosen));
    port.enqueuePacket(pkt);
}

void
Switch::sendUnreachable(const Packet &orig)
{
    Packet u;
    u.kind = Kind::Unreachable;
    u.dest = orig.src;
    u.src = self_;
    u.vchan = orig.vchan;
    u.seq = orig.seq;
    u.payload.push_back(static_cast<uint8_t>(orig.dest & 0xFF));
    u.payload.push_back(static_cast<uint8_t>(orig.dest >> 8));
    forward(std::move(u));
}

void
Switch::handleLocal(const Packet &pkt)
{
    switch (pkt.kind) {
      case Kind::Data: {
        const uint32_t k = flowKey(pkt.src, pkt.vchan);
        const uint64_t id = flowId(pkt.src, self_, pkt.vchan, pkt.seq);
        const auto it = lastSeq_.find(k);
        const int16_t ahead =
            it == lastSeq_.end()
                ? int16_t{1}
                : static_cast<int16_t>(pkt.seq - it->second);
        if (ahead > cfg_.seqWindow) {
            // implausibly far ahead for stop-and-wait: almost surely
            // a corrupted seq that slipped past the checksums.
            // Accepting it would poison the dedup filter and silently
            // blackhole the flow; acking it would tell a (real,
            // window-overrunning) sender a lie.  Drop, unacked.
            ++stats_.malformed;
            trace(obs::Ev::RouteDrop, id, kDropMalformed);
            return;
        }
        const bool fresh = ahead > 0;
        if (fresh) {
            lastSeq_[k] = pkt.seq;
            ++stats_.delivered;
            stats_.hops += pkt.hops;
            trace(obs::Ev::RouteDeliver, id, pkt.hops);
            deliverToHost(pkt.src, pkt.vchan, pkt.payload);
        } else {
            ++stats_.dupDrops;
            trace(obs::Ev::RouteDrop, id, kDropDup);
        }
        // always acknowledge -- a duplicate means the previous ack
        // was lost, and only a fresh ack stops the retransmits
        Packet a;
        a.kind = Kind::Ack;
        a.dest = pkt.src;
        a.src = self_;
        a.vchan = pkt.vchan;
        a.seq = pkt.seq;
        forward(std::move(a));
        break;
      }
      case Kind::Ack: {
        const auto it = flows_.find(flowKey(pkt.src, pkt.vchan));
        if (it == flows_.end())
            return;
        Flow &f = it->second;
        if (!f.inFlight || pkt.seq != f.curSeq)
            return; // stale ack of an already-acknowledged packet
        cancelFlowTimer(f);
        f.inFlight = false;
        f.cur.clear();
        f.tries = 0;
        if (!f.queue.empty())
            startNext(pkt.src, pkt.vchan, f);
        break;
      }
      case Kind::Unreachable: {
        if (pkt.payload.size() < 2)
            return;
        const uint16_t origDest = static_cast<uint16_t>(
            pkt.payload[0] | (uint16_t{pkt.payload[1]} << 8));
        const auto it = flows_.find(flowKey(origDest, pkt.vchan));
        if (it == flows_.end())
            return;
        Flow &f = it->second;
        if (!f.inFlight || pkt.seq != f.curSeq)
            return;
        flowSetback(origDest, pkt.vchan, f);
        break;
      }
      case Kind::HopAck:
      case Kind::LinkDown:
        // consumed at the port / in onPacket; never routed here
        break;
    }
}

/* ------------------- liveness and link state ---------------------- */

void
Switch::portDied(int portIndex)
{
    if (portIndex <= 0)
        return;
    trunkAlive_.at(portIndex - 1) = false;
    if (killed_)
        return; // a dead node neither reroutes nor floods
    const Edge e =
        makeEdge(self_, table_.neighborAt(portIndex - 1));
    markEdgeDead(e, portIndex, /*local=*/true);
}

void
Switch::markEdgeDead(const Edge &e, int arrivalPort, bool local)
{
    if (!deadEdges_.insert(e).second)
        return; // already known: the flood terminates here
    trace(obs::Ev::RouteLinkDown, static_cast<uint64_t>(e.first),
          static_cast<uint64_t>(e.second), local ? 1 : 0);
    table_.applyDeadEdges(deadEdges_);
    // reliable flood to every other live trunk: the hop ARQ carries
    // the notice across lossy wires, and set dedup stops the relay
    Packet p;
    p.kind = Kind::LinkDown;
    p.src = self_;
    p.payload = {static_cast<uint8_t>(e.first & 0xFF),
                 static_cast<uint8_t>(e.first >> 8),
                 static_cast<uint8_t>(e.second & 0xFF),
                 static_cast<uint8_t>(e.second >> 8)};
    for (int t = 0; t < static_cast<int>(trunkAlive_.size()); ++t) {
        if (t + 1 == arrivalPort)
            continue; // the sender already knows
        if (!trunkAlive_[t] || trunkPort(t).deadPort())
            continue;
        ++stats_.linkFloods;
        trunkPort(t).enqueuePacket(p);
    }
}

void
Switch::handleLinkDown(int portIndex, const Packet &pkt)
{
    if (killed_ || pkt.payload.size() < 4)
        return;
    const int a = pkt.payload[0] | (int{pkt.payload[1]} << 8);
    const int b = pkt.payload[2] | (int{pkt.payload[3]} << 8);
    if (a >= table_.nodes() || b >= table_.nodes() || a == b)
        return; // malformed flood: drop, do not relay
    markEdgeDead(makeEdge(a, b), portIndex, /*local=*/false);
}

void
Switch::hostKilled()
{
    if (killed_)
        return;
    killed_ = true;
    for (auto &[k, f] : flows_)
        cancelFlowTimer(f);
    flows_.clear();
    hostCmd_.clear();
    hostByte_ = 0;
    hostWord_ = 0;
}

} // namespace transputer::route
