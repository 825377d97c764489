/**
 * @file
 * The INMOS serial link (paper section 2.3 and Figure 1).
 *
 * A link between two transputers is a pair of one-directional signal
 * lines, each carrying both data and control.  A data byte travels as
 * an 11-bit packet (start bit, a one, eight data bits, stop bit); an
 * acknowledge is a 2-bit packet (start bit, a zero).  After sending a
 * data byte the sender waits for the acknowledge.  The receiver sends
 * the acknowledge as soon as reception of a byte *starts* -- provided
 * a process is waiting for it, or there is room to buffer another
 * byte -- so transmission can be continuous (overlap mode); the
 * non-overlapped variant (ack after the whole byte, as in the very
 * first silicon) is available as an ablation.  A single byte of
 * buffering per input direction gives end-to-end flow control: no
 * information can be lost.
 *
 * The standard rate is 10 Mbit/s: about 0.9 Mbyte/s of data in each
 * direction of each link ("about 1 Mbyte/sec", section 2.3.1).
 *
 * A LinkEndpoint is one end of one link.  LinkEngine is the endpoint
 * attached to a transputer (it implements the CPU's ChannelPort on
 * both directions); peripherals implement their own endpoints.
 */

#ifndef TRANSPUTER_LINK_LINK_HH
#define TRANSPUTER_LINK_LINK_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/logging.hh"
#include "base/types.hh"
#include "core/ports.hh"
#include "core/transputer.hh"
#include "sim/event_queue.hh"

namespace transputer::link
{

/** When the receiver returns the acknowledge packet. */
enum class AckMode
{
    Overlap,   ///< as soon as reception starts (the paper's design)
    EndOfByte, ///< only after the full byte has been received
};

/** Electrical/timing parameters of one link connection. */
struct WireConfig
{
    /** Bits per second; the standard rate is 10 MHz. */
    int64_t bitsPerSecond = 10'000'000;
    /** One-way propagation delay in ticks (line length). */
    Tick propagationDelay = 0;

    Tick
    bitTime() const
    {
        return 1'000'000'000 / bitsPerSecond;
    }
};

class LinkEndpoint;
class Bursts;

/**
 * What the fault layer does to one packet about to be transmitted
 * (src/fault).  The default value is a no-op: transmit faithfully.
 */
struct FaultAction
{
    bool drop = false;  ///< occupy the wire, but never deliver
    uint8_t flip = 0;   ///< XOR mask applied to the data bits
    Tick jitter = 0;    ///< extra lead-in before the first bit
};

/**
 * Per-line fault decision source, consulted once per packet at
 * transmit time (implemented by fault::FaultInjector).  Decisions are
 * drawn in transmit order, which the event engine already makes
 * deterministic, so a seeded tap yields bit-identical faulty runs in
 * serial and shard-parallel simulations.
 */
class LineFaultTap
{
  public:
    virtual ~LineFaultTap() = default;
    /** @param at  earliest tick the packet can start on the wire (an
     *  architectural time: max of the caller's clock and the line's
     *  busy horizon, never the batching-dependent queue clock). */
    virtual FaultAction onDataPacket(Tick at, uint8_t byte) = 0;
    virtual FaultAction onAckPacket(Tick at) = 0;
};

/**
 * One one-directional signal line: serializes packets, modelling the
 * multiplexing of data and acknowledge packets (Figure 1).
 *
 * The line is owned by its sending endpoint and is timed against the
 * sender's event queue.  Packet arrival callbacks act on the remote
 * endpoint, so their events are keyed to the remote actor and (when a
 * router is installed by the parallel engine) may be posted into
 * another shard's inbound queue instead of scheduled directly.
 */
class Line
{
  public:
    Line(sim::EventQueue &queue, const WireConfig &cfg)
        : queue_(&queue), cfg_(cfg)
    {}

    void connectTo(LinkEndpoint *remote) { remote_ = remote; }

    /** The endpoint this line delivers to (wiring introspection). */
    LinkEndpoint *remote() const { return remote_; }

    /** Queue a data packet (11 bit times); not before not_before. */
    void transmitData(Tick not_before, uint8_t byte);

    /** Queue an acknowledge packet (2 bit times). */
    void transmitAck(Tick not_before);

    /** @name Line death (src/fault, src/route)
     *
     * A dead line transmits nothing: packets offered to it are counted
     * and discarded, which models the wire of a killed node.  Death is
     * a one-way latch -- a killed chip stays killed.
     */
    ///@{
    void
    setDead()
    {
        settle();
        dead_ = true;
    }
    bool lineDead() const { return dead_; }
    /** Packets squelched because the line was dead. */
    uint64_t deadSquelched() const { return deadSquelched_; }

    /**
     * Notify the remote endpoint that this end's host is dead.  The
     * notification rides the normal delivery path (it is an InFlight
     * record with its own key sequence), so it is routed across shards
     * and captured by snapshots exactly like a data packet.  It is
     * delivered after any packet already committed to the wire, and
     * never earlier than minDeliveryLead() from now, preserving the
     * parallel engine's lookahead bound.
     */
    void transmitPeerDeath();
    ///@}

    /** Total ticks the line has spent transmitting. */
    Tick
    busyTime() const
    {
        settle();
        return busyTime_;
    }
    uint64_t
    dataPackets() const
    {
        settle();
        return dataPackets_;
    }
    uint64_t
    ackPackets() const
    {
        settle();
        return ackPackets_;
    }

    /** @name Parallel-simulation plumbing (src/par, net::Network) */
    ///@{
    /** Re-home the line onto the sending shard's queue. */
    void setQueue(sim::EventQueue &q) { queue_ = &q; }

    /** Identity of this line's delivery channel in event keys. */
    void setLineId(uint32_t id) { lineId_ = id; }
    uint32_t lineId() const { return lineId_; }

    /**
     * The minimum lead time between the queue clock when a packet is
     * committed and its earliest remote callback: the receiver can
     * classify a packet only after its second bit has crossed the
     * wire.  This is the conservative lookahead a parallel run gets
     * from cutting a network at this line.
     */
    Tick
    minDeliveryLead() const
    {
        return 2 * cfg_.bitTime() + cfg_.propagationDelay;
    }

    /** Sink for remote deliveries (a cross-shard inbox); null:
     *  schedule them on this line's queue. */
    using Router = sim::TypedSink;
    void
    setRouter(Router *r)
    {
        settle();
        route_ = r;
    }
    ///@}

    /** One packet on the wire, as in the paper's Figure 1. */
    struct Packet
    {
        bool isData;   ///< data packet (11 bits) or acknowledge (2)
        uint8_t byte;  ///< the data bits (data packets only)
        Tick start;    ///< first bit leaves the sender
        Tick end;      ///< last bit leaves the sender
    };

    /** Observe every packet this line transmits (tracing). */
    std::function<void(const Packet &)> onPacket;

    /** @name Fault injection (src/fault; compile-gated, null = off) */
    ///@{
    void
    setFaultTap(LineFaultTap *tap)
    {
        settle();
        fault_ = tap;
    }
    LineFaultTap *faultTap() const { return fault_; }
    uint64_t dataDropped() const { return dataDropped_; }
    uint64_t acksDropped() const { return acksDropped_; }
    uint64_t dataCorrupted() const { return dataCorrupted_; }
    /** Total injected extra lead-in (latency jitter), in ticks. */
    Tick faultJitter() const { return faultJitter_; }
    ///@}

    /** @name Checkpoint/restore (src/snap)
     *
     * Every queued remote callback is mirrored by an InFlight record
     * (kind + payload + exact delivery tick and key sequence), so a
     * snapshot can re-create the undelivered tail of the wire.  The
     * records are pruned only from the sending side (claim, export):
     * delivery callbacks run on the *receiving* endpoint's thread in a
     * shard-parallel run, so they must never touch the list.
     */
    ///@{
    /** Packet-arrival callback kinds, matching LinkEndpoint. */
    static constexpr uint8_t kDataStart = 0;
    static constexpr uint8_t kDataEnd = 1;
    static constexpr uint8_t kAckEnd = 2;
    static constexpr uint8_t kPeerDead = 3;

    /** One undelivered remote callback. */
    struct InFlight
    {
        uint8_t kind = 0;  ///< kDataStart / kDataEnd / kAckEnd
        uint8_t byte = 0;  ///< the data bits (kDataEnd only)
        Tick when = 0;     ///< delivery tick
        uint64_t seq = 0;  ///< key seq on channel chanLine + lineId
    };

    /** Resumable line state. */
    struct LineSnap
    {
        uint64_t seq = 0;
        Tick busyUntil = 0;
        Tick busyTime = 0;
        uint64_t dataPackets = 0;
        uint64_t ackPackets = 0;
        uint64_t dataDropped = 0;
        uint64_t acksDropped = 0;
        uint64_t dataCorrupted = 0;
        Tick faultJitter = 0;
        bool dead = false;
        uint64_t deadSquelched = 0;
        std::vector<InFlight> inFlight;
    };

    /**
     * Capture the line, pruning records already delivered (everything
     * at or before now: the caller snapshots after a runUntil, so any
     * still-pending delivery is strictly in the future).
     */
    LineSnap exportSnap(Tick now);

    /**
     * Restore the line and re-schedule every in-flight callback with
     * its exact original (tick, key).  The queue clock must already
     * be reset to the snapshot tick and the line connected.
     */
    void importSnap(const LineSnap &s);

    const WireConfig &config() const { return cfg_; }
    ///@}

  private:
    friend class Bursts;

    Tick claim(Tick not_before, Tick duration);
    void deliver(Tick when, uint8_t kind, uint8_t byte);
    /** Queue a delivery whose seq is already counted in seq_. */
    void post(const InFlight &rec);
    void scheduleDelivery(const InFlight &rec);
    /** Settle any link burst holding this line back (link::Bursts):
     *  the receiving end's group covers both lines of its link. */
    void settle() const;

    sim::EventQueue *queue_;
    const WireConfig cfg_;
    LinkEndpoint *remote_ = nullptr;
    uint32_t lineId_ = 0;
    uint64_t seq_ = 0; ///< FIFO sequence of this line's deliveries
    Tick lastWhen_ = 0; ///< tick of the delivery numbered seq_
    Router *route_ = nullptr;
    Tick busyUntil_ = 0;
    Tick busyTime_ = 0;
    uint64_t dataPackets_ = 0;
    uint64_t ackPackets_ = 0;
    std::vector<InFlight> inFlight_; ///< undelivered remote callbacks
    LineFaultTap *fault_ = nullptr;
    uint64_t dataDropped_ = 0;
    uint64_t acksDropped_ = 0;
    uint64_t dataCorrupted_ = 0;
    Tick faultJitter_ = 0;
    bool dead_ = false;
    uint64_t deadSquelched_ = 0;
};

/**
 * One end of a link: owns the outgoing line and receives packet
 * events from the remote end's line.
 */
class LinkEndpoint
{
  public:
    LinkEndpoint(sim::EventQueue &queue, const WireConfig &cfg)
        : queue_(&queue), tx_(queue, cfg)
    {}

    virtual ~LinkEndpoint() = default;

    /** Wire two endpoints together (both directions). */
    static void
    join(LinkEndpoint &a, LinkEndpoint &b)
    {
        a.tx_.connectTo(&b);
        b.tx_.connectTo(&a);
    }

    /** @name Packet arrival callbacks (invoked by the remote line) */
    ///@{
    /** Reception of a data byte has started. */
    virtual void onDataStart() {}
    /** A data byte has been fully received. */
    virtual void onDataEnd(uint8_t byte) = 0;
    /** An acknowledge has been received. */
    virtual void onAckEnd() = 0;
    /**
     * The endpoint at the far end of this link is attached to a host
     * that has died (Line::transmitPeerDeath).  Default: ignore, which
     * reproduces the pre-notification behaviour of waiting for
     * per-message watchdog timeouts.
     */
    virtual void onPeerDead() {}
    ///@}

    /**
     * The host this endpoint is attached to has been killed by the
     * fault layer.  Implementations should quiesce both directions:
     * stop transmitting and acknowledging, and mark the outgoing line
     * dead.  Called in the killed node's event context.
     */
    virtual void onHostKilled() { tx_.setDead(); }

    Line &tx() { return tx_; }

    /** The event queue this endpoint currently lives on. */
    sim::EventQueue &queue() { return *queue_; }

    /** Deterministic identity used to order simultaneous events. */
    uint32_t actor() const { return actor_; }
    void setActor(uint32_t id) { actor_ = id; }

    /** Id of the line that delivers *to* this endpoint (set by
     *  net::Network when the line is registered).  Together with a
     *  cumulative byte count it identifies a message end-to-end, which
     *  is how the trace exporter pairs send/receive flow arrows. */
    uint32_t rxLineId() const { return rxLineId_; }
    void setRxLineId(uint32_t id) { rxLineId_ = id; }

    /**
     * Re-home this endpoint (and its outgoing line) onto another
     * event queue (shard-local simulation, src/par).
     */
    void
    setHomeQueue(sim::EventQueue &q)
    {
        queue_ = &q;
        tx_.setQueue(q);
    }

  protected:
    /**
     * Schedule an endpoint-internal event (peripheral latency and the
     * like) with a deterministic key.
     */
    sim::EventId
    schedSelfIn(Tick delta, std::function<void()> fn)
    {
        return queue_->schedule(
            queue_->now() + delta,
            sim::EventKey{actor_, sim::chanSelf, ++selfSeq_},
            std::move(fn));
    }

    /** Arm an endpoint-internal StaticEvent (watchdogs, hop timers)
     *  at absolute time when, keyed on the same channel and sequence
     *  as schedSelfIn. */
    void
    armSelfAt(Tick when, sim::StaticEvent &ev)
    {
        queue_->scheduleStatic(
            when, sim::EventKey{actor_, sim::chanSelf, ++selfSeq_}, ev);
    }

    sim::EventQueue *queue_;
    uint32_t actor_ = 0;
    uint32_t rxLineId_ = 0;
    uint64_t selfSeq_ = 0;
    Line tx_;
};

/**
 * The transputer-side link engine: services output and input message
 * instructions autonomously (DMA concurrent with the CPU), waking the
 * descheduled process when the whole message has been transferred.
 * One engine serves both directions of one link and is attached as
 * the CPU's output and input port for that link.
 */
class LinkEngine : public LinkEndpoint, public core::ChannelPort
{
  public:
    LinkEngine(core::Transputer &cpu, int link_index,
               const WireConfig &cfg, AckMode ack_mode = AckMode::Overlap);

    /**
     * Connect this engine to the other end and register with the CPU.
     * With a burst table (net::Network passes its own), clean messages
     * between the two engines may travel as bursts (link::Bursts).
     */
    static void connect(LinkEngine &a, LinkEngine &b,
                        Bursts *bursts = nullptr);

    /** The burst table of the queue the engine lives on (src/par
     *  swaps in a shard's own); null for an engine that never bursts. */
    Bursts *bursts() const { return bursts_; }
    void setBursts(Bursts *b) { bursts_ = b; }

    /** @name ChannelPort (CPU side) */
    ///@{
    void requestOutput(Word wdesc, Word pointer, Word count) override;
    void requestInput(Word wdesc, Word pointer, Word count) override;
    bool enableInput(Word wdesc) override;
    bool disableInput() override;
    void reset() override;
    ///@}

    /** @name LinkEndpoint (wire side) */
    ///@{
    void onDataStart() override;
    void onDataEnd(uint8_t byte) override;
    void onAckEnd() override;
    /**
     * Prompt death notification from the remote end (satellite of the
     * kill path): abort any transfer blocked on the dead neighbour
     * right now -- counted and traced exactly like a watchdog abort --
     * and quiesce this engine's own line toward the corpse, so both
     * directions of the link fall silent at a deterministic tick
     * instead of timing out message by message.
     */
    void onPeerDead() override;
    /** Kill from the fault layer: engine dead + outgoing line dead. */
    void onHostKilled() override;
    ///@}

    uint64_t
    bytesSent() const
    {
        queue_->touch(actor_);
        return bytesSent_;
    }
    uint64_t
    bytesReceived() const
    {
        queue_->touch(actor_);
        return bytesReceived_;
    }
    int linkIndex() const { return linkIndex_; }
    core::Transputer &cpu() { return cpu_; }

    /** @name Link health (src/fault)
     *
     * A timeout > 0 arms a watchdog while a transfer can stall on the
     * remote end: on the output side whenever a data byte is awaiting
     * its acknowledge, on the input side whenever a message is partly
     * received.  A fired watchdog *abandons* the transfer (hardware
     * never retransmits): the blocked process resumes with a short or
     * unacknowledged message and software -- fault::ReliableChannel --
     * detects the damage by checksum and retries at frame level.  A
     * non-zero timeout also downgrades the protocol-violation asserts
     * that injected faults can legitimately trigger (a stale ack for
     * an abandoned output, a byte overrunning the full buffer) to
     * counted drops.  Zero (the default) keeps the strict hardware
     * model and costs one predictable branch per transfer step.
     */
    ///@{
    void setWatchdog(Tick timeout) { watchdogTimeout_ = timeout; }
    Tick watchdog() const { return watchdogTimeout_; }

    /**
     * Mark the engine dead (permanent node failure, src/fault): it
     * stops transmitting, acknowledging and receiving, so the remote
     * end sees a stuck link and its own watchdog/retry machinery must
     * cope.
     */
    void setDead() { dead_ = true; }
    bool dead() const { return dead_; }

    /** The remote host is known dead (peer-death notification). */
    bool peerDead() const { return peerDead_; }

    uint64_t outAborts() const { return outAborts_; }
    uint64_t inAborts() const { return inAborts_; }
    uint64_t staleAcks() const { return staleAcks_; }
    uint64_t overrunDrops() const { return overrunDrops_; }
    uint64_t deadDrops() const { return deadDrops_; }
    ///@}

    AckMode ackMode() const { return ackMode_; }

    /** @name Checkpoint/restore (src/snap) */
    ///@{
    /** Resumable engine state: both DMA state machines, the one-byte
     *  receive buffer, byte totals, health counters, and the exact
     *  (tick, seq) of any armed watchdog. */
    struct EngineSnap
    {
        bool outActive = false;
        bool awaitingAck = false;
        Word outWdesc = 0, outPtr = 0, outCount = 0, outSent = 0;
        bool inActive = false;
        Word inWdesc = 0, inPtr = 0, inCount = 0, inReceived = 0;
        bool bufferValid = false;
        uint8_t buffer = 0;
        bool ackSentForCurrent = false;
        bool altEnabled = false;
        Word altWdesc = 0;
        uint64_t bytesSent = 0, bytesReceived = 0;
        Tick watchdogTimeout = 0;
        bool dead = false;
        bool peerDead = false;
        uint64_t outAborts = 0, inAborts = 0, staleAcks = 0;
        uint64_t overrunDrops = 0, deadDrops = 0;
        uint64_t selfSeq = 0;
        bool outWdogArmed = false;
        Tick outWdogWhen = 0;
        uint64_t outWdogSeq = 0;
        bool inWdogArmed = false;
        Tick inWdogWhen = 0;
        uint64_t inWdogSeq = 0;
    };

    EngineSnap exportSnap() const;
    /** Re-arms any saved watchdog under its original key; the queue
     *  clock must already be reset to the snapshot tick. */
    void importSnap(const EngineSnap &s);
    ///@}

  private:
    friend class Bursts;

    void sendNextByte(Tick not_before);
    bool receiverCanAccept() const;
    void sendAck(Tick not_before);
    void armOutWatchdog(Tick from);
    void armInWatchdog(Tick from);
    void disarmOutWatchdog();
    void disarmInWatchdog();
    void outWatchdogFired();
    void inWatchdogFired();

    /** @name Trace flow ids
     *
     * A message is identified end-to-end by (line id, cumulative byte
     * count on that line).  The sender's count at completion (last ack
     * received) equals the receiver's at its completion (last byte
     * received, or buffered byte consumed): the line is serial and
     * FIFO, so the exporter can pair LinkMsgOut/LinkMsgIn records from
     * two different ring buffers without any shared state.
     */
    ///@{
    uint64_t
    flowOut() const
    {
        return (static_cast<uint64_t>(tx_.lineId()) << 40) | bytesSent_;
    }
    uint64_t
    flowIn() const
    {
        return (static_cast<uint64_t>(rxLineId()) << 40) |
               bytesReceived_;
    }
    ///@}

    core::Transputer &cpu_;
    const int linkIndex_;
    const AckMode ackMode_;
    LinkEngine *peer_ = nullptr; ///< the engine at the other end, if any
    Bursts *bursts_ = nullptr;   ///< see connect()

    // output state machine
    bool outActive_ = false;
    bool awaitingAck_ = false;
    Word outWdesc_ = 0;
    Word outPtr_ = 0;
    Word outCount_ = 0;
    Word outSent_ = 0;

    // input state machine
    bool inActive_ = false;
    Word inWdesc_ = 0;
    Word inPtr_ = 0;
    Word inCount_ = 0;
    Word inReceived_ = 0;
    bool bufferValid_ = false;
    uint8_t buffer_ = 0;
    bool ackSentForCurrent_ = false;
    bool altEnabled_ = false;
    Word altWdesc_ = 0;

    uint64_t bytesSent_ = 0;
    uint64_t bytesReceived_ = 0;

    /** The two link-health watchdogs, re-armed in place.  Allocated
     *  on first arming: most engines run unsupervised, and a 100k-node
     *  grid has 400k of them. */
    struct Watchdogs
    {
        explicit Watchdogs(LinkEngine *e)
            : out([](void *p) {
                  static_cast<LinkEngine *>(p)->outWatchdogFired();
              }, e),
              in([](void *p) {
                  static_cast<LinkEngine *>(p)->inWatchdogFired();
              }, e)
        {}
        sim::StaticEvent out;
        sim::StaticEvent in;
    };
    Watchdogs &watchdogs();

    // link health (src/fault); timeout 0 = strict hardware model
    Tick watchdogTimeout_ = 0;
    bool dead_ = false;
    bool peerDead_ = false;
    std::unique_ptr<Watchdogs> wdogs_;
    uint64_t outAborts_ = 0;
    uint64_t inAborts_ = 0;
    uint64_t staleAcks_ = 0;
    uint64_t overrunDrops_ = 0;
    uint64_t deadDrops_ = 0;
};

} // namespace transputer::link

#endif // TRANSPUTER_LINK_LINK_HH
