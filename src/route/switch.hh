/**
 * @file
 * The per-node packet switch: a C104-like routing personality bolted
 * onto the OS-link byte engine (see DESIGN.md section 4.9).
 *
 * Every fabric node pairs one transputer with one Switch.  The switch
 * owns a set of SwitchPorts -- link endpoints speaking the ordinary
 * acknowledged byte protocol.  Port 0 (the host port) faces the
 * node's own transputer over a normal link; the trunk ports face
 * neighbouring switches over peripheral-to-peripheral lines.  An
 * occam process talks to the whole fabric by writing words down its
 * link: [dest][vchan][n][n payload words], and receives
 * [src][vchan][n][words] back -- any process can own a channel to any
 * process, the virtual-channel promise.
 *
 * Reliability is split across three layers, each matching what it can
 * see:
 *
 *  - Byte layer (SwitchPort watchdog): the byte protocol has no
 *    retransmit, so a supervised per-byte watchdog abandons bytes
 *    whose acknowledge never arrives (lossy wire) and declares the
 *    port dead after enough consecutive failures (stuck wire).  A
 *    neighbour's death arrives instantly via the line-level peer-death
 *    notification (link::Line::transmitPeerDeath, fed by src/fault
 *    kills).  Abandoning keeps the pump draining but corrupts the
 *    packet in transit, which the next layer repairs.
 *
 *  - Hop layer (SwitchPort packet ARQ): each trunk runs stop-and-wait
 *    over whole packets -- the sender keeps the head packet until the
 *    peer's HopAck names its hopSeq, retransmitting on a timeout.
 *    This is what makes a 10%-per-byte lossy wire usable: per-byte
 *    loss compounds over a packet and over every hop of a path, so
 *    end-to-end retransmission alone would see its success
 *    probability shrink geometrically with path length; per-trunk
 *    recovery keeps each hop near-lossless and the end-to-end layer
 *    only ever repairs rare multi-layer coincidences.
 *
 *  - End-to-end layer (Switch): per-(dest,vchan) stop-and-wait ARQ
 *    with exponential backoff borrowed from fault::reliable's
 *    discipline -- one packet in flight per virtual channel (the flow
 *    control), sequence-numbered, retransmitted on timeout or on an
 *    Unreachable notice, capped at maxRetries after which the sender's
 *    host gets an explicit undeliverable notification on the control
 *    vchan.  The receiver accepts a packet iff its sequence number is
 *    strictly newer than the last accepted for that (src,vchan) and
 *    re-acknowledges duplicates, so loss of either direction is safe.
 *
 * Forwarding walks the current RouteTable preference list and takes
 * the first alive port; taking anything but the pristine first choice
 * is a reroute (counted and traced).  Routing is fault-adaptive via a
 * link-state flood: when a port dies (watchdog threshold or peer
 * death) the switch records the dead edge, recomputes its preference
 * lists over the surviving graph, and floods a LinkDown notice to its
 * neighbours, who do the same.  Set-based dedup terminates the flood,
 * and because every switch ends up with the same dead-edge set, the
 * converged tables are consistent shortest paths -- greedy forwarding
 * on them is loop-free (the TTL only guards the convergence window).
 * When no port is alive toward a destination the switch returns an
 * Unreachable packet toward the source -- a partitioned destination
 * degrades to a deterministic notification, never a hang.
 *
 * Determinism: all switch work happens inside link-line deliveries
 * and self-scheduled events, both keyed the same way in serial and
 * shard-parallel runs; all iteration is over std::map or vectors in
 * index order.  A routed run is bit-identical across engines,
 * including under fault injection.
 */

#ifndef TRANSPUTER_ROUTE_SWITCH_HH
#define TRANSPUTER_ROUTE_SWITCH_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "net/peripherals.hh"
#include "obs/trace.hh"
#include "route/packet.hh"
#include "route/table.hh"

namespace transputer::core
{
class Transputer;
} // namespace transputer::core

namespace transputer::obs
{
struct Counters;
} // namespace transputer::obs

namespace transputer::route
{

class Switch;

/** Tuning knobs for one switch (defaults suit the 10 Mbit wire). */
struct SwitchConfig
{
    /** First ARQ retransmit timeout; doubles per retry.  Deliberately
     *  patient: the hop layer owns loss recovery, so an end-to-end
     *  retransmit is only needed after a hop gave up or a path died
     *  mid-flight -- and Unreachable notices short-circuit the timer
     *  for the dead-path case anyway.  An eager timer here feeds
     *  congestion collapse under bursty load: duplicates of
     *  slow-but-alive flows pile onto the very trunks that made them
     *  slow. */
    Tick rtoInit = 100'000'000; // 100 ms
    /** Backoff cap (fault::reliable's maxTimeout discipline). */
    Tick rtoMax = 400'000'000;
    /** Transmissions per packet before undeliverable is declared. */
    int maxTries = 12;
    /** Per-byte ack watchdog on every port. */
    Tick portWatchdog = 60'000; // 60 us >> byte time + ack round trip
    /** Consecutive abandoned bytes before a port is declared dead
     *  (a stuck wire aborts every byte; random loss almost never
     *  strings this many failures together). */
    int portDeadThreshold = 12;
    /** Hop budget; packets older than this are looping and die. */
    uint8_t ttl = 32;
    /** Hop-layer retransmit timeout: worst-case packet time plus the
     *  peer's reverse-direction backlog ahead of its HopAck (a
     *  spurious retransmit is only dedup'd traffic). */
    Tick hopTimeout = 500'000; // 500 us
    /** Hop-layer transmissions per packet before the trunk gives up
     *  and leaves recovery to the end-to-end layer.  At 10% per-byte
     *  loss a ~20-byte packet survives a try with p ~ 0.12, so the
     *  cap is sized for a ~e-50 per-packet failure rate, not a
     *  per-try one. */
    int hopMaxTries = 64;
    /** Acceptance window of the end-to-end dedup filter: a data
     *  packet whose seq is more than this far ahead of the last one
     *  accepted on its flow is implausible under stop-and-wait (the
     *  legitimate forward jump is +1, plus one per message the sender
     *  declared undeliverable mid-flight) and is dropped unacked.
     *  Without the window, a corrupted frame that survives both
     *  Fletcher-16 checksums (~2^-16 of multi-byte corruptions) with
     *  a mangled seq would poison the filter far ahead and silently
     *  blackhole the flow's next `seq distance` real messages -- the
     *  duplicates would even be re-acked, so the sender could never
     *  tell.  Dropping without an ack turns the pathological case
     *  into the explicit one: a sender genuinely past the window
     *  exhausts its retries and reports undeliverable. */
    int seqWindow = 64;
    /** Packet cap per trunk hop queue (congestion backstop). */
    size_t hopQueueCap = 256;
    /** Byte cap on the host port transmit queue. */
    size_t portQueueCap = 4096;
    /** Word width of the host-port protocol (matches the node). */
    int bytesPerWord = 4;
};

/** Drop reason codes (the b argument of RouteDrop traces). */
enum RouteDropReason : uint64_t
{
    kDropDup = 0,        ///< duplicate seq (re-acked)
    kDropTtl = 1,        ///< hop budget exhausted
    kDropCongestion = 2, ///< port queue full
    kDropNoRoute = 3,    ///< no alive port toward dest
    kDropMalformed = 4,  ///< bad host command
    kDropDead = 5,       ///< this switch's node was killed
};

/**
 * One switch port: a Peripheral whose transmit side is supervised by
 * a per-byte watchdog and whose receive side feeds either the packet
 * decoder (trunk ports) or the host word assembler (port 0).
 */
class SwitchPort final : public net::Peripheral
{
  public:
    SwitchPort(Switch &sw, int index, bool host,
               sim::EventQueue &queue, const link::WireConfig &wire);

    int index() const { return index_; }
    bool isHost() const { return host_; }
    bool deadPort() const { return dead_; }
    const Decoder &decoder() const { return dec_; }
    uint64_t txAborts() const { return txAborts_; }
    uint64_t hopRetransmits() const { return hopRetransmits_; }
    uint64_t hopDrops() const { return hopDrops_; }

    /** Queue raw host words for transmission (host port only). */
    void
    enqueue(const std::vector<uint8_t> &bytes)
    {
        if (dead_)
            return;
        sendBytes(bytes);
        ensureWatchdog();
    }

    /** Queue a packet under the hop-level ARQ (trunk ports only):
     *  kept and retransmitted until the peer HopAcks it or the try
     *  cap is hit. */
    void enqueuePacket(const Packet &pkt);

    /** Packets queued or in flight under the hop ARQ. */
    size_t hopBacklog() const { return hopQueue_.size(); }

    /** True when the hop ARQ holds nothing (snapshot quiescence). */
    bool hopIdle() const { return hopQueue_.empty(); }

    /** Scheduling surface for the owning Switch (ARQ timers run on
     *  the host port's actor so their keys are node-deterministic). */
    sim::EventId
    scheduleIn(Tick dt, std::function<void()> fn)
    {
        return schedSelfIn(dt, std::move(fn));
    }

    void
    cancelEvent(sim::EventId id)
    {
        queue_->cancel(id);
    }

    Tick now() const { return queue_->now(); }

    /** Mark the port dead: drop the queue, stop the watchdog, stop
     *  acking.  Idempotent. */
    void markDead();

    /** @name LinkEndpoint */
    ///@{
    void onDataStart() override;
    void onAckEnd() override;
    void onPeerDead() override;
    void onHostKilled() override;
    ///@}

    /** @name Checkpoint blobs (capture of quiescent routed nets) */
    ///@{
    void snapSave(std::vector<uint8_t> &out) const override;
    bool snapLoad(const uint8_t *data, size_t n) override;
    ///@}

  protected:
    void receiveByte(uint8_t byte) override;

  private:
    void ensureWatchdog();
    void disarmWatchdog();
    void watchdogFired();
    void pumpHop();
    void transmitHop();
    void armHopTimer();
    void disarmHopTimer();
    void hopTimerFired();
    void onHopAck(uint8_t seq);
    void sendHopAck(uint8_t seq);

    Switch &sw_;
    const int index_;
    const bool host_;
    Decoder dec_;
    bool dead_ = false;
    int consecAborts_ = 0;
    uint64_t txAborts_ = 0;
    sim::StaticEvent wdog_{[](void *p) {
        static_cast<SwitchPort *>(p)->watchdogFired();
    }, this};

    // hop-level stop-and-wait packet ARQ (trunk ports)
    std::deque<Packet> hopQueue_; ///< head is the packet in flight
    bool hopInFlight_ = false;
    uint8_t hopTxSeq_ = 0;  ///< hopSeq stamped on the head packet
    int hopTries_ = 0;      ///< transmissions of the head so far
    int hopLastRx_ = -1;    ///< last accepted peer hopSeq (-1: none)
    uint64_t hopRetransmits_ = 0;
    uint64_t hopDrops_ = 0; ///< packets dropped at the try cap
    sim::StaticEvent hopTimer_{[](void *p) {
        static_cast<SwitchPort *>(p)->hopTimerFired();
    }, this};
};

/** Aggregated per-switch routing statistics (all deterministic). */
struct SwitchStats
{
    uint64_t forwards = 0;
    uint64_t delivered = 0;
    uint64_t hops = 0; ///< sum over delivered packets
    uint64_t reroutes = 0;
    uint64_t retransmits = 0;
    uint64_t dupDrops = 0;
    uint64_t malformed = 0;
    uint64_t congestionDrops = 0; ///< queue-full and no-route drops
    uint64_t ttlDrops = 0;
    uint64_t undeliverable = 0;
    uint64_t linkFloods = 0; ///< LinkDown notices originated/relayed
};

class Switch
{
  public:
    Switch(core::Transputer &cpu, RouteTable table,
           const SwitchConfig &cfg);
    ~Switch();
    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    /** Create the ports (fabric wires them into the Network).  The
     *  host port must be created first; trunk port i must follow the
     *  topology's port order. */
    SwitchPort &makeHostPort(sim::EventQueue &q,
                             const link::WireConfig &wire);
    SwitchPort &makeTrunkPort(sim::EventQueue &q,
                              const link::WireConfig &wire);

    uint16_t self() const { return self_; }
    const RouteTable &table() const { return table_; }
    const SwitchConfig &config() const { return cfg_; }
    const SwitchStats &stats() const { return stats_; }
    bool killed() const { return killed_; }
    SwitchPort &hostPort() { return *ports_.at(0); }
    SwitchPort &trunkPort(int topoPort)
    {
        return *ports_.at(topoPort + 1);
    }
    size_t portCount() const { return ports_.size(); }

    /** True when no ARQ flow has anything queued or in flight (the
     *  precondition for snapshot capture of a routed net). */
    bool quiescent() const;

    /** Add this switch's statistics into the node counter set. */
    void fillCounters(obs::Counters &c) const;

    /** @name Wire-side entry points (called by SwitchPort) */
    ///@{
    void onPacket(int portIndex, const Packet &pkt);
    void onHostByte(uint8_t b);
    void portAborted(int portIndex);
    void portDied(int portIndex);
    void hostKilled();
    ///@}

    /** Inject a message as if the host had sent it (tests). */
    void sendMessage(uint16_t dest, uint8_t vchan,
                     std::vector<uint8_t> payload);

  private:
    /** One sender-side virtual-channel flow: stop-and-wait ARQ. */
    struct Flow
    {
        std::deque<std::vector<uint8_t>> queue;
        std::vector<uint8_t> cur;
        uint16_t nextSeq = 0;
        uint16_t curSeq = 0;
        bool inFlight = false;
        int tries = 0;
        Tick rto = 0;
        sim::EventId timer = sim::invalidEventId;
    };

    static uint32_t
    flowKey(uint16_t peer, uint8_t vchan)
    {
        return (uint32_t{peer} << 8) | vchan;
    }

    static uint64_t flowId(uint16_t src, uint16_t dest, uint8_t vchan,
                           uint16_t seq);

    void trace(obs::Ev ev, uint64_t a, uint64_t b = 0,
               uint32_t c = 0);
    void startNext(uint16_t dest, uint8_t vchan, Flow &f);
    void transmitCurrent(uint16_t dest, uint8_t vchan, Flow &f);
    void flowSetback(uint16_t dest, uint8_t vchan, Flow &f);
    void armFlowTimer(uint16_t dest, uint8_t vchan, Flow &f);
    void cancelFlowTimer(Flow &f);
    void declareUndeliverable(uint16_t dest, uint8_t vchan, Flow &f);
    void forward(Packet pkt);
    void handleLocal(const Packet &pkt);
    void sendUnreachable(const Packet &orig);
    void deliverToHost(uint16_t src, uint8_t vchan,
                       const std::vector<uint8_t> &payload);
    void markEdgeDead(const Edge &e, int arrivalPort, bool local);
    void handleLinkDown(int portIndex, const Packet &pkt);

    core::Transputer &cpu_;
    const uint16_t self_;
    RouteTable table_; ///< rebuilt as dead edges are learned
    const SwitchConfig cfg_;
    std::vector<std::unique_ptr<SwitchPort>> ports_;
    std::vector<bool> trunkAlive_;
    std::set<Edge> deadEdges_; ///< link-state view of the fabric
    std::map<uint32_t, Flow> flows_;      ///< sender state by (dest,vchan)
    std::map<uint32_t, uint16_t> lastSeq_; ///< receiver dedup by (src,vchan)
    std::vector<Word> hostCmd_; ///< partially assembled host command
    int hostByte_ = 0;          ///< bytes of the current word so far
    Word hostWord_ = 0;
    bool killed_ = false;
    SwitchStats stats_;
};

} // namespace transputer::route

#endif // TRANSPUTER_ROUTE_SWITCH_HH
