/**
 * @file
 * Deterministic fault injection for link networks (see DESIGN.md
 * section 4.4 "Fault model and reliable transport").
 *
 * The paper's links are perfect wires; real transputer deployments
 * (the 256-node RTNN machine, the million-node NOP proposals) had to
 * survive flaky links and dead nodes in software.  This subsystem
 * makes those scenarios simulable *reproducibly*:
 *
 *   - line faults -- byte/ack loss, bit corruption, latency jitter,
 *     a line stuck from a given tick -- are drawn from a per-line
 *     PRNG seeded with (plan seed, line id) and consulted once per
 *     packet at transmit time.  Transmit order is part of the
 *     engine's deterministic total event order, so a seeded faulty
 *     run is bit-identical between the serial and the shard-parallel
 *     simulator;
 *   - node faults -- a transient stall or permanent death at a
 *     planned tick -- are scheduled as keyed events on the victim's
 *     actor (sim::chanFault), which the parallel engine migrates to
 *     the right shard like any other pending event.
 *
 * The hooks are always compiled in and gated at run time by a null
 * pointer, as in src/obs: a line with no tap costs one branch per
 * packet, and an engine with watchdog 0 one branch per transfer step.
 */

#ifndef TRANSPUTER_FAULT_FAULT_HH
#define TRANSPUTER_FAULT_FAULT_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "base/random.hh"
#include "base/types.hh"
#include "link/link.hh"
#include "net/network.hh"
#include "sim/event_queue.hh"

namespace transputer::fault
{

/** Fault mix of one directional line.  All-zero = perfect wire. */
struct LineFaultConfig
{
    double dataLoss = 0.0; ///< P(a data packet never arrives)
    double ackLoss = 0.0;  ///< P(an ack packet never arrives)
    double corrupt = 0.0;  ///< P(data bits XORed with a random mask)
    double jitterChance = 0.0; ///< P(a packet starts late)
    Tick jitterMax = 0;        ///< late start drawn from [1, max]
    Tick stuckFrom = 0;        ///< > 0: line drops everything from here

    bool
    any() const
    {
        return dataLoss > 0 || ackLoss > 0 || corrupt > 0 ||
               (jitterChance > 0 && jitterMax > 0) || stuckFrom > 0;
    }
};

/** Planned failures of one node. */
struct NodeFaultConfig
{
    Tick stallAt = 0;  ///< > 0: freeze the node at this tick...
    Tick stallFor = 0; ///< ...for this many ticks (transient fault)
    Tick killAt = 0;   ///< > 0: permanent death at this tick
};

/**
 * A complete, serializable description of every fault a run injects.
 * Line configs are looked up by the (srcNode, dstNode) pair of
 * net::Network::lines() -- a peripheral's two lines both appear as
 * (host, host) -- falling back to `allLines`.
 */
struct FaultPlan
{
    uint64_t seed = 1;
    LineFaultConfig allLines;
    std::map<std::pair<int, int>, LineFaultConfig> lines;
    std::map<int, NodeFaultConfig> nodes;

    /** The (src -> dst) override entry, created on first use. */
    LineFaultConfig &
    line(int src, int dst)
    {
        return lines[{src, dst}];
    }

    NodeFaultConfig &node(int n) { return nodes[n]; }

    const LineFaultConfig &
    configFor(int src, int dst) const
    {
        const auto it = lines.find({src, dst});
        return it == lines.end() ? allLines : it->second;
    }
};

/**
 * Installs a FaultPlan into a network: one seeded tap per faulty
 * line, one keyed event per node fault.  The injector must outlive
 * the armed network (or be disarmed first); arm() may be called once
 * per injector.
 */
class FaultInjector
{
  public:
    // out of line: Tap is incomplete here
    FaultInjector();
    ~FaultInjector();
    FaultInjector(const FaultInjector &) = delete;
    FaultInjector &operator=(const FaultInjector &) = delete;

    /**
     * Attach the plan to the network.  Node-fault ticks must lie in
     * the future of the network's clock.  Call before run(); arming
     * while packets are in flight is allowed (decisions only apply
     * to packets transmitted afterwards).
     */
    void arm(net::Network &net, const FaultPlan &plan);

    /** Remove every tap and cancel still-pending node-fault events. */
    void disarm();

    /** Sum of injected-fault counters over the armed lines. */
    struct Stats
    {
        uint64_t dataDropped = 0;
        uint64_t acksDropped = 0;
        uint64_t dataCorrupted = 0;
        Tick jitter = 0;
    };
    Stats stats() const;

    /** @name Checkpoint/restore (src/snap)
     *
     * A snapshot of an armed injector is small: the per-line PRNG
     * states (so every future draw continues its stream mid-sequence)
     * and the node-fault events still pending, with their exact
     * dispatch keys.  The FaultPlan itself is NOT here -- the restorer
     * supplies the same plan (it is the scenario's configuration, like
     * the topology) and armRestored() checks the two agree.
     */
    ///@{
    /** One line tap's resumable state, matched by line id. */
    struct TapSnap
    {
        uint32_t lineId = 0;
        uint64_t rngState = 0;
    };

    /** One still-pending node-fault event. */
    struct PlannedSnap
    {
        int node = 0;
        uint8_t kind = 0; ///< 0: stall, 1: kill
        Tick when = 0;
        Tick until = 0;   ///< stall end (stall only)
        uint64_t seq = 0; ///< key seq on chanFault
    };

    struct FaultSnap
    {
        uint64_t faultSeq = 0;
        std::vector<TapSnap> taps;
        std::vector<PlannedSnap> events;
    };

    /** Capture the armed injector (events already fired are absent). */
    FaultSnap exportSnap() const;

    /**
     * Arm against a restored network: installs the plan's taps, then
     * overwrites each tap's PRNG with the saved mid-sequence state and
     * schedules only the saved still-pending node events under their
     * original keys.  The plan must describe the same faults as the
     * one the snapshot was taken under (mismatched taps are fatal).
     */
    void armRestored(net::Network &net, const FaultPlan &plan,
                     const FaultSnap &snap);

    /** Node-fault events still pending (save attributability). */
    size_t pendingNodeEvents() const;
    ///@}

  private:
    struct Tap;

    /** A scheduled node-fault event and how to re-create it. */
    struct Planned
    {
        sim::EventId id = sim::invalidEventId;
        int node = 0;
        uint8_t kind = 0; ///< 0: stall, 1: kill
        Tick when = 0;
        Tick until = 0;
        uint64_t seq = 0;
    };

    void scheduleNodeEvent(net::Network &net, const Planned &p);

    net::Network *net_ = nullptr;
    std::vector<std::unique_ptr<Tap>> taps_;
    std::vector<Planned> nodeEvents_;
    uint64_t faultSeq_ = 0; ///< seq for chanFault event keys
};

} // namespace transputer::fault

#endif // TRANSPUTER_FAULT_FAULT_HH
