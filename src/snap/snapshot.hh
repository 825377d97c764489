/**
 * @file
 * Deterministic checkpoint/restore of a whole simulation (DESIGN.md
 * section 4.5).
 *
 * A Snapshot is the complete resumable state of a net::Network at a
 * tick where no event is being dispatched: every CPU's register file
 * and scheduler lists (core::CpuSnap), the dirty pages of every
 * memory, both DMA machines of every link engine, the undelivered
 * packet callbacks of every line, every peripheral's opaque blob, and
 * (optionally) the fault injector's PRNG streams and still-pending
 * node-fault events.  Pending events are not serialized as a queue
 * dump: each component records the exact (tick, actor, channel, seq)
 * key of its own arms and re-schedules them on restore, so the
 * restored queue dispatches in bit-identical order -- the continuation
 * of a restored run equals the uninterrupted run on every
 * architectural counter (tests/test_snap.cc).
 *
 * capture() refuses (SnapError) if any pending event cannot be
 * attributed to a component that knows how to re-create it -- that is
 * the subsystem's safety net against state silently missing from a
 * file.  restore() validates everything read-only before mutating the
 * target network.
 */

#ifndef TRANSPUTER_SNAP_SNAPSHOT_HH
#define TRANSPUTER_SNAP_SNAPSHOT_HH

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/transputer.hh"
#include "fault/fault.hh"
#include "link/link.hh"
#include "net/network.hh"
#include "net/peripherals.hh"
#include "snap/format.hh"

namespace transputer::snap
{

/** Static description of one node: enough to rebuild its Transputer
 *  and to check a restore target is compatible. */
struct NodeTopo
{
    std::string name;
    uint8_t shapeBytes = 4; ///< 4: word32 (T424), 2: word16 (T222)
    Word onchipBytes = 0;
    Word externalBytes = 0;
    int externalWaits = 0;
    Tick cyclePeriod = 0;
    int64_t timesliceCycles = 0;
    int maxBatch = 0;
    bool predecode = true; ///< Config::predecode
    uint32_t actor = 0;    ///< deterministic event-ordering identity
};

/** One wiring call, in creation order. */
struct ConnTopo
{
    uint8_t kind = 0; ///< 0: connect(a,la,b,lb); 1: attachPeripheral
    int a = 0, la = 0;
    int b = 0, lb = 0; ///< unused for peripherals
    int64_t bitsPerSecond = 0;
    Tick propagationDelay = 0;
    uint8_t ackMode = 0; ///< link::AckMode
};

/** One dirty 256-byte memory page. */
struct MemPage
{
    uint64_t index = 0;
    std::vector<uint8_t> bytes;
};

/** One node's dynamic state. */
struct NodeState
{
    core::CpuSnap cpu;
    uint64_t memBytes = 0; ///< total memory size (compatibility check)
    std::vector<MemPage> pages;
};

/** One line's dynamic state, matched to the target by LineRec index. */
struct LineState
{
    uint32_t lineId = 0;
    link::Line::LineSnap line;
};

/** The complete in-memory model of one snapshot. */
struct Snapshot
{
    Tick now = 0;
    uint64_t dispatched = 0; ///< informational (event count so far)
    std::vector<NodeTopo> nodes;
    std::vector<ConnTopo> conns;
    std::vector<NodeState> states;
    std::vector<link::LinkEngine::EngineSnap> engines;
    std::vector<LineState> lines;
    std::vector<std::vector<uint8_t>> peripherals; ///< opaque blobs
    std::optional<fault::FaultInjector::FaultSnap> fault;
    /** Scenario key/value pairs (tools/tsnap stores how to rebuild
     *  the workload so `tsnap restore` is self-contained). */
    std::map<std::string, std::string> scenario;
};

/** What capture() includes beyond the network itself. */
struct SaveOptions
{
    /** The armed injector, if the run uses fault injection. */
    const fault::FaultInjector *fault = nullptr;
    /** Attached peripherals, in attach order. */
    std::vector<net::Peripheral *> peripherals;
    std::map<std::string, std::string> scenario;
};

/** What restore() needs beyond the network itself. */
struct RestoreOptions
{
    /** Attached peripherals of the target, in attach order. */
    std::vector<net::Peripheral *> peripherals;
    /** A fresh (unarmed) injector plus the original plan, required
     *  iff the snapshot carries fault state. */
    fault::FaultInjector *fault = nullptr;
    const fault::FaultPlan *plan = nullptr;
};

/**
 * Capture a quiescent-between-events network.
 * @throws SnapError if pending events cannot all be attributed to
 * components that re-create them, or a peripheral is mid-operation.
 */
Snapshot capture(net::Network &net, const SaveOptions &opts = {});

/**
 * Restore a snapshot into a compatible network (same topology, built
 * by the same wiring calls).  Validates read-only first; on success
 * the network's clock, CPUs, memories, wires and pending events all
 * match the captured instant exactly.
 * @throws SnapError on any incompatibility.
 */
void restore(net::Network &net, const Snapshot &s,
             const RestoreOptions &opts = {});

/**
 * Build a fresh network matching the snapshot's topology (transputer
 * nodes and links only -- snapshots with peripherals need the caller
 * to rebuild the scenario and call restore() directly).
 */
std::unique_ptr<net::Network> buildNetwork(const Snapshot &s);

/** @name Wire format (snap/format.hh framing) */
///@{
std::vector<uint8_t> encode(const Snapshot &s);
Snapshot decode(const uint8_t *data, size_t n);
inline Snapshot
decode(const std::vector<uint8_t> &v)
{
    return decode(v.data(), v.size());
}

void writeFile(const std::string &path, const Snapshot &s);
Snapshot readFile(const std::string &path);
///@}

/** @name Diff */
///@{
struct DiffOptions
{
    /** Ignore predecode-cache and fused-loop statistics: they are
     *  host-side (a restored run re-decodes dropped cache entries, so
     *  its icache miss counts legitimately differ from the
     *  uninterrupted run's). */
    bool ignoreCacheStats = false;

    /** Ignore interpreter scheduling bookkeeping (the stepSeq /
     *  selfSeq / timerSeq re-arm counters and lastInstrStart): the
     *  serial and parallel engines batch instructions differently, so
     *  these depend on the execution engine even though architectural
     *  state and event dispatch order do not.  Needed when one side
     *  of the comparison ran under src/par and the other did not. */
    bool ignoreSchedulerSeqs = false;
};

/** The first field, in a stable depth-first order, where two
 *  snapshots disagree. */
struct Divergence
{
    std::string where; ///< dotted path, e.g. "node3.cpu.areg"
    std::string a, b;  ///< rendered values
};

std::optional<Divergence> firstDivergence(const Snapshot &a,
                                          const Snapshot &b,
                                          const DiffOptions &opts = {});

/** Every field where two snapshots disagree, in the same stable
 *  depth-first order firstDivergence uses. */
std::vector<Divergence> divergences(const Snapshot &a,
                                    const Snapshot &b,
                                    const DiffOptions &opts = {});
///@}

/** Human-readable summary (tools/tsnap info). */
std::string info(const Snapshot &s);

/** @name Parallel capture plumbing (src/par/snap_par.cc)
 *
 * captureShell() takes the cheap global part on the calling thread
 * (topology, engines, lines, peripherals, fault) and sizes `states`;
 * captureNode() fills states[i] (the CPU and the memory scan -- the
 * expensive part) and is safe to run concurrently for distinct i
 * against a network no thread is mutating.
 */
///@{
Snapshot captureShell(net::Network &net, const SaveOptions &opts);
void captureNode(net::Network &net, size_t i, Snapshot &snap);

/**
 * The attributability check, run after every state is filled: every
 * pending event on the queue must be accounted for by a component
 * that re-creates it on restore (CPU step/timer arms, link watchdogs,
 * line in-flight packets, fault node events).
 * @throws SnapError on any unattributed event.
 */
void verifyCaptured(net::Network &net, const Snapshot &snap,
                    const SaveOptions &opts);
///@}

} // namespace transputer::snap

#endif // TRANSPUTER_SNAP_SNAPSHOT_HH
