#include "snap/snapshot.hh"

#include <cstring>
#include <fstream>
#include <limits>
#include <type_traits>
#include <utility>

namespace transputer::snap
{

namespace
{

// ---------------------------------------------------------------------
// Field visitors.  Every serializable struct has ONE visit function
// listing its fields by name; the writer, reader and recorder visitors
// walk that single list, so the wire layout, the parser and the diff
// paths can never drift apart.
// ---------------------------------------------------------------------

struct WriteV
{
    Writer &w;

    template <typename T>
    void
    f(const char *, const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            w.boolean(v);
        else if constexpr (std::is_signed_v<T>)
            w.i64(static_cast<int64_t>(v));
        else
            w.u64(static_cast<uint64_t>(v));
    }

    void s(const char *, const std::string &v) { w.str(v); }
};

struct ReadV
{
    Reader &r;

    template <typename T>
    void
    f(const char *name, T &out)
    {
        if constexpr (std::is_same_v<T, bool>) {
            out = r.boolean();
        } else if constexpr (std::is_signed_v<T>) {
            const int64_t v = r.i64();
            if constexpr (sizeof(T) < 8)
                if (v < std::numeric_limits<T>::min() ||
                    v > std::numeric_limits<T>::max())
                    throw SnapError(
                        fmt("field {} out of range", name));
            out = static_cast<T>(v);
        } else {
            const uint64_t v = r.u64();
            if constexpr (sizeof(T) < 8)
                if (v > std::numeric_limits<T>::max())
                    throw SnapError(
                        fmt("field {} out of range", name));
            out = static_cast<T>(v);
        }
    }

    void s(const char *, std::string &out) { out = r.str(); }
};

/** Flattens fields into (dotted path, rendered value) rows. */
struct RecordV
{
    std::vector<std::pair<std::string, std::string>> &out;
    std::string pre;

    template <typename T>
    void
    f(const char *name, const T &v)
    {
        if constexpr (std::is_same_v<T, bool>)
            out.emplace_back(pre + name, v ? "true" : "false");
        else if constexpr (std::is_signed_v<T>)
            out.emplace_back(pre + name,
                             std::to_string(static_cast<int64_t>(v)));
        else
            out.emplace_back(pre + name,
                             std::to_string(static_cast<uint64_t>(v)));
    }

    void s(const char *name, const std::string &v)
    {
        out.emplace_back(pre + name, v);
    }
};

template <typename V, typename C>
void
visitCounters(V &v, C &c)
{
    for (size_t i = 0; i < c.fn.size(); ++i)
        v.f(("ctrs.fn" + std::to_string(i)).c_str(), c.fn[i]);
    for (size_t i = 0; i < c.op.size(); ++i)
        v.f(("ctrs.op" + std::to_string(i)).c_str(), c.op[i]);
    v.f("ctrs.instructions", c.instructions);
    v.f("ctrs.cycles", c.cycles);
    v.f("ctrs.icacheHits", c.icacheHits);
    v.f("ctrs.icacheMisses", c.icacheMisses);
    v.f("ctrs.icacheInvalidations", c.icacheInvalidations);
    v.f("ctrs.processStarts", c.processStarts);
    v.f("ctrs.timeslices", c.timeslices);
    v.f("ctrs.priorityInterrupts", c.priorityInterrupts);
    v.f("ctrs.chanInternalIn", c.chanInternalIn);
    v.f("ctrs.chanInternalOut", c.chanInternalOut);
    v.f("ctrs.chanLinkIn", c.chanLinkIn);
    v.f("ctrs.chanLinkOut", c.chanLinkOut);
    v.f("ctrs.timerWaits", c.timerWaits);
    v.f("ctrs.timerWakes", c.timerWakes);
    v.f("ctrs.idleTicks", c.idleTicks);
    v.f("ctrs.linkBytesOut", c.linkBytesOut);
    v.f("ctrs.linkBytesIn", c.linkBytesIn);
    v.f("ctrs.faultDataDrops", c.faultDataDrops);
    v.f("ctrs.faultAckDrops", c.faultAckDrops);
    v.f("ctrs.faultCorrupts", c.faultCorrupts);
    v.f("ctrs.faultJitterTicks", c.faultJitterTicks);
    v.f("ctrs.linkOutAborts", c.linkOutAborts);
    v.f("ctrs.linkInAborts", c.linkInAborts);
    v.f("ctrs.linkStaleAcks", c.linkStaleAcks);
    v.f("ctrs.linkOverrunDrops", c.linkOverrunDrops);
    v.f("ctrs.linkDeadDrops", c.linkDeadDrops);
    v.f("ctrs.fusedRuns", c.fused.runs);
    v.f("ctrs.fusedInstructions", c.fused.instructions);
    v.f("ctrs.fusedCycles", c.fused.cycles);
    for (size_t i = 0; i < c.fused.lenLog2.size(); ++i)
        v.f(("ctrs.fusedLenLog2_" + std::to_string(i)).c_str(),
            c.fused.lenLog2[i]);
    v.f("ctrs.blockcCompiles", c.blockc.compiles);
    v.f("ctrs.blockcSteps", c.blockc.steps);
    v.f("ctrs.blockcInvalidations", c.blockc.invalidations);
    v.f("ctrs.blockcEnters", c.blockc.enters);
    v.f("ctrs.blockcChains", c.blockc.chains);
    v.f("ctrs.blockcInstructions", c.blockc.instructions);
    v.f("ctrs.blockcCycles", c.blockc.cycles);
    for (size_t i = 0; i < c.blockc.deopts.size(); ++i)
        v.f(("ctrs.blockcDeopts_" + std::to_string(i)).c_str(),
            c.blockc.deopts[i]);
}

template <typename V, typename C>
void
visitCpu(V &v, C &c)
{
    v.f("iptr", c.iptr);
    v.f("wptr", c.wptr);
    v.f("areg", c.areg);
    v.f("breg", c.breg);
    v.f("creg", c.creg);
    v.f("oreg", c.oreg);
    v.f("pri", c.pri);
    v.f("fptr0", c.fptr[0]);
    v.f("fptr1", c.fptr[1]);
    v.f("bptr0", c.bptr[0]);
    v.f("bptr1", c.bptr[1]);
    v.f("errorFlag", c.errorFlag);
    v.f("haltOnError", c.haltOnError);
    v.f("timersRunning", c.timersRunning);
    v.f("timerBase", c.timerBase);
    v.f("timerOffset0", c.timerOffset[0]);
    v.f("timerOffset1", c.timerOffset[1]);
    v.f("timerArmed", c.timerArmed);
    v.f("timerWhen", c.timerWhen);
    v.f("timerSeq", c.timerSeq);
    v.f("lowSaved", c.lowSaved);
    v.f("lowDebtTicks", c.lowDebtTicks);
    v.f("lastFetchWord", c.lastFetchWord);
    v.f("lastFetchValid", c.lastFetchValid);
    v.f("preemptPending", c.preemptPending);
    v.f("hpReadyTick", c.hpReadyTick);
    v.f("lastInstrStart", c.lastInstrStart);
    v.f("lastInstrInterruptible", c.lastInstrInterruptible);
    v.f("state", c.state);
    v.f("killed", c.killed);
    v.f("stallUntil", c.stallUntil);
    v.f("time", c.time);
    v.f("sliceStartCycles", c.sliceStartCycles);
    v.f("stepArmed", c.stepArmed);
    v.f("stepWhen", c.stepWhen);
    v.f("stepSeq", c.stepSeq);
    v.f("eventPending", c.eventPending);
    v.f("eventWaiter", c.eventWaiter);
    v.f("eventAltWaiter", c.eventAltWaiter);
    v.f("eventInAlt", c.eventInAlt);
    v.f("selfSeq", c.selfSeq);
    v.f("idleSince", c.idleSince);
    visitCounters(v, c.ctrs);
}

template <typename V, typename C>
void
visitEngine(V &v, C &e)
{
    v.f("outActive", e.outActive);
    v.f("awaitingAck", e.awaitingAck);
    v.f("outWdesc", e.outWdesc);
    v.f("outPtr", e.outPtr);
    v.f("outCount", e.outCount);
    v.f("outSent", e.outSent);
    v.f("inActive", e.inActive);
    v.f("inWdesc", e.inWdesc);
    v.f("inPtr", e.inPtr);
    v.f("inCount", e.inCount);
    v.f("inReceived", e.inReceived);
    v.f("bufferValid", e.bufferValid);
    v.f("buffer", e.buffer);
    v.f("ackSentForCurrent", e.ackSentForCurrent);
    v.f("altEnabled", e.altEnabled);
    v.f("altWdesc", e.altWdesc);
    v.f("bytesSent", e.bytesSent);
    v.f("bytesReceived", e.bytesReceived);
    v.f("watchdogTimeout", e.watchdogTimeout);
    v.f("dead", e.dead);
    v.f("peerDead", e.peerDead);
    v.f("outAborts", e.outAborts);
    v.f("inAborts", e.inAborts);
    v.f("staleAcks", e.staleAcks);
    v.f("overrunDrops", e.overrunDrops);
    v.f("deadDrops", e.deadDrops);
    v.f("selfSeq", e.selfSeq);
    v.f("outWdogArmed", e.outWdogArmed);
    v.f("outWdogWhen", e.outWdogWhen);
    v.f("outWdogSeq", e.outWdogSeq);
    v.f("inWdogArmed", e.inWdogArmed);
    v.f("inWdogWhen", e.inWdogWhen);
    v.f("inWdogSeq", e.inWdogSeq);
}

template <typename V, typename C>
void
visitLine(V &v, C &l)
{
    v.f("seq", l.seq);
    v.f("busyUntil", l.busyUntil);
    v.f("busyTime", l.busyTime);
    v.f("dataPackets", l.dataPackets);
    v.f("ackPackets", l.ackPackets);
    v.f("dataDropped", l.dataDropped);
    v.f("acksDropped", l.acksDropped);
    v.f("dataCorrupted", l.dataCorrupted);
    v.f("faultJitter", l.faultJitter);
    v.f("dead", l.dead);
    v.f("deadSquelched", l.deadSquelched);
}

template <typename V, typename C>
void
visitInFlight(V &v, C &r)
{
    v.f("kind", r.kind);
    v.f("byte", r.byte);
    v.f("when", r.when);
    v.f("seq", r.seq);
}

template <typename V, typename C>
void
visitTopoNode(V &v, C &n)
{
    v.s("name", n.name);
    v.f("shapeBytes", n.shapeBytes);
    v.f("onchipBytes", n.onchipBytes);
    v.f("externalBytes", n.externalBytes);
    v.f("externalWaits", n.externalWaits);
    v.f("cyclePeriod", n.cyclePeriod);
    v.f("timesliceCycles", n.timesliceCycles);
    v.f("maxBatch", n.maxBatch);
    v.f("predecode", n.predecode);
    v.f("actor", n.actor);
}

template <typename V, typename C>
void
visitConn(V &v, C &c)
{
    v.f("kind", c.kind);
    v.f("a", c.a);
    v.f("la", c.la);
    v.f("b", c.b);
    v.f("lb", c.lb);
    v.f("bitsPerSecond", c.bitsPerSecond);
    v.f("propagationDelay", c.propagationDelay);
    v.f("ackMode", c.ackMode);
}

template <typename V, typename C>
void
visitTap(V &v, C &t)
{
    v.f("lineId", t.lineId);
    v.f("rngState", t.rngState);
}

template <typename V, typename C>
void
visitPlanned(V &v, C &p)
{
    v.f("node", p.node);
    v.f("kind", p.kind);
    v.f("when", p.when);
    v.f("until", p.until);
    v.f("seq", p.seq);
}

// ---------------------------------------------------------------------
// Topology extraction
// ---------------------------------------------------------------------

/** Describe the network's nodes and wiring calls (capture and the
 *  restore-side compatibility check both use this). */
void
captureTopo(net::Network &net, std::vector<NodeTopo> &nodes,
            std::vector<ConnTopo> &conns)
{
    for (size_t i = 0; i < net.size(); ++i) {
        core::Transputer &t = net.node(static_cast<int>(i));
        const core::Config &c = t.config();
        NodeTopo nt;
        nt.name = t.name();
        nt.shapeBytes = static_cast<uint8_t>(c.shape.bytes);
        nt.onchipBytes = c.onchipBytes;
        nt.externalBytes = c.externalBytes;
        nt.externalWaits = c.externalWaits;
        nt.cyclePeriod = c.cyclePeriod;
        nt.timesliceCycles = c.timesliceCycles;
        nt.maxBatch = c.maxBatch;
        nt.predecode = c.predecode;
        nt.actor = t.actor();
        nodes.push_back(std::move(nt));
    }
    // Endpoints come in pairs per wiring call: connect() pushes its
    // two engines, attachPeripheral() the engine then the peripheral,
    // connectPeripherals() (src/route trunks) two peripherals.
    const auto &eps = net.endpoints();
    if (eps.size() % 2 != 0)
        throw SnapError("wiring has an odd endpoint count");
    for (size_t i = 0; i + 1 < eps.size(); i += 2) {
        auto *ea = dynamic_cast<link::LinkEngine *>(eps[i].ep);
        auto *eb = dynamic_cast<link::LinkEngine *>(eps[i + 1].ep);
        const link::WireConfig &wc = eps[i].ep->tx().config();
        ConnTopo ct;
        ct.a = eps[i].homeNode;
        ct.bitsPerSecond = wc.bitsPerSecond;
        ct.propagationDelay = wc.propagationDelay;
        if (ea && eb) {
            ct.kind = 0;
            ct.la = ea->linkIndex();
            ct.b = eps[i + 1].homeNode;
            ct.lb = eb->linkIndex();
            ct.ackMode = static_cast<uint8_t>(ea->ackMode());
        } else if (ea) {
            ct.kind = 1;
            ct.la = ea->linkIndex();
            ct.ackMode = static_cast<uint8_t>(ea->ackMode());
        } else if (!eb) {
            ct.kind = 2; // peripheral-to-peripheral trunk
            ct.b = eps[i + 1].homeNode;
        } else {
            throw SnapError(
                fmt("endpoint {}: a peripheral precedes its link "
                    "engine, which no wiring call produces", i));
        }
        conns.push_back(ct);
    }
}

/** Topology equality, ignoring the predecode flag (a host-side
 *  toggle the restorer may legitimately set differently). */
bool
sameNode(const NodeTopo &a, const NodeTopo &b)
{
    return a.name == b.name && a.shapeBytes == b.shapeBytes &&
           a.onchipBytes == b.onchipBytes &&
           a.externalBytes == b.externalBytes &&
           a.externalWaits == b.externalWaits &&
           a.cyclePeriod == b.cyclePeriod &&
           a.timesliceCycles == b.timesliceCycles &&
           a.maxBatch == b.maxBatch && a.actor == b.actor;
}

bool
sameConn(const ConnTopo &a, const ConnTopo &b)
{
    return a.kind == b.kind && a.a == b.a && a.la == b.la &&
           a.b == b.b && a.lb == b.lb &&
           a.bitsPerSecond == b.bitsPerSecond &&
           a.propagationDelay == b.propagationDelay &&
           a.ackMode == b.ackMode;
}

/** Peripheral endpoints in wiring order: one per attachPeripheral
 *  call (kind 1), two per peripheral trunk (kind 2).  SaveOptions
 *  must list exactly this many blob providers, in the same order. */
size_t
peripheralConns(const std::vector<ConnTopo> &conns)
{
    size_t n = 0;
    for (const ConnTopo &c : conns)
        n += c.kind == 1 ? 1 : c.kind == 2 ? 2 : 0;
    return n;
}

} // namespace

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

Snapshot
captureShell(net::Network &net, const SaveOptions &opts)
{
    // the format records per-byte link state only
    net.settleLinks();
    auto &q = net.queue();
    Snapshot s;
    s.now = q.now();
    s.dispatched = q.dispatched();
    captureTopo(net, s.nodes, s.conns);

    const size_t peri = peripheralConns(s.conns);
    if (opts.peripherals.size() != peri)
        throw SnapError(
            fmt("the network has {} attached peripherals but "
                "SaveOptions lists {}: pass every peripheral in "
                "attach order",
                peri, opts.peripherals.size()));
    for (size_t i = 0; i < opts.peripherals.size(); ++i)
        if (!opts.peripherals[i]->snapReady())
            throw SnapError(
                fmt("peripheral {} is mid-operation (a latency event "
                    "is pending); run until it settles before "
                    "snapshotting", i));

    for (size_t i = 0; i < net.engineCount(); ++i)
        s.engines.push_back(net.engine(i).exportSnap());
    for (const auto &lr : net.lines())
        s.lines.push_back(
            LineState{lr.line->lineId(), lr.line->exportSnap(s.now)});
    for (net::Peripheral *p : opts.peripherals) {
        std::vector<uint8_t> blob;
        p->snapSave(blob);
        s.peripherals.push_back(std::move(blob));
    }
    if (opts.fault)
        s.fault = opts.fault->exportSnap();
    s.scenario = opts.scenario;
    s.states.resize(net.size());
    return s;
}

void
captureNode(net::Network &net, size_t i, Snapshot &snap)
{
    core::Transputer &t = net.node(static_cast<int>(i));
    NodeState &st = snap.states.at(i);
    st.cpu = t.exportSnap();
    const mem::Memory &m = t.memory();
    st.memBytes = m.size();
    for (size_t p = 0; p < m.pageCount(); ++p) {
        if (!m.pageDirty(p))
            continue;
        MemPage pg;
        pg.index = p;
        pg.bytes.assign(m.pageData(p), m.pageData(p) + m.pageBytes(p));
        st.pages.push_back(std::move(pg));
    }
}

void
verifyCaptured(net::Network &net, const Snapshot &snap,
               const SaveOptions &opts)
{
    size_t expected = 0;
    for (const NodeState &st : snap.states)
        expected += (st.cpu.stepArmed ? 1 : 0) +
                    (st.cpu.timerArmed ? 1 : 0);
    for (const auto &e : snap.engines)
        expected += (e.outWdogArmed ? 1 : 0) +
                    (e.inWdogArmed ? 1 : 0);
    for (const LineState &ls : snap.lines)
        expected += ls.line.inFlight.size();
    if (opts.fault)
        expected += opts.fault->pendingNodeEvents();
    const size_t actual = net.queue().pending();
    if (actual != expected)
        throw SnapError(
            fmt("cannot attribute every pending event to a "
                "restorable component: the queue holds {} but the "
                "snapshot accounts for {} (is a fault injector armed "
                "but not passed in SaveOptions, or a peripheral "
                "scheduling private events?)",
                actual, expected));
}

Snapshot
capture(net::Network &net, const SaveOptions &opts)
{
    Snapshot s = captureShell(net, opts);
    for (size_t i = 0; i < net.size(); ++i)
        captureNode(net, i, s);
    verifyCaptured(net, s, opts);
    return s;
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

namespace
{

/** Everything checkable without mutating the target. */
void
verifyCompatible(net::Network &net, const Snapshot &s,
                 const RestoreOptions &opts)
{
    std::vector<NodeTopo> nodes;
    std::vector<ConnTopo> conns;
    captureTopo(net, nodes, conns);

    if (nodes.size() != s.nodes.size())
        throw SnapError(fmt("snapshot has {} nodes, network has {}",
                            s.nodes.size(), nodes.size()));
    for (size_t i = 0; i < nodes.size(); ++i)
        if (!sameNode(nodes[i], s.nodes[i]))
            throw SnapError(
                fmt("node {} ({}) differs from the snapshot's "
                    "topology (config or actor id mismatch)",
                    i, nodes[i].name));
    if (conns.size() != s.conns.size())
        throw SnapError(fmt("snapshot has {} wiring calls, network "
                            "has {}", s.conns.size(), conns.size()));
    for (size_t i = 0; i < conns.size(); ++i)
        if (!sameConn(conns[i], s.conns[i]))
            throw SnapError(
                fmt("wiring call {} differs from the snapshot's "
                    "topology", i));

    if (net.engineCount() != s.engines.size())
        throw SnapError(fmt("snapshot has {} link engines, network "
                            "has {}", s.engines.size(),
                            net.engineCount()));
    if (net.lines().size() != s.lines.size())
        throw SnapError(fmt("snapshot has {} lines, network has {}",
                            s.lines.size(), net.lines().size()));
    for (size_t i = 0; i < s.lines.size(); ++i)
        if (net.lines()[i].line->lineId() != s.lines[i].lineId)
            throw SnapError(fmt("line {} id mismatch", i));

    const size_t peri = peripheralConns(conns);
    if (s.peripherals.size() != peri ||
        opts.peripherals.size() != peri)
        throw SnapError(
            fmt("peripheral mismatch: network has {}, snapshot "
                "carries {}, RestoreOptions lists {}",
                peri, s.peripherals.size(), opts.peripherals.size()));

    if (s.fault.has_value() && (!opts.fault || !opts.plan))
        throw SnapError("snapshot carries fault-injector state: pass "
                        "a fresh injector and the original plan in "
                        "RestoreOptions");
    if (!s.fault.has_value() && opts.fault)
        throw SnapError("RestoreOptions supplies a fault injector "
                        "but the snapshot carries no fault state");

    if (s.states.size() != s.nodes.size())
        throw SnapError("snapshot node state/topology count mismatch");

    // per-state validity: memory bounds and event times (schedule()
    // would assert on a past tick; reject cleanly instead)
    for (size_t i = 0; i < s.states.size(); ++i) {
        const NodeState &st = s.states[i];
        const mem::Memory &m = net.node(static_cast<int>(i)).memory();
        if (st.memBytes != m.size())
            throw SnapError(
                fmt("node {} memory is {} bytes in the snapshot, {} "
                    "in the network", i, st.memBytes, m.size()));
        for (const MemPage &pg : st.pages) {
            if (pg.index >= m.pageCount())
                throw SnapError(fmt("node {} page {} out of range",
                                    i, pg.index));
            if (pg.bytes.size() != m.pageBytes(pg.index))
                throw SnapError(
                    fmt("node {} page {} holds {} bytes, expected {}",
                        i, pg.index, pg.bytes.size(),
                        m.pageBytes(pg.index)));
        }
        const core::CpuSnap &c = st.cpu;
        if (c.state > 2 || (c.pri != 0 && c.pri != 1))
            throw SnapError(fmt("node {} CPU state is invalid", i));
        if ((c.stepArmed && c.stepWhen < s.now) ||
            (c.timerArmed && c.timerWhen < s.now))
            throw SnapError(
                fmt("node {} has a pending event before the snapshot "
                    "tick", i));
    }
    for (size_t i = 0; i < s.engines.size(); ++i) {
        const auto &e = s.engines[i];
        if ((e.outWdogArmed && e.outWdogWhen < s.now) ||
            (e.inWdogArmed && e.inWdogWhen < s.now))
            throw SnapError(
                fmt("engine {} has a watchdog before the snapshot "
                    "tick", i));
    }
    for (size_t i = 0; i < s.lines.size(); ++i)
        for (const auto &r : s.lines[i].line.inFlight)
            if (r.when < s.now || r.kind > link::Line::kPeerDead)
                throw SnapError(
                    fmt("line {} has an invalid in-flight record", i));
    if (s.fault)
        for (const auto &e : s.fault->events) {
            if (e.when < s.now || e.kind > 1)
                throw SnapError("fault event is invalid");
            if (e.node < 0 ||
                static_cast<size_t>(e.node) >= s.nodes.size())
                throw SnapError("fault event names a missing node");
        }
}

} // namespace

void
restore(net::Network &net, const Snapshot &s, const RestoreOptions &opts)
{
    verifyCompatible(net, s, opts);

    // Peripherals first: each snapLoad is parse-then-commit, so a
    // malformed blob is rejected here before the queue or any node is
    // touched.
    for (size_t i = 0; i < opts.peripherals.size(); ++i)
        if (!opts.peripherals[i]->snapLoad(s.peripherals[i].data(),
                                           s.peripherals[i].size()))
            throw SnapError(
                fmt("peripheral {} rejected its snapshot blob", i));

    // Drop whatever the target was doing and rewind/advance its clock
    // to the captured instant; every component below re-schedules its
    // own pending events under their original keys.
    auto &q = net.queue();
    net.settleLinks();
    q.clear();
    q.resetTime(s.now);

    for (size_t i = 0; i < s.states.size(); ++i) {
        const NodeState &st = s.states[i];
        core::Transputer &t = net.node(static_cast<int>(i));
        mem::Memory &m = t.memory();
        m.resetForRestore();
        for (const MemPage &pg : st.pages)
            m.writePage(pg.index, pg.bytes.data(), pg.bytes.size());
        t.importSnap(st.cpu);
    }
    for (size_t i = 0; i < s.engines.size(); ++i)
        net.engine(i).importSnap(s.engines[i]);
    for (size_t i = 0; i < s.lines.size(); ++i)
        net.lines()[i].line->importSnap(s.lines[i].line);
    if (s.fault)
        opts.fault->armRestored(net, *opts.plan, *s.fault);
}

std::unique_ptr<net::Network>
buildNetwork(const Snapshot &s)
{
    auto net = std::make_unique<net::Network>();
    for (const NodeTopo &nt : s.nodes) {
        if (nt.shapeBytes != 2 && nt.shapeBytes != 4)
            throw SnapError(fmt("node {} has an unknown word shape",
                                nt.name));
        core::Config cfg;
        cfg.shape = nt.shapeBytes == 2 ? word16 : word32;
        cfg.onchipBytes = nt.onchipBytes;
        cfg.externalBytes = nt.externalBytes;
        cfg.externalWaits = nt.externalWaits;
        cfg.cyclePeriod = nt.cyclePeriod;
        cfg.timesliceCycles = nt.timesliceCycles;
        cfg.maxBatch = nt.maxBatch;
        cfg.predecode = nt.predecode;
        const int id = net->addTransputer(cfg, nt.name);
        if (net->node(id).actor() != nt.actor)
            throw SnapError(
                fmt("rebuilt node {} got actor {} but the snapshot "
                    "expects {}: the original network interleaved "
                    "other actors (rebuild the scenario by hand and "
                    "use restore())",
                    nt.name, net->node(id).actor(), nt.actor));
    }
    for (const ConnTopo &ct : s.conns) {
        if (ct.kind != 0)
            throw SnapError(
                "snapshot topology includes peripherals: rebuild the "
                "scenario by hand and call restore() with them");
        if (ct.ackMode > 1)
            throw SnapError("unknown ack mode in snapshot topology");
        link::WireConfig wc;
        wc.bitsPerSecond = ct.bitsPerSecond;
        wc.propagationDelay = ct.propagationDelay;
        if (wc.bitsPerSecond <= 0)
            throw SnapError("invalid link rate in snapshot topology");
        const auto bad = [&](int n, int l) {
            return n < 0 ||
                   static_cast<size_t>(n) >= net->size() || l < 0 ||
                   l > 3;
        };
        if (bad(ct.a, ct.la) || bad(ct.b, ct.lb))
            throw SnapError("wiring call out of range in snapshot "
                            "topology");
        net->connect(ct.a, ct.la, ct.b, ct.lb, wc,
                     static_cast<link::AckMode>(ct.ackMode));
    }
    return net;
}

// ---------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------

std::vector<uint8_t>
encode(const Snapshot &s)
{
    std::vector<Section> sections;
    const auto emit = [&](uint32_t tag, Writer &w) {
        sections.push_back(Section{tag, std::move(w.bytes())});
    };

    {
        Writer w;
        w.tick(s.now);
        w.u64(s.dispatched);
        emit(sect::meta, w);
    }
    {
        Writer w;
        WriteV v{w};
        w.u64(s.nodes.size());
        for (const NodeTopo &n : s.nodes)
            visitTopoNode(v, n);
        w.u64(s.conns.size());
        for (const ConnTopo &c : s.conns)
            visitConn(v, c);
        emit(sect::topo, w);
    }
    for (const NodeState &st : s.states) {
        Writer w;
        WriteV v{w};
        visitCpu(v, st.cpu);
        w.u64(st.memBytes);
        w.u64(st.pages.size());
        for (const MemPage &pg : st.pages) {
            w.u64(pg.index);
            w.blob(pg.bytes);
        }
        emit(sect::node, w);
    }
    {
        Writer w;
        WriteV v{w};
        w.u64(s.engines.size());
        for (const auto &e : s.engines)
            visitEngine(v, e);
        emit(sect::engs, w);
    }
    {
        Writer w;
        WriteV v{w};
        w.u64(s.lines.size());
        for (const LineState &ls : s.lines) {
            w.u32(ls.lineId);
            visitLine(v, ls.line);
            w.u64(ls.line.inFlight.size());
            for (const auto &r : ls.line.inFlight)
                visitInFlight(v, r);
        }
        emit(sect::lins, w);
    }
    {
        Writer w;
        w.u64(s.peripherals.size());
        for (const auto &blob : s.peripherals)
            w.blob(blob);
        emit(sect::peri, w);
    }
    if (s.fault) {
        Writer w;
        WriteV v{w};
        w.u64(s.fault->faultSeq);
        w.u64(s.fault->taps.size());
        for (const auto &t : s.fault->taps)
            visitTap(v, t);
        w.u64(s.fault->events.size());
        for (const auto &e : s.fault->events)
            visitPlanned(v, e);
        emit(sect::flts, w);
    }
    if (!s.scenario.empty()) {
        Writer w;
        w.u64(s.scenario.size());
        for (const auto &kv : s.scenario) {
            w.str(kv.first);
            w.str(kv.second);
        }
        emit(sect::scen, w);
    }
    return frame(sections);
}

Snapshot
decode(const uint8_t *data, size_t n)
{
    const std::vector<Section> sections = unframe(data, n);
    size_t si = 0;
    const auto have = [&](uint32_t tag) {
        return si < sections.size() && sections[si].tag == tag;
    };
    const auto next = [&](uint32_t tag, const char *name) -> Reader {
        if (!have(tag))
            throw SnapError(fmt("expected a {} section", name));
        Reader r(sections[si].body.data(), sections[si].body.size());
        ++si;
        return r;
    };

    Snapshot s;
    {
        Reader r = next(sect::meta, "META");
        s.now = r.tick();
        s.dispatched = r.u64();
        r.expectEnd("META");
    }
    {
        Reader r = next(sect::topo, "TOPO");
        ReadV v{r};
        const uint64_t nn = r.count("node");
        for (uint64_t i = 0; i < nn; ++i) {
            NodeTopo nt;
            visitTopoNode(v, nt);
            s.nodes.push_back(std::move(nt));
        }
        const uint64_t nc = r.count("wiring");
        for (uint64_t i = 0; i < nc; ++i) {
            ConnTopo ct;
            visitConn(v, ct);
            s.conns.push_back(ct);
        }
        r.expectEnd("TOPO");
    }
    for (size_t i = 0; i < s.nodes.size(); ++i) {
        Reader r = next(sect::node, "NODE");
        ReadV v{r};
        NodeState st;
        visitCpu(v, st.cpu);
        st.memBytes = r.u64();
        const uint64_t np = r.count("page");
        for (uint64_t p = 0; p < np; ++p) {
            MemPage pg;
            pg.index = r.u64();
            pg.bytes = r.blob();
            st.pages.push_back(std::move(pg));
        }
        r.expectEnd("NODE");
        s.states.push_back(std::move(st));
    }
    {
        Reader r = next(sect::engs, "ENGS");
        ReadV v{r};
        const uint64_t ne = r.count("engine");
        for (uint64_t i = 0; i < ne; ++i) {
            link::LinkEngine::EngineSnap e;
            visitEngine(v, e);
            s.engines.push_back(e);
        }
        r.expectEnd("ENGS");
    }
    {
        Reader r = next(sect::lins, "LINS");
        ReadV v{r};
        const uint64_t nl = r.count("line");
        for (uint64_t i = 0; i < nl; ++i) {
            LineState ls;
            ls.lineId = r.u32();
            visitLine(v, ls.line);
            const uint64_t nf = r.count("in-flight");
            for (uint64_t j = 0; j < nf; ++j) {
                link::Line::InFlight rec;
                visitInFlight(v, rec);
                ls.line.inFlight.push_back(rec);
            }
            s.lines.push_back(std::move(ls));
        }
        r.expectEnd("LINS");
    }
    {
        Reader r = next(sect::peri, "PERI");
        const uint64_t np = r.count("peripheral");
        for (uint64_t i = 0; i < np; ++i)
            s.peripherals.push_back(r.blob());
        r.expectEnd("PERI");
    }
    if (have(sect::flts)) {
        Reader r = next(sect::flts, "FLTS");
        ReadV v{r};
        fault::FaultInjector::FaultSnap fs;
        fs.faultSeq = r.u64();
        const uint64_t nt = r.count("fault tap");
        for (uint64_t i = 0; i < nt; ++i) {
            fault::FaultInjector::TapSnap t;
            visitTap(v, t);
            fs.taps.push_back(t);
        }
        const uint64_t ne = r.count("fault event");
        for (uint64_t i = 0; i < ne; ++i) {
            fault::FaultInjector::PlannedSnap e;
            visitPlanned(v, e);
            fs.events.push_back(e);
        }
        r.expectEnd("FLTS");
        s.fault = std::move(fs);
    }
    if (have(sect::scen)) {
        Reader r = next(sect::scen, "SCEN");
        const uint64_t nk = r.count("scenario entry");
        for (uint64_t i = 0; i < nk; ++i) {
            std::string key = r.str();
            s.scenario[std::move(key)] = r.str();
        }
        r.expectEnd("SCEN");
    }
    if (si != sections.size())
        throw SnapError(fmt("unexpected trailing section (tag {})",
                            hexWord(sections[si].tag)));
    return s;
}

void
writeFile(const std::string &path, const Snapshot &s)
{
    const std::vector<uint8_t> bytes = encode(s);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        throw SnapError(fmt("cannot open {} for writing", path));
    f.write(reinterpret_cast<const char *>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
    if (!f)
        throw SnapError(fmt("short write to {}", path));
}

Snapshot
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw SnapError(fmt("cannot open {}", path));
    std::vector<uint8_t> bytes(
        (std::istreambuf_iterator<char>(f)),
        std::istreambuf_iterator<char>());
    if (f.bad())
        throw SnapError(fmt("read error on {}", path));
    return decode(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------
// Diff and info
// ---------------------------------------------------------------------

namespace
{

using Rows = std::vector<std::pair<std::string, std::string>>;

std::string
blobSummary(const std::vector<uint8_t> &b)
{
    return fmt("{} bytes, crc {}", b.size(),
               hexWord(crc32(b.data(), b.size())));
}

/** Flatten a snapshot into named rows in a stable depth-first order.
 *  `dispatched` is deliberately absent: it counts dispatches on one
 *  queue instance, which a restored continuation legitimately resets. */
Rows
record(const Snapshot &s)
{
    Rows rows;
    RecordV v{rows, ""};
    v.f("meta.now", s.now);
    v.f("topo.nodeCount", static_cast<uint64_t>(s.nodes.size()));
    v.f("topo.connCount", static_cast<uint64_t>(s.conns.size()));
    for (size_t i = 0; i < s.nodes.size(); ++i) {
        v.pre = "topo.node" + std::to_string(i) + ".";
        visitTopoNode(v, s.nodes[i]);
    }
    for (size_t i = 0; i < s.conns.size(); ++i) {
        v.pre = "topo.conn" + std::to_string(i) + ".";
        visitConn(v, s.conns[i]);
    }
    for (size_t i = 0; i < s.states.size(); ++i) {
        const NodeState &st = s.states[i];
        const std::string node = "node" + std::to_string(i) + ".";
        v.pre = node + "cpu.";
        visitCpu(v, st.cpu);
        v.pre = node;
        v.f("memBytes", st.memBytes);
        v.f("dirtyPages", static_cast<uint64_t>(st.pages.size()));
        for (const MemPage &pg : st.pages)
            rows.emplace_back(node + "page" + std::to_string(pg.index),
                              blobSummary(pg.bytes));
    }
    for (size_t i = 0; i < s.engines.size(); ++i) {
        v.pre = "engine" + std::to_string(i) + ".";
        visitEngine(v, s.engines[i]);
    }
    for (size_t i = 0; i < s.lines.size(); ++i) {
        const LineState &ls = s.lines[i];
        v.pre = "line" + std::to_string(i) + ".";
        v.f("lineId", ls.lineId);
        visitLine(v, ls.line);
        v.f("inFlightCount",
            static_cast<uint64_t>(ls.line.inFlight.size()));
        for (size_t j = 0; j < ls.line.inFlight.size(); ++j) {
            v.pre = "line" + std::to_string(i) + ".inflight" +
                    std::to_string(j) + ".";
            visitInFlight(v, ls.line.inFlight[j]);
        }
    }
    for (size_t i = 0; i < s.peripherals.size(); ++i)
        rows.emplace_back("peripheral" + std::to_string(i),
                          blobSummary(s.peripherals[i]));
    if (s.fault) {
        v.pre = "fault.";
        v.f("faultSeq", s.fault->faultSeq);
        for (size_t i = 0; i < s.fault->taps.size(); ++i) {
            v.pre = "fault.tap" + std::to_string(i) + ".";
            visitTap(v, s.fault->taps[i]);
        }
        for (size_t i = 0; i < s.fault->events.size(); ++i) {
            v.pre = "fault.event" + std::to_string(i) + ".";
            visitPlanned(v, s.fault->events[i]);
        }
    }
    for (const auto &kv : s.scenario)
        rows.emplace_back("scenario." + kv.first, kv.second);
    return rows;
}

bool
isCacheStat(const std::string &path)
{
    return path.find("ctrs.icache") != std::string::npos ||
           path.find("ctrs.fused") != std::string::npos ||
           path.find("ctrs.blockc") != std::string::npos;
}

bool
endsWith(const std::string &path, const char *suffix)
{
    const size_t n = std::char_traits<char>::length(suffix);
    return path.size() >= n &&
           path.compare(path.size() - n, n, suffix) == 0;
}

bool
isSchedulerSeq(const std::string &path)
{
    return endsWith(path, ".stepSeq") || endsWith(path, ".selfSeq") ||
           endsWith(path, ".timerSeq") ||
           endsWith(path, ".lastInstrStart");
}

} // namespace

std::vector<Divergence>
divergences(const Snapshot &a, const Snapshot &b,
            const DiffOptions &opts)
{
    std::vector<Divergence> out;
    const Rows ra = record(a);
    const Rows rb = record(b);
    const size_t n = std::min(ra.size(), rb.size());
    for (size_t i = 0; i < n; ++i) {
        if (ra[i].first != rb[i].first) {
            // structure mismatch: positional comparison stops here
            out.push_back(
                Divergence{ra[i].first + " / " + rb[i].first,
                           ra[i].second, rb[i].second});
            return out;
        }
        if (opts.ignoreCacheStats && isCacheStat(ra[i].first))
            continue;
        if (opts.ignoreSchedulerSeqs && isSchedulerSeq(ra[i].first))
            continue;
        if (ra[i].second != rb[i].second)
            out.push_back(Divergence{ra[i].first, ra[i].second,
                                     rb[i].second});
    }
    if (ra.size() != rb.size())
        out.push_back(Divergence{"field count",
                                 std::to_string(ra.size()),
                                 std::to_string(rb.size())});
    return out;
}

std::optional<Divergence>
firstDivergence(const Snapshot &a, const Snapshot &b,
                const DiffOptions &opts)
{
    const std::vector<Divergence> all = divergences(a, b, opts);
    if (all.empty())
        return std::nullopt;
    return all.front();
}

std::string
info(const Snapshot &s)
{
    size_t dirty_pages = 0, dirty_bytes = 0, in_flight = 0;
    for (const NodeState &st : s.states) {
        dirty_pages += st.pages.size();
        for (const MemPage &pg : st.pages)
            dirty_bytes += pg.bytes.size();
    }
    for (const LineState &ls : s.lines)
        in_flight += ls.line.inFlight.size();
    uint64_t instructions = 0;
    for (const NodeState &st : s.states)
        instructions += st.cpu.ctrs.instructions;

    std::string out;
    out += fmt("snapshot format v{} at tick {}\n", formatVersion,
               s.now);
    out += fmt("  nodes: {} ({} wiring calls, {} engines, {} lines)\n",
               s.nodes.size(), s.conns.size(), s.engines.size(),
               s.lines.size());
    out += fmt("  memory: {} dirty pages, {} bytes\n", dirty_pages,
               dirty_bytes);
    out += fmt("  in-flight link callbacks: {}\n", in_flight);
    out += fmt("  instructions executed: {}\n", instructions);
    out += fmt("  peripherals: {}\n", s.peripherals.size());
    if (s.fault)
        out += fmt("  fault: {} line taps, {} pending node events\n",
                   s.fault->taps.size(), s.fault->events.size());
    for (const auto &kv : s.scenario)
        out += fmt("  scenario.{} = {}\n", kv.first, kv.second);
    return out;
}

} // namespace transputer::snap
