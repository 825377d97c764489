#include "fault/fault.hh"

#include "base/logging.hh"
#include "core/transputer.hh"
#include "obs/trace.hh"

namespace transputer::fault
{

/**
 * The per-line decision source.  Every probabilistic draw is guarded
 * by its (run-constant) config field, so the PRNG consumption -- and
 * with it every later decision -- is a pure function of the packet
 * sequence on this line, which the simulation engine keeps identical
 * between serial and shard-parallel runs.
 */
struct FaultInjector::Tap final : link::LineFaultTap
{
    Tap(const LineFaultConfig &c, uint64_t seed, link::Line *l,
        core::Transputer *src)
        : cfg(c), rng(seed), line(l), srcCpu(src)
    {}

    link::FaultAction
    onDataPacket(Tick at, uint8_t byte) override
    {
        link::FaultAction fa;
        if (cfg.stuckFrom > 0 && at >= cfg.stuckFrom) {
            fa.drop = true;
            mark(obs::Ev::FaultDrop, byte, 1);
            return fa;
        }
        if (cfg.dataLoss > 0 && rng.chance(cfg.dataLoss)) {
            fa.drop = true;
            mark(obs::Ev::FaultDrop, byte, 1);
            return fa;
        }
        if (cfg.corrupt > 0 && rng.chance(cfg.corrupt)) {
            fa.flip = static_cast<uint8_t>(rng.range(1, 255));
            mark(obs::Ev::FaultCorrupt, byte, fa.flip);
        }
        if (cfg.jitterChance > 0 && cfg.jitterMax > 0 &&
            rng.chance(cfg.jitterChance)) {
            fa.jitter = rng.range(1, static_cast<int64_t>(cfg.jitterMax));
            mark(obs::Ev::FaultJitter, byte,
                 static_cast<uint64_t>(fa.jitter));
        }
        return fa;
    }

    link::FaultAction
    onAckPacket(Tick at) override
    {
        link::FaultAction fa;
        if (cfg.stuckFrom > 0 && at >= cfg.stuckFrom) {
            fa.drop = true;
            mark(obs::Ev::FaultDrop, 0, 0);
            return fa;
        }
        if (cfg.ackLoss > 0 && rng.chance(cfg.ackLoss)) {
            fa.drop = true;
            mark(obs::Ev::FaultDrop, 0, 0);
            return fa;
        }
        if (cfg.jitterChance > 0 && cfg.jitterMax > 0 &&
            rng.chance(cfg.jitterChance)) {
            fa.jitter = rng.range(1, static_cast<int64_t>(cfg.jitterMax));
            mark(obs::Ev::FaultJitter, 0,
                 static_cast<uint64_t>(fa.jitter));
        }
        return fa;
    }

    /** Fault mark in the sending node's trace ring (Perfetto). */
    void
    mark(obs::Ev ev, uint64_t a, uint64_t b)
    {
        if (srcCpu)
            srcCpu->traceLink(ev, a, b, line->lineId());
    }

    LineFaultConfig cfg;
    Random rng;
    link::Line *line;
    core::Transputer *srcCpu;
};

FaultInjector::FaultInjector() = default;

FaultInjector::~FaultInjector() { disarm(); }

void
FaultInjector::arm(net::Network &net, const FaultPlan &plan)
{
    TRANSPUTER_ASSERT(!net_, "injector already armed");
    net_ = &net;

    for (const auto &lr : net.lines()) {
        const LineFaultConfig &cfg =
            plan.configFor(lr.srcNode, lr.dstNode);
        if (!cfg.any())
            continue;
        // seed per line id: independent streams, and stable across
        // serial/parallel runs of the same wiring
        const uint64_t seed =
            plan.seed * 0x9E3779B97F4A7C15ull + lr.line->lineId();
        taps_.push_back(std::make_unique<Tap>(
            cfg, seed, lr.line, &net.node(lr.srcNode)));
        lr.line->setFaultTap(taps_.back().get());
    }

    auto &q = net.queue();
    for (const auto &kv : plan.nodes) {
        const NodeFaultConfig &nc = kv.second;
        if (nc.stallAt > 0 && nc.stallFor > 0) {
            TRANSPUTER_ASSERT(nc.stallAt >= q.now(),
                              "node stall planned in the past");
            scheduleNodeEvent(
                net, Planned{sim::invalidEventId, kv.first, 0,
                             nc.stallAt, nc.stallAt + nc.stallFor,
                             ++faultSeq_});
        }
        if (nc.killAt > 0) {
            TRANSPUTER_ASSERT(nc.killAt >= q.now(),
                              "node kill planned in the past");
            scheduleNodeEvent(net,
                              Planned{sim::invalidEventId, kv.first,
                                      1, nc.killAt, 0, ++faultSeq_});
        }
    }
}

void
FaultInjector::scheduleNodeEvent(net::Network &net, const Planned &p)
{
    core::Transputer &node = net.node(p.node);
    auto &q = net.queue();
    Planned rec = p;
    const sim::EventKey key{node.actor(), sim::chanFault, p.seq};
    if (p.kind == 0) {
        rec.id = q.schedule(p.when, key, [&node, until = p.until] {
            node.stall(until);
        });
    } else {
        // a kill silences the whole station: the CPU, every endpoint
        // co-located with it (link engines and peripherals such as
        // routing switch ports), and both directions of every attached
        // line.  Each outgoing line first carries a peer-death
        // notification -- delivered through the normal routed path, so
        // neighbours observe the death promptly and deterministically
        // instead of timing out message by message -- and is then
        // latched dead.
        std::vector<link::LinkEndpoint *> eps;
        for (const auto &er : net.endpoints())
            if (er.homeNode == p.node)
                eps.push_back(er.ep);
        rec.id = q.schedule(
            p.when, key, [&node, eps = std::move(eps)] {
                node.kill();
                for (auto *ep : eps)
                    ep->tx().transmitPeerDeath();
                for (auto *ep : eps)
                    ep->onHostKilled();
            });
    }
    nodeEvents_.push_back(rec);
}

void
FaultInjector::disarm()
{
    if (!net_)
        return;
    for (const auto &lr : net_->lines())
        for (const auto &tap : taps_)
            if (lr.line == tap->line)
                lr.line->setFaultTap(nullptr);
    // node events may have migrated to shard queues and back; their
    // ids stay valid on whichever queue currently holds them, and the
    // master holds everything between runs
    for (const Planned &p : nodeEvents_)
        net_->queue().cancel(p.id);
    nodeEvents_.clear();
    taps_.clear();
    net_ = nullptr;
}

// ---------------------------------------------------------------------
// checkpoint/restore (src/snap)
// ---------------------------------------------------------------------

FaultInjector::FaultSnap
FaultInjector::exportSnap() const
{
    TRANSPUTER_ASSERT(net_, "snapshot of an unarmed injector");
    FaultSnap s;
    s.faultSeq = faultSeq_;
    for (const auto &tap : taps_)
        s.taps.push_back(
            TapSnap{tap->line->lineId(), tap->rng.state()});
    for (const Planned &p : nodeEvents_) {
        if (!net_->queue().isPending(p.id))
            continue; // already fired: its effect is in the state
        s.events.push_back(
            PlannedSnap{p.node, p.kind, p.when, p.until, p.seq});
    }
    return s;
}

size_t
FaultInjector::pendingNodeEvents() const
{
    if (!net_)
        return 0;
    size_t n = 0;
    for (const Planned &p : nodeEvents_)
        if (net_->queue().isPending(p.id))
            ++n;
    return n;
}

void
FaultInjector::armRestored(net::Network &net, const FaultPlan &plan,
                           const FaultSnap &snap)
{
    TRANSPUTER_ASSERT(!net_, "injector already armed");
    net_ = &net;
    for (const auto &lr : net.lines()) {
        const LineFaultConfig &cfg =
            plan.configFor(lr.srcNode, lr.dstNode);
        if (!cfg.any())
            continue;
        const uint64_t seed =
            plan.seed * 0x9E3779B97F4A7C15ull + lr.line->lineId();
        taps_.push_back(std::make_unique<Tap>(
            cfg, seed, lr.line, &net.node(lr.srcNode)));
        lr.line->setFaultTap(taps_.back().get());
    }
    if (taps_.size() != snap.taps.size())
        fatal("fault plan arms {} line taps but the snapshot saved "
              "{}: the plan differs from the one the snapshot was "
              "taken under",
              taps_.size(), snap.taps.size());
    for (const TapSnap &ts : snap.taps) {
        Tap *match = nullptr;
        for (const auto &tap : taps_) {
            if (tap->line->lineId() == ts.lineId) {
                match = tap.get();
                break;
            }
        }
        if (!match)
            fatal("snapshot has a fault tap on line {} the plan does "
                  "not arm", ts.lineId);
        // resume the decision stream mid-sequence
        match->rng.setState(ts.rngState);
    }
    faultSeq_ = snap.faultSeq;
    for (const PlannedSnap &e : snap.events)
        scheduleNodeEvent(net,
                          Planned{sim::invalidEventId, e.node, e.kind,
                                  e.when, e.until, e.seq});
}

FaultInjector::Stats
FaultInjector::stats() const
{
    Stats s;
    for (const auto &tap : taps_) {
        s.dataDropped += tap->line->dataDropped();
        s.acksDropped += tap->line->acksDropped();
        s.dataCorrupted += tap->line->dataCorrupted();
        s.jitter += tap->line->faultJitter();
    }
    return s;
}

} // namespace transputer::fault
