#include "net/network.hh"

#include <algorithm>

#include <sstream>

#include "base/format.hh"
#include "isa/cycles.hh"
#include "net/peripherals.hh"

namespace transputer::net
{

std::string
Network::describe() const
{
    std::ostringstream os;
    os << "network: " << nodes_.size() << " transputer(s), "
       << engines_.size() << " link engine(s), t="
       << queue_.now() / 1000.0 << " us\n";
    for (const auto &n : nodes_) {
        const char *state =
            n->state() == core::CpuState::Running  ? "running"
            : n->state() == core::CpuState::Halted ? "HALTED"
                                                   : "idle";
        os << fmt("  {}: {}, {} instr, {} cycles, t={} us",
                  n->name(), state, n->instructions(), n->cycles(),
                  n->localTime() / 1000.0);
        if (n->errorFlag())
            os << " [error flag]";
        if (n->state() == core::CpuState::Running)
            os << fmt(", Iptr=#{}", hexWord(n->iptr()));
        os << "\n";
    }
    uint64_t sent = 0, received = 0;
    for (const auto &e : engines_) {
        sent += e->bytesSent();
        received += e->bytesReceived();
    }
    os << "  links: " << sent << " bytes sent, " << received
       << " bytes received\n";
    return os.str();
}

std::string
Network::dumpMetrics() const
{
    const sim::EventQueue::Stats q = queue_.stats();
    uint64_t link_bytes = 0;
    for (const auto &e : engines_)
        link_bytes += e->bytesSent();
    std::ostringstream os;
    os << "{\n  \"simulated_ns\": " << q.now << ",\n"
       << "  \"nodes\": " << nodes_.size() << ",\n"
       << "  \"queue\": {\"dispatched\": " << q.dispatched
       << ", \"dispatched_steps\": " << q.dispatchedSteps
       << ", \"dispatched_static\": " << q.dispatchedStatic
       << ", \"dispatched_typed\": " << q.dispatchedTyped
       << ", \"dispatched_closure\": " << q.dispatchedClosure
       << ", \"pending\": " << q.pending
       << ", \"high_water\": " << q.highWater
       << ", \"bounds_computed\": " << q.boundsComputed
       << ", \"bounds_reused\": " << q.boundsReused << "},\n"
       << "  \"links\": {\"bytes\": " << link_bytes
       << ", \"burst_bytes\": " << bursts_.bytes()
       << ", \"bursts\": " << bursts_.opened()
       << ", \"bursts_settled_early\": " << bursts_.settledEarly()
       << "},\n"
       << "  \"total\": " << obs::countersJson(counters()) << ",\n"
       << "  \"per_node\": {\n";
    for (size_t i = 0; i < nodes_.size(); ++i) {
        os << "    \"" << nodes_[i]->name() << "\": "
           << obs::countersJson(nodeCounters(static_cast<int>(i)))
           << (i + 1 < nodes_.size() ? "," : "") << "\n";
    }
    os << "  }\n}\n";
    return os.str();
}

link::LinkEngine &
Network::attachPeripheral(int n, int l, Peripheral &p,
                          const link::WireConfig &wire)
{
    auto engine =
        std::make_unique<link::LinkEngine>(node(n), l, wire);
    engine->setActor(node(n).actor());
    p.setActor(++nextActor_);
    link::LinkEndpoint::join(*engine, p);
    node(n).attachOutputPort(l, engine.get());
    node(n).attachInputPort(l, engine.get());
    // the peripheral is co-located with its host node: both
    // directions of its link are shard-internal by construction
    registerLine(engine->tx(), n, n);
    registerLine(p.tx(), n, n);
    endpoints_.push_back(EndpointRec{engine.get(), n});
    endpoints_.push_back(EndpointRec{&p, n});
    link::LinkEngine &ref = *engine;
    indexEngine(n, engines_.size());
    engines_.push_back(std::move(engine));
    topologyDirty_ = true;
    return ref;
}

void
Network::connectPeripherals(int a, Peripheral &pa, int b,
                            Peripheral &pb,
                            const link::WireConfig & /* endpoints
                            carry their own wire config */)
{
    pa.setActor(++nextActor_);
    pb.setActor(++nextActor_);
    link::LinkEndpoint::join(pa, pb);
    registerLine(pa.tx(), a, b);
    registerLine(pb.tx(), b, a);
    endpoints_.push_back(EndpointRec{&pa, a});
    endpoints_.push_back(EndpointRec{&pb, b});
    topologyDirty_ = true;
}

void
Network::refreshTopology()
{
    topologyDirty_ = false;
    // the burst lists are per node: none may be open across the change
    settleLinks();
    const int n = static_cast<int>(nodes_.size());
    if (n == 0) {
        queue_.setTopology(nullptr);
        bursts_.reset();
        return;
    }
    uint32_t max_actor = 0;
    for (const auto &nd : nodes_)
        max_actor = std::max(max_actor, nd->actor());
    for (const auto &er : endpoints_)
        max_actor = std::max(max_actor, er.ep->actor());
    std::vector<int32_t> group(max_actor + 1, -1);
    for (int i = 0; i < n; ++i)
        group[nodes_[i]->actor()] = i;
    // link engines share their node's actor; peripherals fold into
    // their host node's group, so their events bound the host exactly
    for (const auto &er : endpoints_)
        group[er.ep->actor()] = er.homeNode;
    std::vector<sim::Topology::Line> wires;
    wires.reserve(lines_.size());
    for (const auto &lr : lines_)
        wires.push_back(sim::Topology::Line{
            static_cast<uint32_t>(lr.srcNode),
            static_cast<uint32_t>(lr.dstNode),
            lr.line->minDeliveryLead()});
    // a CPU batch (chanStep) event only executes instructions, and
    // every instruction path to a wire claim charges the suspending
    // side's communication cost to the architectural clock before
    // the link engine sees the request (channelOut/channelIn charge
    // cyc::commSuspend, then requestOutput/requestInput stamp the
    // claim with cpu.localTime()), so a foreign step gets that much
    // extra lead on top of the wire's
    Tick step_extra = maxTick;
    for (const auto &nd : nodes_)
        step_extra = std::min(
            step_extra,
            isa::cycles::commSuspend * nd->config().cyclePeriod);
    queue_.setTopology(sim::Topology::build(
        std::move(group), static_cast<uint32_t>(n), std::move(wires),
        step_extra));
    bursts_.reset();
}

std::vector<int>
buildPipeline(Network &net, int n, const core::Config &cfg,
              const link::WireConfig &wire)
{
    std::vector<int> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(net.addTransputer(cfg));
    for (int i = 0; i + 1 < n; ++i)
        net.connect(ids[i], dir::east, ids[i + 1], dir::west, wire);
    return ids;
}

std::vector<int>
buildRing(Network &net, int n, const core::Config &cfg,
          const link::WireConfig &wire)
{
    auto ids = buildPipeline(net, n, cfg, wire);
    if (n > 1)
        net.connect(ids[n - 1], dir::east, ids[0], dir::west, wire);
    return ids;
}

std::vector<int>
buildGrid(Network &net, int w, int h, const core::Config &cfg,
          const link::WireConfig &wire)
{
    std::vector<int> ids;
    for (int i = 0; i < w * h; ++i)
        ids.push_back(net.addTransputer(cfg));
    for (int y = 0; y < h; ++y) {
        for (int x = 0; x < w; ++x) {
            const int id = ids[y * w + x];
            if (x + 1 < w)
                net.connect(id, dir::east, ids[y * w + x + 1],
                            dir::west, wire);
            if (y + 1 < h)
                net.connect(id, dir::south, ids[(y + 1) * w + x],
                            dir::north, wire);
        }
    }
    return ids;
}

std::vector<int>
buildTorus(Network &net, int w, int h, const core::Config &cfg,
           const link::WireConfig &wire)
{
    auto ids = buildGrid(net, w, h, cfg, wire);
    for (int y = 0; y < h; ++y)
        if (w > 1)
            net.connect(ids[y * w + w - 1], dir::east, ids[y * w],
                        dir::west, wire);
    for (int x = 0; x < w; ++x)
        if (h > 1)
            net.connect(ids[(h - 1) * w + x], dir::south, ids[x],
                        dir::north, wire);
    return ids;
}

std::vector<int>
buildHypercube(Network &net, int d, const core::Config &cfg,
               const link::WireConfig &wire)
{
    TRANSPUTER_ASSERT(d >= 0 && d <= 4,
                      "a transputer has four links: d <= 4");
    const int n = 1 << d;
    std::vector<int> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(net.addTransputer(cfg));
    for (int i = 0; i < n; ++i) {
        for (int k = 0; k < d; ++k) {
            const int j = i ^ (1 << k);
            if (i < j)
                net.connect(ids[i], k, ids[j], k, wire);
        }
    }
    return ids;
}

std::vector<int>
buildBinaryTree(Network &net, int depth, const core::Config &cfg,
                const link::WireConfig &wire)
{
    const int n = (1 << depth) - 1;
    std::vector<int> ids;
    for (int i = 0; i < n; ++i)
        ids.push_back(net.addTransputer(cfg));
    for (int i = 0; i < n; ++i) {
        const int left = 2 * i + 1, right = 2 * i + 2;
        if (left < n)
            net.connect(ids[i], dir::west, ids[left], dir::north,
                        wire);
        if (right < n)
            net.connect(ids[i], dir::east, ids[right], dir::north,
                        wire);
    }
    return ids;
}

} // namespace transputer::net
