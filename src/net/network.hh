/**
 * @file
 * Multi-transputer systems (paper section 4).
 *
 * A Network owns the event queue, the transputers and the link
 * engines, and provides wiring, program loading and co-simulation.
 * "A system is constructed from a collection of transputers which
 * operate concurrently and communicate through the standard links"
 * (section 2.1); peripherals attach to links exactly like transputers
 * do, which is how the paper's device controllers (Figure 6) are
 * modelled.
 */

#ifndef TRANSPUTER_NET_NETWORK_HH
#define TRANSPUTER_NET_NETWORK_HH

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/transputer.hh"
#include "link/link.hh"
#include "sim/event_queue.hh"
#include "tasm/assembler.hh"

namespace transputer::net
{

/** Conventional compass numbering for the four links. */
namespace dir
{
constexpr int north = 0;
constexpr int east = 1;
constexpr int south = 2;
constexpr int west = 3;
} // namespace dir

class Peripheral;

/** How Network::run(limit, RunOptions) maps nodes onto shards. */
enum class Partition
{
    Contiguous, ///< node i -> shard i * threads / nodes (blocks)
    Striped,    ///< node i -> shard i % threads (round robin)
    Custom,     ///< RunOptions::shardOf supplies the map
};

/** Options for a (possibly parallel) simulation run. */
struct RunOptions
{
    int threads = 1;      ///< number of shards / worker threads
    Partition partition = Partition::Contiguous;
    /** Custom node -> shard map (Partition::Custom only). */
    std::vector<int> shardOf;
    /**
     * Force event tracing on/off on every node for this run; unset
     * leaves each node's own setting alone.  Tracing never perturbs
     * the simulation (src/obs).
     */
    std::optional<bool> trace;
    /**
     * Force the guest sampling profiler on/off on every node for this
     * run; unset leaves each node's own setting alone.  Sampling is
     * keyed off the simulated clock, so profiles are bit-identical
     * between serial and parallel runs and the simulation itself is
     * unperturbed (src/obs/profile.hh).
     */
    std::optional<bool> profile;
    /** Force the metrics time-series on/off on every node for this
     *  run; unset leaves each node's own setting alone. */
    std::optional<bool> timeseries;
    /**
     * Per-shard-pair epoch windows (the conservative-DES lookahead
     * bound, src/par/parallel_engine.hh): each shard's window end is
     * computed from the other shards' published next-event times plus
     * the all-pairs shortest link lead between the shards, so shards
     * that are far apart in the topology (or idle) batch whole epochs
     * of events per barrier round.  Off: every shard uses the legacy
     * global window [globalNext, globalNext + minimum cut lead).
     * Both modes are bit-identical to the serial engine; this switch
     * exists so benchmarks can compare them.
     */
    bool epochWindows = true;
};

/** A collection of transputers wired by links, with one time base. */
class Network
{
  public:
    Network() = default;
    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;
    /** Drops the pending events first, releasing every node's static
     *  events in one sweep instead of each one searching the heap as
     *  its owner is destroyed. */
    ~Network() { queue_.clear(); }

    sim::EventQueue &queue() { return queue_; }

    /** Add a transputer; returns its node index. */
    int
    addTransputer(const core::Config &cfg = {}, std::string name = "")
    {
        if (name.empty())
            name = "tp" + std::to_string(nodes_.size());
        nodes_.push_back(std::make_unique<core::Transputer>(
            queue_, cfg, std::move(name)));
        nodes_.back()->setActor(++nextActor_);
        nodeEngines_.emplace_back();
        topologyDirty_ = true;
        return static_cast<int>(nodes_.size() - 1);
    }

    core::Transputer &node(int i) { return *nodes_.at(i); }
    size_t size() const { return nodes_.size(); }

    /**
     * Wire link la of node a to link lb of node b (both directions).
     */
    void
    connect(int a, int la, int b, int lb,
            const link::WireConfig &wire = {},
            link::AckMode ack = link::AckMode::Overlap)
    {
        auto ea = std::make_unique<link::LinkEngine>(node(a), la, wire,
                                                     ack);
        auto eb = std::make_unique<link::LinkEngine>(node(b), lb, wire,
                                                     ack);
        ea->setActor(node(a).actor());
        eb->setActor(node(b).actor());
        link::LinkEngine::connect(*ea, *eb);
        registerLine(ea->tx(), a, b);
        registerLine(eb->tx(), b, a);
        endpoints_.push_back(EndpointRec{ea.get(), a});
        endpoints_.push_back(EndpointRec{eb.get(), b});
        indexEngine(a, engines_.size());
        engines_.push_back(std::move(ea));
        indexEngine(b, engines_.size());
        engines_.push_back(std::move(eb));
        topologyDirty_ = true;
    }

    /**
     * Attach a peripheral to link l of node n.  The transputer-side
     * link engine is created here; the peripheral is the other end.
     */
    link::LinkEngine &attachPeripheral(int n, int l, Peripheral &p,
                                       const link::WireConfig &wire = {});

    /**
     * Wire two peripheral endpoints directly to each other (a trunk
     * line of the routing fabric, src/route: switch port to switch
     * port, no transputer on either end).  Each endpoint is co-located
     * with -- shares the shard, fault domain and kill fate of -- its
     * given home node; the line pair is registered as (a, b)/(b, a),
     * so per-pair fault plans and the parallel engine's cut detection
     * see the same topology a transputer-to-transputer link would
     * expose.
     */
    void connectPeripherals(int a, Peripheral &pa, int b,
                            Peripheral &pb,
                            const link::WireConfig &wire = {});

    /** Copy an assembled image into a node's memory. */
    void
    load(int n, const tasm::Image &img)
    {
        node(n).memory().load(img.origin, img.bytes.data(),
                              img.bytes.size());
    }

    /**
     * Load an image and boot the node at its entry label, with the
     * initial workspace placed above the image plus below_words of
     * headroom for calls and descheduling slots.
     */
    void
    bootImage(int n, const tasm::Image &img,
              const std::string &entry = "start", int below_words = 64)
    {
        load(n, img);
        auto &t = node(n);
        const Word wptr = t.shape().index(
            t.shape().wordAlign(img.end() + t.shape().bytes - 1),
            below_words);
        t.boot(img.symbol(entry), wptr);
    }

    /** True when every node is idle or halted. */
    bool
    quiescent() const
    {
        for (const auto &n : nodes_)
            if (n->state() == core::CpuState::Running)
                return false;
        return true;
    }

    /**
     * Run the simulation.
     * @param limit stop at this tick (default: run to quiescence).
     * @return the simulated time reached.
     */
    Tick
    run(Tick limit = maxTick)
    {
        topology();
        if (limit == maxTick) {
            queue_.runToQuiescence();
        } else {
            // bound the CPUs' instruction run-ahead at the limit, so
            // how far each CPU free-runs past the last event is a
            // function of the limit alone (and in particular the same
            // in serial and shard-parallel runs)
            queue_.setHorizon(limit);
            queue_.runUntil(limit);
            queue_.setHorizon(maxTick);
        }
        if (postRun_)
            postRun_(*this);
        return queue_.now();
    }

    /**
     * Run the simulation on opts.threads shards (conservative
     * parallel discrete-event simulation, src/par).  Bit-identical to
     * the serial run(limit).  Defined in src/par/parallel_engine.cc:
     * callers must link transputer_par.
     */
    Tick run(Tick limit, const RunOptions &opts);

    /** Visit every link engine (tracing, statistics). */
    template <typename Fn>
    void
    forEachEngine(Fn &&fn)
    {
        for (auto &e : engines_)
            fn(*e);
    }

    /**
     * Arm a link-health watchdog on every link engine (src/fault): a
     * transfer that stalls for `timeout` ticks is abandoned and the
     * blocked process released, turning injected losses and dead
     * neighbours into short/unacknowledged messages that frame-level
     * software (fault::ReliableChannel) detects and retries.  Zero
     * disables supervision (the strict hardware model, the default).
     */
    void
    setLinkWatchdogs(Tick timeout)
    {
        for (auto &e : engines_)
            e->setWatchdog(timeout);
    }

    /** @name Wiring introspection (src/par, tests) */
    ///@{
    /** One directional line and the node indices it connects. */
    struct LineRec
    {
        link::Line *line;
        int srcNode; ///< node owning the sending endpoint
        int dstNode; ///< node owning the receiving endpoint
    };

    /** A link endpoint and the node it is co-located with. */
    struct EndpointRec
    {
        link::LinkEndpoint *ep;
        int homeNode;
    };

    const std::vector<LineRec> &lines() const { return lines_; }
    const std::vector<EndpointRec> &endpoints() const
    {
        return endpoints_;
    }

    /** Link engines in creation order (src/snap serializes them by
     *  this index; the order is a function of the wiring calls, so a
     *  rebuilt identical topology indexes identically). */
    size_t engineCount() const { return engines_.size(); }
    link::LinkEngine &engine(size_t i) { return *engines_.at(i); }
    const link::LinkEngine &engine(size_t i) const
    {
        return *engines_.at(i);
    }
    ///@}

    /**
     * A human-readable status report: per-node execution state and
     * counters plus aggregate link traffic.  Useful when a run ends
     * unexpectedly (deadlock diagnosis): an Idle node whose program
     * has not finished is blocked on a channel, timer or link.
     */
    std::string describe() const;

    /** @name Observability (src/obs) */
    ///@{
    /** Enable/disable event tracing on every node. */
    void
    setTraceEnabled(bool on)
    {
        for (auto &n : nodes_)
            n->setTraceEnabled(on);
    }

    /** Enable/disable the guest sampling profiler on every node. */
    void
    setProfileEnabled(bool on)
    {
        for (auto &n : nodes_)
            n->setProfileEnabled(on);
    }

    /** Enable/disable the metrics time-series on every node. */
    void
    setTimeseriesEnabled(bool on)
    {
        for (auto &n : nodes_)
            n->setTimeseriesEnabled(on);
    }

    /** Enable/disable the flight recorder on every node. */
    void
    setFlightEnabled(bool on)
    {
        for (auto &n : nodes_)
            n->setFlightEnabled(on);
    }

    /**
     * Install a hook that runs after every run() (serial or
     * parallel) with the network quiescent -- the layering seam that
     * lets src/obs arm post-mortem evaluation (flight-recorder
     * auto-dump, obs::armFlightDump) without net depending on obs.
     * One hook; installing replaces the previous one, empty clears.
     */
    void
    setPostRunHook(std::function<void(Network &)> hook)
    {
        postRun_ = std::move(hook);
    }

    /**
     * Counter snapshot of node i, including the byte totals of the
     * link engines attached to it.
     */
    obs::Counters
    nodeCounters(int i) const
    {
        obs::Counters c = nodes_.at(i)->counters();
        // per-node engine index: whole-network sweeps (counters(),
        // dumpMetrics) stay linear in the engine count instead of
        // quadratic, which matters at 100k nodes
        for (const uint32_t ei : nodeEngines_.at(i)) {
            link::LinkEngine *const e = engines_[ei].get();
            c.linkBytesOut += e->bytesSent();
            c.linkBytesIn += e->bytesReceived();
            c.linkOutAborts += e->outAborts();
            c.linkInAborts += e->inAborts();
            c.linkStaleAcks += e->staleAcks();
            c.linkOverrunDrops += e->overrunDrops();
            c.linkDeadDrops += e->deadDrops();
            // the outgoing line is owned (and driven) by this node's
            // engine, so its injected faults are charged here
            const link::Line &tx = e->tx();
            c.faultDataDrops += tx.dataDropped();
            c.faultAckDrops += tx.acksDropped();
            c.faultCorrupts += tx.dataCorrupted();
            c.faultJitterTicks += tx.faultJitter();
        }
        return c;
    }

    /** Aggregate counters over the whole network. */
    obs::Counters
    counters() const
    {
        obs::Counters total;
        for (size_t i = 0; i < nodes_.size(); ++i)
            total += nodeCounters(static_cast<int>(i));
        return total;
    }

    /**
     * Flat metrics JSON: the aggregate counters, per-node counters,
     * and master event-queue statistics.  Consumed by the bench suite
     * and tools/tprof.  NB the queue numbers describe the master
     * queue: a shard-parallel run dispatches on shard-local queues and
     * reports its own totals through par::RunStats instead.
     */
    std::string dumpMetrics() const;
    ///@}

    /**
     * The per-node lookahead table of the current wiring
     * (sim::Topology), rebuilt first if the wiring changed since it
     * was last built.  The master queue holds it; a parallel run
     * (src/par) hands the same table to every shard queue.
     */
    const std::shared_ptr<const sim::Topology> &
    topology()
    {
        if (topologyDirty_)
            refreshTopology();
        return queue_.topology();
    }

  private:
    /**
     * Build the lookahead table from lines_ and register it with the
     * master queue (sim::EventQueue::setTopology): every actor is
     * grouped under its node (peripherals under their host node), and
     * each node lists the lines into it with their minimum delivery
     * lead, so a run can batch each CPU past other nodes' events by
     * the lead of the wires between them.  O(lines log lines), at any
     * network size.
     */
    void refreshTopology();

    void
    registerLine(link::Line &line, int src, int dst)
    {
        line.setLineId(++nextLineId_);
        // the endpoint this line delivers to learns the id, so both
        // sides of a message can name the wire in trace records
        if (auto *remote = line.remote())
            remote->setRxLineId(nextLineId_);
        lines_.push_back(LineRec{&line, src, dst});
    }

    /** Record that engines_[engine_idx] is attached to node home. */
    void
    indexEngine(int home, size_t engine_idx)
    {
        if (nodeEngines_.size() <= static_cast<size_t>(home))
            nodeEngines_.resize(static_cast<size_t>(home) + 1);
        nodeEngines_[static_cast<size_t>(home)].push_back(
            static_cast<uint32_t>(engine_idx));
    }

    sim::EventQueue queue_;
    std::vector<std::unique_ptr<core::Transputer>> nodes_;
    std::vector<std::unique_ptr<link::LinkEngine>> engines_;
    /** Indices into engines_ of each node's attached engines. */
    std::vector<std::vector<uint32_t>> nodeEngines_;
    std::vector<LineRec> lines_;
    std::vector<EndpointRec> endpoints_;
    uint32_t nextActor_ = 0;  ///< 0 reserved for unkeyed events
    uint32_t nextLineId_ = 0; ///< 0 reserved (no line)
    bool topologyDirty_ = true; ///< wiring changed since last run
    std::function<void(Network &)> postRun_; ///< see setPostRunHook
};

/** @name Topology builders
 *  Each creates n transputers in a fresh or existing network and
 *  wires them with the compass convention above.
 */
///@{

/** A 1-D pipeline: node i east <-> node i+1 west. */
std::vector<int> buildPipeline(Network &net, int n,
                               const core::Config &cfg = {},
                               const link::WireConfig &wire = {});

/** A ring: a pipeline closed east-to-west. */
std::vector<int> buildRing(Network &net, int n,
                           const core::Config &cfg = {},
                           const link::WireConfig &wire = {});

/**
 * A w x h mesh (Figure 8's square array): node (x, y) = y*w + x,
 * east-west and north-south neighbours connected.
 */
std::vector<int> buildGrid(Network &net, int w, int h,
                           const core::Config &cfg = {},
                           const link::WireConfig &wire = {});

/** A w x h torus: the mesh with wrap-around connections. */
std::vector<int> buildTorus(Network &net, int w, int h,
                            const core::Config &cfg = {},
                            const link::WireConfig &wire = {});

/** A d-dimensional hypercube, d <= 4 (one link per dimension). */
std::vector<int> buildHypercube(Network &net, int d,
                                const core::Config &cfg = {},
                                const link::WireConfig &wire = {});

/**
 * A complete binary tree with depth levels: link north is the parent,
 * links east/west the children.
 */
std::vector<int> buildBinaryTree(Network &net, int depth,
                                 const core::Config &cfg = {},
                                 const link::WireConfig &wire = {});
///@}

} // namespace transputer::net

#endif // TRANSPUTER_NET_NETWORK_HH
