/**
 * @file
 * Routed query/flood workload over the virtual-channel fabric
 * (src/route; see DESIGN.md section 4.9).
 *
 * The multi-hop counterpart of apps/dbsearch and apps/flood: a fabric
 * of any Topology (torus, hypercube, ...) where node 0 is the query
 * root and every other node runs a terminal responder.  The external
 * host injects (dest, key) pairs through a console peripheral on the
 * root; the root's occam program sends each key to its destination
 * over the routing fabric (virtual channel 0) and, in PAR, collects
 * whatever the fabric delivers back -- terminal replies (key + 1 from
 * the queried node) and undeliverable notices (control vchan 255) --
 * forwarding both to the host.
 *
 * Because terminals answer to the source field of the message they
 * received, one shared occam image serves every terminal regardless
 * of position, and the root learns which node answered from the
 * packet header, not the payload.  Exactness is checkable end to end:
 * a query to a live node must produce exactly one reply with the
 * right payload (the ARQ dedup makes duplicates impossible), and a
 * query to a dead or partitioned node must produce exactly one
 * undeliverable notice -- never silence.
 */

#ifndef TRANSPUTER_APPS_ROUTEDQUERY_HH
#define TRANSPUTER_APPS_ROUTEDQUERY_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/scale_node.hh"
#include "net/network.hh"
#include "net/peripherals.hh"
#include "route/fabric.hh"

namespace transputer::apps
{

/** Configuration of the routed query fabric. */
struct RoutedQueryConfig
{
    /** Switch topology; node 0 is the root. */
    route::Topology topo = route::Topology::torus(4, 4);
    /** Per-node configuration (small: the programs are tiny). */
    core::Config node = scaleNodeConfig(); ///< apps/scale_node.hh
    link::WireConfig wire;     ///< every host and trunk line
    route::SwitchConfig sw;    ///< ARQ / watchdog tuning
    int consoleLink = 1;       ///< root link wired to the console
    bool settle = true;        ///< run to steady state in the ctor
};

/** One 3-word tuple the root forwarded to the host. */
struct RoutedAnswer
{
    Word src;   ///< replying node (or the unreachable destination)
    Word vchan; ///< 0 = terminal reply, 255 = undeliverable notice
    Word word;  ///< reply payload (key + 1) or the original vchan
    Tick when;  ///< simulation time the tuple reached the host
};

class RoutedQuery
{
  public:
    explicit RoutedQuery(const RoutedQueryConfig &cfg);
    ~RoutedQuery();

    net::Network &network() { return *net_; }
    route::Fabric &fabric() { return *fabric_; }
    const RoutedQueryConfig &config() const { return cfg_; }
    net::ConsoleSink &host() { return *host_; }

    int nodes() const { return fabric_->nodes(); }

    /** Ask node `dest` (1 <= dest < nodes()) to answer `key`. */
    void inject(Word dest, Word key);

    /** Query every terminal (1..nodes()-1) with the same key. */
    void queryAll(Word key);

    /** Run serially until n answer tuples arrived or `limit`. */
    void runUntilAnswers(size_t n, Tick limit = 60'000'000'000);

    const std::vector<RoutedAnswer> &answers() const
    {
        return answers_;
    }

    /** Replies (vchan 0) among the answers. */
    size_t replies() const;
    /** Undeliverable notices (vchan 255) among the answers. */
    size_t undeliverables() const;

    /** The occam programs (for inspection). */
    std::string rootProgram() const;
    std::string terminalProgram() const;

  private:
    RoutedQueryConfig cfg_;
    std::unique_ptr<net::Network> net_;
    std::unique_ptr<route::Fabric> fabric_;
    std::unique_ptr<net::ConsoleSink> host_;
    std::vector<RoutedAnswer> answers_;
    std::vector<uint8_t> pendingBytes_;
    std::vector<Word> pendingWords_;
};

} // namespace transputer::apps

#endif // TRANSPUTER_APPS_ROUTEDQUERY_HH
