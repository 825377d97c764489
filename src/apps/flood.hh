/**
 * @file
 * A scalable flood/reduce workload: the wave propagation benchmark
 * behind the 100k-node scale runs (bench/bench_scale.cpp).
 *
 * A w x h array of transputers spans a tree rooted at the corner
 * (requests travel east along row 0 and south down every column --
 * the same spanning tree as the paper's Figure 8 search array).  The
 * host injects a wave key at the root; every node forwards the key
 * to its children, contributes 1, and the counts reduce back up the
 * tree, so the root reports exactly w*h per wave.  Outside the
 * travelling wavefront every node is idle (blocked on its parent
 * channel), which is precisely the regime the parallel engine's shard
 * windows (src/par) and the compact node state (lazy memory pages,
 * on-demand icache) are built for.
 *
 * Node programs are pure functions of the node's *position class*
 * (parent direction, which children exist), not of its index: an
 * array of any size boots from at most eight compiled images, so
 * constructing 100k nodes costs eight occam compilations plus one
 * small image copy per node.
 */

#ifndef TRANSPUTER_APPS_FLOOD_HH
#define TRANSPUTER_APPS_FLOOD_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/scale_node.hh"
#include "net/network.hh"
#include "net/peripherals.hh"

namespace transputer::apps
{

/** Configuration of the flood array. */
struct FloodConfig
{
    int width = 32;
    int height = 32;
    /**
     * Add torus wrap-around links (idle as far as the spanning tree
     * is concerned, but they change the shard adjacency the parallel
     * engine sees).  The column-0 south wrap is left out: it would
     * claim the root's north link, where the host peripheral lives.
     */
    bool wrap = false;
    /**
     * Run the network to quiescence (every node blocked on its
     * parent channel) inside the constructor, so wave timings
     * measure the flood alone.  The scale bench turns this off and
     * lets the measured parallel run cover program start-up too:
     * injecting before the nodes settle is safe (the link engines
     * buffer the host's bytes until the root asks for them).
     */
    bool settle = true;
    core::Config node = scaleNodeConfig(); ///< apps/scale_node.hh
};

/** One reduced wave total, as it arrived at the host. */
struct FloodAnswer
{
    Word count; ///< nodes reached (the whole array: w*h)
    Tick when;  ///< simulation time the total reached the host
};

/** The running flood array. */
class Flood
{
  public:
    explicit Flood(const FloodConfig &cfg);
    ~Flood();

    net::Network &network() { return *net_; }
    const FloodConfig &config() const { return cfg_; }

    /** The host-side link peripheral on the root's north link. */
    net::ConsoleSink &host() { return *host_; }

    /** What every wave must reduce to. */
    Word
    expectedCount() const
    {
        return static_cast<Word>(cfg_.width) *
               static_cast<Word>(cfg_.height);
    }

    /** Queue a wave key into the root node. */
    void inject(Word wave);

    /**
     * Run (serially) until n answers have arrived or the limit
     * passes.  Parallel runs drive network().run(limit, opts)
     * directly; answers accumulate the same way.
     */
    void runUntilAnswers(size_t n, Tick limit = 60'000'000'000);

    const std::vector<FloodAnswer> &answers() const { return answers_; }

    /** The occam program of node (x, y) (for inspection). */
    std::string nodeProgram(int x, int y) const;

  private:
    int nodeId(int x, int y) const { return y * cfg_.width + x; }
    /** Position class of (x, y): parent direction + children. */
    int programClass(int x, int y) const;

    FloodConfig cfg_;
    std::unique_ptr<net::Network> net_;
    std::vector<int> nodes_;
    std::unique_ptr<net::ConsoleSink> host_;
    std::vector<FloodAnswer> answers_;
    std::vector<uint8_t> pendingBytes_;
};

} // namespace transputer::apps

#endif // TRANSPUTER_APPS_FLOOD_HH
