#include "apps/flood.hh"

#include <map>

#include "base/format.hh"
#include "net/occam_boot.hh"

namespace transputer::apps
{

namespace
{

/** Encode (parent link, has east child, has south child) in one key. */
int
classKey(int parent, bool has_east, bool has_south)
{
    return parent * 4 + (has_east ? 2 : 0) + (has_south ? 1 : 0);
}

} // namespace

int
Flood::programClass(int x, int y) const
{
    const bool has_east = (y == 0 && x + 1 < cfg_.width);
    const bool has_south = (y + 1 < cfg_.height);
    const int parent =
        (y > 0) ? net::dir::north
                : (x > 0 ? net::dir::west : net::dir::north);
    return classKey(parent, has_east, has_south);
}

std::string
Flood::nodeProgram(int x, int y) const
{
    const bool has_east = (y == 0 && x + 1 < cfg_.width);
    const bool has_south = (y + 1 < cfg_.height);
    const int parent =
        (y > 0) ? net::dir::north
                : (x > 0 ? net::dir::west : net::dir::north);

    // One process per node, no per-node constants: receive the wave
    // key from the parent, forward it down the tree, then reduce the
    // children's totals plus this node's own 1 back up.  The program
    // text depends only on the position class, so any array size
    // boots from a handful of shared compiled images.
    std::string p;
    p += "CHAN up.in, up.out:\n";
    p += fmt("PLACE up.in AT LINK{}IN:\n", parent);
    p += fmt("PLACE up.out AT LINK{}OUT:\n", parent);
    if (has_east) {
        p += "CHAN east.out, east.in:\n";
        p += fmt("PLACE east.out AT LINK{}OUT:\n", net::dir::east);
        p += fmt("PLACE east.in AT LINK{}IN:\n", net::dir::east);
    }
    if (has_south) {
        p += "CHAN south.out, south.in:\n";
        p += fmt("PLACE south.out AT LINK{}OUT:\n", net::dir::south);
        p += fmt("PLACE south.in AT LINK{}IN:\n", net::dir::south);
    }
    p += "VAR key, m, c:\n"
         "WHILE TRUE\n"
         "  SEQ\n"
         "    up.in ? key\n";
    if (has_east)
        p += "    east.out ! key\n";
    if (has_south)
        p += "    south.out ! key\n";
    p += "    m := 1\n";
    if (has_east)
        p += "    east.in ? c\n"
             "    m := m + c\n";
    if (has_south)
        p += "    south.in ? c\n"
             "    m := m + c\n";
    p += "    up.out ! m\n";
    return p;
}

Flood::Flood(const FloodConfig &cfg)
    : cfg_(cfg), net_(std::make_unique<net::Network>())
{
    nodes_ = net::buildGrid(*net_, cfg_.width, cfg_.height, cfg_.node);
    if (cfg_.wrap) {
        const int w = cfg_.width, h = cfg_.height;
        if (w > 2)
            for (int y = 0; y < h; ++y)
                net_->connect(nodes_[nodeId(w - 1, y)], net::dir::east,
                              nodes_[nodeId(0, y)], net::dir::west);
        if (h > 2)
            for (int x = 1; x < w; ++x)
                net_->connect(nodes_[nodeId(x, h - 1)],
                              net::dir::south, nodes_[nodeId(x, 0)],
                              net::dir::north);
    }
    // the host injects waves / collects totals at the root's north
    // link (free even with wrap: the column-0 south wrap is omitted)
    host_ = std::make_unique<net::ConsoleSink>(net_->queue(),
                                               link::WireConfig{});
    net_->attachPeripheral(nodes_[0], net::dir::north, *host_);
    const int bpw = cfg_.node.shape.bytes;
    host_->onByte = [this, bpw](uint8_t b) {
        pendingBytes_.push_back(b);
        if (pendingBytes_.size() == static_cast<size_t>(bpw)) {
            Word v = 0;
            for (int j = bpw - 1; j >= 0; --j)
                v = (v << 8) | pendingBytes_[static_cast<size_t>(j)];
            pendingBytes_.clear();
            answers_.push_back(FloodAnswer{v, host_->queue().now()});
        }
    };

    // compile once per position class, boot the shared image
    // everywhere in that class (the dominant cost of a 100k-node
    // array would otherwise be 100k compiler runs)
    std::map<int, occam::Compiled> images;
    const auto shape = cfg_.node.shape;
    const Word mem_start = net_->node(nodes_[0]).memory().memStart();
    for (int y = 0; y < cfg_.height; ++y)
        for (int x = 0; x < cfg_.width; ++x) {
            const int key = programClass(x, y);
            auto it = images.find(key);
            if (it == images.end())
                it = images
                         .emplace(key,
                                  occam::compile(nodeProgram(x, y),
                                                 shape, mem_start))
                         .first;
            net::bootOccam(*net_, nodes_[nodeId(x, y)], it->second);
        }

    // let every node reach its steady state (blocked on the parent
    // channel), so wave timings measure the flood alone
    if (cfg_.settle)
        net_->run();
}

Flood::~Flood() = default;

void
Flood::inject(Word wave)
{
    host_->sendWord(wave, cfg_.node.shape.bytes);
}

void
Flood::runUntilAnswers(size_t n, Tick limit)
{
    auto &q = net_->queue();
    while (answers_.size() < n && q.now() < limit) {
        if (!q.runOne())
            break;
    }
    net_->settleLinks();
}

} // namespace transputer::apps
