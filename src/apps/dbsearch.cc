#include "apps/dbsearch.hh"

#include <algorithm>

#include "base/format.hh"
#include "base/logging.hh"
#include "net/occam_boot.hh"

namespace transputer::apps
{

namespace
{

/** Synthetic record key for record i of node id (host-side copy). */
Word
recordKey(int id, int i, int key_space)
{
    return static_cast<Word>((id * 31 + i * 7) % key_space);
}

/**
 * Longest chain of spanning-tree links below node (x, y).  The
 * resilient merger's child timeout scales with this: a child's answer
 * can be delayed by the dead-child timeouts of its own subtree, so
 * windows must grow toward the root or a slow-but-alive child would
 * be mistaken for a dead one.
 */
int
depthBelow(int x, int y, int w, int h)
{
    int d = 0;
    if (y == 0 && x + 1 < w)
        d = std::max(d, 1 + depthBelow(x + 1, y, w, h));
    if (y + 1 < h)
        d = std::max(d, 1 + depthBelow(x, y + 1, w, h));
    return d;
}

} // namespace

DbSearch::DbSearch(const DbSearchConfig &cfg)
    : cfg_(cfg), net_(std::make_unique<net::Network>())
{
    nodes_ = net::buildGrid(*net_, cfg_.width, cfg_.height, cfg_.node);
    // the host injects/collects through the corner's north link
    host_ = std::make_unique<net::ConsoleSink>(net_->queue(),
                                               link::WireConfig{});
    net_->attachPeripheral(nodes_[0], net::dir::north, *host_);
    if (cfg_.linkWatchdog > 0)
        net_->setLinkWatchdogs(cfg_.linkWatchdog);
    const int bpw = cfg_.node.shape.bytes;
    host_->onByte = [this, bpw](uint8_t b) {
        pendingBytes_.push_back(b);
        if (pendingBytes_.size() == static_cast<size_t>(bpw)) {
            Word v = 0;
            for (int j = bpw - 1; j >= 0; --j)
                v = (v << 8) | pendingBytes_[static_cast<size_t>(j)];
            pendingBytes_.clear();
            // timestamp with the host endpoint's own queue: during a
            // parallel run that is the clock of the shard the host
            // lives on, not the (idle) master queue
            answers_.push_back(DbAnswer{v, host_->queue().now()});
        }
    };

    for (int y = 0; y < cfg_.height; ++y)
        for (int x = 0; x < cfg_.width; ++x)
            net::bootOccamSource(*net_, nodes_[nodeId(x, y)],
                                 nodeProgram(x, y));

    // let every node build its records and block on its request
    // channel, so query timings measure the search, not the set-up
    net_->run();
}

DbSearch::~DbSearch() = default;

std::string
DbSearch::nodeProgram(int x, int y) const
{
    // spanning tree: requests travel east along row 0 and south down
    // every column; answers merge along the reverse edges
    const bool has_east = (y == 0 && x + 1 < cfg_.width);
    const bool has_south = (y + 1 < cfg_.height);
    // parent: row-0 nodes look west (the corner looks north, at the
    // host); others look north
    const int parent =
        (y > 0) ? net::dir::north
                : (x > 0 ? net::dir::west : net::dir::north);
    const int id = nodeId(x, y);
    const int buddy =
        (id + 1) % (cfg_.width * cfg_.height); // whose backup we hold

    std::string p;
    p += fmt("DEF nrec = {}:\n", cfg_.recordsPerNode);
    if (cfg_.resilient) {
        p += fmt("DEF buddy = {}:\n", buddy);
        p += fmt("DEF rbase = {}:\n", static_cast<long long>(kRecoverBase));
        // child-collection window, in 64 us low-priority timer ticks
        p += fmt("DEF dto = {}:\n",
                 cfg_.deadTimeoutTicks *
                     std::max(1, depthBelow(x, y, cfg_.width,
                                            cfg_.height)));
    }
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
    // Two concurrent processes per node, so that requests pipeline
    // through the array (paper: "requests can be pipelined through
    // the system"): the searcher forwards the request and scans the
    // local partition; the merger combines the local count with the
    // children's answers and passes the sum upstream.  The internal
    // channel between them is the only coupling, so the searcher can
    // accept the next request while the merge of the previous one is
    // still in flight.
    p += "CHAN local:\n"
         "VAR rec[nrec]:\n";
    if (cfg_.resilient)
        p += "VAR bak[nrec]:\n";
    p += "SEQ\n"
         "  SEQ i = [0 FOR nrec]\n";
    p += fmt("    rec[i] := (({} * 31) + (i * 7)) \\ {}\n", id,
             cfg_.keySpace);
    if (cfg_.resilient) {
        p += "  SEQ i = [0 FOR nrec]\n";
        p += fmt("    bak[i] := ((buddy * 31) + (i * 7)) \\ {}\n",
                 cfg_.keySpace);
    }
    p += "  PAR\n";
    if (!cfg_.resilient) {
        p += "    VAR key, cnt:\n"
             "    WHILE TRUE\n"
             "      SEQ\n"
             "        up.in ? key\n";
        // forward the request before searching locally, so the flood
        // and the local searches overlap (the paper's
        // "simultaneously")
        if (has_east)
            p += "        east.out ! key\n";
        if (has_south)
            p += "        south.out ! key\n";
        p += "        cnt := 0\n"
             "        SEQ i = [0 FOR nrec]\n"
             "          IF\n"
             "            rec[i] = key\n"
             "              cnt := cnt + 1\n"
             "            TRUE\n"
             "              SKIP\n"
             "        local ! cnt\n"
             "    VAR m, c:\n"
             "    WHILE TRUE\n"
             "      SEQ\n"
             "        local ? m\n";
        if (has_east)
            p += "        east.in ? c\n"
                 "        m := m + c\n";
        if (has_south)
            p += "        south.in ? c\n"
                 "        m := m + c\n";
        p += "        up.out ! m\n";
        return p;
    }

    // resilient searcher: recovery queries (>= rbase) select the
    // backup shard of the encoded victim instead of the local records
    p += "    VAR key, vict, isrec, cnt:\n"
         "    WHILE TRUE\n"
         "      SEQ\n"
         "        up.in ? key\n";
    if (has_east)
        p += "        east.out ! key\n";
    if (has_south)
        p += "        south.out ! key\n";
    p += "        isrec := 0\n"
         "        vict := 0\n"
         "        IF\n"
         "          key >= rbase\n"
         "            SEQ\n"
         "              isrec := 1\n";
    p += fmt("              vict := (key - rbase) / {}\n",
             cfg_.keySpace);
    p += fmt("              key := (key - rbase) \\ {}\n",
             cfg_.keySpace);
    p += "          TRUE\n"
         "            SKIP\n"
         "        cnt := 0\n"
         "        IF\n"
         "          isrec = 0\n"
         "            SEQ i = [0 FOR nrec]\n"
         "              IF\n"
         "                rec[i] = key\n"
         "                  cnt := cnt + 1\n"
         "                TRUE\n"
         "                  SKIP\n"
         "          vict = buddy\n"
         "            SEQ i = [0 FOR nrec]\n"
         "              IF\n"
         "                bak[i] = key\n"
         "                  cnt := cnt + 1\n"
         "                TRUE\n"
         "                  SKIP\n"
         "          TRUE\n"
         "            SKIP\n"
         "        local ! cnt\n";

    // resilient merger: collect whichever child answers first through
    // an ALT; a full window with no answer declares the still-silent
    // children dead (sticky -- later queries skip them at once).
    // Staying receptive to every pending child for the whole wait
    // also keeps the children's own output stalls under their link
    // watchdog while a sibling subtree is timing out.
    if (!has_east && !has_south) {
        p += "    VAR m:\n"
             "    WHILE TRUE\n"
             "      SEQ\n"
             "        local ? m\n"
             "        up.out ! m\n";
        return p;
    }
    p += "    VAR m, c, e.alive, s.alive, need.e, need.s:\n"
         "    SEQ\n";
    p += fmt("      e.alive := {}\n", has_east ? 1 : 0);
    p += fmt("      s.alive := {}\n", has_south ? 1 : 0);
    p += "      WHILE TRUE\n"
         "        SEQ\n"
         "          local ? m\n"
         "          need.e := e.alive\n"
         "          need.s := s.alive\n"
         "          WHILE (need.e = 1) OR (need.s = 1)\n"
         "            VAR t:\n"
         "            SEQ\n"
         "              TIME ? t\n"
         "              ALT\n";
    if (has_east)
        p += "                (need.e = 1) & east.in ? c\n"
             "                  SEQ\n"
             "                    m := m + c\n"
             "                    need.e := 0\n";
    if (has_south)
        p += "                (need.s = 1) & south.in ? c\n"
             "                  SEQ\n"
             "                    m := m + c\n"
             "                    need.s := 0\n";
    p += "                TIME ? AFTER t + dto\n"
         "                  SEQ\n"
         "                    IF\n"
         "                      need.e = 1\n"
         "                        e.alive := 0\n"
         "                      TRUE\n"
         "                        SKIP\n"
         "                    IF\n"
         "                      need.s = 1\n"
         "                        s.alive := 0\n"
         "                      TRUE\n"
         "                        SKIP\n"
         "                    need.e := 0\n"
         "                    need.s := 0\n"
         "          up.out ! m\n";
    return p;
}

Word
DbSearch::expectedCount(Word key) const
{
    Word total = 0;
    for (int id = 0; id < cfg_.width * cfg_.height; ++id)
        for (int i = 0; i < cfg_.recordsPerNode; ++i)
            if (recordKey(id, i, cfg_.keySpace) == key)
                ++total;
    return total;
}

Word
DbSearch::expectedNodeCount(int id, Word key) const
{
    Word total = 0;
    for (int i = 0; i < cfg_.recordsPerNode; ++i)
        if (recordKey(id, i, cfg_.keySpace) == key)
            ++total;
    return total;
}

Word
DbSearch::degradedSearch(Word key, Tick limit)
{
    TRANSPUTER_ASSERT(cfg_.resilient,
                      "degradedSearch needs a resilient array");
    const size_t before = answers_.size();
    inject(key);
    runUntilAnswers(before + 1, limit);
    TRANSPUTER_ASSERT(answers_.size() > before,
                      "no answer before the time limit");
    Word total = answers_.back().count;
    // recover the shard of every dead node from its backup holder.
    // The buddy ring places the holder (victim - 1) outside the
    // victim's own subtree, so the recovery flood -- which still
    // travels the spanning tree -- always reaches it.  A dead
    // *interior* node additionally orphans its live subtree, whose
    // shards would need a rebuilt tree to reach; leaf deaths (the
    // common single-failure demo) lose exactly the victim's shard.
    const int n = cfg_.width * cfg_.height;
    for (int victim = 0; victim < n; ++victim) {
        if (!net_->node(victim).killed())
            continue;
        const size_t got = answers_.size();
        inject(recoverKey(victim, key));
        runUntilAnswers(got + 1, limit);
        TRANSPUTER_ASSERT(answers_.size() > got,
                          "no recovery answer before the time limit");
        total += answers_.back().count;
    }
    return total;
}

void
DbSearch::inject(Word key)
{
    injectTimes_.push_back(net_->queue().now());
    host_->sendWord(key, cfg_.node.shape.bytes);
}

void
DbSearch::runUntilAnswers(size_t n, Tick limit)
{
    auto &q = net_->queue();
    while (answers_.size() < n && q.now() < limit) {
        if (!q.runOne())
            break;
    }
    net_->settleLinks();
}

} // namespace transputer::apps
