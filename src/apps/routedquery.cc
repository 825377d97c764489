#include "apps/routedquery.hh"

#include "base/format.hh"
#include "net/occam_boot.hh"

namespace transputer::apps
{

std::string
RoutedQuery::rootProgram() const
{
    // sender and collector in PAR so queries pipeline with answers;
    // everything the switch delivers (replies and control notices) is
    // forwarded to the external host as a 3-word tuple
    std::string p;
    p += "CHAN sw.in, sw.out, h.in, h.out:\n";
    p += "PLACE sw.in AT LINK0IN:\n";
    p += "PLACE sw.out AT LINK0OUT:\n";
    p += fmt("PLACE h.in AT LINK{}IN:\n", cfg_.consoleLink);
    p += fmt("PLACE h.out AT LINK{}OUT:\n", cfg_.consoleLink);
    p += "PAR\n"
         "  VAR d, k:\n"
         "  WHILE TRUE\n"
         "    SEQ\n"
         "      h.in ? d\n"
         "      h.in ? k\n"
         "      sw.out ! d\n"
         "      sw.out ! 0\n"
         "      sw.out ! 1\n"
         "      sw.out ! k\n"
         "  VAR src, vc, n, w:\n"
         "  WHILE TRUE\n"
         "    SEQ\n"
         "      sw.in ? src\n"
         "      sw.in ? vc\n"
         "      sw.in ? n\n"
         "      sw.in ? w\n"
         "      h.out ! src\n"
         "      h.out ! vc\n"
         "      h.out ! w\n";
    return p;
}

std::string
RoutedQuery::terminalProgram() const
{
    // position-independent: the reply destination is the source field
    // of the query, so one compiled image serves every terminal.
    // Control notices (vchan 255, e.g. "your reply was undeliverable"
    // after the root was cut off) are consumed and ignored.
    return "CHAN in, out:\n"
           "PLACE in AT LINK0IN:\n"
           "PLACE out AT LINK0OUT:\n"
           "VAR src, vc, n, w:\n"
           "WHILE TRUE\n"
           "  SEQ\n"
           "    in ? src\n"
           "    in ? vc\n"
           "    in ? n\n"
           "    in ? w\n"
           "    IF\n"
           "      vc = 0\n"
           "        SEQ\n"
           "          out ! src\n"
           "          out ! 0\n"
           "          out ! 1\n"
           "          out ! w + 1\n"
           "      TRUE\n"
           "        SKIP\n";
}

RoutedQuery::RoutedQuery(const RoutedQueryConfig &cfg)
    : cfg_(cfg), net_(std::make_unique<net::Network>())
{
    route::FabricConfig fc;
    fc.node = cfg_.node;
    fc.wire = cfg_.wire;
    fc.sw = cfg_.sw;
    fc.sw.bytesPerWord = cfg_.node.shape.bytes;
    fc.hostLink = 0;
    fabric_ = std::make_unique<route::Fabric>(*net_, cfg_.topo, fc);

    host_ = std::make_unique<net::ConsoleSink>(net_->queue(),
                                               cfg_.wire);
    net_->attachPeripheral(fabric_->netNode(0), cfg_.consoleLink,
                           *host_, cfg_.wire);
    const int bpw = cfg_.node.shape.bytes;
    host_->onByte = [this, bpw](uint8_t b) {
        pendingBytes_.push_back(b);
        if (pendingBytes_.size() < static_cast<size_t>(bpw))
            return;
        Word v = 0;
        for (int j = bpw - 1; j >= 0; --j)
            v = (v << 8) | pendingBytes_[static_cast<size_t>(j)];
        pendingBytes_.clear();
        pendingWords_.push_back(v);
        if (pendingWords_.size() == 3) {
            answers_.push_back(RoutedAnswer{
                pendingWords_[0], pendingWords_[1], pendingWords_[2],
                host_->queue().now()});
            pendingWords_.clear();
        }
    };

    const auto shape = cfg_.node.shape;
    const Word memStart =
        net_->node(fabric_->netNode(0)).memory().memStart();
    const auto rootImg = occam::compile(rootProgram(), shape, memStart);
    const auto termImg =
        occam::compile(terminalProgram(), shape, memStart);
    for (int i = 0; i < fabric_->nodes(); ++i)
        net::bootOccam(*net_, fabric_->netNode(i),
                       i == 0 ? rootImg : termImg);

    if (cfg_.settle)
        net_->run();
}

RoutedQuery::~RoutedQuery() = default;

void
RoutedQuery::inject(Word dest, Word key)
{
    const int bpw = cfg_.node.shape.bytes;
    host_->sendWord(dest, bpw);
    host_->sendWord(key, bpw);
}

void
RoutedQuery::queryAll(Word key)
{
    for (int d = 1; d < fabric_->nodes(); ++d)
        inject(static_cast<Word>(d), key);
}

void
RoutedQuery::runUntilAnswers(size_t n, Tick limit)
{
    auto &q = net_->queue();
    while (answers_.size() < n && q.now() < limit) {
        if (!q.runOne())
            break;
    }
    net_->settleLinks();
}

size_t
RoutedQuery::replies() const
{
    size_t n = 0;
    for (const auto &a : answers_)
        if (a.vchan == 0)
            ++n;
    return n;
}

size_t
RoutedQuery::undeliverables() const
{
    size_t n = 0;
    for (const auto &a : answers_)
        if (a.vchan == route::kCtrlVchan)
            ++n;
    return n;
}

} // namespace transputer::apps
