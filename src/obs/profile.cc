#include "obs/profile.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "net/network.hh"
#include "obs/timeseries.hh"

namespace transputer::obs
{

namespace
{

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Process frame for folded stacks: W#<wptr>.<hi|lo> (no spaces or
 *  semicolons -- both are separators in the folded format). */
std::string
wdescFrame(uint64_t wdesc)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "W#%06llx.%s",
                  static_cast<unsigned long long>(wdesc & ~1ull),
                  (wdesc & 1) ? "lo" : "hi");
    return buf;
}

std::string
dbl(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6f", v);
    return buf;
}

} // namespace

std::string
foldedProfile(net::Network &net)
{
    std::ostringstream os;
    for (size_t i = 0; i < net.size(); ++i)
    {
        auto &node = net.node(static_cast<int>(i));
        const Profiler *prof = node.profiler();
        if (!prof)
            continue;
        for (const auto &kv : prof->cells())
            os << node.name() << ";" << wdescFrame(kv.first.first)
               << ";" << hex(kv.first.second) << " "
               << kv.second.samples << "\n";
    }
    return os.str();
}

std::string
profileJson(net::Network &net, bool hostTiers)
{
    std::ostringstream os;
    os << "{\"nodes\": [";
    bool firstNode = true;
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const Profiler *prof = node.profiler();
        if (!firstNode)
            os << ",";
        firstNode = false;
        os << "\n {\"name\": \"" << node.name() << "\"";
        if (!prof) {
            os << ", \"interval_cycles\": 0, \"total_samples\": 0,"
               << " \"cells\": []}";
            continue;
        }
        os << ", \"interval_cycles\": " << prof->interval()
           << ", \"total_samples\": " << prof->totalSamples()
           << ", \"cells\": [";
        bool firstCell = true;
        for (const auto &kv : prof->cells()) {
            if (!firstCell)
                os << ",";
            firstCell = false;
            os << "\n  {\"wdesc\": \"" << hex(kv.first.first)
               << "\", \"pri\": " << (kv.first.first & 1)
               << ", \"iptr\": \"" << hex(kv.first.second)
               << "\", \"samples\": " << kv.second.samples;
            if (hostTiers)
                os << ", \"tier\": {\"plain\": "
                   << kv.second.tier[kTierPlain] << ", \"fused\": "
                   << kv.second.tier[kTierFused] << ", \"blockc\": "
                   << kv.second.tier[kTierBlock] << "}";
            os << "}";
        }
        os << (firstCell ? "]" : "\n ]") << "}";
    }
    os << "\n]}\n";
    return os.str();
}

std::string
timeseriesJson(net::Network &net, bool archOnly)
{
    // collect each node's points (ring + a final live point captured
    // now, so the deltas sum exactly to the final counters)
    std::vector<std::vector<TsPoint>> series(net.size());
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const TimeSeries *ts = node.timeSeries();
        if (!ts)
            continue;
        auto &pts = series[i];
        ts->forEach([&](const TsPoint &p) { pts.push_back(p); });
        pts.push_back(node.tsCapture(node.localTime()));
    }

    std::ostringstream os;
    os << "{\"nodes\": [";
    bool firstNode = true;
    for (size_t i = 0; i < net.size(); ++i) {
        auto &node = net.node(static_cast<int>(i));
        const TimeSeries *ts = node.timeSeries();
        if (!firstNode)
            os << ",";
        firstNode = false;
        os << "\n {\"name\": \"" << node.name() << "\"";
        if (!ts) {
            os << ", \"interval_ns\": 0, \"dropped\": 0,"
               << " \"points\": []}";
            continue;
        }
        os << ", \"interval_ns\": " << ts->interval()
           << ", \"dropped\": " << ts->dropped() << ", \"points\": [";
        TsPoint prev; // zero: the first delta is since boot
        bool firstPt = true;
        for (const TsPoint &p : series[i]) {
            if (!firstPt)
                os << ",";
            firstPt = false;
            os << "\n  {\"tick\": " << p.tick
               << ", \"d_instructions\": "
               << (p.instructions - prev.instructions)
               << ", \"d_cycles\": " << (p.cycles - prev.cycles)
               << ", \"d_link_bytes_out\": "
               << (p.linkBytesOut - prev.linkBytesOut)
               << ", \"d_link_bytes_in\": "
               << (p.linkBytesIn - prev.linkBytesIn)
               << ", \"d_process_starts\": "
               << (p.processStarts - prev.processStarts)
               << ", \"d_timeslices\": "
               << (p.timeslices - prev.timeslices)
               << ", \"d_idle_ns\": " << (p.idleTicks - prev.idleTicks)
               << ", \"q_lo\": " << p.qlo << ", \"q_hi\": " << p.qhi;
            if (!archOnly) {
                const uint64_t dh = p.icacheHits - prev.icacheHits;
                const uint64_t dm = p.icacheMisses - prev.icacheMisses;
                const uint64_t dc = p.blockChains - prev.blockChains;
                const uint64_t dd = p.blockDeopts - prev.blockDeopts;
                os << ", \"d_icache_hits\": " << dh
                   << ", \"d_icache_misses\": " << dm
                   << ", \"icache_hit_rate\": "
                   << dbl(dh + dm ? static_cast<double>(dh) /
                                        static_cast<double>(dh + dm)
                                  : 0.0)
                   << ", \"d_block_chains\": " << dc
                   << ", \"d_block_deopts\": " << dd
                   << ", \"deopt_rate\": "
                   << dbl(dc ? static_cast<double>(dd) /
                                   static_cast<double>(dc)
                             : 0.0);
            }
            os << "}";
        }
        os << (firstPt ? "]" : "\n ]") << "}";
        (void)node;
    }
    os << "\n],\n";

    // shard-imbalance series: at every nominal tick all nodes have a
    // point for, max/mean of the per-node cycle deltas over the
    // preceding common interval.  1.0 is perfectly balanced; nodes/
    // shards are contiguous, so node imbalance bounds shard imbalance.
    std::vector<std::map<Tick, uint64_t>> cyclesAt(net.size());
    std::set<Tick> common;
    bool haveAll = !series.empty();
    for (size_t i = 0; i < series.size(); ++i) {
        if (series[i].empty()) {
            haveAll = false;
            break;
        }
        std::set<Tick> ticks;
        for (const TsPoint &p : series[i]) {
            cyclesAt[i][p.tick] = p.cycles;
            ticks.insert(p.tick);
        }
        if (i == 0)
            common = ticks;
        else {
            std::set<Tick> inter;
            std::set_intersection(common.begin(), common.end(),
                                  ticks.begin(), ticks.end(),
                                  std::inserter(inter, inter.begin()));
            common = inter;
        }
    }
    os << "\"imbalance\": [";
    bool firstIm = true;
    if (haveAll && common.size() >= 2) {
        Tick prevTick = *common.begin();
        for (auto it = std::next(common.begin()); it != common.end();
             ++it) {
            uint64_t maxd = 0, sum = 0;
            for (size_t i = 0; i < net.size(); ++i) {
                const uint64_t d =
                    cyclesAt[i][*it] - cyclesAt[i][prevTick];
                maxd = std::max(maxd, d);
                sum += d;
            }
            const double mean = static_cast<double>(sum) /
                                static_cast<double>(net.size());
            if (!firstIm)
                os << ",";
            firstIm = false;
            os << "\n {\"tick\": " << *it << ", \"cycle_imbalance\": "
               << dbl(mean > 0.0 ? static_cast<double>(maxd) / mean
                                 : 0.0)
               << "}";
            prevTick = *it;
        }
    }
    os << (firstIm ? "]" : "\n]") << "}\n";
    return os.str();
}

} // namespace transputer::obs
