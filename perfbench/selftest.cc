/**
 * @file
 * Self-test of the benchmark's answer checkers: the right answers
 * pass, and a tampered answer counts as a failed op.  Exits 0 when
 * every case holds.  perfbench/selftest.py runs this and also checks
 * the printed metric catalogue against BENCHMARK.json.
 */

#include <iostream>
#include <string>

#include "workloads.hh"

using namespace perfbench;

namespace
{

int failures = 0;

void
expect(const std::string &what, const Tally &t, uint64_t attempted,
       uint64_t failed)
{
    const bool ok = t.attempted == attempted && t.failed == failed;
    std::cout << (ok ? "ok   " : "FAIL ") << what << ": attempted "
              << t.attempted << " failed " << t.failed << " (want "
              << attempted << "/" << failed << ")\n";
    if (!ok)
        ++failures;
}

} // namespace

int
main()
{
    // e7_loop
    const E7Result e7{0, 5, 10, 325'000'008};
    expect("e7 exact", checkE7(e7, e7), 1, 0);
    E7Result e7bad = e7;
    e7bad.instructions += 1;
    expect("e7 instruction count off by one", checkE7(e7bad, e7), 1, 1);
    e7bad = e7;
    e7bad.counter = 1;
    expect("e7 loop counter not zero", checkE7(e7bad, e7), 1, 1);

    // dbsearch
    const std::vector<Word> want{3, 0, 12, 7};
    expect("dbsearch exact", checkDbSearch(want, want), 4, 0);
    std::vector<Word> wrong = want;
    wrong[2] += 1;
    expect("dbsearch wrong count", checkDbSearch(wrong, want), 4, 1);
    expect("dbsearch missing answer",
           checkDbSearch({3, 0, 12}, want), 4, 1);
    expect("dbsearch extra answer",
           checkDbSearch({3, 0, 12, 7, 7}, want), 4, 4);

    // flood
    const Word wh = 320 * 313;
    expect("flood exact", checkFlood({wh, wh}, 2, wh), 2, 0);
    expect("flood total off by one", checkFlood({wh, wh - 1}, 2, wh), 2,
           1);
    expect("flood lost wave", checkFlood({wh}, 2, wh), 2, 1);

    // routed: node 0 is the root, node 2 was killed
    const Word key = 41;
    const std::vector<bool> killed{false, false, true, false};
    const std::vector<RoutedTuple> good{{1, 0, key + 1}, {3, 0, key + 1}};
    expect("routed exact", checkRouted(good, killed, key), 2, 0);
    auto dup = good;
    dup.push_back({3, 0, key + 1});
    expect("routed duplicated reply", checkRouted(dup, killed, key), 2,
           2);
    auto wrongWord = good;
    wrongWord[0].word = key;
    expect("routed wrong payload", checkRouted(wrongWord, killed, key),
           2, 1);
    auto notice = good;
    notice[1].vchan = 255;
    expect("routed notice for a live node",
           checkRouted(notice, killed, key), 2, 1);
    expect("routed silent live node",
           checkRouted({good[0]}, killed, key), 2, 1);
    auto deadReply = good;
    deadReply.push_back({2, 255, 0});
    expect("routed killed node may resolve once",
           checkRouted(deadReply, killed, key), 2, 0);

    std::cout << (failures ? "SELFTEST FAILED" : "SELFTEST OK") << "\n";
    return failures ? 1 : 0;
}
