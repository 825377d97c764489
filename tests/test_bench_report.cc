/**
 * @file
 * The arithmetic every bench gate rests on (bench/report.hh): medians,
 * spreads, per-round ratios, the rotating run order, the outcome check
 * and the JSON a row writes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "report.hh"

using namespace transputer::bench;

namespace
{

struct Sample
{
    double seconds = 0;
    int outcome = 0;
};

bool
sameOutcome(const Sample &a, const Sample &b)
{
    return a.outcome == b.outcome;
}

/** Rounds whose variant v took secs[v][k] in round k. */
Rounds<Sample>
scripted(const std::vector<std::vector<double>> &secs)
{
    Rounds<Sample> r;
    for (const auto &v : secs) {
        r.runs.emplace_back();
        for (const double s : v)
            r.runs.back().push_back({s, 0});
    }
    return r;
}

} // namespace

TEST(BenchReport, MedianOfOddAndEvenSamples)
{
    EXPECT_EQ(medianOf({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(medianOf({7.0}), 7.0);
    EXPECT_EQ(medianOf({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_EQ(medianOf({5.0, 1.0}), 3.0);
    EXPECT_EQ(medianOf({}), 0.0);
}

TEST(BenchReport, SpreadHoldsMedianMinAndMax)
{
    const Spread s = spreadOf({5.0, 1.0, 9.0, 3.0, 7.0});
    EXPECT_EQ(s.median, 5.0);
    EXPECT_EQ(s.min, 1.0);
    EXPECT_EQ(s.max, 9.0);
    EXPECT_DOUBLE_EQ(s.relative(), 8.0 / 5.0);
    const Spread none = spreadOf({});
    EXPECT_EQ(none.median, 0.0);
    EXPECT_EQ(none.relative(), 0.0);
}

TEST(BenchReport, PerRoundRatiosToTheReference)
{
    // variant 1 is twice as fast as the reference in rounds 0 and 1
    // and three times in round 2; variant 2 has one slow round
    const Rounds<Sample> r =
        scripted({{2.0, 4.0, 6.0}, {1.0, 2.0, 2.0}, {1.0, 8.0, 3.0}});
    EXPECT_EQ(r.ratios(1), (std::vector<double>{2.0, 2.0, 3.0}));
    EXPECT_EQ(r.ratio(1), 2.0);
    EXPECT_EQ(r.ratio(0), 1.0);
    // paired per round, not a ratio of medians: variant 2's median
    // time is 3 against the reference's 4, yet its median ratio is 2
    EXPECT_EQ(r.time(2).median, 3.0);
    EXPECT_EQ(r.ratio(2), 2.0);
    // against another variant
    EXPECT_EQ(r.ratios(2, 1),
              (std::vector<double>{1.0, 0.25, 2.0 / 3}));
    EXPECT_EQ(r.ratio(2, 1), 2.0 / 3);
    const Spread t = r.time(1);
    EXPECT_EQ(t.median, 2.0);
    EXPECT_EQ(t.min, 1.0);
    EXPECT_EQ(t.max, 2.0);
}

TEST(BenchReport, RoundKStartsAtVariantK)
{
    std::vector<size_t> order;
    int calls = 0;
    const auto r = runRounds(
        3, 4,
        [&](size_t v) {
            order.push_back(v);
            return Sample{static_cast<double>(++calls), 0};
        },
        sameOutcome);
    // the untimed round, then rounds 0..3
    const std::vector<size_t> want = {0, 1, 2, 0, 1, 2, 1, 2,
                                      0, 2, 0, 1, 0, 1, 2};
    EXPECT_EQ(order, want);
    ASSERT_EQ(r.runs.size(), 3u);
    for (const auto &v : r.runs)
        EXPECT_EQ(v.size(), 4u);
    // only timed runs are kept, in round order: variant 0 ran 4th,
    // 9th, 11th and 13th
    EXPECT_EQ(r.seconds(0), (std::vector<double>{4, 9, 11, 13}));
    EXPECT_TRUE(r.identical);
}

TEST(BenchReport, ADifferentOutcomeIsNotIdentical)
{
    // one timed run of variant 1 simulates something else
    int calls = 0;
    const auto odd = runRounds(
        2, 3,
        [&](size_t v) {
            ++calls;
            return Sample{1.0, v == 1 && calls == 5 ? 8 : 7};
        },
        sameOutcome);
    EXPECT_FALSE(odd.identical);

    // the untimed round counts too: its first run is the reference
    calls = 0;
    const auto warm = runRounds(
        2, 3,
        [&](size_t) { return Sample{1.0, ++calls == 1 ? 8 : 7}; },
        sameOutcome);
    EXPECT_FALSE(warm.identical);

    const auto same = runRounds(
        2, 3, [](size_t) { return Sample{1.0, 7}; }, sameOutcome);
    EXPECT_TRUE(same.identical);
}

TEST(BenchReport, RowWritesEachFieldOnce)
{
    Row inner;
    inner.add("a", 1).add("b", true);
    Row row;
    row.col("name", "name", "say \"hi\"\\")
        .add("nested", inner)
        .add("inf", std::numeric_limits<double>::infinity())
        .add("list", std::vector<Row>{inner, Row()})
        .col("ok", "ok", false);
    EXPECT_EQ(row.json(),
              "{\"name\": \"say \\\"hi\\\"\\\\\", "
              "\"nested\": {\"a\": 1, \"b\": true}, \"inf\": null, "
              "\"list\": [{\"a\": 1, \"b\": true}, {}], "
              "\"ok\": false}");
    // table cells: raw text, yes/NO, a nested row's first field
    ASSERT_EQ(row.fields.size(), 5u);
    EXPECT_EQ(row.fields[0].cell, "say \"hi\"\\");
    EXPECT_EQ(row.fields[1].cell, "1");
    EXPECT_EQ(row.fields[4].cell, "NO");
    EXPECT_EQ(row.fields[1].head, "");
}
