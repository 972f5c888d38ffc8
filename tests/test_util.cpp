/**
 * @file
 * Unit tests for the utility substrate: RNG, stats, tables, CSV.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace a3 {
namespace {

TEST(Rng, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (a() == b());
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-2.5, 3.5);
        EXPECT_GE(u, -2.5);
        EXPECT_LT(u, 3.5);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniformInt(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);  // all 7 values reached
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(13);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, NormalMomentsApproximatelyStandard)
{
    Rng rng(17);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.normal());
    EXPECT_NEAR(stat.mean(), 0.0, 0.02);
    EXPECT_NEAR(stat.stddev(), 1.0, 0.02);
}

TEST(Rng, NormalWithParameters)
{
    Rng rng(19);
    RunningStat stat;
    for (int i = 0; i < 50000; ++i)
        stat.add(rng.normal(5.0, 2.0));
    EXPECT_NEAR(stat.mean(), 5.0, 0.05);
    EXPECT_NEAR(stat.stddev(), 2.0, 0.05);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / 20000.0, 0.3, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(29);
    std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = values;
    rng.shuffle(values);
    std::sort(values.begin(), values.end());
    EXPECT_EQ(values, sorted);
}

TEST(Rng, SplitProducesIndependentStream)
{
    Rng parent(31);
    Rng child = parent.split();
    // The child must not replay the parent's stream.
    Rng parentCopy(31);
    (void)parentCopy();  // consume the split draw
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += (child() == parentCopy());
    EXPECT_LT(equal, 4);
}

TEST(RunningStat, EmptyDefaults)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, KnownSequence)
{
    RunningStat s;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 4.571428, 1e-5);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
    EXPECT_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeMatchesSequential)
{
    RunningStat all;
    RunningStat left;
    RunningStat right;
    Rng rng(37);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal();
        all.add(v);
        (i % 2 ? left : right).add(v);
    }
    left.merge(right);
    EXPECT_EQ(left.count(), all.count());
    EXPECT_NEAR(left.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
    EXPECT_EQ(left.min(), all.min());
    EXPECT_EQ(left.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty)
{
    RunningStat a;
    a.add(1.0);
    RunningStat b;
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
    b.merge(a);
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.mean(), 1.0);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> v{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 0.5), 2.5);
}

TEST(LatencyReservoir, RetainsLastWindowDeterministically)
{
    LatencyReservoir reservoir(4);
    EXPECT_EQ(reservoir.capacity(), 4u);
    // Empty reservoir: well-defined zeros, no assert.
    EXPECT_EQ(reservoir.size(), 0u);
    EXPECT_EQ(reservoir.count(), 0u);
    EXPECT_DOUBLE_EQ(reservoir.percentile(0.99), 0.0);

    for (double s = 1.0; s <= 6.0; s += 1.0)
        reservoir.add(s);
    // Sliding window: 1 and 2 were evicted, 3..6 retained; count
    // still reflects every sample ever recorded.
    EXPECT_EQ(reservoir.size(), 4u);
    EXPECT_EQ(reservoir.count(), 6u);
    EXPECT_DOUBLE_EQ(reservoir.percentile(0.0), 3.0);
    EXPECT_DOUBLE_EQ(reservoir.percentile(1.0), 6.0);
    EXPECT_DOUBLE_EQ(reservoir.percentile(0.5), 4.5);
    // Multi-quantile read over one sorted copy matches per-fraction
    // reads.
    const double fractions[3] = {0.0, 0.5, 1.0};
    double out[3] = {-1.0, -1.0, -1.0};
    reservoir.percentiles(fractions, 3, out);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
    EXPECT_DOUBLE_EQ(out[1], 4.5);
    EXPECT_DOUBLE_EQ(out[2], 6.0);

    reservoir.clear();
    EXPECT_EQ(reservoir.size(), 0u);
    EXPECT_EQ(reservoir.count(), 0u);
    EXPECT_DOUBLE_EQ(reservoir.percentile(0.5), 0.0);
    reservoir.add(7.0);
    EXPECT_DOUBLE_EQ(reservoir.percentile(0.5), 7.0);
}

/**
 * The serving tier records latencies from drain threads while a
 * monitoring thread reads percentiles: the reservoir's internal
 * lock must keep both sides consistent (no torn windows, no lost
 * samples). Run under TSan in CI; the invariant checks here catch
 * logic races even without it.
 */
TEST(LatencyReservoir, ConcurrentRecordAndPercentileReads)
{
    constexpr std::size_t kWriters = 4;
    constexpr std::size_t kSamplesPerWriter = 2000;
    LatencyReservoir reservoir(256);
    std::atomic<bool> stop{false};

    std::thread reader([&reservoir, &stop] {
        const double fractions[3] = {0.50, 0.95, 0.99};
        double out[3];
        while (!stop.load(std::memory_order_relaxed)) {
            reservoir.percentiles(fractions, 3, out);
            // Samples are drawn from [0, 1], so any consistent
            // window keeps the percentiles in range and ordered.
            EXPECT_GE(out[0], 0.0);
            EXPECT_LE(out[2], 1.0);
            EXPECT_LE(out[0], out[1]);
            EXPECT_LE(out[1], out[2]);
            EXPECT_LE(reservoir.size(), reservoir.capacity());
        }
    });

    std::vector<std::thread> writers;
    for (std::size_t w = 0; w < kWriters; ++w) {
        writers.emplace_back([&reservoir, w] {
            Rng rng(1000 + w);
            for (std::size_t i = 0; i < kSamplesPerWriter; ++i)
                reservoir.add(rng.uniform());
        });
    }
    for (std::thread &t : writers)
        t.join();
    stop.store(true, std::memory_order_relaxed);
    reader.join();

    // Every sample landed exactly once and the window stayed full.
    EXPECT_EQ(reservoir.count(), kWriters * kSamplesPerWriter);
    EXPECT_EQ(reservoir.size(), reservoir.capacity());
    EXPECT_GE(reservoir.percentile(0.5), 0.0);
    EXPECT_LE(reservoir.percentile(0.5), 1.0);
}

TEST(Table, RendersAlignedColumns)
{
    Table t("Demo");
    t.setHeader({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    const std::string out = t.render();
    EXPECT_NE(out.find("== Demo =="), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::ratio(2.5), "2.50x");
    EXPECT_EQ(Table::percent(0.831), "83.1%");
}

TEST(Csv, QuotesSpecialCharacters)
{
    const std::string path = "/tmp/a3_test_csv.csv";
    {
        CsvWriter w(path);
        w.writeRow({"a", "b,c", "d\"e"});
    }
    std::ifstream in(path);
    std::string line;
    std::getline(in, line);
    EXPECT_EQ(line, "a,\"b,c\",\"d\"\"e\"");
    std::remove(path.c_str());
}

}  // namespace
}  // namespace a3
