/**
 * @file
 * Integration tests for the A3 accelerator model: the paper's latency
 * and throughput formulas, functional equivalence with the fixed-point
 * datapath model, and activity accounting.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "attention/candidate_search.hpp"
#include "attention/post_scoring.hpp"
#include "attention/quantized.hpp"
#include "sim/accelerator.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

struct RandomTask
{
    Matrix key;
    Matrix value;
    std::vector<Vector> queries;
};

RandomTask
makeTask(Rng &rng, std::size_t n, std::size_t d, std::size_t queries)
{
    RandomTask t;
    t.key = Matrix(n, d);
    t.value = Matrix(n, d);
    for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < d; ++c) {
            t.key(r, c) = static_cast<float>(rng.normal());
            t.value(r, c) = static_cast<float>(rng.normal());
        }
    }
    t.queries.resize(queries);
    for (auto &q : t.queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }
    return t;
}

SimConfig
baseConfig(std::size_t n, std::size_t d)
{
    SimConfig cfg;
    cfg.maxRows = n;
    cfg.dims = d;
    cfg.mode = A3Mode::Base;
    return cfg;
}

TEST(BaseA3, SingleQueryLatencyIs3NPlus27)
{
    Rng rng(6000);
    for (std::size_t n : {20u, 64u, 186u, 320u}) {
        const RandomTask t = makeTask(rng, n, 64, 1);
        A3Accelerator acc(baseConfig(n, 64));
        acc.loadTask(t.key, t.value);
        const RunStats stats = acc.runAll(t.queries);
        EXPECT_EQ(static_cast<Cycle>(stats.avgLatency), 3 * n + 27)
            << "n=" << n;
    }
}

TEST(BaseA3, SteadyStateThroughputIsNPlus9)
{
    Rng rng(6001);
    const std::size_t n = 100;
    const RandomTask t = makeTask(rng, n, 64, 12);
    A3Accelerator acc(baseConfig(n, 64));
    acc.loadTask(t.key, t.value);
    const RunStats stats = acc.runAll(t.queries);
    EXPECT_DOUBLE_EQ(stats.cyclesPerQuery, static_cast<double>(n + 9));
}

TEST(BaseA3, ThreeQueriesPipelineOverlap)
{
    // Total time for q queries in steady state: 3(n+9) + (q-1)(n+9).
    Rng rng(6002);
    const std::size_t n = 50;
    const std::size_t q = 5;
    const RandomTask t = makeTask(rng, n, 64, q);
    A3Accelerator acc(baseConfig(n, 64));
    acc.loadTask(t.key, t.value);
    const RunStats stats = acc.runAll(t.queries);
    EXPECT_EQ(stats.totalCycles, (3 + q - 1) * (n + 9));
}

TEST(BaseA3, OutputsMatchFixedPointDatapath)
{
    Rng rng(6003);
    const RandomTask t = makeTask(rng, 24, 64, 3);
    A3Accelerator acc(baseConfig(24, 64));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    const QuantizedAttention datapath(t.key, t.value, 4, 4);
    for (std::size_t i = 0; i < t.queries.size(); ++i) {
        auto out = acc.popOutput();
        ASSERT_TRUE(out.has_value());
        const AttentionResult expected = datapath.run(t.queries[i]);
        EXPECT_EQ(out->result.output, expected.output);
        EXPECT_EQ(out->id, i);
    }
    EXPECT_FALSE(acc.popOutput().has_value());
}

TEST(BaseA3, KeySramReadsOneRowPerCycle)
{
    Rng rng(6004);
    const std::size_t n = 40;
    const std::size_t q = 4;
    const RandomTask t = makeTask(rng, n, 64, q);
    A3Accelerator acc(baseConfig(n, 64));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    EXPECT_EQ(acc.keySram().reads(), n * q);
    EXPECT_EQ(acc.valueSram().reads(), n * q);
    EXPECT_EQ(acc.sortedKeySram().reads(), 0u);  // base mode
}

SimConfig
approxConfig(std::size_t n, std::size_t d, ApproxConfig approx)
{
    SimConfig cfg;
    cfg.maxRows = n;
    cfg.dims = d;
    cfg.mode = A3Mode::Approx;
    cfg.approx = approx;
    return cfg;
}

TEST(ApproxA3, SingleQueryLatencyMatchesFormula)
{
    Rng rng(6005);
    const std::size_t n = 128;
    const RandomTask t = makeTask(rng, n, 64, 1);
    A3Accelerator acc(
        approxConfig(n, 64, ApproxConfig::conservative()));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    auto out = acc.popOutput();
    ASSERT_TRUE(out.has_value());

    const std::size_t m = out->iterM;
    const std::size_t c = out->candidatesC;
    const std::size_t k = out->keptK;
    // latency = [5 + M + ceil(n/16)] + [C + 9]
    //         + [ceil(C/16) + K + 9] + [K + 9]  (Section V-C shape
    //           M + C + 2K + alpha).
    const Cycle expected = (5 + m + (n + 15) / 16) + (c + 9) +
                           ((c + 15) / 16 + k + 9) + (k + 9);
    EXPECT_EQ(out->latency(), expected);
    EXPECT_EQ(m, 64u);  // M = n/2
    EXPECT_LE(c, n);
    EXPECT_LE(k, c);
}

TEST(ApproxA3, ThroughputLimitedByCandidateSelector)
{
    Rng rng(6006);
    const std::size_t n = 320;
    const RandomTask t = makeTask(rng, n, 64, 10);
    A3Accelerator acc(
        approxConfig(n, 64, ApproxConfig::conservative()));
    acc.loadTask(t.key, t.value);
    const RunStats stats = acc.runAll(t.queries);
    // Candidate stage service: 5 + M + ceil(320/16) = 5 + 160 + 20.
    const double candidateService = 5.0 + 160.0 + 20.0;
    // The selector dominates unless some C+9 exceeds it; allow the
    // bottleneck to be within a few cycles of it.
    EXPECT_GE(stats.cyclesPerQuery, candidateService - 1.0);
    EXPECT_LE(stats.cyclesPerQuery, candidateService + 40.0);
}

TEST(ApproxA3, FasterThanBaseOnSameTask)
{
    Rng rng(6007);
    const std::size_t n = 320;
    const RandomTask t = makeTask(rng, n, 64, 8);

    A3Accelerator base(baseConfig(n, 64));
    base.loadTask(t.key, t.value);
    const RunStats baseStats = base.runAll(t.queries);

    A3Accelerator aggr(
        approxConfig(n, 64, ApproxConfig::aggressive()));
    aggr.loadTask(t.key, t.value);
    const RunStats aggrStats = aggr.runAll(t.queries);

    EXPECT_LT(aggrStats.cyclesPerQuery, baseStats.cyclesPerQuery);
    EXPECT_LT(aggrStats.avgLatency, baseStats.avgLatency);
}

TEST(ApproxA3, OutputsMatchQuantizedSubsetFlow)
{
    Rng rng(6008);
    const RandomTask t = makeTask(rng, 64, 64, 2);
    A3Accelerator acc(
        approxConfig(64, 64, ApproxConfig::conservative()));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    // Recompute the expected flow by hand from its parts: greedy
    // search on the sorted key, quantized scores of the candidates,
    // post-scoring, and the final pass over the survivors.
    const ApproxConfig approx = ApproxConfig::conservative();
    const SortedKey sorted = SortedKey::build(t.key);
    const QuantizedAttention datapath(t.key, t.value, 4, 4);
    for (std::size_t i = 0; i < t.queries.size(); ++i) {
        auto out = acc.popOutput();
        ASSERT_TRUE(out.has_value());
        const CandidateSearchResult search = efficientGreedySearch(
            sorted, t.queries[i], approx.iterationsFor(64),
            approx.skipHeuristic);
        ASSERT_FALSE(search.candidates.empty());
        AttentionResult pass;
        datapath.runRowsInto(t.queries[i], search.candidates, pass);
        Vector scores(search.candidates.size());
        for (std::size_t j = 0; j < search.candidates.size(); ++j)
            scores[j] = pass.scores[search.candidates[j]];
        const std::vector<std::uint32_t> kept = postScoringSelect(
            search.candidates, scores, approx.scoreGap());
        AttentionResult expected;
        datapath.runRowsInto(t.queries[i], kept, expected);
        EXPECT_EQ(out->result.output, expected.output);
        EXPECT_EQ(out->iterM, approx.iterationsFor(64));
        EXPECT_EQ(out->candidatesC, search.candidates.size());
        EXPECT_EQ(out->keptK, kept.size());
    }
}

TEST(ApproxA3, SortedKeySramIsUsed)
{
    Rng rng(6009);
    const RandomTask t = makeTask(rng, 64, 64, 2);
    A3Accelerator acc(
        approxConfig(64, 64, ApproxConfig::conservative()));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    EXPECT_GT(acc.sortedKeySram().reads(), 0u);
    EXPECT_GT(acc.sortedKeySram().writes(), 0u);
}

TEST(Accelerator, StagesExposedInPipelineOrder)
{
    A3Accelerator base(baseConfig(32, 64));
    EXPECT_EQ(base.stages().size(), 3u);
    A3Accelerator approx(
        approxConfig(32, 64, ApproxConfig::conservative()));
    const auto stages = approx.stages();
    ASSERT_EQ(stages.size(), 4u);
    EXPECT_EQ(stages[0]->name(), "candidate_selection");
    EXPECT_EQ(stages[3]->name(), "output");
}

TEST(Accelerator, DeterministicAcrossRuns)
{
    Rng rng(6010);
    const RandomTask t = makeTask(rng, 48, 64, 4);
    RunStats first;
    RunStats second;
    for (int pass = 0; pass < 2; ++pass) {
        A3Accelerator acc(
            approxConfig(48, 64, ApproxConfig::aggressive()));
        acc.loadTask(t.key, t.value);
        const RunStats stats = acc.runAll(t.queries);
        (pass == 0 ? first : second) = stats;
    }
    EXPECT_EQ(first.totalCycles, second.totalCycles);
    EXPECT_EQ(first.avgLatency, second.avgLatency);
    EXPECT_EQ(first.avgCandidates, second.avgCandidates);
}

TEST(Accelerator, QueueDrainsInFifoOrder)
{
    Rng rng(6011);
    const RandomTask t = makeTask(rng, 16, 64, 6);
    A3Accelerator acc(baseConfig(16, 64));
    acc.loadTask(t.key, t.value);
    acc.runAll(t.queries);
    std::uint64_t expected = 0;
    while (auto out = acc.popOutput())
        EXPECT_EQ(out->id, expected++);
    EXPECT_EQ(expected, 6u);
}

// ---------------------------------------------------------------------
// Golden runs: fixed seeds pin the cycle count, the work sizes and the
// exact output bits, so any change to the simulator's functional or
// timing model shows up here even when every formula test still holds.
// ---------------------------------------------------------------------

/** Expected figures of a six-query run; C and K as per-run sums. */
struct Golden
{
    Cycle totalCycles;
    std::size_t candidateSum;
    std::size_t keptSum;
    std::uint64_t outputHash;
};

/** FNV-1a over the float bits of every output, in completion order. */
std::uint64_t
hashOutputs(A3Accelerator &acc)
{
    std::uint64_t hash = 14695981039346656037ull;
    while (auto out = acc.popOutput()) {
        for (float x : out->result.output) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &x, sizeof bits);
            for (int byte = 0; byte < 4; ++byte) {
                hash ^= (bits >> (8 * byte)) & 0xffu;
                hash *= 1099511628211ull;
            }
        }
    }
    return hash;
}

void
expectGolden(const SimConfig &cfg, std::size_t rows, std::uint64_t seed,
             const Golden &want)
{
    Rng rng(seed);
    const RandomTask t = makeTask(rng, rows, cfg.dims, 6);
    A3Accelerator acc(cfg);
    acc.loadTask(t.key, t.value);
    const RunStats stats = acc.runAll(t.queries);
    ASSERT_EQ(stats.queries, 6u);
    EXPECT_EQ(stats.totalCycles, want.totalCycles);
    EXPECT_EQ(stats.avgCandidates,
              static_cast<double>(want.candidateSum) / 6.0);
    EXPECT_EQ(stats.avgKept, static_cast<double>(want.keptSum) / 6.0);
    EXPECT_EQ(hashOutputs(acc), want.outputHash);
}

TEST(SimGolden, BaseModeSpillsToDram)
{
    // 100 rows on a 64-row SRAM: 36 rows stream from DRAM.
    expectGolden(baseConfig(64, 64), 100, 6020,
                 {1124, 600, 600, 0xeda757b463e32168ull});
}

TEST(SimGolden, ApproxConservative)
{
    expectGolden(approxConfig(128, 64, ApproxConfig::conservative()),
                 128, 6021, {541, 256, 9, 0xf41ce88dd78218f0ull});
}

TEST(SimGolden, ApproxAggressive)
{
    expectGolden(approxConfig(128, 64, ApproxConfig::aggressive()),
                 128, 6022, {220, 88, 12, 0x21cdb86215a3d01aull});
}

}  // namespace
}  // namespace a3
