/**
 * @file
 * Tests for the flattened (query, shard) execution core: the
 * AttentionBackend work-unit contract (workUnitCount /
 * runUnitPartialInto / mergeUnitsInto), bit-identity of
 * engine-flattened batches against sequential per-query calls —
 * including mixed batches of sharded and unsharded sessions in one
 * drain, across thread counts — and the removal of the nested-
 * ThreadPool shape (concurrent engine passes over sharded backends
 * run under TSan with no pool borrowed inside a pool job).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::ExactFloat, EngineKind::ApproxFloat,
    EngineKind::ExactQuantized, EngineKind::ApproxQuantized};

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

Vector
randomQuery(Rng &rng, std::size_t d)
{
    Vector q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

void
expectBitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

/** One backend's batch through the engine's batch path, as a single
 *  request group. */
std::vector<AttentionResult>
runBatch(const AttentionEngine &engine, const AttentionBackend &backend,
         const std::vector<Vector> &queries)
{
    std::vector<AttentionRequestGroup> groups(1);
    groups[0].backend = &backend;
    groups[0].queries = queries;
    std::vector<std::vector<AttentionResult>> results;
    engine.runGroupsInto(groups, results);
    return std::move(results[0]);
}

TEST(FlattenedEngine, WorkUnitContractDefaults)
{
    Rng rng(21000);
    const std::size_t d = 12;
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(
            cfg, randomMatrix(rng, 48, d), randomMatrix(rng, 48, d));
        // Every plain backend is a single unit, and its one unit
        // partial merges to exactly its runInto() answer.
        EXPECT_EQ(backend->workUnitCount(), 1u);
        const Vector q = randomQuery(rng, d);
        PartialResult viaUnit;
        backend->runUnitPartialInto(0, q, viaUnit);
        AttentionResult merged;
        backend->mergeUnitsInto({viaUnit}, merged);
        expectBitIdentical(merged, backend->run(q));
    }
}

TEST(FlattenedEngine, ShardedUnitsMatchShards)
{
    Rng rng(21100);
    const std::size_t d = 10;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    ShardedConfig sharding;
    sharding.shardRows = 32;
    const ShardedBackend sharded(cfg, randomMatrix(rng, 100, d),
                                 randomMatrix(rng, 100, d), sharding);
    ASSERT_EQ(sharded.shardCount(), 4u);
    EXPECT_EQ(sharded.workUnitCount(), 4u);

    // Unit s computes shard s's partial; the fixed-order merge of
    // all the units is exactly the backend's own sequential answer.
    const Vector q = randomQuery(rng, d);
    std::vector<PartialResult> partials(sharded.workUnitCount());
    for (std::size_t u = 0; u < partials.size(); ++u)
        sharded.runUnitPartialInto(u, q, partials[u]);
    AttentionResult merged;
    sharded.mergeUnitsInto(partials, merged);
    expectBitIdentical(merged, sharded.run(q));
}

TEST(FlattenedEngine, SingleShardKeepsExactPathEveryKind)
{
    // S = 1 exposes one unit, so the engine routes the query through
    // the sharded runInto(): the shard's unit partial merged alone,
    // bit-identical to the wrapped backend for every kind.
    Rng rng(21200);
    const std::size_t d = 8;
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const Matrix key = randomMatrix(rng, 40, d);
        const Matrix value = randomMatrix(rng, 40, d);
        ShardedConfig sharding;
        sharding.shardRows = 64;
        const ShardedBackend sharded(cfg, key, value, sharding);
        ASSERT_EQ(sharded.workUnitCount(), 1u);
        const auto plain = makeBackend(cfg, key, value);

        AttentionEngine engine(4);
        std::vector<Vector> queries;
        for (int i = 0; i < 6; ++i)
            queries.push_back(randomQuery(rng, d));
        const std::vector<AttentionResult> batched =
            runBatch(engine, sharded, queries);
        for (std::size_t i = 0; i < queries.size(); ++i) {
            SCOPED_TRACE("query " + std::to_string(i));
            expectBitIdentical(batched[i], plain->run(queries[i]));
        }
    }
}

TEST(FlattenedEngine, MixedGroupsBitIdenticalAcrossThreadCounts)
{
    // One batch mixing multi-shard, single-shard, and plain groups:
    // the flattened work list interleaves all their units, and every
    // result must be bit-identical to the sequential per-query call
    // regardless of the engine's thread count.
    Rng rng(21300);
    const std::size_t d = 12;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;

    ShardedConfig wide;
    wide.shardRows = 48;
    const ShardedBackend big(cfg, randomMatrix(rng, 200, d),
                             randomMatrix(rng, 200, d), wide);
    ASSERT_GT(big.workUnitCount(), 1u);
    EngineConfig approxCfg;
    approxCfg.kind = EngineKind::ApproxFloat;
    const ShardedBackend medium(approxCfg, randomMatrix(rng, 96, d),
                                randomMatrix(rng, 96, d), wide);
    const auto plain = makeBackend(cfg, randomMatrix(rng, 64, d),
                                   randomMatrix(rng, 64, d));

    std::vector<AttentionRequestGroup> groups(3);
    groups[0].backend = &big;
    groups[1].backend = &medium;
    groups[2].backend = plain.get();
    for (int i = 0; i < 5; ++i)
        groups[0].queries.push_back(randomQuery(rng, d));
    for (int i = 0; i < 3; ++i)
        groups[1].queries.push_back(randomQuery(rng, d));
    for (int i = 0; i < 7; ++i)
        groups[2].queries.push_back(randomQuery(rng, d));

    for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        const AttentionEngine engine(threads);
        std::vector<std::vector<AttentionResult>> results;
        engine.runGroupsInto(groups, results);
        ASSERT_EQ(results.size(), groups.size());
        for (std::size_t g = 0; g < groups.size(); ++g) {
            ASSERT_EQ(results[g].size(), groups[g].queries.size());
            for (std::size_t i = 0; i < groups[g].queries.size();
                 ++i) {
                SCOPED_TRACE("group " + std::to_string(g) +
                             " query " + std::to_string(i));
                expectBitIdentical(
                    results[g][i],
                    groups[g].backend->run(groups[g].queries[i]));
            }
        }
    }
}

TEST(FlattenedEngine, MixedDrainParallelBitIdenticalToSerial)
{
    // The serving-tier shape the tentpole exists for: sharded and
    // unsharded sessions coalesced into ONE drain, executed by a
    // multi-threaded engine, must answer every ticket bit-identical
    // to a single-threaded engine fed the same submissions.
    Rng rng(21500);
    const std::size_t d = 10;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const Matrix hugeKey = randomMatrix(rng, 180, d);
    const Matrix hugeValue = randomMatrix(rng, 180, d);
    const Matrix smallKey = randomMatrix(rng, 48, d);
    const Matrix smallValue = randomMatrix(rng, 48, d);
    std::vector<Vector> hugeQueries;
    std::vector<Vector> smallQueries;
    for (int i = 0; i < 6; ++i) {
        hugeQueries.push_back(randomQuery(rng, d));
        smallQueries.push_back(randomQuery(rng, d));
    }

    const auto runTier = [&](std::size_t threads) {
        AttentionEngine engine(threads);
        SessionCache cache({.byteBudget = 64u << 20});
        ShardedConfig sharding;
        sharding.shardRows = 48;
        cache.insert("huge", makeShardedBackend(cfg, hugeKey,
                                                hugeValue, sharding));
        cache.insert("small", makeBackend(cfg, smallKey, smallValue));
        const SessionHandle huge = cache.lookupSession("huge");
        const SessionHandle small = cache.lookupSession("small");
        BatchScheduler scheduler(engine, cache);
        for (int i = 0; i < 6; ++i) {
            scheduler.submit(huge, hugeQueries[i]);
            scheduler.submit(small, smallQueries[i]);
        }
        return scheduler.drain();
    };

    const std::vector<ServingResult> parallel = runTier(4);
    const std::vector<ServingResult> serial = runTier(1);
    ASSERT_EQ(parallel.size(), 12u);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        SCOPED_TRACE("completion " + std::to_string(i));
        ASSERT_TRUE(parallel[i].ok());
        EXPECT_EQ(parallel[i].ticket, serial[i].ticket);
        EXPECT_EQ(parallel[i].session, serial[i].session);
        expectBitIdentical(parallel[i].result, serial[i].result);
    }
}

TEST(FlattenedEngine, WorkUnitsCountedPerDrain)
{
    Rng rng(21600);
    const std::size_t d = 8;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    AttentionEngine engine(2);
    SessionCache cache({.byteBudget = 64u << 20});
    ShardedConfig sharding;
    sharding.shardRows = 16;
    cache.insert("sharded",
                 makeShardedBackend(cfg, randomMatrix(rng, 64, d),
                                    randomMatrix(rng, 64, d),
                                    sharding));  // 4 shards
    cache.insert("plain", makeBackend(cfg, randomMatrix(rng, 16, d),
                                      randomMatrix(rng, 16, d)));
    const SessionHandle sharded = cache.lookupSession("sharded");
    const SessionHandle plain = cache.lookupSession("plain");
    BatchScheduler scheduler(engine, cache);
    for (int i = 0; i < 3; ++i) {
        scheduler.submit(sharded, randomQuery(rng, d));
        scheduler.submit(plain, randomQuery(rng, d));
    }
    ASSERT_EQ(scheduler.drain().size(), 6u);
    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.answered, 6u);
    // 3 queries × 4 shard units + 3 queries × 1 unit.
    EXPECT_EQ(stats.workUnits, 15u);
}

TEST(FlattenedEngine, NoNestedPoolUnderConcurrentEnginePasses)
{
    // The TSan regression for the removed nesting shape: two threads
    // drive batched passes over multi-shard backends through one
    // shared engine while a third queries a sharded backend
    // directly. Before the refactor each sharded query re-entered a
    // borrowed pool from inside an engine lane; now every shard
    // partial is a first-class unit on the engine's own work list,
    // and direct backend calls stay single-threaded. Results must
    // stay bit-identical throughout.
    Rng rng(21700);
    const std::size_t d = 8;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    ShardedConfig sharding;
    sharding.shardRows = 24;
    const ShardedBackend shardedA(cfg, randomMatrix(rng, 96, d),
                                  randomMatrix(rng, 96, d), sharding);
    const ShardedBackend shardedB(cfg, randomMatrix(rng, 72, d),
                                  randomMatrix(rng, 72, d), sharding);

    std::vector<Vector> queries;
    for (int i = 0; i < 8; ++i)
        queries.push_back(randomQuery(rng, d));
    const std::vector<AttentionResult> wantA =
        runBatch(AttentionEngine(1), shardedA, queries);
    const std::vector<AttentionResult> wantB =
        runBatch(AttentionEngine(1), shardedB, queries);

    AttentionEngine engine(4);
    std::atomic<bool> failed{false};
    const auto batchWorker = [&](const ShardedBackend &backend,
                                 const std::vector<AttentionResult>
                                     &want) {
        std::vector<AttentionRequestGroup> groups(1);
        groups[0].backend = &backend;
        groups[0].queries = queries;
        std::vector<std::vector<AttentionResult>> results;
        for (int pass = 0; pass < 6; ++pass) {
            engine.runGroupsInto(groups, results);
            for (std::size_t i = 0; i < queries.size(); ++i) {
                if (results[0][i].output != want[i].output ||
                    results[0][i].weights != want[i].weights)
                    failed.store(true);
            }
        }
    };
    std::thread a(batchWorker, std::cref(shardedA),
                  std::cref(wantA));
    std::thread b(batchWorker, std::cref(shardedB),
                  std::cref(wantB));
    std::thread direct([&] {
        AttentionResult out;
        for (int pass = 0; pass < 6; ++pass) {
            for (std::size_t i = 0; i < queries.size(); ++i) {
                shardedA.runInto(queries[i], out);
                if (out.output != wantA[i].output)
                    failed.store(true);
            }
        }
    });
    a.join();
    b.join();
    direct.join();
    EXPECT_FALSE(failed.load());
}

}  // namespace
}  // namespace a3
