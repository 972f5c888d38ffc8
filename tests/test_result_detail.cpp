/**
 * @file
 * Tests for the ResultDetail contract: at Output every path — plain
 * backends, ShardedBackend (store-less and store-backed), the
 * engine's flattened work units, the BatchScheduler, and the
 * RemoteShardCoordinator over in-process workers through failover
 * and local fallback — returns an output and iteration count
 * bit-identical to Full and leaves the dense per-row fields empty;
 * at Full the dense fields are today's. Also the protocol side:
 * lean replies travel as zero-count arrays, and a Query with an
 * unknown flags bit is rejected.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "net/fault_injector.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_protocol.hpp"
#include "serving/remote_worker.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_store.hpp"
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

EngineConfig
configFor(EngineKind kind)
{
    EngineConfig config;
    config.kind = kind;
    config.intBits = 5;
    config.fracBits = 6;
    return config;
}

/** An Output result: Full's output and iterations, nothing else. */
void
expectLeanMatches(const AttentionResult &lean,
                  const AttentionResult &full)
{
    EXPECT_EQ(lean.output, full.output);
    EXPECT_EQ(lean.iterations, full.iterations);
    EXPECT_TRUE(lean.weights.empty());
    EXPECT_TRUE(lean.scores.empty());
    EXPECT_TRUE(lean.candidates.empty());
    EXPECT_TRUE(lean.kept.empty());
}

void
expectLeanMatches(const PartialResult &lean, const PartialResult &full)
{
    expectLeanMatches(static_cast<const AttentionResult &>(lean),
                      static_cast<const AttentionResult &>(full));
    EXPECT_EQ(lean.maxScore, full.maxScore);
    EXPECT_EQ(lean.expSum, full.expSum);
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

/** Both detail levels of `backend` over `queries`, plus every unit
 *  partial, with the same reused (and first dirtied) result
 *  objects. */
void
checkBackend(const AttentionBackend &backend,
             const std::vector<Vector> &queries)
{
    AttentionResult lean;
    PartialResult leanPartial;
    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        const Vector &q = queries[i];
        const AttentionResult full = backend.run(q);
        ASSERT_EQ(full.weights.size(), backend.rows());
        ASSERT_FALSE(full.kept.empty());
        // Reuse after a Full answer: Output must clear, not keep,
        // the dense fields.
        backend.runInto(q, lean);
        backend.runInto(q, lean, ResultDetail::Output);
        expectLeanMatches(lean, full);

        for (std::size_t u = 0; u < backend.workUnitCount(); ++u) {
            PartialResult fullPartial;
            backend.runUnitPartialInto(u, q, fullPartial);
            backend.runUnitPartialInto(u, q, leanPartial);
            backend.runUnitPartialInto(u, q, leanPartial,
                                       ResultDetail::Output);
            expectLeanMatches(leanPartial, fullPartial);
        }
    }
}

TEST(ResultDetail, PlainBackendsOutputMatchesFull)
{
    Rng rng(1);
    const std::size_t n = 40;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    std::vector<Vector> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(randomQuery(rng, d));
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        checkBackend(*makeBackend(configFor(kind), key, value),
                     queries);
    }
}

TEST(ResultDetail, ShardedBackendsOutputMatchesFull)
{
    Rng rng(2);
    const std::size_t n = 70;  // 4 x 16 + a 6-row tail
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    std::vector<Vector> queries;
    for (int i = 0; i < 4; ++i)
        queries.push_back(randomQuery(rng, d));
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig inner = configFor(kind);
        ShardStore store;
        const ShardedBackend storeless(inner, key, value,
                                       ShardedConfig{16});
        const ShardedBackend stored(inner, key, value,
                                    ShardedConfig{16, &store});
        ASSERT_EQ(storeless.shardCount(), 5u);
        ASSERT_EQ(stored.shardCount(), 5u);
        checkBackend(storeless, queries);
        checkBackend(stored, queries);

        // The engine's unit path: lean unit partials merge into a
        // lean result carrying the Full output.
        std::vector<PartialResult> partials(storeless.workUnitCount());
        AttentionResult merged;
        for (const Vector &q : queries) {
            for (std::size_t u = 0; u < partials.size(); ++u)
                storeless.runUnitPartialInto(u, q, partials[u],
                                             ResultDetail::Output);
            storeless.mergeUnitsInto(partials, merged);
            expectLeanMatches(merged, storeless.run(q));
        }
    }
}

TEST(ResultDetail, EngineGroupsRunAtTheirDetail)
{
    Rng rng(3);
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, 56, d);
    const Matrix value = randomMatrix(rng, 56, d);
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig inner = configFor(kind);
        const ShardedBackend sharded(inner, key, value,
                                     ShardedConfig{16});
        const auto plain = makeBackend(inner, key, value);
        std::vector<AttentionRequestGroup> groups{
            {&sharded, {}, ResultDetail::Output},
            {&sharded, {}, ResultDetail::Full},
            {plain.get(), {}, ResultDetail::Output}};
        for (int i = 0; i < 3; ++i)
            for (AttentionRequestGroup &group : groups)
                group.queries.push_back(randomQuery(rng, d));

        const AttentionEngine engine(2);
        std::vector<std::vector<AttentionResult>> results;
        engine.runGroupsInto(groups, results);
        ASSERT_EQ(results.size(), groups.size());
        for (std::size_t q = 0; q < 3; ++q) {
            SCOPED_TRACE("query " + std::to_string(q));
            expectLeanMatches(results[0][q],
                              sharded.run(groups[0].queries[q]));
            expectBitIdentical(results[1][q],
                               sharded.run(groups[1].queries[q]));
            expectLeanMatches(results[2][q],
                              plain->run(groups[2].queries[q]));
        }
    }
}

TEST(ResultDetail, SchedulerCompletionsFollowSubmitDetail)
{
    Rng rng(4);
    const std::size_t d = 16;
    const EngineConfig inner = configFor(EngineKind::ApproxFloat);
    AttentionEngine engine(2);
    SessionCacheConfig cacheConfig;
    cacheConfig.shardRows = 16;
    SessionCache cache(cacheConfig);
    BatchScheduler scheduler(engine, cache);
    const SessionHandle lean =
        cache
            .bindSession("lean", inner, randomMatrix(rng, 50, d),
                         randomMatrix(rng, 50, d))
            .handle;
    const SessionHandle full =
        cache
            .bindSession("full", inner, randomMatrix(rng, 50, d),
                         randomMatrix(rng, 50, d))
            .handle;
    // Sharded sessions: the engine runs lean per-shard units.
    ASSERT_EQ(lean.backend()->workUnitCount(), 4u);

    std::vector<Vector> queries;
    for (int i = 0; i < 6; ++i) {
        queries.push_back(randomQuery(rng, d));
        // The default submit is Output; "full" asks for Full.
        const AdmissionOutcome outcome =
            i % 2 == 0 ? scheduler.submit(lean, queries.back())
                       : scheduler.submit(
                             full, queries.back(),
                             {.detail = ResultDetail::Full});
        ASSERT_TRUE(outcome.admitted());
    }
    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), queries.size());
    for (std::size_t i = 0; i < completions.size(); ++i) {
        SCOPED_TRACE("completion " + std::to_string(i));
        ASSERT_TRUE(completions[i].ok());
        const AttentionResult want =
            (i % 2 == 0 ? lean : full).backend()->run(queries[i]);
        if (i % 2 == 0)
            expectLeanMatches(completions[i].result, want);
        else
            expectBitIdentical(completions[i].result, want);
    }
}

TEST(ResultDetail, SchedulerGroupRunsFullIfAnyRequestAsks)
{
    Rng rng(5);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    const SessionHandle handle =
        cache
            .bindSession("s", configFor(EngineKind::ExactFloat),
                         randomMatrix(rng, 24, d),
                         randomMatrix(rng, 24, d))
            .handle;
    const Vector first = randomQuery(rng, d);
    const Vector second = randomQuery(rng, d);
    ASSERT_TRUE(scheduler.submit(handle, first).admitted());
    ASSERT_TRUE(scheduler
                    .submit(handle, second,
                            {.detail = ResultDetail::Full})
                    .admitted());
    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 2u);
    expectBitIdentical(completions[0].result,
                       handle.backend()->run(first));
    expectBitIdentical(completions[1].result,
                       handle.backend()->run(second));
}

// ------------------------------------------------------------ remote

/** In-process worker fleet. */
struct Fleet
{
    std::vector<std::unique_ptr<InProcessWorker>> workers;

    explicit Fleet(std::size_t count)
    {
        for (std::size_t w = 0; w < count; ++w)
            workers.push_back(std::make_unique<InProcessWorker>(
                "w" + std::to_string(w)));
    }

    std::vector<RemoteWorkerSpec>
    specs()
    {
        std::vector<RemoteWorkerSpec> result;
        for (auto &worker : workers) {
            RemoteWorkerSpec spec;
            spec.name = worker->name();
            spec.connect = [&worker](NetStatus &) {
                return worker->clientTransport();
            };
            result.push_back(std::move(spec));
        }
        return result;
    }
};

RemoteShardConfig
fastConfig()
{
    RemoteShardConfig config;
    config.shardRows = 16;
    config.queryDeadlineSeconds = 0.25;
    config.heartbeatTimeoutSeconds = 0.1;
    config.retryBackoffSeconds = 0.001;
    config.retryBackoffMaxSeconds = 0.004;
    return config;
}

TEST(ResultDetail, RemoteCoordinatorOutputMatchesFull)
{
    Rng rng(6);
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, 70, d);
    const Matrix value = randomMatrix(rng, 70, d);
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        const EngineConfig inner = configFor(kind);
        Fleet fleet(3);
        RemoteShardCoordinator remote(inner, key, value,
                                      fleet.specs(), fastConfig());
        const ShardedBackend sharded(inner, key, value,
                                     ShardedConfig{16});
        // A single shard at both details too.
        Fleet single(1);
        RemoteShardConfig wide = fastConfig();
        wide.shardRows = 128;
        RemoteShardCoordinator whole(inner, key, value,
                                     single.specs(), wide);
        const auto plain = makeBackend(inner, key, value);

        AttentionResult got;
        for (int i = 0; i < 4; ++i) {
            const Vector q = randomQuery(rng, d);
            const AttentionResult want = sharded.run(q);
            remote.runInto(q, got, ResultDetail::Output);
            expectLeanMatches(got, want);
            remote.runInto(q, got);
            expectBitIdentical(got, want);

            whole.runInto(q, got, ResultDetail::Output);
            expectLeanMatches(got, plain->run(q));
            whole.runInto(q, got);
            expectBitIdentical(got, plain->run(q));
        }
        EXPECT_EQ(remote.stats().localFallbacks, 0u);
    }
}

TEST(ResultDetail, RemoteRecoveryPathsStayLeanAndExact)
{
    Rng rng(7);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ExactQuantized);
    const ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    // Dropped queries (retry), then a closed connection (failover
    // to the replica), then every worker gone (local fallback).
    Fleet fleet(3);
    auto injector = std::make_shared<FaultInjector>(
        9, std::vector<FaultRule>{{FrameType::Query, false,
                                   FaultAction::Drop,
                                   FaultDirection::Send, 1.0, 0.0,
                                   2}});
    RemoteShardConfig config = fastConfig();
    config.replication = 2;
    config.queryDeadlineSeconds = 0.05;
    config.decorateTransport =
        [injector](std::shared_ptr<Transport> inner) {
            return std::make_shared<FaultyTransport>(
                std::move(inner), injector);
        };
    RemoteShardCoordinator remote(inner, key, value, fleet.specs(),
                                  config);

    AttentionResult got;
    const auto check = [&] {
        for (int i = 0; i < 3; ++i) {
            const Vector q = randomQuery(rng, d);
            remote.runInto(q, got, ResultDetail::Output);
            expectLeanMatches(got, sharded.run(q));
        }
    };
    check();
    EXPECT_EQ(injector->stats().dropped, 2u);
    EXPECT_GT(remote.stats().retries, 0u);

    fleet.workers[0]->stop();
    check();
    EXPECT_GT(remote.stats().failovers + remote.stats().rebinds, 0u);
    EXPECT_EQ(remote.stats().localFallbacks, 0u);

    for (auto &worker : fleet.workers)
        worker->stop();
    check();
    EXPECT_GT(remote.stats().localFallbacks, 0u);
}

TEST(ResultDetail, RemoteSchedulerCompletionIsLean)
{
    Rng rng(8);
    const std::size_t d = 8;
    const Matrix key = randomMatrix(rng, 48, d);
    const Matrix value = randomMatrix(rng, 48, d);
    const EngineConfig inner = configFor(EngineKind::ApproxFloat);
    Fleet fleet(2);
    auto remote = std::make_shared<RemoteShardCoordinator>(
        inner, key, value, fleet.specs(), fastConfig());
    const ShardedBackend sharded(inner, key, value, ShardedConfig{16});

    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    cache.insert("remote", remote);
    const SessionHandle handle = cache.lookupSession("remote");
    const Vector lean = randomQuery(rng, d);
    ASSERT_TRUE(scheduler.submit(handle, lean).admitted());
    std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 1u);
    expectLeanMatches(completions[0].result, sharded.run(lean));

    const Vector full = randomQuery(rng, d);
    ASSERT_TRUE(
        scheduler.submit(handle, full, {.detail = ResultDetail::Full})
            .admitted());
    completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 1u);
    expectBitIdentical(completions[0].result, sharded.run(full));
}

// ---------------------------------------------------------- protocol

TEST(ResultDetailProtocol, QueryFlagsRoundTrip)
{
    for (const bool wantDetail : {false, true}) {
        QueryPayload query;
        query.requestId = 3;
        query.wantDetail = wantDetail;
        query.query = {1.0f, 2.0f};
        QueryPayload out;
        ASSERT_TRUE(decodeQuery(encodeQuery(query), out).ok());
        EXPECT_EQ(out.wantDetail, wantDetail);
    }
}

TEST(ResultDetailProtocol, UnknownQueryFlagIsMalformed)
{
    QueryPayload query;
    query.requestId = 4;
    query.query = {1.0f, 2.0f};
    const Frame frame = encodeQuery(query);
    // The flags byte follows u64 requestId, u32 shardId and u64
    // generation.
    constexpr std::size_t kFlagsOffset = 8 + 4 + 8;
    // Bit 0 asked for the single-shard mode before protocol
    // version 3.
    for (const std::uint8_t bit : {1, 4, 8, 0x80}) {
        Frame bad = frame;
        bad.payload[kFlagsOffset] |= bit;
        QueryPayload out;
        EXPECT_EQ(decodeQuery(bad, out).error, NetError::Malformed)
            << "flag " << static_cast<int>(bit);
    }
}

TEST(ResultDetailProtocol, LeanRepliesTravelAsZeroCountArrays)
{
    PartialReplyPayload partial;
    partial.requestId = 7;
    partial.shardId = 1;
    partial.partial.maxScore = 2.5f;
    partial.partial.expSum = 1.75f;
    partial.partial.iterations = 3;
    partial.partial.output = {0.5f, -1.0f, 2.0f};
    // A reused payload object arrives holding stale dense fields.
    PartialReplyPayload decoded;
    decoded.partial.weights = {1.0f};
    decoded.partial.kept = {0};
    const Frame frame = encodePartialReply(partial);
    ASSERT_TRUE(decodePartialReply(frame, decoded).ok());
    EXPECT_EQ(decoded.partial.output, partial.partial.output);
    EXPECT_EQ(decoded.partial.maxScore, 2.5f);
    EXPECT_EQ(decoded.partial.expSum, 1.75f);
    EXPECT_EQ(decoded.partial.iterations, 3u);
    EXPECT_TRUE(decoded.partial.weights.empty());
    EXPECT_TRUE(decoded.partial.scores.empty());
    EXPECT_TRUE(decoded.partial.candidates.empty());
    EXPECT_TRUE(decoded.partial.kept.empty());
    // requestId, shardId, maxScore, expSum and iterations, five
    // u64 array counts, and the three output floats.
    EXPECT_EQ(frame.payload.size(),
              8u + 4u + 4u + 4u + 8u + 5u * 8u + 3u * 4u);
}

}  // namespace
}  // namespace a3
