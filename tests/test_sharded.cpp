/**
 * @file
 * Tests for sharded attention over huge contexts: the partial-output
 * backend contract (runPartialInto + finalizePartialInto ==
 * runInto), the ShardedBackend's log-sum-exp merge (S = 1 bit-
 * identity, ULP-bounded reference equivalence, statistical accuracy
 * for the approx/quantized kinds), append routing across the shard
 * boundary, fixed-order merge determinism under parallel fan-out,
 * and the serving-tier integration (SessionCache byte accounting,
 * BatchScheduler coalescing over sharded sessions).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "attention/quantized.hpp"
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

/** Map a float onto the lexicographically ordered integer line. */
std::int64_t
orderedBits(float f)
{
    const auto bits = std::bit_cast<std::int32_t>(f);
    if (bits >= 0)
        return bits;
    constexpr std::int64_t signFloor =
        std::numeric_limits<std::int32_t>::min();
    return signFloor - bits;
}

/** Units-in-the-last-place distance between two finite floats. */
std::int64_t
ulpDistance(float a, float b)
{
    if (!std::isfinite(a) || !std::isfinite(b))
        return std::numeric_limits<std::int64_t>::max();
    return std::abs(orderedBits(a) - orderedBits(b));
}

/**
 * The documented sharded-reference bound (README "Sharding"): within
 * kMaxUlps ULPs or the absolute floor, whichever is looser. Weights
 * are cancellation-free (sums of positives), so their floor only
 * absorbs subnormals; output components are signed sums whose
 * cancellation is not relative-error-bounded, hence the 1e-6 floor.
 */
constexpr std::int64_t kMaxUlps = 256;
constexpr float kWeightAbsFloor = 1e-9f;
constexpr float kOutputAbsFloor = 1e-6f;

void
expectWithinUlps(const Vector &got, const Vector &want, float absFloor)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::abs(got[i] - want[i]) <= absFloor)
            continue;
        EXPECT_LE(ulpDistance(got[i], want[i]), kMaxUlps)
            << "component " << i << ": " << got[i] << " vs "
            << want[i];
    }
}

float
relativeL2(const Vector &got, const Vector &want)
{
    double err = 0.0;
    double norm = 0.0;
    for (std::size_t i = 0; i < got.size(); ++i) {
        err += static_cast<double>(got[i] - want[i]) *
               (got[i] - want[i]);
        norm += static_cast<double>(want[i]) * want[i];
    }
    return norm > 0.0 ? static_cast<float>(std::sqrt(err / norm))
                      : 0.0f;
}

TEST(PartialResultContract, FinalizeMatchesRunIntoFloatKinds)
{
    Rng rng(11000);
    const std::size_t d = 12;
    for (const EngineKind kind :
         {EngineKind::ExactFloat, EngineKind::ApproxFloat}) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(cfg, randomMatrix(rng, 40, d),
                                         randomMatrix(rng, 40, d));
        for (int trial = 0; trial < 4; ++trial) {
            const Vector q = randomQuery(rng, d);
            PartialResult partial;
            backend->runPartialInto(q, partial);
            AttentionResult finalized;
            finalizePartialInto(partial, finalized);
            expectBitIdentical(finalized, backend->run(q));
        }
    }
}

TEST(PartialResultContract, DerivedFallbackPreservesWeighting)
{
    // The quantized kinds use the base-class fallback: partials are
    // scaled-up copies of the normalized result, so finalizing them
    // must recover the pipeline's own weights within a ULP-level
    // roundtrip (x * Z / Z).
    Rng rng(11100);
    const std::size_t d = 8;
    for (const EngineKind kind :
         {EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        cfg.intBits = 6;
        cfg.fracBits = 10;
        const auto backend = makeBackend(cfg, randomMatrix(rng, 24, d),
                                         randomMatrix(rng, 24, d));
        const Vector q = randomQuery(rng, d);
        PartialResult partial;
        backend->runPartialInto(q, partial);
        AttentionResult finalized;
        finalizePartialInto(partial, finalized);
        const AttentionResult direct = backend->run(q);
        EXPECT_EQ(finalized.scores, direct.scores);
        EXPECT_EQ(finalized.kept, direct.kept);
        expectWithinUlps(finalized.weights, direct.weights,
                         kWeightAbsFloor);
        expectWithinUlps(finalized.output, direct.output,
                         kOutputAbsFloor);
    }
}

TEST(ShardedBackend, SingleShardBitIdenticalAllKinds)
{
    Rng rng(11200);
    const std::size_t d = 16;
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const Matrix key = randomMatrix(rng, 48, d);
        const Matrix value = randomMatrix(rng, 48, d);
        ShardedConfig sharding;
        sharding.shardRows = 64;  // >= n: one degenerate shard
        const ShardedBackend sharded(cfg, key, value, sharding);
        EXPECT_EQ(sharded.shardCount(), 1u);
        const auto plain = makeBackend(cfg, key, value);
        for (int trial = 0; trial < 4; ++trial) {
            const Vector q = randomQuery(rng, d);
            expectBitIdentical(sharded.run(q), plain->run(q));
        }
    }
}

TEST(ShardedBackend, ReferenceMatchesUnshardedWithinUlps)
{
    Rng rng(11300);
    const std::size_t n = 257;  // odd: every layout has a short tail
    const std::size_t d = 16;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const ReferenceAttention plain(key, value);

    for (const std::size_t shardRows : {32u, 100u, 256u}) {
        SCOPED_TRACE("shardRows " + std::to_string(shardRows));
        ShardedConfig sharding;
        sharding.shardRows = shardRows;
        const ShardedBackend sharded(cfg, key, value, sharding);
        EXPECT_EQ(sharded.shardCount(),
                  (n + shardRows - 1) / shardRows);
        EXPECT_EQ(sharded.rows(), n);

        for (int trial = 0; trial < 6; ++trial) {
            const Vector q = randomQuery(rng, d);
            const AttentionResult got = sharded.run(q);
            const AttentionResult want = plain.run(q);
            // Per-row dot products see identical data row by row, so
            // scores and the selection lists are exactly equal; only
            // the softmax terms pick up shard-boundary rounding.
            EXPECT_EQ(got.scores, want.scores);
            EXPECT_EQ(got.candidates, want.candidates);
            EXPECT_EQ(got.kept, want.kept);
            expectWithinUlps(got.weights, want.weights,
                             kWeightAbsFloor);
            expectWithinUlps(got.output, want.output,
                             kOutputAbsFloor);

            float weightSum = 0.0f;
            for (const float w : got.weights)
                weightSum += w;
            EXPECT_NEAR(weightSum, 1.0f, 1e-4f);
        }
    }
}

TEST(ShardedBackend, AllKindsAccuracyBoundedVsReference)
{
    Rng rng(11400);
    const std::size_t n = 192;
    const std::size_t d = 16;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const ReferenceAttention reference(key, value);

    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        cfg.intBits = 6;
        cfg.fracBits = 10;
        ShardedConfig sharding;
        sharding.shardRows = 48;
        const ShardedBackend sharded(cfg, key, value, sharding);
        ASSERT_EQ(sharded.shardCount(), 4u);

        float worst = 0.0f;
        for (int trial = 0; trial < 8; ++trial) {
            const Vector q = randomQuery(rng, d);
            worst = std::max(
                worst, relativeL2(sharded.run(q).output,
                                  reference.run(q).output));
        }
        // Exact float shards reproduce the reference; approximation
        // and quantization are shard-local, so their sharded error
        // stays in the same statistical band the unsharded flows are
        // validated to (the harness' accuracy studies).
        const float bound =
            kind == EngineKind::ExactFloat ? 1e-5f : 0.5f;
        EXPECT_LE(worst, bound);
    }
}

TEST(ShardedBackend, PackedQuantizedShardsMatchWord32AndShrink)
{
    // The EngineConfig's packedKv knob rides into every shard via
    // makeBackend: shards store packed lanes, the aggregate
    // memoryBytes() reports the packed footprint, and — packing being
    // lossless — the merged results are bit-identical to the Word32
    // layout of the same configuration.
    Rng rng(11950);
    const std::size_t n = 96;
    const std::size_t d = 64;  // per-row scale overhead amortizes at
                               // the paper-default dimension
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    EngineConfig cfg;
    cfg.kind = EngineKind::ExactQuantized;
    cfg.intBits = 1;
    cfg.fracBits = 2;  // 4-bit word: Auto resolves to Int4
    ShardedConfig sharding;
    sharding.shardRows = 25;
    const ShardedBackend packed(cfg, key, value, sharding);

    EngineConfig word32Cfg = cfg;
    word32Cfg.packedKv = PackedKvFormat::Word32;
    const ShardedBackend word32(word32Cfg, key, value, sharding);

    ASSERT_EQ(packed.shardCount(), word32.shardCount());
    std::size_t total = 0;
    for (std::size_t s = 0; s < packed.shardCount(); ++s) {
        const auto *qa = dynamic_cast<const QuantizedAttention *>(
            &packed.shard(s));
        ASSERT_NE(qa, nullptr) << "shard " << s;
        EXPECT_EQ(qa->packedFormat(), PackedKvFormat::Int4);
        total += packed.shard(s).memoryBytes();
    }
    EXPECT_EQ(packed.memoryBytes(), total);
    // The 4-8x shrink survives aggregation (int4 + per-row scales
    // against the format-independent 8 bytes/element Word32 layout).
    EXPECT_LE(packed.memoryBytes() * 6, word32.memoryBytes());

    for (int trial = 0; trial < 6; ++trial) {
        const Vector q = randomQuery(rng, d);
        expectBitIdentical(packed.run(q), word32.run(q));
    }
}

TEST(ShardedBackend, ParallelMergeBitIdenticalToSerial)
{
    // Parallelism now comes from the engine's flattened (query,
    // shard) work list, not from a pool plumbed into the backend:
    // the engine decomposes each query into per-shard units and the
    // fixed-order merge makes who computed a partial irrelevant.
    Rng rng(11500);
    const std::size_t n = 300;
    const std::size_t d = 16;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    ShardedConfig sharding;
    sharding.shardRows = 64;
    const ShardedBackend sharded(cfg, key, value, sharding);
    ASSERT_GT(sharded.shardCount(), 1u);
    EXPECT_EQ(sharded.workUnitCount(), sharded.shardCount());

    const AttentionEngine parallel(4);
    const AttentionEngine serial(1);
    std::vector<Vector> queries;
    for (int i = 0; i < 8; ++i)
        queries.push_back(randomQuery(rng, d));
    const std::vector<AttentionResult> wide =
        parallel.run(sharded, queries);
    const std::vector<AttentionResult> narrow =
        serial.run(sharded, queries);
    ASSERT_EQ(wide.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        // Engine (any thread count) == engine (1 thread) == direct
        // sequential backend call, bit for bit.
        expectBitIdentical(wide[i], narrow[i]);
        expectBitIdentical(wide[i], sharded.run(queries[i]));
    }
}

TEST(ShardedBackend, ParallelMergeUnderConcurrentEngineQueries)
{
    // The old TSan shape — engine lanes triggering nested
    // parallelFor calls on a borrowed pool — is gone: the engine
    // flattens every (query, shard) unit of the batch into its own
    // work list, so shard partials of many concurrent queries share
    // lanes with no nesting. Batched results must stay bit-identical
    // to sequential ones.
    Rng rng(11600);
    const std::size_t n = 256;
    const std::size_t d = 12;
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    ShardedConfig sharding;
    sharding.shardRows = 64;
    const ShardedBackend sharded(cfg, key, value, sharding);

    AttentionEngine engine(4);
    std::vector<Vector> queries;
    for (int i = 0; i < 24; ++i)
        queries.push_back(randomQuery(rng, d));
    const std::vector<AttentionResult> batched =
        engine.run(sharded, queries);
    ASSERT_EQ(batched.size(), queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
        SCOPED_TRACE("query " + std::to_string(i));
        expectBitIdentical(batched[i], sharded.run(queries[i]));
    }
}

TEST(ShardedBackend, AppendRoutesToLastShardThenOpensNew)
{
    Rng rng(11700);
    const std::size_t d = 8;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    Matrix key = randomMatrix(rng, 12, d);
    Matrix value = randomMatrix(rng, 12, d);
    ShardedConfig sharding;
    sharding.shardRows = 8;
    ShardedBackend sharded(cfg, key, value, sharding);
    ASSERT_EQ(sharded.shardCount(), 2u);  // prefix-aligned 8 + 4
    EXPECT_EQ(sharded.shard(0).rows(), 8u);
    EXPECT_EQ(sharded.shard(1).rows(), 4u);
    EXPECT_EQ(sharded.shardOffset(1), 8u);

    // 4 rows top the last shard up to its 8-row capacity.
    const auto appendBoth = [&](std::size_t rows) {
        const Matrix keyRows = randomMatrix(rng, rows, d);
        const Matrix valueRows = randomMatrix(rng, rows, d);
        sharded.append(keyRows, valueRows);
        key.appendRows(keyRows);
        value.appendRows(valueRows);
    };
    appendBoth(4);
    EXPECT_EQ(sharded.shardCount(), 2u);
    EXPECT_EQ(sharded.shard(1).rows(), 8u);

    // 11 more: the full last shard opens a new 8-row shard plus a
    // 3-row tail, with ascending global ids across the boundary.
    appendBoth(11);
    EXPECT_EQ(sharded.shardCount(), 4u);
    EXPECT_EQ(sharded.shard(2).rows(), 8u);
    EXPECT_EQ(sharded.shard(3).rows(), 3u);
    EXPECT_EQ(sharded.shardOffset(3), 24u);
    EXPECT_EQ(sharded.rows(), key.rows());

    // memoryBytes aggregates the shards.
    std::size_t total = 0;
    for (std::size_t s = 0; s < sharded.shardCount(); ++s)
        total += sharded.shard(s).memoryBytes();
    EXPECT_EQ(sharded.memoryBytes(), total);

    // Queries after the appends match the unsharded reference over
    // the concatenated task within the documented bound.
    const ReferenceAttention plain(key, value);
    for (int trial = 0; trial < 4; ++trial) {
        const Vector q = randomQuery(rng, d);
        const AttentionResult got = sharded.run(q);
        const AttentionResult want = plain.run(q);
        EXPECT_EQ(got.scores, want.scores);
        expectWithinUlps(got.weights, want.weights,
                         kWeightAbsFloor);
        expectWithinUlps(got.output, want.output,
                         kOutputAbsFloor);
    }
}

TEST(ShardedBackend, SingleShardGrowsIntoMultipleViaAppend)
{
    Rng rng(11800);
    const std::size_t d = 8;
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    ShardedConfig sharding;
    sharding.shardRows = 8;
    ShardedBackend sharded(cfg, randomMatrix(rng, 4, d),
                           randomMatrix(rng, 4, d), sharding);
    EXPECT_EQ(sharded.shardCount(), 1u);

    // 10 rows: 4 fill the only shard to capacity, 6 open a second.
    sharded.append(randomMatrix(rng, 10, d), randomMatrix(rng, 10, d));
    EXPECT_EQ(sharded.shardCount(), 2u);
    EXPECT_EQ(sharded.shard(0).rows(), 8u);
    EXPECT_EQ(sharded.shard(1).rows(), 6u);
    EXPECT_EQ(sharded.rows(), 14u);
}

TEST(ShardedBackend, RejectsInvalidConfig)
{
    Rng rng(11900);
    const Matrix key = randomMatrix(rng, 8, 4);
    const Matrix value = randomMatrix(rng, 8, 4);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    ShardedConfig sharding;
    sharding.shardRows = 0;
    EXPECT_DEATH(ShardedBackend(cfg, key, value, sharding),
                 "shardRows");
}

TEST(ShardedBackend, ServesThroughSessionCacheAndScheduler)
{
    Rng rng(12000);
    const std::size_t d = 12;
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    ShardedConfig sharding;
    sharding.shardRows = 32;

    AttentionEngine engine(4);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);

    // A sharded session rides the serving tier through insert():
    // byte accounting, coalescing, and appends all see one backend.
    const auto backend = cache.insert(
        "huge", makeShardedBackend(cfg, randomMatrix(rng, 96, d),
                                   randomMatrix(rng, 96, d),
                                   sharding));
    EXPECT_EQ(cache.bytesInUse(), backend->memoryBytes());
    const SessionHandle handle = cache.lookupSession("huge");
    const SubmitOptions full{.detail = ResultDetail::Full};

    std::vector<Vector> queries;
    std::vector<std::uint64_t> tickets;
    for (int i = 0; i < 6; ++i) {
        queries.push_back(randomQuery(rng, d));
        tickets.push_back(
            scheduler.submit(handle, queries.back(), full).ticket);
    }
    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), queries.size());
    for (std::size_t i = 0; i < completions.size(); ++i) {
        EXPECT_EQ(completions[i].ticket, tickets[i]);
        expectBitIdentical(completions[i].result,
                           backend->run(queries[i]));
    }

    // A cache-routed append lands in the sharded routing: the last
    // 32-row shard is full, so a new shard opens and the accounting
    // follows the grown task.
    const AppendOutcome grown = cache.appendSession(
        handle, randomMatrix(rng, 5, d), randomMatrix(rng, 5, d));
    ASSERT_TRUE(grown.ok());
    const auto &sharded =
        dynamic_cast<const ShardedBackend &>(*backend);
    EXPECT_EQ(sharded.shardCount(), 4u);
    EXPECT_EQ(backend->rows(), 101u);
    EXPECT_EQ(cache.bytesInUse(), backend->memoryBytes());
}

}  // namespace
}  // namespace a3
