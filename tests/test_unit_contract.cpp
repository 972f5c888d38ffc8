/**
 * @file
 * Seeded generated-shape tests of the unit contract (runInto /
 * workUnitCount / runUnitPartialInto / mergeUnitsInto). Each seed
 * draws a task shape n x d, a shard size (S = 1, n a multiple of
 * shardRows, or a short tail), quantizer widths and queries, then
 * checks for every backend kind at both result details:
 *
 *  - one unit partial merged alone is the plain backend's runInto();
 *  - a serialized-and-restored backend answers like the live one;
 *  - a sharded backend's units plus its merge are its runInto();
 *  - S = 1 sharded is the plain backend, and store-backed is
 *    store-less;
 *  - the remote coordinator over in-process workers is the
 *    in-process sharded backend, and its one unit carries the terms
 *    of the merge over the sharded backend's units;
 *  - engine-parallel groups are the serial calls;
 *  - output is the same at Output and Full;
 *  - S > 1 exact-float results stay within the documented ULP bound
 *    of the unsharded reference.
 *
 * A hand-built partial checks that one partial merges to itself bit
 * for bit, signed zeros included.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "net/wire.hpp"
#include "serving/partial_merge.hpp"
#include "serving/remote_coordinator.hpp"
#include "serving/remote_worker.hpp"
#include "serving/shard_store.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

constexpr EngineKind kAllKinds[] = {
    EngineKind::ExactFloat, EngineKind::ApproxFloat,
    EngineKind::ExactQuantized, EngineKind::ApproxQuantized};

constexpr ResultDetail kBothDetails[] = {ResultDetail::Output,
                                         ResultDetail::Full};

/** Seeds drawn per run; fixed so the suite stays a few seconds. */
constexpr std::uint64_t kSeeds = 60;

/** One generated case: a task, its sharding, and queries. */
struct Shape
{
    std::size_t n = 0;
    std::size_t d = 0;
    std::size_t shardRows = 0;
    int intBits = 0;
    int fracBits = 0;
    Matrix key;
    Matrix value;
    std::vector<Vector> queries;
};

std::size_t
uniform(Rng &rng, std::size_t lo, std::size_t hi)
{
    return static_cast<std::size_t>(
        rng.uniformInt(static_cast<std::int64_t>(lo),
                       static_cast<std::int64_t>(hi)));
}

/**
 * Seed s picks its layout by s % 3: one shard holding every row, n
 * an exact multiple of shardRows, or a short remainder tail.
 */
Shape
drawShape(std::uint64_t seed)
{
    Rng rng(90000 + seed);
    Shape shape;
    shape.d = uniform(rng, 1, 24);
    shape.shardRows = uniform(rng, 1, 48);
    switch (seed % 3) {
      case 0:
        shape.n = uniform(rng, 1, shape.shardRows);
        shape.shardRows = shape.n + uniform(rng, 0, 8);
        break;
      case 1:
        shape.n = shape.shardRows * uniform(rng, 2, 5);
        break;
      default:
        shape.n = shape.shardRows * uniform(rng, 1, 4) +
                  uniform(rng, 1, shape.shardRows);
        break;
    }
    constexpr int kWidths[][2] = {{4, 4}, {5, 6}, {6, 10}, {1, 2}};
    const std::size_t width = uniform(rng, 0, 3);
    shape.intBits = kWidths[width][0];
    shape.fracBits = kWidths[width][1];

    shape.key = Matrix(shape.n, shape.d);
    shape.value = Matrix(shape.n, shape.d);
    for (std::size_t r = 0; r < shape.n; ++r)
        for (std::size_t c = 0; c < shape.d; ++c) {
            shape.key(r, c) = static_cast<float>(rng.normal());
            shape.value(r, c) = static_cast<float>(rng.normal());
        }
    for (int i = 0; i < 3; ++i) {
        Vector q(shape.d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
        shape.queries.push_back(std::move(q));
    }
    return shape;
}

std::string
describe(std::uint64_t seed, const Shape &shape)
{
    return "seed " + std::to_string(seed) + ": n=" +
           std::to_string(shape.n) + " d=" + std::to_string(shape.d) +
           " shardRows=" + std::to_string(shape.shardRows) + " bits=" +
           std::to_string(shape.intBits) + "." +
           std::to_string(shape.fracBits);
}

EngineConfig
configFor(EngineKind kind, const Shape &shape)
{
    EngineConfig config;
    config.kind = kind;
    config.intBits = shape.intBits;
    config.fracBits = shape.fracBits;
    return config;
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

/** `backend`'s units for `query`, merged in unit order. */
AttentionResult
viaUnits(const AttentionBackend &backend, const Vector &query,
         ResultDetail detail)
{
    std::vector<PartialResult> partials(backend.workUnitCount());
    for (std::size_t u = 0; u < partials.size(); ++u)
        backend.runUnitPartialInto(u, query, partials[u], detail);
    AttentionResult merged;
    backend.mergeUnitsInto(partials, merged);
    return merged;
}

AttentionResult
answer(const AttentionBackend &backend, const Vector &query,
       ResultDetail detail)
{
    AttentionResult out;
    backend.runInto(query, out, detail);
    return out;
}

void
expectSameTerms(const SoftmaxTerms &got, const SoftmaxTerms &want)
{
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.maxScore),
              std::bit_cast<std::uint32_t>(want.maxScore));
    EXPECT_EQ(std::bit_cast<std::uint32_t>(got.expSum),
              std::bit_cast<std::uint32_t>(want.expSum));
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

/**
 * The documented sharded-reference bound (README "Sharding"): within
 * 256 ULPs, or the absolute floor for cancellation near zero.
 */
void
expectWithinUlps(const Vector &got, const Vector &want, float absFloor)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        if (std::abs(got[i] - want[i]) <= absFloor)
            continue;
        EXPECT_LE(std::abs(orderedBits(got[i]) - orderedBits(want[i])),
                  256)
            << "component " << i << ": " << got[i] << " vs " << want[i];
    }
}

TEST(UnitContract, SinglePartialMergesToItself)
{
    // Share c Z / Z = 1 exactly for any finite terms, and the first
    // shard is a scaled copy rather than an axpy onto zeros, so even
    // signed zeros survive the merge.
    PartialResult partial;
    partial.output = {-0.0f, 1.5f, -2.25f, 0.0f};
    partial.weights = {0.75f, -0.0f, 0.25f};
    partial.scores = {3.5f, -1.0f, 0.5f};
    partial.candidates = {0, 2};
    partial.kept = {0, 2};
    partial.iterations = 7;
    partial.maxScore = 3.5f;
    partial.expSum = 1.0625f;
    AttentionResult merged;
    mergeShardPartials({partial}, {0}, 3, 4, merged);
    expectBitIdentical(merged, partial);
    EXPECT_TRUE(std::signbit(merged.output[0]));
    EXPECT_TRUE(std::signbit(merged.weights[1]));
}

TEST(UnitContract, PlainUnitMergesToRunInto)
{
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Shape shape = drawShape(seed);
        SCOPED_TRACE(describe(seed, shape));
        for (const EngineKind kind : kAllKinds) {
            SCOPED_TRACE(engineKindName(kind));
            const EngineConfig config = configFor(kind, shape);
            const auto plain =
                makeBackend(config, shape.key, shape.value);
            ASSERT_EQ(plain->workUnitCount(), 1u);

            WireWriter image;
            plain->serializeState(image);
            WireReader reader(image.bytes());
            const auto restored = deserializeBackend(config, reader);
            ASSERT_NE(restored, nullptr);

            for (const Vector &q : shape.queries) {
                const AttentionResult full =
                    answer(*plain, q, ResultDetail::Full);
                for (const ResultDetail detail : kBothDetails) {
                    const AttentionResult want =
                        answer(*plain, q, detail);
                    EXPECT_EQ(want.output, full.output);
                    expectBitIdentical(viaUnits(*plain, q, detail),
                                       want);
                    expectBitIdentical(answer(*restored, q, detail),
                                       want);
                }
            }
        }
    }
}

TEST(UnitContract, ShardedUnitsMergeToRunInto)
{
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Shape shape = drawShape(seed);
        SCOPED_TRACE(describe(seed, shape));
        const std::size_t shards =
            (shape.n + shape.shardRows - 1) / shape.shardRows;
        for (const EngineKind kind : kAllKinds) {
            SCOPED_TRACE(engineKindName(kind));
            const EngineConfig config = configFor(kind, shape);
            const auto plain =
                makeBackend(config, shape.key, shape.value);
            const ShardedBackend storeless(
                config, shape.key, shape.value,
                ShardedConfig{shape.shardRows});
            ShardStore store;
            const ShardedBackend stored(
                config, shape.key, shape.value,
                ShardedConfig{shape.shardRows, &store});
            ASSERT_EQ(storeless.workUnitCount(), shards);
            ASSERT_EQ(stored.workUnitCount(), shards);

            for (const Vector &q : shape.queries) {
                const AttentionResult full =
                    answer(storeless, q, ResultDetail::Full);
                for (const ResultDetail detail : kBothDetails) {
                    const AttentionResult want =
                        answer(storeless, q, detail);
                    EXPECT_EQ(want.output, full.output);
                    expectBitIdentical(viaUnits(storeless, q, detail),
                                       want);
                    expectBitIdentical(answer(stored, q, detail), want);
                    if (shards == 1)
                        expectBitIdentical(want,
                                           answer(*plain, q, detail));
                }
                if (kind == EngineKind::ExactFloat && shards > 1) {
                    // Scores and selections are exact; only the
                    // softmax terms pick up shard-boundary rounding.
                    const AttentionResult unsharded =
                        answer(*plain, q, ResultDetail::Full);
                    EXPECT_EQ(full.scores, unsharded.scores);
                    EXPECT_EQ(full.kept, unsharded.kept);
                    expectWithinUlps(full.weights, unsharded.weights,
                                     1e-9f);
                    expectWithinUlps(full.output, unsharded.output,
                                     1e-6f);
                }
            }
        }
    }
}

TEST(UnitContract, EngineGroupsMatchSerialCalls)
{
    const AttentionEngine engine(3);
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
        const Shape shape = drawShape(seed);
        SCOPED_TRACE(describe(seed, shape));
        for (const EngineKind kind : kAllKinds) {
            SCOPED_TRACE(engineKindName(kind));
            const EngineConfig config = configFor(kind, shape);
            const auto plain =
                makeBackend(config, shape.key, shape.value);
            const ShardedBackend sharded(
                config, shape.key, shape.value,
                ShardedConfig{shape.shardRows});
            std::vector<AttentionRequestGroup> groups;
            for (const ResultDetail detail : kBothDetails) {
                groups.push_back({plain.get(), shape.queries, detail});
                groups.push_back({&sharded, shape.queries, detail});
            }
            std::vector<std::vector<AttentionResult>> results;
            engine.runGroupsInto(groups, results);
            ASSERT_EQ(results.size(), groups.size());
            for (std::size_t g = 0; g < groups.size(); ++g)
                for (std::size_t q = 0; q < shape.queries.size(); ++q)
                    expectBitIdentical(
                        results[g][q],
                        answer(*groups[g].backend, shape.queries[q],
                               groups[g].detail));
        }
    }
}

TEST(UnitContract, RemoteMatchesInProcess)
{
    // Every other seed keeps the suite to a few seconds: each
    // coordinator binds its shards onto two worker threads.
    for (std::uint64_t seed = 0; seed < kSeeds; seed += 2) {
        const Shape shape = drawShape(seed);
        SCOPED_TRACE(describe(seed, shape));
        for (const EngineKind kind : kAllKinds) {
            SCOPED_TRACE(engineKindName(kind));
            const EngineConfig config = configFor(kind, shape);
            std::vector<std::unique_ptr<InProcessWorker>> workers;
            std::vector<RemoteWorkerSpec> specs;
            for (int w = 0; w < 2; ++w) {
                workers.push_back(std::make_unique<InProcessWorker>(
                    "w" + std::to_string(w)));
                RemoteWorkerSpec spec;
                spec.name = workers.back()->name();
                spec.connect = [worker = workers.back().get()](
                                   NetStatus &) {
                    return worker->clientTransport();
                };
                specs.push_back(std::move(spec));
            }
            RemoteShardConfig remoteConfig;
            remoteConfig.shardRows = shape.shardRows;
            const RemoteShardCoordinator remote(
                config, shape.key, shape.value, std::move(specs),
                remoteConfig);
            const ShardedBackend sharded(
                config, shape.key, shape.value,
                ShardedConfig{shape.shardRows});
            std::vector<std::size_t> offsets;
            for (std::size_t s = 0; s < sharded.shardCount(); ++s)
                offsets.push_back(sharded.shardOffset(s));
            for (const Vector &q : shape.queries) {
                for (const ResultDetail detail : kBothDetails) {
                    expectBitIdentical(answer(remote, q, detail),
                                       answer(sharded, q, detail));
                    // The coordinator's one unit carries the terms
                    // of the merge over the in-process shard units.
                    PartialResult unit;
                    remote.runUnitPartialInto(0, q, unit, detail);
                    std::vector<PartialResult> shardUnits(
                        sharded.workUnitCount());
                    for (std::size_t u = 0; u < shardUnits.size(); ++u)
                        sharded.runUnitPartialInto(u, q, shardUnits[u],
                                                   detail);
                    AttentionResult merged;
                    const SoftmaxTerms want = mergeShardPartials(
                        shardUnits, offsets, sharded.rows(),
                        sharded.dims(), merged);
                    expectSameTerms(unit, want);
                }
            }
            EXPECT_EQ(remote.stats().localFallbacks, 0u);
        }
    }
}

}  // namespace
}  // namespace a3
