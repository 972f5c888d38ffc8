/**
 * @file
 * Huge-context QA: one session larger than any single backend task.
 *
 * Build and run:
 *     cmake -B build && cmake --build build
 *     ./build/examples/huge_context_qa
 *
 * A user loads a context of 100k+ rows — far past the n ~ 10^2..10^3
 * tasks the paper's accelerator binds — so the serving tier shards
 * it: row-contiguous slices each bind an inner backend, the engine
 * flattens each query into per-shard work units on its lanes, and
 * the per-shard softmax partials merge with the numerically stable
 * log-sum-exp combine.
 * The sharded session then rides the ordinary serving tier: cached
 * by byte size, coalesced by the scheduler, and extended mid-stream
 * through append(), which fills the last shard before opening a new
 * one.
 */

#include <cmath>
#include <cstdio>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "serving/sharded_backend.hpp"
#include "util/random.hpp"

int
main()
{
    using namespace a3;

    Rng rng(17);
    const std::size_t n = 120000;
    const std::size_t d = 32;
    const auto randomMatrix = [&rng](std::size_t rows,
                                     std::size_t dims) {
        Matrix m(rows, dims);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t c = 0; c < dims; ++c)
                m(r, c) = static_cast<float>(rng.normal());
        return m;
    };
    const auto randomQuery = [&rng](std::size_t dims) {
        Vector q(dims);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
        return q;
    };

    // 1. Build the huge context and shard it: 16k-row shards. The
    //    serving engine flattens the per-shard partial passes of
    //    every drained batch into one work list — no pool to plumb.
    const Matrix key = randomMatrix(n, d);
    const Matrix value = randomMatrix(n, d);
    EngineConfig config;
    config.kind = EngineKind::ExactFloat;
    ShardedConfig sharding;
    sharding.shardRows = 16384;

    AttentionEngine engine;
    ShardStore store;  // cross-session dedup of frozen shards
    SessionCacheConfig cacheConfig;
    cacheConfig.byteBudget = 256u << 20;
    cacheConfig.engine = config;
    cacheConfig.shardRows = sharding.shardRows;
    cacheConfig.store = &store;
    SessionCache cache(cacheConfig);
    BatchScheduler scheduler(engine, cache);
    const BindOutcome corpus =
        cache.bindSession("research-corpus", key, value);
    const auto backend = corpus.handle.backend();
    const auto &sharded =
        dynamic_cast<const ShardedBackend &>(*backend);
    std::printf("bound %zu rows as %zu shards (%zu MiB in cache)\n",
                backend->rows(), sharded.shardCount(),
                cache.bytesInUse() >> 20);

    // A second session over the same corpus shares its frozen shards
    // through the store instead of re-binding them: the cache charges
    // the shared bytes once, so the second binding is nearly free.
    const BindOutcome reviewer =
        cache.bindSession("reviewer-corpus", key, value);
    std::printf("second session over the same corpus: %s, "
                "%zu/%zu shards shared, +%zu MiB charged\n",
                bindStatusName(reviewer.status), reviewer.sharedShards,
                reviewer.shardCount, reviewer.chargedBytes >> 20);

    // 2. Questions stream through the ordinary serving tier. They
    //    ask for the per-row detail (weights, kept rows) on top of
    //    the output vector a plain submit returns.
    const SubmitOptions withDetail{.detail = ResultDetail::Full};
    for (int i = 0; i < 4; ++i)
        scheduler.submit(corpus.handle, randomQuery(d), withDetail);
    for (const ServingResult &done : scheduler.drain()) {
        float weightSum = 0.0f;
        for (const float w : done.result.weights)
            weightSum += w;
        std::printf("ticket %llu: %zu rows attended, "
                    "weight sum %.6f\n",
                    static_cast<unsigned long long>(done.ticket),
                    done.result.kept.size(), weightSum);
    }

    // 3. Sanity: the sharded answer matches an unsharded reference
    //    backend over the same task to float accuracy.
    const Vector probe = randomQuery(d);
    const ReferenceAttention unsharded(key, value);
    const float diff = maxAbsDiff(backend->run(probe).output,
                                  unsharded.run(probe).output);
    std::printf("max |sharded - unsharded| over one probe: %.3e\n",
                static_cast<double>(diff));

    // 4. The corpus grows mid-stream: appended rows fill the last
    //    shard to capacity, then open a new shard.
    const AppendOutcome grown = cache.appendSession(
        corpus.handle, randomMatrix(20000, d), randomMatrix(20000, d));
    std::printf("appended %zu rows: now %zu rows in %zu shards\n",
                grown.rowsAppended, backend->rows(),
                grown.shardCount);

    scheduler.submit(corpus.handle, randomQuery(d), withDetail);
    const auto wave2 = scheduler.drain();
    std::printf("post-append question answered over %zu rows\n",
                wave2.front().result.weights.size());
    return 0;
}
