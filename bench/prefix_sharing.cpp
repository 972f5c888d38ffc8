/**
 * @file
 * Cross-session prefix sharing and spill-tier benchmark, emitted as
 * one JSON object:
 *
 *  - "shared_capacity": 8 sessions bound over one document, with and
 *    without a ShardStore. Unshared, every session pays its full
 *    logical bytes; shared, identical frozen shards are charged once,
 *    so the cache holds the same 8 sessions in a fraction of the
 *    budget. session_capacity_ratio (unshared total / shared charged)
 *    is the headline number and is deterministic — pure byte
 *    accounting, no timing.
 *  - "warm_rebind": cold bind (full preprocessing) vs warm re-bind
 *    through a fresh ShardStore over an already-populated spill
 *    directory (mmap + decode, no recomputation), per backend kind.
 *    speedup_warm_vs_cold gates the spill tier's reason to exist;
 *    bit_identical confirms restored answers match the cold bind
 *    exactly. cold_bind_vs_exact_quantized divides each kind's cold
 *    bind by the ExactQuantized cold bind of the same run and shape,
 *    so for approx-quantized it is the sorted-key build's price on
 *    top of quantization, measured against a foil that has none.
 *  - "zipf_reuse": a request stream over D documents with Zipf
 *    popularity driving bind/evict churn through a budget-capped
 *    SessionCache backed by a spilling ShardStore. store_hit_rate is
 *    the fraction of shard acquisitions served without recomputation
 *    (live dedup or spill restore) — deterministic for the fixed
 *    seed.
 *
 * Usage: prefix_sharing [--repeats R] [--max-rows N]
 *   --max-rows N scales the document size down for CI smoke runs.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "bench_common.hpp"
#include "serving/session_cache.hpp"
#include "serving/shard_store.hpp"
#include "serving/sharded_backend.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace {

using namespace a3;

double
now()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

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

/** Fresh unique spill directory; removed by the destructor. */
class TempSpillDir
{
  public:
    TempSpillDir()
    {
        char templ[] = "/tmp/a3_prefix_bench_XXXXXX";
        const char *made = mkdtemp(templ);
        if (made == nullptr)
            fatal("mkdtemp failed for the bench spill dir");
        path_ = made;
    }

    ~TempSpillDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
bitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    return a.output == b.output && a.weights == b.weights &&
           a.scores == b.scores && a.candidates == b.candidates &&
           a.kept == b.kept && a.iterations == b.iterations;
}

// --- 8 sessions over one document, shared vs unshared --------------

struct SharedCapacityRow
{
    std::string backend;
    std::size_t sessions = 0;
    std::size_t rows = 0;
    std::size_t shards = 0;
    std::size_t logicalBytesPerSession = 0;
    std::size_t unsharedBytes = 0;
    std::size_t sharedBytes = 0;
    double sessionCapacityRatio = 0.0;
};

SharedCapacityRow
measureSharedCapacity(EngineKind kind, std::size_t sessions,
                      std::size_t n, std::size_t d,
                      std::size_t shardRows)
{
    Rng rng(bench::benchSeed);
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    EngineConfig engine;
    engine.kind = kind;

    // Unshared: store-less private shards; every session charges its
    // full footprint.
    SessionCacheConfig unsharedConfig;
    unsharedConfig.engine = engine;
    unsharedConfig.shardRows = shardRows;
    SessionCache unshared(unsharedConfig);
    for (std::size_t s = 0; s < sessions; ++s)
        unshared.bindSession("session-" + std::to_string(s), key,
                             value);

    // Shared: every frozen shard of the document is charged once no
    // matter how many sessions bind it.
    ShardStore store;
    SessionCacheConfig sharedConfig;
    sharedConfig.engine = engine;
    sharedConfig.shardRows = shardRows;
    sharedConfig.store = &store;
    SessionCache shared(sharedConfig);
    BindOutcome last;
    for (std::size_t s = 0; s < sessions; ++s)
        last = shared.bindSession("session-" + std::to_string(s), key,
                                  value);

    SharedCapacityRow row;
    row.backend = engineKindName(kind);
    row.sessions = sessions;
    row.rows = n;
    row.shards = last.shardCount;
    row.logicalBytesPerSession = last.logicalBytes;
    row.unsharedBytes = unshared.bytesInUse();
    row.sharedBytes = shared.bytesInUse();
    row.sessionCapacityRatio =
        row.sharedBytes > 0
            ? static_cast<double>(row.unsharedBytes) /
                  static_cast<double>(row.sharedBytes)
            : 0.0;
    return row;
}

// --- Warm spill re-bind vs cold recompute --------------------------

struct WarmRebindRow
{
    std::string backend;
    std::size_t rows = 0;
    std::size_t shards = 0;
    double coldBindSeconds = 0.0;
    double warmRebindSeconds = 0.0;
    double speedupWarmVsCold = 0.0;
    /** Cold bind over the ExactQuantized cold bind (set in main). */
    double coldBindVsExactQuantized = 0.0;
    /** 1 when every warm answer matched the cold bind exactly. */
    int bitIdentical = 0;
    std::size_t repeats = 0;
};

WarmRebindRow
measureWarmRebind(EngineKind kind, std::size_t n, std::size_t d,
                  std::size_t shardRows, std::size_t repeats)
{
    Rng rng(bench::benchSeed + 1);
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);
    const Vector query = randomQuery(rng, d);
    EngineConfig engine;
    engine.kind = kind;

    ShardedConfig shardedConfig;
    shardedConfig.shardRows = shardRows;

    // Cold: full preprocessing, no store involved.
    AttentionResult coldAnswer;
    RunningStat cold;
    std::size_t shards = 0;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        ShardedBackend backend(engine, key, value, shardedConfig);
        cold.add(now() - start);
        shards = backend.shardCount();
        if (r == 0)
            backend.runInto(query, coldAnswer);
    }

    // Populate the spill tier once, then drop every live handle so
    // each warm re-bind must come from disk.
    TempSpillDir dir;
    {
        ShardStore store({dir.path(), 0});
        ShardedConfig withStore = shardedConfig;
        withStore.store = &store;
        ShardedBackend backend(engine, key, value, withStore);
        if (store.spillCount() != backend.shardCount())
            fatal("spill tier did not capture every shard");
    }

    // Warm: a fresh store over the populated directory restores
    // every shard from its image instead of recomputing.
    bool identical = true;
    RunningStat warm;
    for (std::size_t r = 0; r < repeats; ++r) {
        ShardStore store({dir.path(), 0});
        ShardedConfig withStore = shardedConfig;
        withStore.store = &store;
        const double start = now();
        ShardedBackend backend(engine, key, value, withStore);
        warm.add(now() - start);
        if (backend.bindRestoredShards() != backend.shardCount())
            fatal("warm re-bind fell back to cold preprocessing");
        AttentionResult warmAnswer;
        backend.runInto(query, warmAnswer);
        identical = identical && bitIdentical(warmAnswer, coldAnswer);
    }

    WarmRebindRow row;
    row.backend = engineKindName(kind);
    row.rows = n;
    row.shards = shards;
    row.coldBindSeconds = cold.mean();
    row.warmRebindSeconds = warm.mean();
    row.speedupWarmVsCold =
        warm.mean() > 0.0 ? cold.mean() / warm.mean() : 0.0;
    row.bitIdentical = identical ? 1 : 0;
    row.repeats = repeats;
    return row;
}

// --- Zipf-popular documents through a budget-capped cache ----------

struct ZipfRow
{
    std::size_t documents = 0;
    std::size_t requests = 0;
    std::size_t rowsPerDocument = 0;
    double zipfExponent = 0.0;
    std::uint64_t sessionHits = 0;
    std::uint64_t binds = 0;
    std::uint64_t liveHits = 0;
    std::uint64_t spillRestores = 0;
    std::uint64_t coldBinds = 0;
    /** Shard acquisitions served without recomputation. */
    double storeHitRate = 0.0;
};

ZipfRow
measureZipfReuse(std::size_t documents, std::size_t requests,
                 std::size_t n, std::size_t d, std::size_t shardRows,
                 double exponent)
{
    Rng rng(bench::benchSeed + 2);
    EngineConfig engine;
    engine.kind = EngineKind::ExactQuantized;

    std::vector<Matrix> keys;
    std::vector<Matrix> values;
    for (std::size_t doc = 0; doc < documents; ++doc) {
        keys.push_back(randomMatrix(rng, n, d));
        values.push_back(randomMatrix(rng, n, d));
    }

    // Zipf CDF over document ranks: popularity ~ 1 / rank^exponent.
    std::vector<double> cdf(documents);
    double total = 0.0;
    for (std::size_t doc = 0; doc < documents; ++doc) {
        total += 1.0 /
                 std::pow(static_cast<double>(doc + 1), exponent);
        cdf[doc] = total;
    }

    // The cache budget fits roughly a quarter of the documents, so
    // the unpopular tail churns through eviction while the spill
    // tier keeps its shards restorable.
    TempSpillDir dir;
    ShardStore store({dir.path(), 0});
    const std::size_t perDoc =
        makeBackend(engine, keys[0], values[0])->memoryBytes();
    SessionCacheConfig config;
    config.byteBudget = perDoc * documents / 4;
    config.engine = engine;
    config.shardRows = shardRows;
    config.store = &store;
    SessionCache cache(config);

    ZipfRow row;
    row.documents = documents;
    row.requests = requests;
    row.rowsPerDocument = n;
    row.zipfExponent = exponent;
    for (std::size_t r = 0; r < requests; ++r) {
        const double pick = rng.uniform(0.0, total);
        std::size_t doc = 0;
        while (doc + 1 < documents && cdf[doc] < pick)
            ++doc;
        const std::string id = "doc-" + std::to_string(doc);
        if (cache.lookupSession(id).valid()) {
            ++row.sessionHits;
            continue;
        }
        cache.bindSession(id, keys[doc], values[doc]);
        ++row.binds;
    }

    const ShardStoreStats stats = store.stats();
    row.liveHits = stats.liveHits;
    row.spillRestores = stats.spillRestores;
    row.coldBinds = stats.coldBinds;
    const std::uint64_t acquired =
        stats.liveHits + stats.spillRestores + stats.coldBinds;
    row.storeHitRate =
        acquired > 0 ? static_cast<double>(stats.liveHits +
                                           stats.spillRestores) /
                           static_cast<double>(acquired)
                     : 0.0;
    return row;
}

}  // namespace

int
main(int argc, char **argv)
{
    std::size_t repeats = 10;
    std::size_t maxRows = 6144;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeats") == 0) {
            if (i + 1 >= argc)
                fatal("--repeats needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--repeats must be a positive integer, got \"",
                      argv[i], "\"");
            repeats = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--max-rows") == 0) {
            if (i + 1 >= argc)
                fatal("--max-rows needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--max-rows must be a positive integer, got \"",
                      argv[i], "\"");
            maxRows = static_cast<std::size_t>(parsed);
        } else {
            fatal("unknown argument \"", argv[i], "\"");
        }
    }

    const std::size_t d = 64;
    // Document size and shard capacity scale with --max-rows so the
    // CI smoke run stays fast; the document always spans 3 shards
    // with no remainder, the all-frozen all-shareable shape.
    const std::size_t n = std::min<std::size_t>(6144, maxRows) / 3 * 3;
    const std::size_t shardRows = n / 3;

    // --- Shared vs unshared byte accounting, 8 sessions, one doc.
    std::vector<SharedCapacityRow> capacityRows;
    for (const EngineKind kind :
         {EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        capacityRows.push_back(
            measureSharedCapacity(kind, 8, n, d, shardRows));
    }

    // --- Warm spill re-bind vs cold recompute.
    std::vector<WarmRebindRow> warmRows;
    for (const EngineKind kind :
         {EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        warmRows.push_back(
            measureWarmRebind(kind, n, d, shardRows, repeats));
    }
    // The first row is the ExactQuantized foil.
    for (WarmRebindRow &row : warmRows) {
        row.coldBindVsExactQuantized =
            row.coldBindSeconds / warmRows.front().coldBindSeconds;
    }

    // --- Zipf-popular document stream.
    const ZipfRow zipf = measureZipfReuse(
        12, 200, std::max<std::size_t>(shardRows / 2, 64) * 2, d,
        std::max<std::size_t>(shardRows / 2, 64), 1.1);

    std::printf("{\n  \"shared_capacity\": [\n");
    for (std::size_t i = 0; i < capacityRows.size(); ++i) {
        const SharedCapacityRow &r = capacityRows[i];
        std::printf(
            "    {\"backend\": \"%s\", \"sessions\": %zu, "
            "\"rows\": %zu, \"shards\": %zu, "
            "\"logical_bytes_per_session\": %zu, "
            "\"unshared_bytes\": %zu, \"shared_bytes\": %zu, "
            "\"session_capacity_ratio\": %.2f}%s\n",
            r.backend.c_str(), r.sessions, r.rows, r.shards,
            r.logicalBytesPerSession, r.unsharedBytes, r.sharedBytes,
            r.sessionCapacityRatio,
            i + 1 < capacityRows.size() ? "," : "");
    }
    std::printf("  ],\n  \"warm_rebind\": [\n");
    for (std::size_t i = 0; i < warmRows.size(); ++i) {
        const WarmRebindRow &r = warmRows[i];
        std::printf(
            "    {\"backend\": \"%s\", \"rows\": %zu, "
            "\"shards\": %zu, \"cold_bind_seconds\": %.3e, "
            "\"warm_rebind_seconds\": %.3e, "
            "\"speedup_warm_vs_cold\": %.1f, "
            "\"cold_bind_vs_exact_quantized\": %.2f, "
            "\"bit_identical\": %d, \"repeats\": %zu}%s\n",
            r.backend.c_str(), r.rows, r.shards, r.coldBindSeconds,
            r.warmRebindSeconds, r.speedupWarmVsCold,
            r.coldBindVsExactQuantized, r.bitIdentical, r.repeats,
            i + 1 < warmRows.size() ? "," : "");
    }
    std::printf("  ],\n  \"zipf_reuse\": [\n");
    std::printf(
        "    {\"documents\": %zu, \"requests\": %zu, "
        "\"rows_per_document\": %zu, \"zipf_exponent\": %.2f, "
        "\"session_hits\": %llu, \"binds\": %llu, "
        "\"live_hits\": %llu, \"spill_restores\": %llu, "
        "\"cold_binds\": %llu, \"store_hit_rate\": %.3f}\n",
        zipf.documents, zipf.requests, zipf.rowsPerDocument,
        zipf.zipfExponent,
        static_cast<unsigned long long>(zipf.sessionHits),
        static_cast<unsigned long long>(zipf.binds),
        static_cast<unsigned long long>(zipf.liveHits),
        static_cast<unsigned long long>(zipf.spillRestores),
        static_cast<unsigned long long>(zipf.coldBinds),
        zipf.storeHitRate);
    std::printf("  ]\n}\n");
    return 0;
}
