/**
 * @file
 * Serving-layer throughput sweep, emitted as one JSON object:
 *
 *  - "append_vs_rebind": per task size n and backend, the cost of a
 *    full re-bind (rebuild the sorted key / re-quantize everything)
 *    against one incremental append() of a single row, with the
 *    speedup ratio — the number that justifies the streaming path.
 *  - "session_cache": bind time on a cache miss vs lookup time on a
 *    hit for the same session, plus the cache's own counters.
 *  - "scheduler": end-to-end queries/sec of submit + drain over
 *    multiple sessions through the coalescing BatchScheduler.
 *  - "session_capacity": how many quantized 320 x 64 sessions a
 *    SessionCache with a fixed 4 MiB byte budget holds before its
 *    first eviction, per packed K/V layout — the serving-density
 *    payoff of the packed storage layer (capacity_vs_word32 is the
 *    headline ratio). Deterministic: memoryBytes() is a pure
 *    function of the layout and shape, no timing involved.
 *
 * Usage: serving_throughput [out.csv] [--repeats R] [--max-rows N]
 *   --max-rows N restricts the append sweep to sizes <= N (CI smoke
 *   runs; the default sweep is {512, 2048, 8192}).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attention/approx_attention.hpp"
#include "attention/backend.hpp"
#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "fixed/packed.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "util/csv.hpp"
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

struct AppendRow
{
    std::string backend;
    std::size_t rows = 0;
    std::size_t dims = 0;
    double rebindSeconds = 0.0;
    double appendRowSeconds = 0.0;
    /** rebind / append: how much the incremental path saves. */
    double speedupAppendVsRebind = 0.0;
    std::size_t repeats = 0;
};

AppendRow
measureAppend(const EngineConfig &config, std::size_t n, std::size_t d,
              std::size_t repeats)
{
    Rng rng(bench::benchSeed);
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    // Full re-bind: preprocessing runs from scratch every time.
    RunningStat rebind;
    for (std::size_t r = 0; r < repeats; ++r) {
        const double start = now();
        const auto backend = makeBackend(config, key, value);
        rebind.add(now() - start);
        if (backend->rows() != n)
            fatal("bind dropped rows");
    }

    // Incremental: one row per append against a live backend. The
    // task grows by `repeats` rows over the measurement — negligible
    // against n, and it only biases the result against append().
    const auto backend = makeBackend(config, key, value);
    RunningStat append;
    Rng rowRng(bench::benchSeed + 1);
    for (std::size_t r = 0; r < repeats; ++r) {
        const Matrix keyRow = randomMatrix(rowRng, 1, d);
        const Matrix valueRow = randomMatrix(rowRng, 1, d);
        const double start = now();
        backend->append(keyRow, valueRow);
        append.add(now() - start);
    }
    if (backend->rows() != n + repeats)
        fatal("append dropped rows");

    AppendRow row;
    row.backend = backend->name();
    row.rows = n;
    row.dims = d;
    row.rebindSeconds = rebind.mean();
    row.appendRowSeconds = append.mean();
    row.speedupAppendVsRebind =
        append.mean() > 0.0 ? rebind.mean() / append.mean() : 0.0;
    row.repeats = repeats;
    return row;
}

struct CacheRow
{
    std::size_t sessions = 0;
    std::size_t rows = 0;
    double missBindSeconds = 0.0;
    double hitLookupSeconds = 0.0;
    double speedupHitVsMiss = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};

CacheRow
measureCache(std::size_t sessions, std::size_t n, std::size_t d,
             std::size_t repeats)
{
    Rng rng(bench::benchSeed + 2);
    EngineConfig config;
    config.kind = EngineKind::ApproxFloat;
    SessionCache cache;

    std::vector<Matrix> keys;
    std::vector<Matrix> values;
    for (std::size_t s = 0; s < sessions; ++s) {
        keys.push_back(randomMatrix(rng, n, d));
        values.push_back(randomMatrix(rng, n, d));
    }

    RunningStat miss;
    for (std::size_t s = 0; s < sessions; ++s) {
        const double start = now();
        cache.bindSession("session-" + std::to_string(s), config,
                          keys[s], values[s]);
        miss.add(now() - start);
    }
    // Steady state from here: drop the bind-phase counters so the
    // reported hits/misses describe only the measured hit loop.
    cache.resetCounters();
    // Hit path as a hot serving loop runs it: lookupSession() first,
    // so the matrices are never copied (bindSession()'s by-value
    // parameters would charge a full task copy to every timed hit).
    RunningStat hit;
    for (std::size_t r = 0; r < repeats; ++r) {
        for (std::size_t s = 0; s < sessions; ++s) {
            const std::string id = "session-" + std::to_string(s);
            const double start = now();
            const SessionHandle handle = cache.lookupSession(id);
            hit.add(now() - start);
            if (!handle.valid())
                fatal("cache lost a session");
        }
    }

    CacheRow row;
    row.sessions = sessions;
    row.rows = n;
    row.missBindSeconds = miss.mean();
    row.hitLookupSeconds = hit.mean();
    row.speedupHitVsMiss =
        hit.mean() > 0.0 ? miss.mean() / hit.mean() : 0.0;
    row.hits = cache.stats().hits;
    row.misses = cache.stats().misses;
    return row;
}

struct SchedulerRow
{
    std::size_t sessions = 0;
    std::size_t queriesPerSession = 0;
    std::size_t threads = 0;
    double queriesPerSecond = 0.0;
    std::size_t repeats = 0;
    /** Steady-state scheduler counters over the measured drains. */
    std::uint64_t answered = 0;
    std::uint64_t coalescedGroups = 0;
    /** Reservoir percentiles over the measured drains (seconds). */
    double queueWaitP50 = 0.0;
    double queueWaitP99 = 0.0;
    double drainServiceP95 = 0.0;
};

SchedulerRow
measureScheduler(std::size_t sessions, std::size_t queriesPerSession,
                 std::size_t threads, std::size_t n, std::size_t d,
                 std::size_t repeats)
{
    Rng rng(bench::benchSeed + 3);
    EngineConfig config;
    config.kind = EngineKind::ApproxFloat;
    AttentionEngine engine(threads);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < sessions; ++s) {
        handles.push_back(
            cache.bindSession("session-" + std::to_string(s), config,
                              randomMatrix(rng, n, d),
                              randomMatrix(rng, n, d))
                .handle);
    }
    std::vector<Vector> queries(sessions * queriesPerSession);
    for (auto &q : queries) {
        q.resize(d);
        for (auto &x : q)
            x = static_cast<float>(rng.normal());
    }

    const auto submitAll = [&] {
        std::size_t i = 0;
        for (std::size_t q = 0; q < queriesPerSession; ++q)
            for (std::size_t s = 0; s < sessions; ++s)
                scheduler.submit(handles[s], queries[i++]);
    };
    // Warm-up drain spins the pool up and grows the scratch arenas;
    // resetting the counters afterwards makes the reported stats
    // steady-state rather than cumulative-including-warm-up.
    submitAll();
    if (scheduler.drain().size() != queries.size())
        fatal("scheduler dropped requests");
    scheduler.resetCounters();
    cache.resetCounters();

    RunningStat batchSeconds;
    for (std::size_t r = 0; r < repeats; ++r) {
        submitAll();
        const double start = now();
        const auto completions = scheduler.drain();
        batchSeconds.add(now() - start);
        if (completions.size() != queries.size())
            fatal("scheduler dropped requests");
    }

    SchedulerRow row;
    row.sessions = sessions;
    row.queriesPerSession = queriesPerSession;
    row.threads = threads;
    row.queriesPerSecond =
        static_cast<double>(queries.size()) / batchSeconds.min();
    row.repeats = repeats;
    const BatchSchedulerStats stats = scheduler.stats();
    row.answered = stats.answered;
    row.coalescedGroups = stats.groups;
    row.queueWaitP50 = stats.queueWaitP50;
    row.queueWaitP99 = stats.queueWaitP99;
    row.drainServiceP95 = stats.drainServiceP95;
    return row;
}

struct CapacityRow
{
    std::string kvFormat;
    int intBits = 0;
    int fracBits = 0;
    std::size_t bytesPerSession = 0;
    /** Sessions resident when the budget first forced an eviction. */
    std::size_t sessionCapacity = 0;
    double capacityVsWord32 = 1.0;
};

CapacityRow
measureCapacity(const EngineConfig &config, const char *kvFormat,
                std::size_t byteBudget, std::size_t n, std::size_t d)
{
    Rng rng(bench::benchSeed + 4);
    // One task reused for every session: capacity depends only on
    // memoryBytes(), which is shape- and layout-determined.
    const Matrix key = randomMatrix(rng, n, d);
    const Matrix value = randomMatrix(rng, n, d);

    SessionCache cache({.byteBudget = byteBudget});
    CapacityRow row;
    row.kvFormat = kvFormat;
    row.intBits = config.intBits;
    row.fracBits = config.fracBits;
    // Bind until the LRU evicts: the capacity is the resident count
    // at that moment (the newly bound session has displaced the
    // oldest one).
    for (std::size_t s = 0; s < 100000; ++s) {
        const BindOutcome bound = cache.bindSession(
            "session-" + std::to_string(s), config, key, value);
        if (row.bytesPerSession == 0)
            row.bytesPerSession = bound.logicalBytes;
        if (cache.stats().evictions > 0) {
            row.sessionCapacity = cache.sessionCount();
            return row;
        }
    }
    fatal("session-capacity sweep never hit the byte budget");
}

}  // namespace

int
main(int argc, char **argv)
{
    std::string csvPath;
    std::size_t repeats = 20;
    std::size_t maxRows = 8192;
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
            csvPath = argv[i];
        }
    }

    const std::size_t d = 64;

    // --- Incremental binding vs full re-bind.
    std::vector<AppendRow> appendRows;
    for (const std::size_t n : {std::size_t{512}, std::size_t{2048},
                                std::size_t{8192}}) {
        if (n > maxRows)
            continue;
        for (const EngineKind kind :
             {EngineKind::ApproxFloat, EngineKind::ExactQuantized}) {
            EngineConfig config;
            config.kind = kind;
            appendRows.push_back(
                measureAppend(config, n, d, repeats));
        }
    }

    // --- Session cache hit vs miss.
    const CacheRow cacheRow = measureCache(8, 2048, d, repeats);

    // --- Sessions held at a fixed byte budget, per packed layout.
    const std::size_t capacityBudget = 4u << 20;  // 4 MiB
    std::vector<CapacityRow> capacityRows;
    {
        EngineConfig word32;
        word32.kind = EngineKind::ExactQuantized;
        word32.intBits = 4;
        word32.fracBits = 4;
        word32.packedKv = PackedKvFormat::Word32;
        capacityRows.push_back(measureCapacity(word32, "word32",
                                               capacityBudget, 320,
                                               d));
        EngineConfig int8Cfg = word32;
        int8Cfg.intBits = 3;
        int8Cfg.packedKv = PackedKvFormat::Auto;  // resolves to int8
        capacityRows.push_back(
            measureCapacity(int8Cfg, "int8", capacityBudget, 320, d));
        EngineConfig int4Cfg = word32;
        int4Cfg.intBits = 1;
        int4Cfg.fracBits = 2;
        int4Cfg.packedKv = PackedKvFormat::Auto;  // resolves to int4
        capacityRows.push_back(
            measureCapacity(int4Cfg, "int4", capacityBudget, 320, d));
        for (CapacityRow &row : capacityRows) {
            row.capacityVsWord32 =
                static_cast<double>(row.sessionCapacity) /
                static_cast<double>(capacityRows[0].sessionCapacity);
        }
    }

    // --- Scheduler throughput.
    const std::size_t hw = std::max<std::size_t>(
        1, std::thread::hardware_concurrency());
    std::vector<SchedulerRow> schedulerRows;
    schedulerRows.push_back(
        measureScheduler(4, 64, 1, 320, d, repeats));
    if (hw > 1) {
        schedulerRows.push_back(
            measureScheduler(4, 64, hw, 320, d, repeats));
    }

    std::printf("{\n  \"append_vs_rebind\": [\n");
    for (std::size_t i = 0; i < appendRows.size(); ++i) {
        const AppendRow &r = appendRows[i];
        std::printf("    {\"backend\": \"%s\", \"rows\": %zu, "
                    "\"dims\": %zu, \"rebind_seconds\": %.3e, "
                    "\"append_row_seconds\": %.3e, "
                    "\"speedup_append_vs_rebind\": %.1f, "
                    "\"repeats\": %zu}%s\n",
                    r.backend.c_str(), r.rows, r.dims, r.rebindSeconds,
                    r.appendRowSeconds, r.speedupAppendVsRebind,
                    r.repeats, i + 1 < appendRows.size() ? "," : "");
    }
    std::printf("  ],\n  \"session_cache\": [\n");
    std::printf("    {\"sessions\": %zu, \"rows\": %zu, "
                "\"miss_bind_seconds\": %.3e, "
                "\"hit_lookup_seconds\": %.3e, "
                "\"speedup_hit_vs_miss\": %.1f, "
                "\"hits\": %llu, \"misses\": %llu}\n",
                cacheRow.sessions, cacheRow.rows,
                cacheRow.missBindSeconds, cacheRow.hitLookupSeconds,
                cacheRow.speedupHitVsMiss,
                static_cast<unsigned long long>(cacheRow.hits),
                static_cast<unsigned long long>(cacheRow.misses));
    std::printf("  ],\n  \"session_capacity\": [\n");
    for (std::size_t i = 0; i < capacityRows.size(); ++i) {
        const CapacityRow &r = capacityRows[i];
        std::printf("    {\"kv_format\": \"%s\", \"int_bits\": %d, "
                    "\"frac_bits\": %d, \"byte_budget\": %zu, "
                    "\"bytes_per_session\": %zu, "
                    "\"session_capacity\": %zu, "
                    "\"capacity_vs_word32\": %.2f}%s\n",
                    r.kvFormat.c_str(), r.intBits, r.fracBits,
                    capacityBudget, r.bytesPerSession,
                    r.sessionCapacity, r.capacityVsWord32,
                    i + 1 < capacityRows.size() ? "," : "");
    }
    std::printf("  ],\n  \"scheduler\": [\n");
    for (std::size_t i = 0; i < schedulerRows.size(); ++i) {
        const SchedulerRow &r = schedulerRows[i];
        std::printf("    {\"sessions\": %zu, "
                    "\"queries_per_session\": %zu, \"threads\": %zu, "
                    "\"queries_per_second\": %.1f, \"repeats\": %zu, "
                    "\"answered\": %llu, "
                    "\"coalesced_groups\": %llu, "
                    "\"queue_wait_p50_seconds\": %.3e, "
                    "\"queue_wait_p99_seconds\": %.3e, "
                    "\"drain_service_p95_seconds\": %.3e}%s\n",
                    r.sessions, r.queriesPerSession, r.threads,
                    r.queriesPerSecond, r.repeats,
                    static_cast<unsigned long long>(r.answered),
                    static_cast<unsigned long long>(r.coalescedGroups),
                    r.queueWaitP50, r.queueWaitP99, r.drainServiceP95,
                    i + 1 < schedulerRows.size() ? "," : "");
    }
    std::printf("  ]\n}\n");

    if (!csvPath.empty()) {
        CsvWriter csv(csvPath);
        csv.writeRow({"metric", "backend_or_sessions", "rows",
                      "baseline_seconds", "fast_seconds", "speedup"});
        for (const AppendRow &r : appendRows) {
            csv.writeRow({"append_vs_rebind", r.backend,
                          std::to_string(r.rows),
                          std::to_string(r.rebindSeconds),
                          std::to_string(r.appendRowSeconds),
                          std::to_string(r.speedupAppendVsRebind)});
        }
        csv.writeRow({"session_cache",
                      std::to_string(cacheRow.sessions),
                      std::to_string(cacheRow.rows),
                      std::to_string(cacheRow.missBindSeconds),
                      std::to_string(cacheRow.hitLookupSeconds),
                      std::to_string(cacheRow.speedupHitVsMiss)});
        for (const CapacityRow &r : capacityRows) {
            csv.writeRow({"session_capacity", r.kvFormat,
                          std::to_string(r.bytesPerSession),
                          std::to_string(r.sessionCapacity), "",
                          std::to_string(r.capacityVsWord32)});
        }
        for (const SchedulerRow &r : schedulerRows) {
            csv.writeRow({"scheduler", std::to_string(r.sessions),
                          std::to_string(r.queriesPerSession),
                          std::to_string(r.threads), "",
                          std::to_string(r.queriesPerSecond)});
        }
    }
    return 0;
}
