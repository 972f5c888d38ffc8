/**
 * @file
 * Tests for the streaming serving layer: incremental task binding
 * (backend append vs full re-bind bit-identity), the SessionCache
 * (hit/miss counters, LRU byte-budget eviction), and the
 * BatchScheduler (ticket-ordered completions bit-identical to
 * sequential per-query runs, across cache hits and appends).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/approx_attention.hpp"
#include "attention/backend.hpp"
#include "attention/quantized.hpp"
#include "attention/sorted_key.hpp"
#include "engine/engine.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
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

/** Bind `id` to fresh random rows x d matrices; returns its handle. */
SessionHandle
bindRandom(SessionCache &cache, Rng &rng, const std::string &id,
           const EngineConfig &cfg, std::size_t rows, std::size_t d)
{
    Matrix key = randomMatrix(rng, rows, d);
    Matrix value = randomMatrix(rng, rows, d);
    return cache.bindSession(id, cfg, std::move(key), std::move(value))
        .handle;
}

/** Concatenate b's rows below a's. */
Matrix
concatRows(const Matrix &a, const Matrix &b)
{
    Matrix out = a;
    out.appendRows(b);
    return out;
}

TEST(MatrixAppendRows, GrowsAndPreservesContent)
{
    Matrix a = Matrix::fromRows({{1.0f, 2.0f}, {3.0f, 4.0f}});
    const Matrix b = Matrix::fromRows({{5.0f, 6.0f}});
    a.appendRows(b);
    EXPECT_EQ(a.rows(), 3u);
    EXPECT_EQ(a.cols(), 2u);
    EXPECT_FLOAT_EQ(a(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(a(2, 0), 5.0f);

    Matrix empty;
    empty.appendRows(b);
    EXPECT_EQ(empty, b);

    Matrix unchanged = b;
    unchanged.appendRows(Matrix());
    EXPECT_EQ(unchanged, b);

    // A zero-row matrix with a declared width enforces it.
    Matrix zeroRows(0, 5);
    EXPECT_DEATH(zeroRows.appendRows(b), "width mismatch");
}

TEST(SortedKeyAppend, MatchesFullBuild)
{
    Rng rng(9100);
    for (const std::size_t base : {1u, 7u, 32u}) {
        for (const std::size_t extra : {1u, 5u}) {
            const std::size_t d = 6;
            const Matrix head = randomMatrix(rng, base, d);
            const Matrix tail = randomMatrix(rng, extra, d);
            SortedKey incremental = SortedKey::build(head);
            incremental.append(tail,
                               static_cast<std::uint32_t>(base));
            const SortedKey rebuilt =
                SortedKey::build(concatRows(head, tail));
            ASSERT_EQ(incremental.rows(), rebuilt.rows());
            ASSERT_EQ(incremental.cols(), rebuilt.cols());
            for (std::size_t c = 0; c < d; ++c) {
                for (std::size_t p = 0; p < base + extra; ++p) {
                    EXPECT_EQ(incremental.at(p, c).val,
                              rebuilt.at(p, c).val)
                        << "col " << c << " pos " << p;
                    EXPECT_EQ(incremental.at(p, c).rowId,
                              rebuilt.at(p, c).rowId)
                        << "col " << c << " pos " << p;
                }
            }
        }
    }
}

TEST(SortedKeyAppend, DuplicateValuesKeepRowIdOrder)
{
    // Every element equal: ordering is decided purely by row id, the
    // worst case for the merge's tie handling.
    const Matrix head = Matrix::fromRows({{1.0f}, {1.0f}});
    const Matrix tail = Matrix::fromRows({{1.0f}, {1.0f}});
    SortedKey sk = SortedKey::build(head);
    sk.append(tail, 2);
    for (std::uint32_t p = 0; p < 4; ++p)
        EXPECT_EQ(sk.at(p, 0).rowId, p);
}

TEST(SortedKeyAppend, MatchesFullBuildWithNaNAndSignedZeros)
{
    // build() and append() share one order, so keys holding NaN of
    // either sign (and both zeros) still merge into build()'s bytes.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float specials[] = {nan, std::copysign(nan, -1.0f), 0.0f,
                              -0.0f};
    Rng rng(9101);
    const auto draw = [&](std::size_t n, std::size_t d) {
        Matrix m = randomMatrix(rng, n, d);
        for (auto &v : m.data()) {
            if (rng.bernoulli(0.3))
                v = specials[rng.uniformInt(0, 3)];
        }
        return m;
    };
    for (int trial = 0; trial < 100; ++trial) {
        const auto base =
            static_cast<std::size_t>(rng.uniformInt(1, 40));
        const auto extra =
            static_cast<std::size_t>(rng.uniformInt(1, 12));
        const std::size_t d = 3;
        const Matrix head = draw(base, d);
        const Matrix tail = draw(extra, d);
        SortedKey incremental = SortedKey::build(head);
        incremental.append(tail, static_cast<std::uint32_t>(base));
        const SortedKey rebuilt =
            SortedKey::build(concatRows(head, tail));
        for (std::size_t c = 0; c < d; ++c) {
            const auto &got = incremental.columnEntries(c);
            const auto &want = rebuilt.columnEntries(c);
            ASSERT_EQ(got.size(), want.size());
            EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(SortedKeyEntry)),
                      0)
                << "trial " << trial << " col " << c;
        }
    }
}

/**
 * The incremental-binding contract: append() then query must be
 * bit-identical to a backend freshly bound to the concatenated task,
 * for every backend kind, including repeated appends.
 */
TEST(BackendAppend, BitIdenticalToRebindAllKinds)
{
    Rng rng(9200);
    const std::size_t d = 16;
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        Matrix key = randomMatrix(rng, 24, d);
        Matrix value = randomMatrix(rng, 24, d);
        const auto incremental = makeBackend(cfg, key, value);
        for (int step = 0; step < 3; ++step) {
            const std::size_t extra = step == 0 ? 1 : 4;
            const Matrix keyRows = randomMatrix(rng, extra, d);
            const Matrix valueRows = randomMatrix(rng, extra, d);
            incremental->append(keyRows, valueRows);
            key.appendRows(keyRows);
            value.appendRows(valueRows);
            const auto rebound = makeBackend(cfg, key, value);
            ASSERT_EQ(incremental->rows(), key.rows());
            for (int trial = 0; trial < 3; ++trial) {
                const Vector q = randomQuery(rng, d);
                expectBitIdentical(incremental->run(q),
                                   rebound->run(q));
            }
        }
    }
}

TEST(BackendAppend, MemoryBytesGrowsWithTask)
{
    Rng rng(9300);
    for (const EngineKind kind : kAllKinds) {
        SCOPED_TRACE(engineKindName(kind));
        EngineConfig cfg;
        cfg.kind = kind;
        const auto backend = makeBackend(cfg, randomMatrix(rng, 16, 8),
                                         randomMatrix(rng, 16, 8));
        const std::size_t before = backend->memoryBytes();
        EXPECT_GT(before, 0u);
        backend->append(randomMatrix(rng, 8, 8),
                        randomMatrix(rng, 8, 8));
        EXPECT_GT(backend->memoryBytes(), before);
    }
}

TEST(SessionCache, HitSkipsPreprocessingAndCounts)
{
    Rng rng(9400);
    SessionCache cache;
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    const Matrix key = randomMatrix(rng, 32, 8);
    const Matrix value = randomMatrix(rng, 32, 8);

    const BindOutcome first =
        cache.bindSession("story-1", cfg, key, value);
    ASSERT_TRUE(first.bound());
    EXPECT_EQ(first.status, BindStatus::BoundFresh);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 0u);

    // Second bind of the same session: the very same backend object
    // comes back — the preprocessing (column sort) did not rerun.
    const BindOutcome second =
        cache.bindSession("story-1", cfg, key, value);
    EXPECT_EQ(second.status, BindStatus::AlreadyBound);
    EXPECT_EQ(second.handle.backend(), first.handle.backend());
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);

    EXPECT_EQ(cache.lookupSession("story-1").backend(),
              first.handle.backend());
    EXPECT_FALSE(cache.lookupSession("unknown").valid());
    EXPECT_EQ(cache.stats().hits, 2u);
    EXPECT_EQ(cache.stats().misses, 2u);
    EXPECT_EQ(cache.sessionCount(), 1u);
    EXPECT_EQ(cache.bytesInUse(), first.logicalBytes);
}

TEST(SessionCache, EvictsLeastRecentlyUsedUnderByteBudget)
{
    Rng rng(9500);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    // Each 16 x 8 reference backend holds 2 * 16 * 8 * 4 = 1024 bytes;
    // budget fits exactly two.
    SessionCache cache({.byteBudget = 2048});
    for (const char *id : {"a", "b"})
        bindRandom(cache, rng, id, cfg, 16, 8);
    EXPECT_EQ(cache.sessionCount(), 2u);

    // Touch "a" so "b" is least recently used, then overflow.
    EXPECT_TRUE(cache.lookupSession("a").valid());
    bindRandom(cache, rng, "c", cfg, 16, 8);
    EXPECT_EQ(cache.sessionCount(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_FALSE(cache.lookupSession("b").valid());
    EXPECT_TRUE(cache.lookupSession("a").valid());
    EXPECT_TRUE(cache.lookupSession("c").valid());
    EXPECT_LE(cache.bytesInUse(), cache.byteBudget());

    // A session larger than the whole budget still binds (evicting
    // everything else) — the freshly bound session is never evicted.
    bindRandom(cache, rng, "huge", cfg, 64, 8);
    EXPECT_EQ(cache.sessionCount(), 1u);
    EXPECT_TRUE(cache.lookupSession("huge").valid());
}

TEST(SessionCache, AppendUpdatesAccountingAndBackend)
{
    Rng rng(9600);
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxQuantized;
    SessionCache cache;
    const SessionHandle handle =
        bindRandom(cache, rng, "s", cfg, 20, 8);
    const auto backend = handle.backend();
    const std::size_t before = cache.bytesInUse();
    const AppendOutcome grown = cache.appendSession(
        handle, randomMatrix(rng, 4, 8), randomMatrix(rng, 4, 8));
    EXPECT_TRUE(grown.ok());
    EXPECT_EQ(backend->rows(), 24u);
    EXPECT_GT(cache.bytesInUse(), before);
    EXPECT_EQ(cache.bytesInUse(), backend->memoryBytes());
    EXPECT_EQ(cache.stats().appends, 1u);
    // A handle to no binding is a typed refusal the caller handles
    // by re-binding, not an abort.
    const AppendOutcome refused =
        cache.appendSession(SessionHandle(), randomMatrix(rng, 1, 8),
                            randomMatrix(rng, 1, 8));
    EXPECT_EQ(refused.status, AppendStatus::SessionUnbound);
    EXPECT_EQ(cache.stats().appends, 1u);
}

TEST(SessionCache, EraseAndClear)
{
    Rng rng(9700);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    SessionCache cache;
    bindRandom(cache, rng, "x", cfg, 8, 4);
    EXPECT_TRUE(cache.erase("x"));
    EXPECT_FALSE(cache.erase("x"));
    EXPECT_EQ(cache.bytesInUse(), 0u);
    bindRandom(cache, rng, "y", cfg, 8, 4);
    cache.clear();
    EXPECT_EQ(cache.sessionCount(), 0u);
    EXPECT_EQ(cache.bytesInUse(), 0u);
}

/**
 * End-to-end determinism of the serving tier: interleaved multi-
 * session requests, drained in batches, must complete in ticket order
 * with results bit-identical to sequential per-query run() calls —
 * including requests answered from cache hits and requests issued
 * after incremental appends.
 */
TEST(BatchScheduler, TicketOrderedBitIdenticalCompletions)
{
    Rng rng(9800);
    const std::size_t d = 12;
    AttentionEngine engine(4);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);

    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    const std::vector<std::string> sessions{"alpha", "beta", "gamma"};
    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < sessions.size(); ++s) {
        handles.push_back(
            bindRandom(cache, rng, sessions[s], cfg, 16 + 8 * s, d));
    }

    struct Expected
    {
        std::uint64_t ticket;
        std::string session;
        Vector query;
    };
    std::vector<Expected> submitted;
    for (int round = 0; round < 12; ++round) {
        const std::string &session = sessions[round % sessions.size()];
        Vector q = randomQuery(rng, d);
        const AdmissionOutcome outcome =
            scheduler.submit(handles[round % sessions.size()], q,
                             {.detail = ResultDetail::Full});
        ASSERT_TRUE(outcome.admitted());
        submitted.push_back({outcome.ticket, session, std::move(q)});
    }
    EXPECT_EQ(scheduler.pending(), 12u);

    const std::vector<ServingResult> completions = scheduler.drain();
    EXPECT_EQ(scheduler.pending(), 0u);
    ASSERT_EQ(completions.size(), submitted.size());
    for (std::size_t i = 0; i < completions.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        EXPECT_EQ(completions[i].ticket, submitted[i].ticket);
        EXPECT_EQ(completions[i].session, submitted[i].session);
        const auto backend =
            cache.lookupSession(submitted[i].session).backend();
        ASSERT_NE(backend, nullptr);
        expectBitIdentical(completions[i].result,
                           backend->run(submitted[i].query));
    }

    // Second wave after an incremental append: cache hits serve the
    // grown task, and completions stay bit-identical to sequential
    // runs against it.
    const AppendOutcome grown = cache.appendSession(
        handles[1], randomMatrix(rng, 3, d), randomMatrix(rng, 3, d));
    ASSERT_TRUE(grown.ok());
    std::vector<Expected> wave2;
    for (int round = 0; round < 6; ++round) {
        const std::string &session = sessions[round % 2];  // alpha/beta
        Vector q = randomQuery(rng, d);
        const AdmissionOutcome outcome =
            scheduler.submit(handles[round % 2], q,
                             {.detail = ResultDetail::Full});
        ASSERT_TRUE(outcome.admitted());
        wave2.push_back({outcome.ticket, session, std::move(q)});
    }
    const std::vector<ServingResult> completions2 = scheduler.drain();
    ASSERT_EQ(completions2.size(), wave2.size());
    for (std::size_t i = 0; i < completions2.size(); ++i) {
        SCOPED_TRACE("wave2 request " + std::to_string(i));
        EXPECT_EQ(completions2[i].ticket, wave2[i].ticket);
        const auto backend =
            cache.lookupSession(wave2[i].session).backend();
        ASSERT_NE(backend, nullptr);
        expectBitIdentical(completions2[i].result,
                           backend->run(wave2[i].query));
    }
}

TEST(BatchScheduler, MaxBatchLeavesExcessQueued)
{
    Rng rng(9900);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache, 4);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const SessionHandle handle =
        bindRandom(cache, rng, "s", cfg, 10, d);
    for (int i = 0; i < 6; ++i)
        scheduler.submit(handle, randomQuery(rng, d));
    const auto first = scheduler.drain();
    EXPECT_EQ(first.size(), 4u);
    EXPECT_EQ(scheduler.pending(), 2u);
    const auto second = scheduler.drain();
    EXPECT_EQ(second.size(), 2u);
    EXPECT_EQ(scheduler.pending(), 0u);
    // Tickets across drains stay globally ordered.
    EXPECT_LT(first.back().ticket, second.front().ticket);
    EXPECT_TRUE(scheduler.drain().empty());
}

TEST(BatchScheduler, ConcurrentSubmittersGetDistinctTickets)
{
    Rng rng(10000);
    const std::size_t d = 8;
    AttentionEngine engine(4);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const SessionHandle handle =
        bindRandom(cache, rng, "s", cfg, 12, d);

    const Vector query = randomQuery(rng, d);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> submitters;
    submitters.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&scheduler, &handle, &query] {
            for (int i = 0; i < kPerThread; ++i)
                scheduler.submit(handle, query);
        });
    }
    for (std::thread &t : submitters)
        t.join();
    const auto completions = scheduler.drain();
    ASSERT_EQ(completions.size(),
              static_cast<std::size_t>(kThreads * kPerThread));
    for (std::size_t i = 1; i < completions.size(); ++i)
        EXPECT_LT(completions[i - 1].ticket, completions[i].ticket);
}

/**
 * A session evicted (or failed over and not yet re-bound) between
 * submit and drain must not abort the server: its requests complete
 * with a typed SessionUnbound error, bound sessions in the same
 * batch still get bit-identical answers, and a retry after
 * re-binding is answered in ticket order.
 */
TEST(BatchScheduler, UnboundSessionCompletesWithTypedError)
{
    Rng rng(10100);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const SessionHandle bound =
        bindRandom(cache, rng, "bound", cfg, 12, d);
    const SessionHandle ghost =
        bindRandom(cache, rng, "ghost", cfg, 10, d);

    std::vector<std::uint64_t> ghostTickets;
    std::vector<Vector> ghostQueries;
    std::vector<std::uint64_t> boundTickets;
    std::vector<Vector> boundQueries;
    for (int i = 0; i < 6; ++i) {
        Vector q = randomQuery(rng, d);
        const bool isGhost = i % 2 == 0;
        const AdmissionOutcome outcome =
            scheduler.submit(isGhost ? ghost : bound, q);
        ASSERT_TRUE(outcome.admitted());
        (isGhost ? ghostTickets : boundTickets)
            .push_back(outcome.ticket);
        (isGhost ? ghostQueries : boundQueries)
            .push_back(std::move(q));
    }
    // Evicted between submit and drain.
    ASSERT_TRUE(cache.erase("ghost"));

    const auto completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 6u);
    std::size_t unbound = 0;
    for (std::size_t i = 0; i < completions.size(); ++i) {
        SCOPED_TRACE("request " + std::to_string(i));
        if (i > 0)
            EXPECT_LT(completions[i - 1].ticket,
                      completions[i].ticket);
        const ServingResult &r = completions[i];
        if (r.session == "ghost") {
            ++unbound;
            EXPECT_FALSE(r.ok());
            EXPECT_EQ(r.error, ServingError::SessionUnbound);
            EXPECT_TRUE(r.result.output.empty());
        } else {
            EXPECT_TRUE(r.ok());
            EXPECT_EQ(r.error, ServingError::None);
            EXPECT_FALSE(r.result.output.empty());
        }
    }
    EXPECT_EQ(unbound, ghostTickets.size());
    EXPECT_EQ(scheduler.pending(), 0u);

    // The caller's recovery: bind the session and resubmit. The
    // retry is answered in ticket order, bit-identical to a direct
    // run against the freshly bound backend.
    const SessionHandle rebound =
        bindRandom(cache, rng, "ghost", cfg, 10, d);
    const auto backend = rebound.backend();
    EXPECT_EQ(ghost.backend(), nullptr);  // the old handle is stale
    std::vector<std::uint64_t> retryTickets;
    for (const Vector &q : ghostQueries) {
        const AdmissionOutcome outcome = scheduler.submit(
            rebound, q, {.detail = ResultDetail::Full});
        ASSERT_TRUE(outcome.admitted());
        retryTickets.push_back(outcome.ticket);
    }
    // drain() resolves sessions by id, so a query through the stale
    // handle is answered by the current binding.
    const AdmissionOutcome viaStale =
        scheduler.submit(ghost, ghostQueries.front(),
                         {.detail = ResultDetail::Full});
    ASSERT_TRUE(viaStale.admitted());
    retryTickets.push_back(viaStale.ticket);
    const auto retried = scheduler.drain();
    ASSERT_EQ(retried.size(), ghostQueries.size() + 1);
    for (std::size_t i = 0; i < retried.size(); ++i) {
        SCOPED_TRACE("retry " + std::to_string(i));
        EXPECT_EQ(retried[i].ticket, retryTickets[i]);
        EXPECT_GT(retried[i].ticket, completions.back().ticket);
        EXPECT_TRUE(retried[i].ok());
        expectBitIdentical(
            retried[i].result,
            backend->run(ghostQueries[i % ghostQueries.size()]));
    }
    EXPECT_STREQ(servingErrorName(ServingError::SessionUnbound),
                 "session_unbound");
    EXPECT_STREQ(servingErrorName(ServingError::None), "none");
}

/**
 * The remote-reachable error paths return typed errors; what
 * remains fatal is exactly the programmer-contract surface. Pin
 * those contracts here so a refactor that silently downgrades (or
 * widens) an abort shows up as a test failure.
 */
TEST(FatalContractDeathTest, CacheRejectsNullBackendInsert)
{
    SessionCache cache;
    EXPECT_DEATH(cache.insert("s", nullptr), "null backend");
}

TEST(FatalContractDeathTest, SchedulerRejectsZeroSessionWeight)
{
    AttentionEngine engine(1);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    EXPECT_DEATH(scheduler.setSessionWeight("s", 0),
                 "weight must be positive");
}

TEST(FatalContractDeathTest, ReservoirRejectsZeroCapacity)
{
    EXPECT_DEATH(LatencyReservoir reservoir(0),
                 "positive capacity");
}

TEST(SessionCache, ResetCountersKeepsSessions)
{
    Rng rng(10200);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    SessionCache cache;
    const SessionHandle handle = bindRandom(cache, rng, "s", cfg, 8, 4);
    cache.lookupSession("s");
    cache.lookupSession("missing");
    cache.appendSession(handle, randomMatrix(rng, 1, 4),
                        randomMatrix(rng, 1, 4));
    EXPECT_GT(cache.stats().hits + cache.stats().misses, 0u);

    cache.resetCounters();
    const SessionCacheStats zeroed = cache.stats();
    EXPECT_EQ(zeroed.hits, 0u);
    EXPECT_EQ(zeroed.misses, 0u);
    EXPECT_EQ(zeroed.evictions, 0u);
    EXPECT_EQ(zeroed.appends, 0u);
    // Sessions and accounting survive: only the counters reset.
    EXPECT_EQ(cache.sessionCount(), 1u);
    EXPECT_TRUE(cache.lookupSession("s").valid());
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BatchScheduler, StatsCountAndReset)
{
    Rng rng(10300);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    BatchScheduler scheduler(engine, cache);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const SessionHandle a = bindRandom(cache, rng, "a", cfg, 10, d);
    const SessionHandle b = bindRandom(cache, rng, "b", cfg, 10, d);

    for (int i = 0; i < 3; ++i) {
        scheduler.submit(a, randomQuery(rng, d));
        scheduler.submit(b, randomQuery(rng, d));
    }
    EXPECT_EQ(scheduler.drain().size(), 6u);
    scheduler.drain();  // empty: no batch executed, no drain counted

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 6u);
    EXPECT_EQ(stats.answered, 6u);
    EXPECT_EQ(stats.drains, 1u);
    EXPECT_EQ(stats.groups, 2u);  // six requests coalesced into two

    // Reset zeroes the counters but not the ticket clock: benches
    // measure steady-state after warm-up without perturbing order.
    const std::uint64_t before =
        scheduler.submit(a, randomQuery(rng, d)).ticket;
    scheduler.resetCounters();
    const BatchSchedulerStats zeroed = scheduler.stats();
    EXPECT_EQ(zeroed.submitted, 0u);
    EXPECT_EQ(zeroed.answered, 0u);
    EXPECT_EQ(zeroed.drains, 0u);
    EXPECT_EQ(zeroed.groups, 0u);
    const std::uint64_t after =
        scheduler.submit(a, randomQuery(rng, d)).ticket;
    EXPECT_LT(before, after);
    EXPECT_EQ(scheduler.drain().size(), 2u);
    EXPECT_EQ(scheduler.stats().answered, 2u);
}

TEST(MakeBackend, RejectsInvalidQuantizerBits)
{
    Rng rng(10100);
    const Matrix key = randomMatrix(rng, 8, 4);
    const Matrix value = randomMatrix(rng, 8, 4);
    for (const EngineKind kind :
         {EngineKind::ExactQuantized, EngineKind::ApproxQuantized}) {
        EngineConfig cfg;
        cfg.kind = kind;
        cfg.intBits = 0;
        EXPECT_EXIT(makeBackend(cfg, key, value),
                    ::testing::ExitedWithCode(1), "must be positive");
        cfg.intBits = 4;
        cfg.fracBits = -1;
        EXPECT_EXIT(makeBackend(cfg, key, value),
                    ::testing::ExitedWithCode(1), "must be positive");
        cfg.fracBits = 28;  // 4 + 28 + 1 = 33 > 32
        EXPECT_EXIT(makeBackend(cfg, key, value),
                    ::testing::ExitedWithCode(1), "lane budget");
    }
    // The float kinds ignore the quantizer bits entirely.
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    cfg.intBits = 0;
    EXPECT_NE(makeBackend(cfg, key, value), nullptr);
    // A word at exactly the 32-bit lane budget still binds.
    cfg.kind = EngineKind::ExactQuantized;
    cfg.intBits = 25;
    cfg.fracBits = 6;
    EXPECT_NE(makeBackend(cfg, key, value), nullptr);
}

}  // namespace
}  // namespace a3
