/**
 * @file
 * Tests for the trace subsystem: seeded generation bit-identity,
 * Zipf / Poisson / bursty / diurnal arrival statistics against the
 * configured parameters, structural invariants of generated traces
 * (bind-before-query, chat-only appends, context-window cap),
 * content-stream prefix stability, and the virtual-clock replay
 * driver — trivial-trace bit-identity against direct backend runs,
 * cross-run determinism, deadline accounting, admission sheds under
 * overload, cross-session store reuse, and eviction churn without
 * query loss.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "serving/shard_store.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"
#include "trace/trace.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

/** Fresh unique spill directory; removed by the destructor. */
class TempDir
{
  public:
    TempDir()
    {
        char templ[] = "/tmp/a3_trace_test_XXXXXX";
        const char *made = mkdtemp(templ);
        if (made == nullptr)
            std::abort();
        path_ = made;
    }

    ~TempDir()
    {
        const std::string cmd = "rm -rf '" + path_ + "'";
        [[maybe_unused]] const int rc = std::system(cmd.c_str());
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

bool
sameEvent(const TraceEvent &a, const TraceEvent &b)
{
    return a.timeSeconds == b.timeSeconds && a.session == b.session &&
           a.kind == b.kind && a.style == b.style &&
           a.document == b.document && a.rows == b.rows &&
           a.payloadSeed == b.payloadSeed &&
           a.deadlineSeconds == b.deadlineSeconds;
}

TraceConfig
smallConfig()
{
    TraceConfig config;
    config.seed = 7;
    config.durationSeconds = 5.0;
    config.arrivalsPerSecond = 80.0;
    config.sessionCount = 16;
    config.documentCount = 4;
    config.contextRows = {{64, 0.7}, {192, 0.3}};
    config.appendRows = 32;
    config.maxContextRows = 512;
    return config;
}

// ---------------------------------------------------------------
// Generator
// ---------------------------------------------------------------

TEST(TraceGenerator, SeededGenerationBitIdentical)
{
    const TraceConfig config = smallConfig();
    const Trace a = generateTrace(config);
    const Trace b = generateTrace(config);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i)
        EXPECT_TRUE(sameEvent(a.events[i], b.events[i])) << i;

    TraceConfig other = config;
    other.seed = 8;
    const Trace c = generateTrace(other);
    bool differs = c.events.size() != a.events.size();
    for (std::size_t i = 0; !differs && i < a.events.size(); ++i)
        differs = !sameEvent(a.events[i], c.events[i]);
    EXPECT_TRUE(differs);
}

TEST(TraceGenerator, ZipfSamplerMatchesProbabilities)
{
    const std::size_t n = 8;
    ZipfSampler zipf(n, 1.2);
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        EXPECT_GT(zipf.probability(k), 0.0);
        if (k > 0)
            EXPECT_LT(zipf.probability(k), zipf.probability(k - 1));
        total += zipf.probability(k);
    }
    EXPECT_NEAR(total, 1.0, 1e-12);

    Rng rng(123);
    const std::size_t draws = 50000;
    std::vector<std::size_t> counts(n, 0);
    for (std::size_t i = 0; i < draws; ++i)
        ++counts[zipf.sample(rng)];
    for (std::size_t k = 0; k < n; ++k) {
        const double expected =
            zipf.probability(k) * static_cast<double>(draws);
        EXPECT_NEAR(static_cast<double>(counts[k]), expected,
                    5.0 * std::sqrt(expected) + 5.0)
            << "rank " << k;
    }
}

TEST(TraceGenerator, QueryTrafficIsZipfSkewed)
{
    TraceConfig config = smallConfig();
    config.durationSeconds = 60.0;
    config.arrivalsPerSecond = 200.0;
    config.zipfExponent = 1.2;
    const Trace trace = generateTrace(config);

    std::vector<std::size_t> perSession(config.sessionCount, 0);
    std::size_t queries = 0;
    for (const TraceEvent &event : trace.events) {
        if (event.kind != TraceEventKind::Query)
            continue;
        ++perSession[event.session];
        ++queries;
    }
    ASSERT_GT(queries, 5000u);

    // The empirical frequency of the hottest sessions must match
    // the configured Zipf mass within sampling noise.
    ZipfSampler zipf(config.sessionCount, config.zipfExponent);
    for (std::size_t rank : {0u, 1u, 2u}) {
        const double expected = zipf.probability(rank);
        const double got = static_cast<double>(perSession[rank]) /
                           static_cast<double>(queries);
        EXPECT_NEAR(got, expected, 0.25 * expected) << rank;
    }
    EXPECT_GT(perSession[0], perSession[config.sessionCount - 1]);
}

TEST(TraceGenerator, PoissonArrivalsMatchConfiguredRate)
{
    TraceConfig config = smallConfig();
    config.arrivals = ArrivalProcess::Poisson;
    config.durationSeconds = 100.0;
    config.arrivalsPerSecond = 120.0;
    const Trace trace = generateTrace(config);

    std::vector<double> times;
    for (const TraceEvent &event : trace.events)
        if (event.kind == TraceEventKind::Query)
            times.push_back(event.timeSeconds);
    const auto count = static_cast<double>(times.size());
    const double expected =
        config.arrivalsPerSecond * config.durationSeconds;
    EXPECT_NEAR(count, expected, 4.0 * std::sqrt(expected));

    // Mean inter-arrival time ~ 1 / rate.
    double gaps = 0.0;
    for (std::size_t i = 1; i < times.size(); ++i)
        gaps += times[i] - times[i - 1];
    const double meanGap = gaps / (count - 1.0);
    EXPECT_NEAR(meanGap, 1.0 / config.arrivalsPerSecond,
                0.1 / config.arrivalsPerSecond);
}

TEST(TraceGenerator, BurstyArrivalsHitTheBurstFactor)
{
    TraceConfig config = smallConfig();
    config.arrivals = ArrivalProcess::Bursty;
    config.durationSeconds = 200.0;
    config.arrivalsPerSecond = 100.0;
    config.burstFactor = 4.0;
    config.burstDutyCycle = 0.25;
    config.burstPeriodSeconds = 10.0;
    const Trace trace = generateTrace(config);

    double onSeconds = 0.0;
    double offSeconds = 0.0;
    std::size_t onArrivals = 0;
    std::size_t offArrivals = 0;
    const double period = config.burstPeriodSeconds;
    const double duty = config.burstDutyCycle;
    onSeconds = config.durationSeconds * duty;
    offSeconds = config.durationSeconds * (1.0 - duty);
    for (const TraceEvent &event : trace.events) {
        if (event.kind != TraceEventKind::Query)
            continue;
        const double phase =
            std::fmod(event.timeSeconds, period) / period;
        if (phase < duty)
            ++onArrivals;
        else
            ++offArrivals;
    }
    const double onRate = static_cast<double>(onArrivals) / onSeconds;
    const double offRate =
        static_cast<double>(offArrivals) / offSeconds;
    EXPECT_NEAR(onRate / offRate, config.burstFactor,
                0.2 * config.burstFactor);

    // The duty-cycle-weighted mean stays at the configured rate.
    const double mean =
        static_cast<double>(onArrivals + offArrivals) /
        config.durationSeconds;
    EXPECT_NEAR(mean, config.arrivalsPerSecond,
                0.08 * config.arrivalsPerSecond);
}

TEST(TraceGenerator, DiurnalArrivalsFollowTheSinusoid)
{
    TraceConfig config = smallConfig();
    config.arrivals = ArrivalProcess::Diurnal;
    config.durationSeconds = 100.0;
    config.arrivalsPerSecond = 100.0;
    config.diurnalPeriodSeconds = 100.0;
    config.diurnalAmplitude = 0.9;
    const Trace trace = generateTrace(config);

    // First half-period carries the sinusoid's peak, second the
    // trough: (1 + A sin) integrates to 1 +- 2A/pi per half.
    std::size_t first = 0;
    std::size_t second = 0;
    for (const TraceEvent &event : trace.events) {
        if (event.kind != TraceEventKind::Query)
            continue;
        (event.timeSeconds < 50.0 ? first : second)++;
    }
    const double expectRatio =
        (1.0 + 2.0 * config.diurnalAmplitude / M_PI) /
        (1.0 - 2.0 * config.diurnalAmplitude / M_PI);
    const double gotRatio = static_cast<double>(first) /
                            static_cast<double>(second);
    EXPECT_NEAR(gotRatio, expectRatio, 0.25 * expectRatio);

    const double mean =
        static_cast<double>(first + second) / config.durationSeconds;
    EXPECT_NEAR(mean, config.arrivalsPerSecond,
                0.08 * config.arrivalsPerSecond);
}

TEST(TraceGenerator, ArrivalRateAtReflectsEveryProcess)
{
    TraceConfig config = smallConfig();
    config.arrivalsPerSecond = 100.0;

    config.arrivals = ArrivalProcess::Poisson;
    EXPECT_DOUBLE_EQ(arrivalRateAt(config, 3.0), 100.0);
    EXPECT_DOUBLE_EQ(peakArrivalRate(config), 100.0);

    config.arrivals = ArrivalProcess::Bursty;
    config.burstFactor = 4.0;
    config.burstDutyCycle = 0.25;
    config.burstPeriodSeconds = 8.0;
    const double base = 100.0 / (0.25 * 4.0 + 0.75);
    EXPECT_NEAR(arrivalRateAt(config, 0.5), base * 4.0, 1e-9);
    EXPECT_NEAR(arrivalRateAt(config, 4.0), base, 1e-9);
    EXPECT_NEAR(peakArrivalRate(config), base * 4.0, 1e-9);

    config.arrivals = ArrivalProcess::Diurnal;
    config.diurnalPeriodSeconds = 40.0;
    config.diurnalAmplitude = 0.5;
    EXPECT_NEAR(arrivalRateAt(config, 10.0), 150.0, 1e-9);
    EXPECT_NEAR(arrivalRateAt(config, 30.0), 50.0, 1e-9);
    EXPECT_NEAR(peakArrivalRate(config), 150.0, 1e-9);
}

TEST(TraceGenerator, ContextLengthMixtureMatchesWeights)
{
    TraceConfig config = smallConfig();
    config.durationSeconds = 30.0;
    config.arrivalsPerSecond = 100.0;
    config.sessionCount = 400;
    config.zipfExponent = 0.2;  // near-uniform: touch many sessions
    config.ragFraction = 0.0;   // chat only: rows drawn per session
    config.contextRows = {{64, 0.5}, {192, 0.5}};
    const Trace trace = generateTrace(config);

    std::size_t small = 0;
    std::size_t large = 0;
    for (const TraceEvent &event : trace.events) {
        if (event.kind != TraceEventKind::Bind)
            continue;
        if (event.rows == 64)
            ++small;
        else if (event.rows == 192)
            ++large;
        else
            FAIL() << "unexpected bind rows " << event.rows;
    }
    const double total = static_cast<double>(small + large);
    ASSERT_GT(total, 100.0);
    EXPECT_NEAR(static_cast<double>(small) / total, 0.5, 0.12);
}

TEST(TraceGenerator, ChatSessionsAppendRagSessionsDoNot)
{
    TraceConfig config = smallConfig();
    config.durationSeconds = 20.0;
    config.arrivalsPerSecond = 150.0;
    config.ragFraction = 0.5;
    config.appendEveryQueries = 3;
    const Trace trace = generateTrace(config);

    std::vector<std::uint32_t> rows(config.sessionCount, 0);
    bool sawChatAppend = false;
    for (const TraceEvent &event : trace.events) {
        if (event.kind == TraceEventKind::Bind) {
            rows[event.session] = event.rows;
            if (event.style == SessionStyle::Rag)
                EXPECT_LT(event.document, config.documentCount);
            else
                EXPECT_EQ(event.document, kPrivateDocument);
        } else if (event.kind == TraceEventKind::Append) {
            EXPECT_EQ(event.style, SessionStyle::Chat);
            sawChatAppend = true;
            rows[event.session] += event.rows;
            EXPECT_LE(rows[event.session], config.maxContextRows);
        }
    }
    EXPECT_TRUE(sawChatAppend);
}

TEST(TraceGenerator, EventsSortedAndWellFormed)
{
    const Trace trace = generateTrace(smallConfig());
    const TraceConfig config = smallConfig();
    ASSERT_FALSE(trace.events.empty());
    EXPECT_EQ(trace.sessionCount, config.sessionCount);

    std::vector<bool> bound(trace.sessionCount, false);
    double last = 0.0;
    for (const TraceEvent &event : trace.events) {
        EXPECT_GE(event.timeSeconds, last);
        last = event.timeSeconds;
        EXPECT_LT(event.timeSeconds, trace.durationSeconds);
        ASSERT_LT(event.session, trace.sessionCount);
        switch (event.kind) {
        case TraceEventKind::Bind:
            EXPECT_FALSE(bound[event.session]);
            EXPECT_GT(event.rows, 0u);
            bound[event.session] = true;
            break;
        case TraceEventKind::Append:
            EXPECT_TRUE(bound[event.session]);
            EXPECT_GT(event.rows, 0u);
            break;
        case TraceEventKind::Query:
            EXPECT_TRUE(bound[event.session]);
            EXPECT_EQ(event.rows, 0u);
            EXPECT_TRUE(event.deadlineSeconds ==
                            config.tightDeadlineSeconds ||
                        event.deadlineSeconds ==
                            config.looseDeadlineSeconds);
            break;
        }
    }
    EXPECT_EQ(trace.countOf(TraceEventKind::Bind) +
                  trace.countOf(TraceEventKind::Append) +
                  trace.countOf(TraceEventKind::Query),
              trace.events.size());
}

// ---------------------------------------------------------------
// Content streams
// ---------------------------------------------------------------

TEST(TraceContent, StreamsArePrefixStableAndDistinct)
{
    const Matrix full = traceContentMatrix(42, 10, 8);
    const Matrix prefix = traceContentMatrix(42, 6, 8);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_EQ(full.at(r, c), prefix.at(r, c));

    const Matrix slice = traceContentRows(42, 6, 4, 8);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 8; ++c)
            EXPECT_EQ(slice.at(r, c), full.at(r + 6, c));

    const Matrix value = traceValueMatrix(42, 10, 8);
    EXPECT_NE(value.at(0, 0), full.at(0, 0));

    const Vector q1 = traceQueryVector(9, 8);
    const Vector q2 = traceQueryVector(9, 8);
    const Vector q3 = traceQueryVector(10, 8);
    EXPECT_EQ(q1, q2);
    EXPECT_NE(q1, q3);
}

// ---------------------------------------------------------------
// Replay
// ---------------------------------------------------------------

/** A hand-built trace: one session, three spaced queries. */
Trace
trivialTrace()
{
    Trace trace;
    trace.seed = 5;
    trace.durationSeconds = 1.0;
    trace.sessionCount = 1;

    TraceEvent bind;
    bind.timeSeconds = 0.01;
    bind.kind = TraceEventKind::Bind;
    bind.rows = 96;
    bind.payloadSeed = 777;
    trace.events.push_back(bind);

    for (int i = 0; i < 3; ++i) {
        TraceEvent query;
        query.timeSeconds = 0.01 + 0.1 * i;
        query.kind = TraceEventKind::Query;
        query.payloadSeed = 1000 + static_cast<std::uint64_t>(i);
        query.deadlineSeconds = 5.0;
        trace.events.push_back(query);
    }
    return trace;
}

TEST(TraceReplay, TrivialTraceMatchesDirectBackendRuns)
{
    const Trace trace = trivialTrace();
    AttentionEngine engine(2);
    ReplayConfig config;
    config.dims = 16;
    config.captureResults = true;
    const ReplayReport report = replayTrace(trace, engine, config);

    EXPECT_EQ(report.queries, 3u);
    EXPECT_EQ(report.served, 3u);
    EXPECT_EQ(report.failedQueries, 0u);
    EXPECT_EQ(report.shed(), 0u);
    EXPECT_EQ(report.deadlineMissed, 0u);
    ASSERT_EQ(report.results.size(), 3u);

    // The replay's answers must be bit-identical to running the
    // same content through a standalone backend.
    const Matrix key = traceContentMatrix(777, 96, config.dims);
    const Matrix value = traceValueMatrix(777, 96, config.dims);
    const std::unique_ptr<AttentionBackend> backend =
        makeBackend(config.engine, key, value);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int i = 0; i < 3; ++i) {
        AttentionResult direct;
        backend->runInto(
            traceQueryVector(1000 + static_cast<std::uint64_t>(i),
                             config.dims),
            direct);
        EXPECT_EQ(report.results[i].output, direct.output) << i;
        EXPECT_EQ(report.results[i].kept, direct.kept) << i;
        hash = hashAttentionResult(hash, direct);
    }
    EXPECT_EQ(report.resultHash, hash);
}

TEST(TraceReplay, DeterministicAcrossRuns)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 2.0;
    traceConfig.arrivalsPerSecond = 60.0;
    const Trace trace = generateTrace(traceConfig);

    AttentionEngine engine(4);
    auto runOnce = [&]() {
        TempDir spill;
        ShardStoreConfig storeConfig;
        storeConfig.spillDir = spill.path();
        ShardStore store(storeConfig);
        ReplayConfig config;
        config.dims = 16;
        config.shardRows = 64;
        config.store = &store;
        config.maxBatch = 8;
        return replayTrace(trace, engine, config);
    };
    const ReplayReport a = runOnce();
    const ReplayReport b = runOnce();
    EXPECT_EQ(a.served, b.served);
    EXPECT_EQ(a.shed(), b.shed());
    EXPECT_EQ(a.deadlineMet, b.deadlineMet);
    EXPECT_EQ(a.deadlineMissed, b.deadlineMissed);
    EXPECT_EQ(a.rebinds, b.rebinds);
    EXPECT_EQ(a.cacheEvictions, b.cacheEvictions);
    EXPECT_EQ(a.storeLiveHits, b.storeLiveHits);
    EXPECT_EQ(a.storeSpillRestores, b.storeSpillRestores);
    EXPECT_EQ(a.storeColdBinds, b.storeColdBinds);
    EXPECT_EQ(a.queueWaitP99Ms, b.queueWaitP99Ms);
    EXPECT_EQ(a.resultHash, b.resultHash);
}

/** resultHash of a short sharded replay of smallConfig()'s trace. */
std::uint64_t
shardedReplayHash(EngineKind kind)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 2.0;
    const Trace trace = generateTrace(traceConfig);
    AttentionEngine engine(2);
    ReplayConfig config;
    config.engine.kind = kind;
    config.dims = 16;
    config.shardRows = 64;
    config.maxBatch = 8;
    const ReplayReport report = replayTrace(trace, engine, config);
    EXPECT_EQ(report.failedQueries, 0u);
    EXPECT_GT(report.served, 0u);
    return report.resultHash;
}

TEST(TraceReplay, GoldenResultHash)
{
    // Pinned answer bits of the quantized datapath through the whole
    // serving path (sharded binds, engine units, merge). The values
    // are the same with the SIMD kernels and with
    // A3_FORCE_SCALAR_KERNELS=1; a change here changes answers.
    EXPECT_EQ(shardedReplayHash(EngineKind::ExactQuantized),
              9952666589212739250ull);
    EXPECT_EQ(shardedReplayHash(EngineKind::ApproxQuantized),
              8904097093213817129ull);
}

TEST(TraceReplay, DeadlineAccountingInVirtualTime)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 2.0;
    traceConfig.arrivalsPerSecond = 100.0;
    traceConfig.tightDeadlineFraction = 1.0;
    traceConfig.tightDeadlineSeconds = 10.0;  // loose in disguise
    const Trace generous = generateTrace(traceConfig);

    AttentionEngine engine(2);
    ReplayConfig config;
    config.dims = 16;
    config.maxBatch = 4;               // 40 q/s capacity...
    config.drainPeriodSeconds = 0.1;   // ...vs 100 q/s offered
    const ReplayReport relaxed =
        replayTrace(generous, engine, config);
    EXPECT_EQ(relaxed.deadlineMissed, 0u);
    EXPECT_DOUBLE_EQ(relaxed.deadlineHitRate, 1.0);

    // Same load, but a budget the backlog cannot possibly meet.
    traceConfig.tightDeadlineSeconds = 0.05;
    const Trace tight = generateTrace(traceConfig);
    const ReplayReport missed = replayTrace(tight, engine, config);
    EXPECT_GT(missed.deadlineMissed, 0u);
    EXPECT_LT(missed.deadlineHitRate, 1.0);
    EXPECT_EQ(missed.failedQueries, 0u);
}

TEST(TraceReplay, AdmissionShedsUnderOverloadAndNothingIsLost)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 3.0;
    traceConfig.arrivalsPerSecond = 150.0;
    const Trace trace = generateTrace(traceConfig);

    AttentionEngine engine(2);
    ReplayConfig config;
    config.dims = 16;
    config.maxBatch = 4;  // 40 q/s capacity vs 150 q/s offered
    config.drainPeriodSeconds = 0.1;
    config.maxQueueDepth = 12;
    const ReplayReport report = replayTrace(trace, engine, config);

    EXPECT_GT(report.shedQueueFull, 0u);
    EXPECT_EQ(report.failedQueries, 0u);
    EXPECT_EQ(report.served + report.shed(), report.queries);
    EXPECT_LE(report.maxPending, 12u + 4u);
}

TEST(TraceReplay, SharedDocumentsHitTheStoreAcrossSessions)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 2.0;
    traceConfig.arrivalsPerSecond = 80.0;
    traceConfig.ragFraction = 1.0;  // every session shares the docs
    traceConfig.documentCount = 2;
    traceConfig.sessionCount = 12;
    traceConfig.contextRows = {{128, 1.0}};
    const Trace trace = generateTrace(traceConfig);

    AttentionEngine engine(2);
    TempDir spill;
    ShardStoreConfig storeConfig;
    storeConfig.spillDir = spill.path();
    ShardStore store(storeConfig);
    ReplayConfig config;
    config.dims = 16;
    config.shardRows = 64;
    config.store = &store;
    const ReplayReport report = replayTrace(trace, engine, config);

    // 12 sessions over 2 documents: at most 2 sets of full shards
    // are cold-bound; every other bind dedups against the store.
    EXPECT_GT(report.storeLiveHits, 0u);
    EXPECT_GT(report.storeHitRate, 0.5);
    EXPECT_EQ(report.failedQueries, 0u);
}

TEST(TraceGenerator, InvalidConfigsAreFatal)
{
    TraceConfig config = smallConfig();
    config.durationSeconds = 0.0;
    EXPECT_DEATH(generateTrace(config), "durationSeconds");

    config = smallConfig();
    config.contextRows.clear();
    EXPECT_DEATH(generateTrace(config), "contextRows");
}

TEST(TraceReplay, EvictionChurnRebindsWithoutLosingQueries)
{
    TraceConfig traceConfig = smallConfig();
    traceConfig.durationSeconds = 3.0;
    traceConfig.arrivalsPerSecond = 80.0;
    traceConfig.zipfExponent = 0.4;  // flat: lots of LRU churn
    traceConfig.contextRows = {{128, 1.0}};
    const Trace trace = generateTrace(traceConfig);

    AttentionEngine engine(2);
    TempDir spill;
    ShardStoreConfig storeConfig;
    storeConfig.spillDir = spill.path();
    ShardStore store(storeConfig);
    ReplayConfig config;
    config.dims = 16;
    config.shardRows = 64;
    config.store = &store;

    // Budget for roughly two sessions out of sixteen.
    const Matrix key = traceContentMatrix(1, 128, config.dims);
    const Matrix value = traceValueMatrix(1, 128, config.dims);
    config.cacheByteBudget =
        makeBackend(config.engine, key, value)->memoryBytes() * 2;

    const ReplayReport report = replayTrace(trace, engine, config);
    EXPECT_GT(report.cacheEvictions, 0u);
    EXPECT_GT(report.rebinds, 0u);
    EXPECT_GT(report.storeSpillRestores, 0u);
    EXPECT_EQ(report.failedQueries, 0u);
    EXPECT_EQ(report.served + report.shed(), report.queries);
}

}  // namespace
}  // namespace a3
