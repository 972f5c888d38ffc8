/**
 * @file
 * Trace-driven traffic replay benchmark, emitted as one JSON object
 * with a "trace_replay" row per arrival scenario (poisson / diurnal
 * / bursty_4x).
 *
 * Each scenario generates a seeded trace (Zipf session popularity,
 * mixed context lengths, RAG + chat session mix, tight/loose
 * per-query deadlines) and replays it twice through the full
 * serving path — SessionCache + spilling ShardStore +
 * BatchScheduler with admission and deadlines — on a virtual clock
 * (see trace/replay.hpp). Because queue waits and deadline outcomes
 * are judged in virtual time, every reported metric is independent
 * of machine speed, and the "deterministic" column (1 iff the two
 * runs agree on every headline metric and on the FNV-1a hash over
 * all served results) is a hard bit-identity check the CI gate
 * holds at 1.
 *
 * Headline gated metrics (bench/baselines/ci_baseline.json):
 * deadline_hit_rate, shed_rate, p99_ms (virtual queue-wait p99),
 * store_hit_rate under the 4x burst, failed_queries == 0, and
 * deterministic == 1.
 *
 * Usage: trace_replay [--duration S] [--qps Q] [--sessions N]
 *                     [--strict]
 *   --duration S  virtual trace length in seconds (default 20)
 *   --qps Q       mean arrival rate (default 400; the replay's
 *                 service capacity is maxBatch/drainPeriod = 640)
 *   --sessions N  distinct sessions (default 64)
 *   --strict      exit nonzero on any failed query or
 *                 nondeterminism (the CI smoke mode)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "bench_common.hpp"
#include "serving/shard_store.hpp"
#include "trace/generator.hpp"
#include "trace/replay.hpp"
#include "util/logging.hpp"

namespace {

using namespace a3;

/** Fresh unique spill directory; removed by the destructor. */
class TempSpillDir
{
  public:
    TempSpillDir()
    {
        char templ[] = "/tmp/a3_trace_bench_XXXXXX";
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

struct ScenarioRow
{
    std::string scenario;
    ArrivalProcess arrivals = ArrivalProcess::Poisson;
    double offeredQps = 0.0;
    double capacityQps = 0.0;
    ReplayReport report;
    bool deterministic = false;
};

/** The metrics two same-seed runs must agree on exactly. */
bool
sameMetrics(const ReplayReport &a, const ReplayReport &b)
{
    return a.served == b.served && a.shed() == b.shed() &&
           a.shedQueueFull == b.shedQueueFull &&
           a.shedSessionCap == b.shedSessionCap &&
           a.failedQueries == b.failedQueries &&
           a.recoveredDirect == b.recoveredDirect &&
           a.deadlineMet == b.deadlineMet &&
           a.deadlineMissed == b.deadlineMissed &&
           a.rebinds == b.rebinds &&
           a.cacheEvictions == b.cacheEvictions &&
           a.storeLiveHits == b.storeLiveHits &&
           a.storeSpillRestores == b.storeSpillRestores &&
           a.storeColdBinds == b.storeColdBinds &&
           a.queueWaitP50Ms == b.queueWaitP50Ms &&
           a.queueWaitP99Ms == b.queueWaitP99Ms &&
           a.resultHash == b.resultHash;
}

ScenarioRow
runScenario(const std::string &name, const TraceConfig &traceConfig,
            AttentionEngine &engine, const ReplayConfig &base,
            std::size_t cacheBudget)
{
    const Trace trace = generateTrace(traceConfig);

    auto runOnce = [&]() {
        // A fresh store + spill dir per run so both runs start
        // cold and their metrics are comparable bit-for-bit.
        TempSpillDir spillDir;
        ShardStoreConfig storeConfig;
        storeConfig.spillDir = spillDir.path();
        storeConfig.spillBudgetBytes = 256ull << 20;
        ShardStore store(storeConfig);

        ReplayConfig config = base;
        config.cacheByteBudget = cacheBudget;
        config.store = &store;
        return replayTrace(trace, engine, config);
    };

    ScenarioRow row;
    row.scenario = name;
    row.arrivals = traceConfig.arrivals;
    row.offeredQps = traceConfig.arrivalsPerSecond;
    row.capacityQps = static_cast<double>(base.maxBatch) /
                      base.drainPeriodSeconds;
    row.report = runOnce();
    row.deterministic = sameMetrics(row.report, runOnce());
    return row;
}

void
printRow(const ScenarioRow &row, bool last)
{
    const ReplayReport &r = row.report;
    std::printf(
        "    {\"scenario\": \"%s\", \"arrival\": \"%s\", "
        "\"offered_qps\": %.1f, \"capacity_qps\": %.1f, "
        "\"events\": %llu, \"queries\": %llu, \"binds\": %llu, "
        "\"appends\": %llu, \"rebinds\": %llu, \"served\": %llu, "
        "\"shed\": %llu, \"shed_rate\": %.4f, "
        "\"shed_queue_full\": %llu, \"shed_session_cap\": %llu, "
        "\"failed_queries\": %llu, \"recovered_direct\": %llu, "
        "\"deadline_hit_rate\": %.4f, "
        "\"deadline_missed\": %llu, \"queue_wait_p50_ms\": %.2f, "
        "\"queue_wait_p95_ms\": %.2f, \"p99_ms\": %.2f, "
        "\"queue_wait_max_ms\": %.2f, \"max_pending\": %zu, "
        "\"drain_ticks\": %llu, \"virtual_seconds\": %.2f, "
        "\"evictions\": %llu, \"store_hit_rate\": %.4f, "
        "\"store_live_hits\": %llu, \"store_spill_restores\": %llu, "
        "\"store_cold_binds\": %llu, \"result_hash\": %llu, "
        "\"deterministic\": %d}%s\n",
        row.scenario.c_str(), arrivalProcessName(row.arrivals),
        row.offeredQps, row.capacityQps,
        static_cast<unsigned long long>(r.events),
        static_cast<unsigned long long>(r.queries),
        static_cast<unsigned long long>(r.binds),
        static_cast<unsigned long long>(r.appends),
        static_cast<unsigned long long>(r.rebinds),
        static_cast<unsigned long long>(r.served),
        static_cast<unsigned long long>(r.shed()), r.shedRate,
        static_cast<unsigned long long>(r.shedQueueFull),
        static_cast<unsigned long long>(r.shedSessionCap),
        static_cast<unsigned long long>(r.failedQueries),
        static_cast<unsigned long long>(r.recoveredDirect),
        r.deadlineHitRate,
        static_cast<unsigned long long>(r.deadlineMissed),
        r.queueWaitP50Ms, r.queueWaitP95Ms, r.queueWaitP99Ms,
        r.queueWaitMaxMs, r.maxPending,
        static_cast<unsigned long long>(r.drainTicks),
        r.virtualSeconds,
        static_cast<unsigned long long>(r.cacheEvictions),
        r.storeHitRate,
        static_cast<unsigned long long>(r.storeLiveHits),
        static_cast<unsigned long long>(r.storeSpillRestores),
        static_cast<unsigned long long>(r.storeColdBinds),
        static_cast<unsigned long long>(r.resultHash),
        row.deterministic ? 1 : 0, last ? "" : ",");
}

}  // namespace

int
main(int argc, char **argv)
{
    double duration = 20.0;
    double qps = 400.0;
    std::size_t sessionCount = 64;
    bool strict = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--duration") == 0) {
            if (i + 1 >= argc)
                fatal("--duration needs a value");
            duration = std::atof(argv[++i]);
            if (duration <= 0.0)
                fatal("--duration must be positive, got \"", argv[i],
                      "\"");
        } else if (std::strcmp(argv[i], "--qps") == 0) {
            if (i + 1 >= argc)
                fatal("--qps needs a value");
            qps = std::atof(argv[++i]);
            if (qps <= 0.0)
                fatal("--qps must be positive, got \"", argv[i],
                      "\"");
        } else if (std::strcmp(argv[i], "--sessions") == 0) {
            if (i + 1 >= argc)
                fatal("--sessions needs a value");
            const long parsed = std::atol(argv[++i]);
            if (parsed <= 0)
                fatal("--sessions must be a positive integer, got "
                      "\"",
                      argv[i], "\"");
            sessionCount = static_cast<std::size_t>(parsed);
        } else if (std::strcmp(argv[i], "--strict") == 0) {
            strict = true;
        } else {
            fatal("unknown argument \"", argv[i], "\"");
        }
    }

    const std::size_t hw = std::max(
        1u, std::thread::hardware_concurrency());
    AttentionEngine engine(hw);

    ReplayConfig replay;
    replay.engine.kind = EngineKind::ExactQuantized;
    replay.dims = 32;
    replay.shardRows = 128;
    replay.maxBatch = 32;
    replay.drainPeriodSeconds = 0.05;
    replay.maxQueueDepth = 160;
    replay.maxPendingPerSession = 48;

    // Cache budget from a probe bind: room for ~24 mid-sized
    // sessions out of 64, so the Zipf tail churns the LRU and the
    // store's live/spill tiers absorb the re-binds.
    std::size_t bytesPerMidSession = 0;
    {
        const Matrix key = traceContentMatrix(1, 512, replay.dims);
        const Matrix value = traceValueMatrix(1, 512, replay.dims);
        const std::unique_ptr<AttentionBackend> probe =
            makeBackend(replay.engine, key, value);
        bytesPerMidSession = probe->memoryBytes();
    }
    const std::size_t cacheBudget = bytesPerMidSession * 24;

    TraceConfig base;
    base.seed = bench::benchSeed;
    base.durationSeconds = duration;
    base.arrivalsPerSecond = qps;
    base.sessionCount = static_cast<std::uint32_t>(sessionCount);
    base.zipfExponent = 1.1;
    base.documentCount = 12;
    base.ragFraction = 0.6;
    base.appendEveryQueries = 8;
    base.appendRows = 32;
    base.maxContextRows = 768;
    base.contextRows = {{128, 0.6}, {384, 0.3}, {1024, 0.1}};
    base.tightDeadlineFraction = 0.5;
    base.tightDeadlineSeconds = 0.15;
    base.looseDeadlineSeconds = 1.0;

    std::vector<ScenarioRow> rows;

    TraceConfig poisson = base;
    poisson.arrivals = ArrivalProcess::Poisson;
    rows.push_back(
        runScenario("poisson", poisson, engine, replay, cacheBudget));

    TraceConfig diurnal = base;
    diurnal.arrivals = ArrivalProcess::Diurnal;
    diurnal.diurnalPeriodSeconds = duration;
    diurnal.diurnalAmplitude = 0.8;
    rows.push_back(
        runScenario("diurnal", diurnal, engine, replay, cacheBudget));

    TraceConfig bursty = base;
    bursty.arrivals = ArrivalProcess::Bursty;
    bursty.burstFactor = 4.0;
    bursty.burstDutyCycle = 0.25;
    bursty.burstPeriodSeconds = std::max(1.0, duration / 4.0);
    rows.push_back(runScenario("bursty_4x", bursty, engine, replay,
                               cacheBudget));

    std::printf("{\n  \"trace_replay\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i)
        printRow(rows[i], i + 1 == rows.size());
    std::printf("  ]\n}\n");

    if (strict) {
        for (const ScenarioRow &row : rows) {
            if (row.report.failedQueries > 0)
                fatal("strict: scenario \"", row.scenario, "\" lost ",
                      row.report.failedQueries, " queries");
            if (!row.deterministic)
                fatal("strict: scenario \"", row.scenario,
                      "\" was not deterministic across two runs");
        }
    }
    return 0;
}
