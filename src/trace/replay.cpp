#include "trace/replay.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>

#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace a3 {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/** Salt separating a content seed's value stream from its key
 *  stream, and query seeds from content seeds. */
constexpr std::uint64_t kValueSalt = 0x5851f42d4c957f2dull;
constexpr std::uint64_t kQuerySalt = 0x14057b7ef767814full;

std::uint64_t
fnvBytes(std::uint64_t hash, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        hash ^= p[i];
        hash *= kFnvPrime;
    }
    return hash;
}

/** Replay-side view of one session across the run. The content
 *  matrices are memoized so rebinds after eviction present the
 *  exact bytes again without regenerating them. */
struct SessionRuntime
{
    SessionHandle handle;
    std::uint64_t contentSeed = 0;
    std::uint32_t rows = 0;
    SessionStyle style = SessionStyle::Rag;
    bool everBound = false;
    Matrix key;
    Matrix value;
};

/** Bookkeeping for one admitted query until its completion. */
struct InflightQuery
{
    double arrivalSeconds = 0.0;
    double deadlineSeconds = 0.0;
    std::uint32_t session = 0;
    Vector query;
};

}  // namespace

Matrix
traceContentRows(std::uint64_t seed, std::size_t firstRow,
                 std::size_t count, std::size_t dims)
{
    // Each row is seeded independently from (seed, row index), so
    // row r's values do not depend on the total row count requested
    // or on where generation starts: a larger matrix extends a
    // smaller one byte-for-byte, and an append's slice can be
    // produced without regenerating the prefix.
    Matrix m(count, dims);
    for (std::size_t r = 0; r < count; ++r) {
        const auto row = static_cast<std::uint64_t>(firstRow + r);
        Rng rng(fnvBytes(fnvBytes(kFnvOffset, &seed, sizeof seed),
                         &row, sizeof row));
        for (std::size_t c = 0; c < dims; ++c)
            m.at(r, c) = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
    return m;
}

Matrix
traceContentMatrix(std::uint64_t seed, std::size_t rows,
                   std::size_t dims)
{
    return traceContentRows(seed, 0, rows, dims);
}

Matrix
traceValueRows(std::uint64_t seed, std::size_t firstRow,
               std::size_t count, std::size_t dims)
{
    return traceContentRows(seed ^ kValueSalt, firstRow, count, dims);
}

Matrix
traceValueMatrix(std::uint64_t seed, std::size_t rows,
                 std::size_t dims)
{
    return traceValueRows(seed, 0, rows, dims);
}

Vector
traceQueryVector(std::uint64_t seed, std::size_t dims)
{
    Rng rng(seed ^ kQuerySalt);
    Vector q(dims);
    for (float &value : q)
        value = static_cast<float>(rng.uniform(-1.0, 1.0));
    return q;
}

std::uint64_t
hashAttentionResult(std::uint64_t hash, const AttentionResult &result)
{
    for (float value : result.output) {
        std::uint32_t bits = 0;
        std::memcpy(&bits, &value, sizeof bits);
        hash = fnvBytes(hash, &bits, sizeof bits);
    }
    for (std::uint32_t kept : result.kept)
        hash = fnvBytes(hash, &kept, sizeof kept);
    const auto iterations =
        static_cast<std::uint64_t>(result.iterations);
    return fnvBytes(hash, &iterations, sizeof iterations);
}

ReplayReport
replayTrace(const Trace &trace, AttentionEngine &engine,
            const ReplayConfig &config)
{
    if (config.dims == 0)
        fatal("replayTrace: dims must be nonzero");
    if (config.drainPeriodSeconds <= 0.0)
        fatal("replayTrace: drainPeriodSeconds must be positive");
    if (config.admission.targetLatencySeconds != 0.0)
        fatal("replayTrace: targetLatencySeconds uses wall-clock "
              "service time and would make the replay "
              "nondeterministic; leave it 0");
    if (config.store != nullptr && config.shardRows == 0)
        fatal("replayTrace: a ShardStore requires shardRows > 0");

    SessionCacheConfig cacheConfig;
    cacheConfig.byteBudget = config.cacheByteBudget;
    cacheConfig.engine = config.engine;
    cacheConfig.shardRows = config.shardRows;
    cacheConfig.store = config.store;
    SessionCache cache(cacheConfig);
    BatchScheduler scheduler(engine, cache, config.maxBatch,
                             config.admission);

    const ShardStoreStats storeBefore =
        config.store ? config.store->stats() : ShardStoreStats{};

    ReplayReport report;
    report.resultHash = kFnvOffset;
    report.events = trace.events.size();

    std::vector<SessionRuntime> sessions(trace.sessionCount);
    std::unordered_map<std::uint64_t, InflightQuery> inflight;
    std::vector<double> waits;

    auto sessionId = [](std::uint32_t s) {
        return "s" + std::to_string(s);
    };

    auto bindFresh = [&](std::uint32_t s) {
        SessionRuntime &rt = sessions[s];
        rt.handle =
            cache.bindSession(sessionId(s), rt.key, rt.value).handle;
    };

    // A live handle for `s`, re-binding if its binding was evicted.
    auto ensureBound = [&](std::uint32_t s) -> SessionHandle & {
        SessionRuntime &rt = sessions[s];
        if (rt.handle.backend() == nullptr) {
            rt.handle = cache.lookupSession(sessionId(s));
            if (rt.handle.backend() == nullptr) {
                bindFresh(s);
                ++report.rebinds;
            }
        }
        return rt.handle;
    };

    auto submitQuery = [&](std::uint32_t s, Vector query,
                           double arrival, double deadline,
                           SessionStyle style) {
        SubmitOptions options;
        options.deadlineSeconds = config.schedulerDeadlineSeconds;
        // result_hash covers the kept rows, so replay asks for the
        // dense diagnostics.
        options.detail = ResultDetail::Full;
        if (config.classifyByStyle)
            options.requestClass = sessionStyleName(style);
        const SessionHandle &handle = ensureBound(s);
        AdmissionOutcome outcome =
            scheduler.submit(handle, query, options);
        if (outcome.admitted()) {
            InflightQuery info;
            info.arrivalSeconds = arrival;
            info.deadlineSeconds = deadline;
            info.session = s;
            info.query = std::move(query);
            inflight.emplace(outcome.ticket, std::move(info));
            return;
        }
        switch (outcome.decision) {
        case AdmissionDecision::RejectedQueueFull:
            ++report.shedQueueFull;
            break;
        case AdmissionDecision::RejectedSessionCap:
            ++report.shedSessionCap;
            break;
        case AdmissionDecision::RejectedCostBudget:
            ++report.shedCostBudget;
            break;
        default:
            ++report.shedOther;
            break;
        }
    };

    auto handleEvent = [&](const TraceEvent &event) {
        SessionRuntime &rt = sessions[event.session];
        switch (event.kind) {
        case TraceEventKind::Bind:
            ++report.binds;
            rt.contentSeed = event.payloadSeed;
            rt.rows = event.rows;
            rt.style = event.style;
            rt.everBound = true;
            rt.key = traceContentMatrix(rt.contentSeed, rt.rows,
                                        config.dims);
            rt.value = traceValueMatrix(rt.contentSeed, rt.rows,
                                        config.dims);
            bindFresh(event.session);
            break;
        case TraceEventKind::Append: {
            ++report.appends;
            const SessionHandle &handle = ensureBound(event.session);
            const Matrix keyRows = traceContentRows(
                rt.contentSeed, rt.rows, event.rows, config.dims);
            const Matrix valueRows = traceValueRows(
                rt.contentSeed, rt.rows, event.rows, config.dims);
            rt.key.appendRows(keyRows);
            rt.value.appendRows(valueRows);
            rt.rows += event.rows;
            AppendOutcome appended =
                cache.appendSession(handle, keyRows, valueRows);
            if (!appended.ok()) {
                // Evicted between ensureBound and the append;
                // re-bind at the grown size keeps the content
                // stream consistent.
                bindFresh(event.session);
                ++report.rebinds;
            }
            break;
        }
        case TraceEventKind::Query:
            ++report.queries;
            submitQuery(event.session,
                        traceQueryVector(event.payloadSeed,
                                         config.dims),
                        event.timeSeconds, event.deadlineSeconds,
                        event.style);
            break;
        }
    };

    const double dt = config.drainPeriodSeconds;
    double now = 0.0;
    std::size_t next = 0;
    while (next < trace.events.size() || scheduler.pending() > 0) {
        while (next < trace.events.size() &&
               trace.events[next].timeSeconds <= now) {
            handleEvent(trace.events[next]);
            ++next;
        }

        report.maxPending =
            std::max(report.maxPending, scheduler.pending());
        if (scheduler.pending() > 0) {
            ++report.drainTicks;
            for (ServingResult &done : scheduler.drain()) {
                auto it = inflight.find(done.ticket);
                if (it == inflight.end())
                    fatal("replayTrace: completion for an unknown "
                          "ticket");
                InflightQuery &info = it->second;
                if (!done.ok()) {
                    if (done.error != ServingError::SessionUnbound) {
                        ++report.failedQueries;
                        inflight.erase(it);
                        continue;
                    }
                    // The binding was evicted while the request
                    // was queued. Re-bind and answer directly
                    // against the fresh backend — bit-identical to
                    // the engine path — so eviction churn never
                    // loses a query.
                    const SessionHandle &handle =
                        ensureBound(info.session);
                    const std::shared_ptr<AttentionBackend> backend =
                        handle.backend();
                    if (backend == nullptr) {
                        ++report.failedQueries;
                        inflight.erase(it);
                        continue;
                    }
                    backend->runInto(info.query, done.result);
                    done.error = ServingError::None;
                    ++report.recoveredDirect;
                }
                ++report.served;
                const double wait = now - info.arrivalSeconds;
                waits.push_back(wait);
                if (info.deadlineSeconds > 0.0) {
                    if (wait <= info.deadlineSeconds)
                        ++report.deadlineMet;
                    else
                        ++report.deadlineMissed;
                }
                report.resultHash = hashAttentionResult(
                    report.resultHash, done.result);
                if (config.captureResults)
                    report.results.push_back(std::move(done.result));
                inflight.erase(it);
            }
        }

        if (next >= trace.events.size() && scheduler.pending() == 0)
            break;

        // Advance one tick; when idle, jump to the tick the next
        // arrival lands in (same grid, fewer empty iterations).
        now += dt;
        if (scheduler.pending() == 0 && next < trace.events.size() &&
            trace.events[next].timeSeconds > now) {
            const double target = trace.events[next].timeSeconds;
            now = dt * std::ceil(target / dt);
            if (now < target)
                now = target;
        }
    }
    report.virtualSeconds = now;

    if (!inflight.empty())
        fatal("replayTrace: queries left in flight after the final "
              "drain");

    std::sort(waits.begin(), waits.end());
    report.queueWaitP50Ms = percentileSorted(waits, 0.50) * 1e3;
    report.queueWaitP95Ms = percentileSorted(waits, 0.95) * 1e3;
    report.queueWaitP99Ms = percentileSorted(waits, 0.99) * 1e3;
    report.queueWaitMaxMs = waits.empty() ? 0.0 : waits.back() * 1e3;

    const std::uint64_t judged =
        report.deadlineMet + report.deadlineMissed;
    report.deadlineHitRate =
        judged == 0 ? 1.0
                    : static_cast<double>(report.deadlineMet) /
                          static_cast<double>(judged);
    report.shedRate =
        report.queries == 0
            ? 0.0
            : static_cast<double>(report.shed()) /
                  static_cast<double>(report.queries);

    const SessionCacheStats cacheStats = cache.stats();
    report.cacheHits = cacheStats.hits;
    report.cacheMisses = cacheStats.misses;
    report.cacheEvictions = cacheStats.evictions;

    if (config.store != nullptr) {
        const ShardStoreStats after = config.store->stats();
        report.storeLiveHits = after.liveHits - storeBefore.liveHits;
        report.storeSpillRestores =
            after.spillRestores - storeBefore.spillRestores;
        report.storeColdBinds =
            after.coldBinds - storeBefore.coldBinds;
        const std::uint64_t acquisitions = report.storeLiveHits +
                                           report.storeSpillRestores +
                                           report.storeColdBinds;
        report.storeHitRate =
            acquisitions == 0
                ? 0.0
                : static_cast<double>(report.storeLiveHits +
                                      report.storeSpillRestores) /
                      static_cast<double>(acquisitions);
    }
    return report;
}

}  // namespace a3
