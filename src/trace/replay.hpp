/**
 * @file
 * Virtual-clock replay of a traffic trace through the full serving
 * path: SessionCache + ShardStore-backed sharded sessions +
 * BatchScheduler with admission control and deadlines.
 *
 * The driver walks the trace on a **virtual clock** that advances in
 * fixed drain ticks (ReplayConfig::drainPeriodSeconds): before each
 * tick it submits every event whose arrival time has come, then
 * calls BatchScheduler::drain() once. A request's queue wait is
 * virtual — drain-tick time minus arrival time — and deadline
 * outcomes are judged against that virtual wait, so deadline hit
 * rates, shed rates, and wait percentiles depend only on the trace
 * and the config, never on machine speed. That is what allows
 * bench/trace_replay metrics to be CI-gated and required to be
 * bit-identical across two runs at the same seed.
 *
 * Division of labor with the scheduler's own wall-clock machinery:
 * the replay hands the scheduler only the limits it applies
 * deterministically — queue depth and the per-session cap, which run
 * for real inside submit() and produce the shed counts. It submits
 * without a scheduler deadline and with no adaptive depth, since
 * both key off wall-clock time; the trace's deadlines are judged
 * against the virtual wait instead.
 *
 * Realistic failure handling is part of the loop: the Zipf tail plus
 * a finite cache budget means sessions get evicted while queries for
 * them are queued or arriving. Arrivals against a stale handle
 * re-bind the session from its deterministic content stream (the
 * ShardStore turns these into live-handle or spill-restore hits —
 * the store hit rate is a headline metric). A drain completion that
 * still reports SessionUnbound — the binding was evicted by a
 * hotter session's bind while the request was queued — is recovered
 * by re-binding and answering the query directly against the fresh
 * backend (bit-identical to the engine path, counted in
 * recoveredDirect), so no query is ever lost to eviction churn;
 * failedQueries counts only unrecoverable errors and CI gates it at
 * zero.
 */

#ifndef A3_TRACE_REPLAY_HPP
#define A3_TRACE_REPLAY_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "attention/backend.hpp"
#include "attention/types.hpp"
#include "engine/engine.hpp"
#include "serving/shard_store.hpp"
#include "tensor/matrix.hpp"
#include "trace/trace.hpp"

namespace a3 {

/** Knobs for replayTrace(). */
struct ReplayConfig
{
    /** Engine config for session binds. */
    EngineConfig engine;

    /** Key/value dimensionality of generated content. */
    std::size_t dims = 32;

    /** Virtual seconds between drain ticks; also the maximum
     *  service capacity is maxBatch / drainPeriodSeconds. */
    double drainPeriodSeconds = 0.05;

    /** Per-drain batch cap handed to the BatchScheduler; 0 drains
     *  everything pending. */
    std::size_t maxBatch = 32;

    /** Scheduler admission limits (AdmissionPolicy::maxQueueDepth
     *  and maxPendingPerSession); 0 = unbounded. */
    std::size_t maxQueueDepth = 0;
    std::size_t maxPendingPerSession = 0;

    /** SessionCache byte budget; 0 = unlimited (no eviction
     *  churn). */
    std::size_t cacheByteBudget = 0;

    /** Shard capacity of session binds; 0 binds unsharded. */
    std::size_t shardRows = 0;

    /** Cross-session shard registry (borrowed); nullptr disables
     *  sharing. Requires shardRows > 0. */
    ShardStore *store = nullptr;

    /** Retain every served AttentionResult in completion order
     *  (ReplayReport::results) — for bit-identity tests; off by
     *  default to keep big replays lean. */
    bool captureResults = false;
};

/** Everything one replay measured. All counters and percentiles
 *  are virtual-clock-deterministic unless noted. */
struct ReplayReport
{
    // -- traffic accounting -------------------------------------
    std::uint64_t events = 0;
    std::uint64_t binds = 0;
    std::uint64_t appends = 0;
    std::uint64_t queries = 0;

    /** Evicted sessions re-bound from their content stream (at
     *  arrival of a query, or on a SessionUnbound completion). */
    std::uint64_t rebinds = 0;

    /** Queries answered with a result (including recoveredDirect). */
    std::uint64_t served = 0;

    /** Served queries whose binding was evicted while they were
     *  queued: re-bound and answered directly against the fresh
     *  backend (bit-identical to the engine path). */
    std::uint64_t recoveredDirect = 0;

    /** Submits shed by the admission policy, by limit. */
    std::uint64_t shedQueueFull = 0;
    std::uint64_t shedSessionCap = 0;

    /** Queries lost to unrecoverable errors. Zero in a healthy
     *  replay (CI gates on this). */
    std::uint64_t failedQueries = 0;

    /** Served queries judged against their virtual deadline. */
    std::uint64_t deadlineMet = 0;
    std::uint64_t deadlineMissed = 0;

    /** deadlineMet / (deadlineMet + deadlineMissed); 1 when no
     *  served query carried a deadline. */
    double deadlineHitRate = 1.0;

    /** All admission sheds. */
    std::uint64_t shed() const
    {
        return shedQueueFull + shedSessionCap;
    }

    /** shed() / queries submitted. */
    double shedRate = 0.0;

    // -- virtual latency ----------------------------------------
    /** Virtual queue wait (arrival to the serving drain tick),
     *  milliseconds, nearest-rank percentiles over served
     *  queries. */
    double queueWaitP50Ms = 0.0;
    double queueWaitP95Ms = 0.0;
    double queueWaitP99Ms = 0.0;
    double queueWaitMaxMs = 0.0;

    /** Largest scheduler backlog observed at a tick. */
    std::size_t maxPending = 0;

    /** Drain ticks executed. */
    std::uint64_t drainTicks = 0;

    /** Virtual time when the last completion landed. */
    double virtualSeconds = 0.0;

    // -- serving-tier state -------------------------------------
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    std::uint64_t cacheEvictions = 0;

    /** ShardStore deltas over the replay (0s without a store). */
    std::uint64_t storeLiveHits = 0;
    std::uint64_t storeSpillRestores = 0;
    std::uint64_t storeColdBinds = 0;

    /** (liveHits + spillRestores) / all shard acquisitions. */
    double storeHitRate = 0.0;

    /**
     * FNV-1a over every served result (output bits, kept
     * candidates, iteration count) in completion order: two replays
     * of one trace must produce equal hashes — the cheap whole-run
     * bit-identity check.
     */
    std::uint64_t resultHash = 0;

    /** Served results in completion order (captureResults only). */
    std::vector<AttentionResult> results;
};

/**
 * Deterministic content generation. Row r of a stream's matrix is
 * always the same regardless of the total row count requested, so
 * appends extend a session's matrix without rewriting history and a
 * re-bind at the grown size reproduces the exact bytes — which is
 * what lets the ShardStore dedup and spill-restore across binds.
 */
Matrix traceContentMatrix(std::uint64_t seed, std::size_t rows,
                          std::size_t dims);

/** Rows [firstRow, firstRow + count) of a content stream — what an
 *  append event presents without regenerating the prefix. */
Matrix traceContentRows(std::uint64_t seed, std::size_t firstRow,
                        std::size_t count, std::size_t dims);

/** The value-matrix stream of a content seed (distinct from the
 *  key stream). */
Matrix traceValueMatrix(std::uint64_t seed, std::size_t rows,
                        std::size_t dims);

/** Rows [firstRow, firstRow + count) of the value stream. */
Matrix traceValueRows(std::uint64_t seed, std::size_t firstRow,
                      std::size_t count, std::size_t dims);

/** Deterministic query vector for a query event's payloadSeed. */
Vector traceQueryVector(std::uint64_t seed, std::size_t dims);

/** Fold one result into a running FNV-1a hash (exposed so tests
 *  can recompute ReplayReport::resultHash). */
std::uint64_t hashAttentionResult(std::uint64_t hash,
                                  const AttentionResult &result);

/**
 * Replay `trace` through a fresh SessionCache + BatchScheduler on
 * `engine` under `config`. The ShardStore (if any) is borrowed and
 * may be shared across replays; the report's store counters are
 * deltas over this replay.
 */
ReplayReport replayTrace(const Trace &trace, AttentionEngine &engine,
                         const ReplayConfig &config);

}  // namespace a3

#endif  // A3_TRACE_REPLAY_HPP
