/**
 * @file
 * Fault-tolerant coordinator of the distributed serving tier.
 *
 * RemoteShardCoordinator implements AttentionBackend by slicing the
 * bound task into the same prefix-aligned row shards ShardedBackend
 * builds in either store mode (prefixShardSizes, partial_merge.hpp):
 * floor(n / shardRows) full shards plus a remainder tail. It ships
 * each shard to worker processes as BindShard frames, fans every
 * query out over the workers, and merges the returned softmax
 * partials through the shared mergeShardPartials() — which is what
 * makes its results bit-identical to the in-process ShardedBackend,
 * store-less or store-backed, and hence to an unsharded backend,
 * for every engine kind.
 *
 * Robustness model, in escalation order per shard query:
 *   1. deadline   — every remote wait is bounded;
 *   2. retry      — bounded exponential backoff on the same worker
 *                   (timeouts and checksum rejects are transient);
 *   3. failover   — the next bound replica answers (replication R
 *                   binds each shard onto R workers up front);
 *   4. rebind     — the shard is re-replicated onto a surviving
 *                   worker under a bumped generation (workers
 *                   reject stale-generation queries, so a delayed
 *                   reply from the old binding can never be
 *                   mistaken for a current one);
 *   5. local      — the coordinator binds the shard itself with the
 *                   same makeBackend() call, so runInto() degrades
 *                   to in-process execution rather than failing.
 * Because every fallback computes the identical partial on the
 * identical rows and the merge is fixed-order, recovery changes
 * *where* a partial came from, never *what* it is.
 *
 * Worker health is tracked as Healthy -> Suspect -> Dead: a first
 * missed deadline makes a worker suspect, a second consecutive miss
 * (or any unrecoverable transport failure) makes it dead, and
 * heartbeat() re-replicates a dead worker's shards onto survivors.
 * With heartbeatPeriodSeconds set, an internal background thread
 * drives heartbeat() at that period (stopped and joined by the
 * destructor before any shutdown frame is sent); at the default 0
 * no thread is spawned and callers drive heartbeats explicitly —
 * the deterministic mode the health-machine tests rely on. Both
 * modes may coexist: heartbeat() is safe to call concurrently with
 * the background thread, serialized by the coordinator mutex.
 *
 * Thread safety: one internal mutex serializes all operations;
 * parallelism comes from the worker fan-out (queries are pipelined
 * to all shards before any reply is awaited), not from concurrent
 * coordinator calls.
 */

#ifndef A3_SERVING_REMOTE_COORDINATOR_HPP
#define A3_SERVING_REMOTE_COORDINATOR_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "attention/backend.hpp"
#include "net/transport.hpp"
#include "serving/remote_protocol.hpp"

namespace a3 {

/** How the coordinator reaches one worker. */
struct RemoteWorkerSpec
{
    std::string name;

    /**
     * Produce a connected transport to the worker, or nullptr with
     * a typed status. Called once at construction; a worker whose
     * connect fails starts out dead.
     */
    std::function<std::shared_ptr<Transport>(NetStatus &)> connect;
};

/** Spec for a worker process listening on an AF_UNIX socket. */
RemoteWorkerSpec unixWorkerSpec(std::string name,
                                std::string socketPath,
                                double connectTimeoutSeconds);

/**
 * Wrap a freshly connected worker transport — the fault-injection
 * seam (tests install FaultyTransport here to exercise every
 * recovery path deterministically).
 */
using TransportDecorator = std::function<std::shared_ptr<Transport>(
    std::shared_ptr<Transport>)>;

/** Knobs of the coordinator's sharding and robustness machinery. */
struct RemoteShardConfig
{
    /** Shard capacity in rows (the ShardedConfig::shardRows twin). */
    std::size_t shardRows = 64;

    /** Workers each shard is bound onto up front (clamped to the
     *  live worker count; failover consults them in order). */
    std::size_t replication = 1;

    /** Deadline for one remote wait (query reply, bind ack). */
    double queryDeadlineSeconds = 1.0;

    /** Same-worker resends after a transient failure. */
    std::size_t maxRetries = 2;

    /** Initial retry backoff; doubles per retry up to the cap. */
    double retryBackoffSeconds = 0.002;
    double retryBackoffMaxSeconds = 0.05;

    /** Deadline for one heartbeat ack. */
    double heartbeatTimeoutSeconds = 0.25;

    /**
     * Period of the internal background heartbeat thread; 0 (the
     * default) spawns no thread and leaves heartbeats caller-driven.
     * The thread starts after construction fully binds the shards
     * and is stopped and joined first thing in the destructor.
     */
    double heartbeatPeriodSeconds = 0.0;

    /** Optional wrapper around every worker transport. */
    TransportDecorator decorateTransport;
};

/** Liveness state the coordinator tracks per worker. */
enum class WorkerHealth { Healthy, Suspect, Dead };

/** Stable lowercase name ("healthy", "suspect", "dead"). */
const char *workerHealthName(WorkerHealth health);

/** Counters of the robustness machinery (all monotonic). */
struct RemoteCoordinatorStats
{
    std::size_t timeouts = 0;        ///< remote waits that expired
    std::size_t checksumRejects = 0; ///< corrupted frames rejected
    std::size_t retries = 0;         ///< same-worker resends
    std::size_t failovers = 0;       ///< replica switches
    std::size_t rebinds = 0;         ///< shards rebound to survivors
    std::size_t localFallbacks = 0;  ///< shards computed locally
    std::size_t staleReplies = 0;    ///< late replies discarded
};

/**
 * AttentionBackend over a fleet of shard workers. Construction
 * connects, handshakes, and binds every shard onto its replicas;
 * workers that fail at any step start out dead and their shards
 * fall back per the escalation ladder. With no live worker at all
 * the coordinator still serves every query locally.
 */
class RemoteShardCoordinator final : public AttentionBackend
{
  public:
    RemoteShardCoordinator(const EngineConfig &inner, Matrix key,
                           Matrix value,
                           std::vector<RemoteWorkerSpec> specs,
                           RemoteShardConfig config);
    ~RemoteShardCoordinator() override;

    std::string name() const override;

    using AttentionBackend::runInto;
    using AttentionBackend::runPartialInto;

    /**
     * Fan the query out and merge, asking the workers for the
     * dense diagnostics only at ResultDetail::Full — at Output the
     * replies carry zero-count per-row arrays.
     */
    void runInto(const Vector &query, AttentionResult &out,
                 ResultDetail detail) const override;
    void runPartialInto(const Vector &query, PartialResult &out,
                        ResultDetail detail) const override;
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;
    std::size_t memoryBytes() const override;
    std::size_t rows() const override;
    std::size_t dims() const override;

    /**
     * Per-request deadline budget from the scheduler: subsequent
     * query waits use min(hint, queryDeadlineSeconds) instead of the
     * static config deadline, so a request with little budget left
     * stops waiting on a sick worker sooner and escalates down the
     * recovery ladder. Advisory and sticky until the next hint; only
     * the two per-query reply waits tighten — handshake, bind, and
     * heartbeat waits keep their configured deadlines (they protect
     * binding durability, not one request's latency).
     */
    void queryDeadlineHint(double remainingSeconds) const override;

    /**
     * Probe every non-dead worker and apply the health transitions,
     * then re-replicate any under-replicated shard onto survivors.
     * Driven by the background thread when heartbeatPeriodSeconds is
     * set; always safe to call directly as well.
     */
    void heartbeat();

    std::size_t workerCount() const;
    WorkerHealth workerHealth(std::size_t worker) const;
    std::size_t shardCount() const;
    RemoteCoordinatorStats stats() const;

  private:
    struct Worker
    {
        RemoteWorkerSpec spec;
        std::shared_ptr<Transport> transport;
        WorkerHealth health = WorkerHealth::Dead;
        std::size_t consecutiveMisses = 0;
        std::uint64_t heartbeatSeq = 0;

        /** Replies received while awaiting a different request —
         *  pipelining and recovery interleave replies on one
         *  connection. Cleared at every operation start. */
        std::map<std::uint64_t, Frame> stash;
    };

    struct Shard
    {
        std::uint32_t id = 0;
        std::size_t offset = 0;
        std::size_t rowCount = 0;
        std::uint64_t generation = 0;

        /** Worker indices holding this shard, primary first. */
        std::vector<std::size_t> replicas;

        /** Last-resort local engine (built on first local
         *  fallback, dropped when the shard's rows change). */
        std::unique_ptr<AttentionBackend> local;
    };

    /** One in-flight shard query of the pipelined fan-out. */
    struct Pending
    {
        bool sent = false;
        std::size_t worker = 0;
        std::uint64_t requestId = 0;
    };

    bool workerAlive(std::size_t w) const;
    void markMiss(std::size_t w);
    void markDead(std::size_t w);
    void markAnswered(std::size_t w);

    /** Demote workers whose transport closed under us to Dead. */
    void sweepClosedWorkers();

    NetStatus connectWorker(std::size_t w);
    NetStatus bindShardTo(std::size_t w, Shard &shard);
    void ensureReplication(Shard &shard, bool countRebinds);
    void ensureReplicationAll(bool countRebinds);

    NetStatus sendQuery(std::size_t w, const Shard &shard,
                        const Vector &query, bool wantFull,
                        ResultDetail detail, std::uint64_t &requestId);
    NetStatus awaitReply(std::size_t w, std::uint64_t requestId,
                         double deadlineSeconds, Frame &out);
    NetStatus decodeShardReply(const Frame &frame, bool wantFull,
                               std::uint32_t shardId,
                               PartialResult *partial,
                               AttentionResult *result);
    NetStatus queryOnce(std::size_t w, const Shard &shard,
                        const Vector &query, bool wantFull,
                        ResultDetail detail, PartialResult *partial,
                        AttentionResult *result);

    /** The full escalation ladder for one shard; never fails. */
    void recoverShard(Shard &shard, const Vector &query,
                      bool wantFull, ResultDetail detail,
                      PartialResult *partial, AttentionResult *result);

    void runLocal(Shard &shard, const Vector &query, bool wantFull,
                  ResultDetail detail, PartialResult *partial,
                  AttentionResult *result);

    void queryAllShards(const Vector &query, bool wantFull,
                        ResultDetail detail,
                        PartialResult *mergedPartial,
                        AttentionResult *fullResult);

    void beginOperation();

    EngineConfig inner_;
    RemoteShardConfig config_;
    Matrix key_;
    Matrix value_;
    std::size_t dims_ = 0;

    /** Effective deadline for one query reply wait (see
     *  queryDeadlineHint). */
    double effectiveQueryDeadlineLocked() const;

    mutable std::mutex mu_;
    /** Latest scheduler hint in seconds; 0 = none (use the static
     *  config deadline). Relaxed atomic: written from the drain
     *  thread through the const backend pointer, read under mu_. */
    mutable std::atomic<double> deadlineHintSeconds_{0.0};
    mutable std::vector<Worker> workers_;
    mutable std::vector<Shard> shards_;
    /** shards_[s].offset for every shard, in the form the merge
     *  takes; changes only when append() opens a shard. */
    std::vector<std::size_t> shardOffsets_;
    mutable std::uint64_t nextRequestId_ = 1;
    mutable std::uint64_t operationFirstId_ = 1;
    mutable RemoteCoordinatorStats stats_;

    /** Reused fan-out buffers (all access is under mu_). */
    mutable std::vector<Pending> pending_;
    mutable std::vector<PartialResult> partials_;
    mutable PartialReplyPayload partialScratch_;
    mutable ResultReplyPayload resultScratch_;

    /** Background heartbeat machinery (heartbeatPeriodSeconds > 0):
     *  the thread waits on hbCv_ so the destructor can interrupt a
     *  sleep immediately instead of waiting a full period out. */
    std::mutex hbMu_;
    std::condition_variable hbCv_;
    bool hbStop_ = false;
    std::thread heartbeatThread_;
};

}  // namespace a3

#endif  // A3_SERVING_REMOTE_COORDINATOR_HPP
