/**
 * @file
 * Fault-tolerant coordinator of the distributed serving tier.
 *
 * RemoteShardCoordinator implements AttentionBackend by slicing the
 * bound task into the same prefix-aligned row shards ShardedBackend
 * builds in either store mode (prefixShardSizes, partial_merge.hpp):
 * floor(n / shardRows) full shards plus a remainder tail. It ships
 * each shard to worker processes as BindShard frames, fans every
 * query out over the workers, and merges the returned unit partials
 * through the shared mergeShardPartials() — which is what makes its
 * results bit-identical to the in-process ShardedBackend, store-less
 * or store-backed, for every engine kind and shard count (and so,
 * at S = 1, to an unsharded backend). A reply that decodes but does
 * not fit its shard or the detail asked for counts as a failed
 * answer, never reaches the merge, and escalates like a timeout.
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
 * Every wait on a worker — the Hello handshake, a bind ack, a query
 * reply, a heartbeat ack — goes through one receive loop that
 * demuxes replies by request id and applies one failure rule: a
 * timeout is a miss, a checksum reject is transient and leaves the
 * worker alive, and any other transport failure kills it. Worker
 * health is tracked as Healthy -> Suspect -> Dead: a first miss
 * makes a worker suspect, a second consecutive miss (or a fatal
 * transport failure) makes it dead, and heartbeat() re-replicates a
 * dead worker's shards onto survivors. The coordinator spawns no
 * thread of its own: callers drive heartbeat() at whatever period
 * suits them, which keeps the health machine deterministic under
 * test.
 *
 * Thread safety: one internal mutex serializes all operations,
 * heartbeat() included; parallelism comes from the worker fan-out
 * (queries are pipelined to all shards before any reply is awaited),
 * not from concurrent coordinator calls. Every wait is bounded: by
 * the static queryDeadlineSeconds, or heartbeatTimeoutSeconds for a
 * heartbeat ack.
 */

#ifndef A3_SERVING_REMOTE_COORDINATOR_HPP
#define A3_SERVING_REMOTE_COORDINATOR_HPP

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
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

    /** Deadline for one remote wait (handshake, bind ack, query
     *  reply). */
    double queryDeadlineSeconds = 1.0;

    /** Same-worker resends after a transient failure. */
    std::size_t maxRetries = 2;

    /** Initial retry backoff; doubles per retry up to the cap. */
    double retryBackoffSeconds = 0.002;
    double retryBackoffMaxSeconds = 0.05;

    /** Deadline for one heartbeat ack. */
    double heartbeatTimeoutSeconds = 0.25;

    /** Optional wrapper around every worker transport. */
    TransportDecorator decorateTransport;
};

/** Liveness state the coordinator tracks per worker. */
enum class WorkerHealth { Healthy, Suspect, Dead };

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

    /**
     * Fan the query out and merge the shards' unit partials,
     * asking the workers for the dense diagnostics only at
     * ResultDetail::Full — at Output the replies carry zero-count
     * per-row arrays. Returns the merged terms.
     */
    SoftmaxTerms runInto(
        const Vector &query, AttentionResult &out,
        ResultDetail detail = ResultDetail::Full) const override;
    void append(const Matrix &keyRows,
                const Matrix &valueRows) override;
    std::size_t memoryBytes() const override;
    std::size_t rows() const override;
    std::size_t dims() const override;

    /**
     * Probe every non-dead worker and apply the health transitions,
     * then re-replicate any under-replicated shard onto survivors.
     * Caller-driven; safe to call between or alongside queries.
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

    /** One in-flight shard query of the pipelined fan-out;
     *  requestId 0 (ids start at 1) means nothing was sent. */
    struct Pending
    {
        std::size_t worker = 0;
        std::uint64_t requestId = 0;
    };

    /** Takes the non-reply frame (an ack) a wait is for. */
    using FrameFilter = std::function<bool(const Frame &)>;

    bool workerAlive(std::size_t w) const;
    void markMiss(std::size_t w);
    void markDead(std::size_t w);
    void markAnswered(std::size_t w);

    NetStatus connectWorker(std::size_t w);
    NetStatus bindShardTo(std::size_t w, Shard &shard);
    void ensureReplication(Shard &shard, bool countRebinds);
    void ensureReplicationAll(bool countRebinds);

    NetStatus sendQuery(std::size_t w, const Shard &shard,
                        const Vector &query, ResultDetail detail,
                        std::uint64_t &requestId);

    /**
     * The coordinator's one receive loop. Waits up to
     * `timeoutSeconds` on worker `w` for the reply to `requestId`
     * (from the stash or the wire) or for a non-reply frame
     * `accept` takes; ack waits pass requestId 0. Other replies are
     * stashed for their own wait, or counted stale when an earlier
     * operation sent them. A connection-level ErrorReply fails the
     * wait with the worker's code and leaves its health alone. The
     * one failure rule: a timeout counts in `timeouts` and is a
     * miss, a checksum reject counts in `checksumRejects` and leaves
     * the worker alive, and any other transport failure (or an
     * undecodable ErrorReply) kills it.
     */
    NetStatus awaitFrame(std::size_t w, double timeoutSeconds,
                         std::uint64_t requestId,
                         const FrameFilter &accept, Frame &out);

    /**
     * Decode a worker's reply for `shard` into `partial`. A reply
     * the merge could not take — an output whose length is not d,
     * per-row arrays that do not match the shard's rows at `detail`,
     * row ids outside the shard — is Malformed, and the caller
     * escalates down the recovery ladder.
     */
    NetStatus decodeShardReply(const Frame &frame, const Shard &shard,
                               ResultDetail detail,
                               PartialResult &partial);

    /** Await, decode and account the reply to one shard query. */
    NetStatus collectReply(std::size_t w, std::uint64_t requestId,
                           const Shard &shard, ResultDetail detail,
                           PartialResult &partial);
    NetStatus queryOnce(std::size_t w, const Shard &shard,
                        const Vector &query, ResultDetail detail,
                        PartialResult &partial);

    /** The full escalation ladder for one shard; never fails. */
    void recoverShard(Shard &shard, const Vector &query,
                      ResultDetail detail, PartialResult &partial);

    void runLocal(Shard &shard, const Vector &query,
                  ResultDetail detail, PartialResult &partial);

    SoftmaxTerms queryAllShards(const Vector &query,
                                ResultDetail detail,
                                AttentionResult &out);

    /** Start a query or a heartbeat round: demote workers whose
     *  transport closed under us to Dead, and make every reply
     *  still in flight stale. */
    void beginOperation();

    EngineConfig inner_;
    RemoteShardConfig config_;
    Matrix key_;
    Matrix value_;
    std::size_t dims_ = 0;

    mutable std::mutex mu_;
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
};

}  // namespace a3

#endif  // A3_SERVING_REMOTE_COORDINATOR_HPP
