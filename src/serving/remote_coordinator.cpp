#include "serving/remote_coordinator.hpp"

#include <algorithm>
#include <utility>

#include "serving/partial_merge.hpp"
#include "util/logging.hpp"
#include "util/stats.hpp"

namespace a3 {

namespace {

/**
 * Request id a client-bound reply frame answers: the leading u64
 * of PartialReply and ErrorReply payloads alike (0 for
 * connection-level errors and short payloads).
 */
std::uint64_t
replyRequestId(const Frame &frame)
{
    if (frame.payload.size() < 8)
        return 0;
    std::uint64_t id = 0;
    for (int b = 7; b >= 0; --b)
        id = (id << 8) |
             frame.payload[static_cast<std::size_t>(b)];
    return id;
}

bool
isReplyFrame(const Frame &frame)
{
    return frame.type == FrameType::PartialReply ||
           frame.type == FrameType::ErrorReply;
}

/** Transient failures worth retrying on the same worker. */
bool
retryable(NetError error)
{
    return error == NetError::Timeout ||
           error == NetError::BadChecksum;
}

}  // namespace

RemoteWorkerSpec
unixWorkerSpec(std::string name, std::string socketPath,
               double connectTimeoutSeconds)
{
    RemoteWorkerSpec spec;
    spec.name = std::move(name);
    spec.connect = [path = std::move(socketPath),
                    connectTimeoutSeconds](NetStatus &status) {
        return connectUnix(path, connectTimeoutSeconds, status);
    };
    return spec;
}

RemoteShardCoordinator::RemoteShardCoordinator(
    const EngineConfig &inner, Matrix key, Matrix value,
    std::vector<RemoteWorkerSpec> specs, RemoteShardConfig config)
    : inner_(inner), config_(config), key_(std::move(key)),
      value_(std::move(value))
{
    a3Assert(config_.shardRows > 0, "shardRows must be positive");
    a3Assert(key_.rows() == value_.rows() &&
                 key_.cols() == value_.cols(),
             "key/value shape mismatch");
    a3Assert(!key_.empty(), "attention task must be non-empty");
    dims_ = key_.cols();
    config_.replication = std::max<std::size_t>(
        1, std::min(config_.replication,
                    std::max<std::size_t>(1, specs.size())));

    workers_.reserve(specs.size());
    for (RemoteWorkerSpec &spec : specs) {
        Worker worker;
        worker.spec = std::move(spec);
        workers_.push_back(std::move(worker));
    }
    for (std::size_t w = 0; w < workers_.size(); ++w)
        connectWorker(w);

    const std::vector<std::size_t> sizes =
        prefixShardSizes(key_.rows(), config_.shardRows);
    std::size_t offset = 0;
    shards_.reserve(sizes.size());
    for (std::size_t s = 0; s < sizes.size(); ++s) {
        Shard shard;
        shard.id = static_cast<std::uint32_t>(s);
        shard.offset = offset;
        shard.rowCount = sizes[s];
        shard.generation = 1;
        shards_.push_back(std::move(shard));
        shardOffsets_.push_back(offset);
        offset += sizes[s];
    }
    ensureReplicationAll(/*countRebinds=*/false);
}

RemoteShardCoordinator::~RemoteShardCoordinator()
{
    for (Worker &worker : workers_) {
        if (worker.transport == nullptr)
            continue;
        if (worker.health != WorkerHealth::Dead)
            worker.transport->send(encodeShutdown());
        worker.transport->close();
    }
}

std::string
RemoteShardCoordinator::name() const
{
    return std::string("remote-sharded(") +
           engineKindName(inner_.kind) + ")";
}

std::size_t
RemoteShardCoordinator::rows() const
{
    return key_.rows();
}

std::size_t
RemoteShardCoordinator::dims() const
{
    return dims_;
}

std::size_t
RemoteShardCoordinator::memoryBytes() const
{
    std::lock_guard<std::mutex> lock(mu_);
    // The retained task copy (the re-replication source) plus any
    // local fallback engines.
    std::size_t total =
        (key_.data().size() + value_.data().size()) *
        sizeof(float);
    for (const Shard &shard : shards_)
        if (shard.local != nullptr)
            total += shard.local->memoryBytes();
    return total;
}

std::size_t
RemoteShardCoordinator::workerCount() const
{
    return workers_.size();
}

WorkerHealth
RemoteShardCoordinator::workerHealth(std::size_t worker) const
{
    std::lock_guard<std::mutex> lock(mu_);
    a3Assert(worker < workers_.size(), "worker index ", worker,
             " out of ", workers_.size());
    return workers_[worker].health;
}

std::size_t
RemoteShardCoordinator::shardCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return shards_.size();
}

RemoteCoordinatorStats
RemoteShardCoordinator::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

bool
RemoteShardCoordinator::workerAlive(std::size_t w) const
{
    const Worker &worker = workers_[w];
    return worker.health != WorkerHealth::Dead &&
           worker.transport != nullptr &&
           worker.transport->isOpen();
}

void
RemoteShardCoordinator::markMiss(std::size_t w)
{
    Worker &worker = workers_[w];
    ++worker.consecutiveMisses;
    if (worker.consecutiveMisses >= 2)
        markDead(w);
    else if (worker.health == WorkerHealth::Healthy)
        worker.health = WorkerHealth::Suspect;
}

void
RemoteShardCoordinator::markDead(std::size_t w)
{
    Worker &worker = workers_[w];
    worker.health = WorkerHealth::Dead;
    if (worker.transport != nullptr)
        worker.transport->close();
    worker.stash.clear();
}

void
RemoteShardCoordinator::markAnswered(std::size_t w)
{
    Worker &worker = workers_[w];
    worker.consecutiveMisses = 0;
    worker.health = WorkerHealth::Healthy;
}

NetStatus
RemoteShardCoordinator::connectWorker(std::size_t w)
{
    Worker &worker = workers_[w];
    NetStatus status = NetStatus::success();
    worker.transport =
        worker.spec.connect ? worker.spec.connect(status) : nullptr;
    if (worker.transport == nullptr) {
        if (status.ok())
            status = NetStatus::failure(NetError::SystemError,
                                        "connect returned no "
                                        "transport");
        return status;
    }
    if (config_.decorateTransport)
        worker.transport =
            config_.decorateTransport(std::move(worker.transport));

    HelloPayload hello;
    hello.peer = "coordinator";
    status = worker.transport->send(encodeHello(hello, /*ack=*/false));
    const auto helloAck = [](const Frame &f) {
        return f.type == FrameType::HelloAck;
    };
    Frame frame;
    if (status.ok())
        status = awaitFrame(w, config_.queryDeadlineSeconds, 0,
                            helloAck, frame);
    HelloPayload ack;
    if (status.ok())
        status = decodeHello(frame, ack);
    // A worker whose handshake fails starts out dead.
    if (status.ok())
        markAnswered(w);
    else
        markDead(w);
    return status;
}

NetStatus
RemoteShardCoordinator::bindShardTo(std::size_t w, Shard &shard)
{
    BindShardPayload bind;
    bind.shardId = shard.id;
    bind.generation = shard.generation;
    bind.config = inner_;
    bind.key = key_.rowSlice(shard.offset, shard.rowCount);
    bind.value = value_.rowSlice(shard.offset, shard.rowCount);
    NetStatus status =
        workers_[w].transport->send(encodeBindShard(bind));
    if (!status.ok()) {
        markDead(w);
        return status;
    }
    // Only the ack of this very bind counts, not one of an earlier
    // generation.
    const auto thisBind = [&shard](const Frame &f) {
        BindAckPayload ack;
        return f.type == FrameType::BindAck &&
               decodeBindAck(f, ack).ok() && ack.shardId == shard.id &&
               ack.generation == shard.generation;
    };
    Frame frame;
    status = awaitFrame(w, config_.queryDeadlineSeconds, 0, thisBind,
                        frame);
    if (status.ok())
        markAnswered(w);
    return status;
}

void
RemoteShardCoordinator::ensureReplication(Shard &shard,
                                          bool countRebinds)
{
    // Drop replicas that died.
    shard.replicas.erase(
        std::remove_if(shard.replicas.begin(),
                       shard.replicas.end(),
                       [this](std::size_t w) {
                           return !workerAlive(w);
                       }),
        shard.replicas.end());
    if (workers_.empty())
        return;
    // Top back up to R, scanning from the shard's home worker so
    // placement stays balanced.
    const std::size_t start = shard.id % workers_.size();
    for (std::size_t i = 0;
         i < workers_.size() &&
         shard.replicas.size() < config_.replication;
         ++i) {
        const std::size_t w = (start + i) % workers_.size();
        if (!workerAlive(w))
            continue;
        if (std::find(shard.replicas.begin(),
                      shard.replicas.end(),
                      w) != shard.replicas.end())
            continue;
        if (bindShardTo(w, shard).ok()) {
            shard.replicas.push_back(w);
            if (countRebinds)
                ++stats_.rebinds;
        }
    }
}

void
RemoteShardCoordinator::ensureReplicationAll(bool countRebinds)
{
    for (Shard &shard : shards_)
        ensureReplication(shard, countRebinds);
}

NetStatus
RemoteShardCoordinator::sendQuery(std::size_t w,
                                  const Shard &shard,
                                  const Vector &query,
                                  ResultDetail detail,
                                  std::uint64_t &requestId)
{
    QueryPayload payload;
    payload.requestId = nextRequestId_++;
    payload.shardId = shard.id;
    payload.generation = shard.generation;
    payload.wantDetail = detail == ResultDetail::Full;
    payload.query = query;
    const NetStatus status =
        workers_[w].transport->send(encodeQuery(payload));
    if (!status.ok()) {
        markDead(w);
        return status;
    }
    requestId = payload.requestId;
    return NetStatus::success();
}

NetStatus
RemoteShardCoordinator::awaitFrame(std::size_t w,
                                   double timeoutSeconds,
                                   std::uint64_t requestId,
                                   const FrameFilter &accept,
                                   Frame &out)
{
    Worker &worker = workers_[w];
    const auto stashed = worker.stash.find(requestId);
    if (stashed != worker.stash.end()) {
        out = std::move(stashed->second);
        worker.stash.erase(stashed);
        return NetStatus::success();
    }
    const double deadline = nowSeconds() + timeoutSeconds;
    NetStatus status = NetStatus::success();
    for (;;) {
        const double remaining = deadline - nowSeconds();
        if (remaining <= 0.0) {
            status = NetStatus::failure(NetError::Timeout,
                                        "remote wait expired");
            break;
        }
        status = worker.transport->recv(out, remaining);
        if (!status.ok())
            break;
        if (!isReplyFrame(out)) {
            if (accept && accept(out))
                return status;
            continue;  // late bind acks, earlier probes' acks
        }
        const std::uint64_t id = replyRequestId(out);
        if (out.type == FrameType::ErrorReply && id == 0) {
            // Connection-level report (the worker rejected a
            // corrupted or malformed frame — possibly ours).
            ErrorReplyPayload error;
            if (decodeErrorReply(out, error).ok())
                return NetStatus::failure(error.code, error.message);
            status = NetStatus::failure(NetError::Malformed,
                                        "undecodable error reply");
            break;
        }
        // Ack waits pass requestId 0, below every id an operation
        // sends, so they stash or drop every reply.
        if (id < operationFirstId_)
            ++stats_.staleReplies;  // an earlier operation's reply
        else if (id == requestId)
            return status;
        else
            // Another in-flight request's reply overtook this wait
            // (pipelining or recovery interleave): stash it. The
            // next recv() overwrites `out` whole, so it can move.
            worker.stash[id] = std::move(out);
    }
    if (status.error == NetError::Timeout) {
        ++stats_.timeouts;
        markMiss(w);
    } else if (status.error == NetError::BadChecksum) {
        ++stats_.checksumRejects;
    } else {
        markDead(w);
    }
    return status;
}

NetStatus
RemoteShardCoordinator::decodeShardReply(const Frame &frame,
                                         const Shard &shard,
                                         ResultDetail detail,
                                         PartialResult &partial)
{
    if (frame.type == FrameType::ErrorReply) {
        ErrorReplyPayload error;
        const NetStatus status = decodeErrorReply(frame, error);
        if (!status.ok())
            return status;
        return NetStatus::failure(error.code, error.message);
    }
    if (frame.type != FrameType::PartialReply)
        return NetStatus::failure(NetError::Malformed,
                                  "expected a partial reply");
    const NetStatus status =
        decodePartialReply(frame, partialScratch_);
    if (!status.ok())
        return status;
    if (partialScratch_.shardId != shard.id)
        return NetStatus::failure(NetError::Malformed,
                                  "reply for wrong shard");
    // A well-formed payload must still fit what the merge reads: a
    // d-length output, per-row arrays of the shard's length at Full
    // and none at Output, and row ids inside the shard.
    const PartialResult &p = partialScratch_.partial;
    const bool full = detail == ResultDetail::Full;
    const std::size_t rowCount = full ? shard.rowCount : 0;
    const auto outside = [&shard](std::uint32_t id) {
        return id >= shard.rowCount;
    };
    if (p.output.size() != dims_ || p.weights.size() != rowCount ||
        p.scores.size() != rowCount ||
        (!full && (!p.candidates.empty() || !p.kept.empty())) ||
        std::any_of(p.candidates.begin(), p.candidates.end(),
                    outside) ||
        std::any_of(p.kept.begin(), p.kept.end(), outside))
        return NetStatus::failure(
            NetError::Malformed,
            "reply does not fit the shard and the detail asked for");
    std::swap(partial, partialScratch_.partial);
    return NetStatus::success();
}

NetStatus
RemoteShardCoordinator::collectReply(std::size_t w,
                                     std::uint64_t requestId,
                                     const Shard &shard,
                                     ResultDetail detail,
                                     PartialResult &partial)
{
    Frame reply;
    NetStatus status = awaitFrame(w, config_.queryDeadlineSeconds,
                                  requestId, {}, reply);
    if (status.ok())
        status = decodeShardReply(reply, shard, detail, partial);
    if (status.ok())
        markAnswered(w);
    return status;
}

NetStatus
RemoteShardCoordinator::queryOnce(std::size_t w,
                                  const Shard &shard,
                                  const Vector &query,
                                  ResultDetail detail,
                                  PartialResult &partial)
{
    std::uint64_t requestId = 0;
    const NetStatus status =
        sendQuery(w, shard, query, detail, requestId);
    if (!status.ok())
        return status;
    return collectReply(w, requestId, shard, detail, partial);
}

void
RemoteShardCoordinator::runLocal(Shard &shard, const Vector &query,
                                 ResultDetail detail,
                                 PartialResult &partial)
{
    if (shard.local == nullptr) {
        ++stats_.rebinds;
        shard.local = makeBackend(
            inner_, key_.rowSlice(shard.offset, shard.rowCount),
            value_.rowSlice(shard.offset, shard.rowCount));
    }
    ++stats_.localFallbacks;
    shard.local->runUnitPartialInto(0, query, partial, detail);
}

void
RemoteShardCoordinator::recoverShard(Shard &shard,
                                     const Vector &query,
                                     ResultDetail detail,
                                     PartialResult &partial)
{
    // 2. Bounded exponential-backoff retries on the primary.
    if (!shard.replicas.empty()) {
        const std::size_t primary = shard.replicas.front();
        double backoff = config_.retryBackoffSeconds;
        for (std::size_t attempt = 0;
             attempt < config_.maxRetries && workerAlive(primary);
             ++attempt) {
            sleepSeconds(backoff);
            backoff = std::min(backoff * 2.0,
                               config_.retryBackoffMaxSeconds);
            ++stats_.retries;
            const NetStatus status =
                queryOnce(primary, shard, query, detail, partial);
            if (status.ok())
                return;
            if (!retryable(status.error))
                break;
        }
    }
    // 3. Failover to the remaining replicas.
    for (std::size_t r = 1; r < shard.replicas.size(); ++r) {
        const std::size_t w = shard.replicas[r];
        if (!workerAlive(w))
            continue;
        ++stats_.failovers;
        if (queryOnce(w, shard, query, detail, partial).ok()) {
            // Promote the answering replica.
            std::swap(shard.replicas[0], shard.replicas[r]);
            return;
        }
    }
    // 4. Re-replicate onto a survivor under a fresh generation
    //    (late replies from the old binding become stale). The
    //    replicas tried above just failed this shard — a Malformed
    //    reply leaves its worker alive — so one of them is chosen
    //    only when no other worker is alive.
    ++shard.generation;
    const std::vector<std::size_t> failed = shard.replicas;
    const auto hasFailed = [&failed](std::size_t w) {
        return std::count(failed.begin(), failed.end(), w) != 0;
    };
    bool otherAlive = false;
    for (std::size_t w = 0; w < workers_.size(); ++w)
        otherAlive = otherAlive || (workerAlive(w) && !hasFailed(w));
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const std::size_t w =
            (shard.id + i) % workers_.size();
        if (!workerAlive(w) || (otherAlive && hasFailed(w)))
            continue;
        if (!bindShardTo(w, shard).ok())
            continue;
        ++stats_.rebinds;
        shard.replicas.assign(1, w);
        ++stats_.failovers;
        if (queryOnce(w, shard, query, detail, partial).ok())
            return;
    }
    // 5. Local execution — the ladder never fails the query.
    shard.replicas.clear();
    runLocal(shard, query, detail, partial);
}

void
RemoteShardCoordinator::beginOperation()
{
    // A transport can die outside any coordinator call (the worker
    // process was SIGKILLed, the socket closed under us); fold
    // that into the health state before acting on it.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (workers_[w].health != WorkerHealth::Dead && !workerAlive(w))
            markDead(w);
        workers_[w].stash.clear();
    }
    operationFirstId_ = nextRequestId_;
}

SoftmaxTerms
RemoteShardCoordinator::queryAllShards(const Vector &query,
                                       ResultDetail detail,
                                       AttentionResult &out)
{
    a3Assert(query.size() == dims_, "query dimension ",
             query.size(), " does not match the task dimension ",
             dims_);
    beginOperation();

    // Phase 1: pipeline the query to every shard's primary before
    // awaiting any reply, so workers compute in parallel.
    pending_.assign(shards_.size(), Pending{});
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &shard = shards_[s];
        for (std::size_t r = 0; r < shard.replicas.size(); ++r) {
            const std::size_t w = shard.replicas[r];
            if (!workerAlive(w))
                continue;
            std::uint64_t requestId = 0;
            if (sendQuery(w, shard, query, detail, requestId).ok()) {
                if (r != 0) {
                    // The primary was gone before we even sent:
                    // promote the answering replica.
                    ++stats_.failovers;
                    std::swap(shard.replicas[0],
                              shard.replicas[r]);
                }
                pending_[s] = {w, requestId};
                break;
            }
        }
    }

    // Phase 2: collect in shard-index order — the fixed order the
    // deterministic merge requires — escalating per shard on
    // failure.
    partials_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        const Pending &sent = pending_[s];
        if (sent.requestId == 0 ||
            !collectReply(sent.worker, sent.requestId, shards_[s],
                          detail, partials_[s])
                 .ok())
            recoverShard(shards_[s], query, detail, partials_[s]);
    }
    return mergeShardPartials(partials_, shardOffsets_, key_.rows(),
                              dims_, out);
}

SoftmaxTerms
RemoteShardCoordinator::runInto(const Vector &query,
                                AttentionResult &out,
                                ResultDetail detail) const
{
    auto *self = const_cast<RemoteShardCoordinator *>(this);
    std::lock_guard<std::mutex> lock(mu_);
    return self->queryAllShards(query, detail, out);
}

void
RemoteShardCoordinator::append(const Matrix &keyRows,
                               const Matrix &valueRows)
{
    a3Assert(keyRows.rows() == valueRows.rows() &&
                 keyRows.cols() == valueRows.cols(),
             "appended key/value shape mismatch");
    a3Assert(keyRows.cols() == dims_,
             "appended rows must match the task dimension");
    std::lock_guard<std::mutex> lock(mu_);
    key_.appendRows(keyRows);
    value_.appendRows(valueRows);

    // Mirror ShardedBackend::append's layout evolution: fill the
    // last shard to capacity, then open new shards. Changed shards
    // get a fresh generation and a full rebind — workers hold
    // whole slices, so an incremental append frame would buy
    // little and cost a protocol message.
    const std::size_t total = keyRows.rows();
    std::size_t consumed = 0;
    while (consumed < total) {
        Shard &last = shards_.back();
        if (last.rowCount < config_.shardRows) {
            const std::size_t take =
                std::min(config_.shardRows - last.rowCount,
                         total - consumed);
            last.rowCount += take;
            ++last.generation;
            last.replicas.clear();
            last.local.reset();
            consumed += take;
            ensureReplication(last, /*countRebinds=*/false);
        } else {
            Shard shard;
            shard.id = static_cast<std::uint32_t>(shards_.size());
            shard.offset = last.offset + last.rowCount;
            shard.rowCount = std::min(config_.shardRows,
                                      total - consumed);
            shard.generation = 1;
            consumed += shard.rowCount;
            shardOffsets_.push_back(shard.offset);
            shards_.push_back(std::move(shard));
            ensureReplication(shards_.back(),
                              /*countRebinds=*/false);
        }
    }
}

void
RemoteShardCoordinator::heartbeat()
{
    std::lock_guard<std::mutex> lock(mu_);
    beginOperation();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        if (!workerAlive(w))
            continue;
        HeartbeatPayload beat;
        beat.sequence = ++workers_[w].heartbeatSeq;
        NetStatus status =
            workers_[w].transport->send(encodeHeartbeat(beat, false));
        if (!status.ok()) {
            markDead(w);
            continue;
        }
        // Acks of earlier probes do not count.
        const auto thisProbe = [&beat](const Frame &f) {
            HeartbeatPayload ack;
            return f.type == FrameType::HeartbeatAck &&
                   decodeHeartbeat(f, ack).ok() &&
                   ack.sequence == beat.sequence;
        };
        Frame frame;
        if (awaitFrame(w, config_.heartbeatTimeoutSeconds, 0,
                       thisProbe, frame)
                .ok())
            markAnswered(w);
    }
    // Re-replicate the shards the dead workers were holding.
    ensureReplicationAll(/*countRebinds=*/true);
}

}  // namespace a3
