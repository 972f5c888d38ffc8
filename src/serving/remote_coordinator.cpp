#include "serving/remote_coordinator.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "serving/partial_merge.hpp"
#include "util/logging.hpp"

namespace a3 {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now()
                   .time_since_epoch())
        .count();
}

void
sleepSeconds(double seconds)
{
    if (seconds > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double>(seconds));
}

/**
 * Request id a client-bound reply frame answers: the leading u64
 * of PartialReply, ResultReply, and ErrorReply payloads alike (0
 * for connection-level errors and short payloads).
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
           frame.type == FrameType::ResultReply ||
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

const char *
workerHealthName(WorkerHealth health)
{
    switch (health) {
    case WorkerHealth::Healthy: return "healthy";
    case WorkerHealth::Suspect: return "suspect";
    case WorkerHealth::Dead: return "dead";
    }
    return "unknown";
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

    // The background heartbeat starts only after the shards are
    // fully bound, so the thread never observes a half-constructed
    // coordinator. It shares heartbeat() with direct callers — the
    // coordinator mutex serializes them.
    if (config_.heartbeatPeriodSeconds > 0.0) {
        const std::chrono::duration<double> period(
            config_.heartbeatPeriodSeconds);
        heartbeatThread_ = std::thread([this, period] {
            std::unique_lock<std::mutex> lock(hbMu_);
            while (true) {
                hbCv_.wait_for(lock, period,
                               [this] { return hbStop_; });
                if (hbStop_)
                    return;
                // Probe outside hbMu_ so a destructor's stop request
                // never waits behind a full heartbeat sweep.
                lock.unlock();
                heartbeat();
                lock.lock();
            }
        });
    }
}

RemoteShardCoordinator::~RemoteShardCoordinator()
{
    // Stop the background heartbeat before tearing the transports
    // down: the thread must never probe a worker mid-shutdown.
    if (heartbeatThread_.joinable()) {
        {
            const std::lock_guard<std::mutex> lock(hbMu_);
            hbStop_ = true;
        }
        hbCv_.notify_all();
        heartbeatThread_.join();
    }
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

void
RemoteShardCoordinator::queryDeadlineHint(
    double remainingSeconds) const
{
    deadlineHintSeconds_.store(
        remainingSeconds > 0.0 ? remainingSeconds : 0.0,
        std::memory_order_relaxed);
}

double
RemoteShardCoordinator::effectiveQueryDeadlineLocked() const
{
    const double hint =
        deadlineHintSeconds_.load(std::memory_order_relaxed);
    if (hint <= 0.0)
        return config_.queryDeadlineSeconds;
    // The hint only ever tightens: a generous request budget must
    // not extend waits past the operator-configured deadline.
    return std::min(hint, config_.queryDeadlineSeconds);
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

void
RemoteShardCoordinator::sweepClosedWorkers()
{
    // A transport can die outside any coordinator call (the worker
    // process was SIGKILLed, the socket closed under us); fold
    // that into the health state before acting on it.
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        Worker &worker = workers_[w];
        if (worker.health != WorkerHealth::Dead &&
            (worker.transport == nullptr ||
             !worker.transport->isOpen()))
            markDead(w);
    }
}

NetStatus
RemoteShardCoordinator::connectWorker(std::size_t w)
{
    Worker &worker = workers_[w];
    NetStatus status = NetStatus::success();
    std::shared_ptr<Transport> transport =
        worker.spec.connect ? worker.spec.connect(status)
                            : nullptr;
    if (transport == nullptr) {
        if (status.ok())
            status = NetStatus::failure(NetError::SystemError,
                                        "connect returned no "
                                        "transport");
        return status;
    }
    if (config_.decorateTransport)
        transport = config_.decorateTransport(std::move(transport));

    HelloPayload hello;
    hello.peer = "coordinator";
    status = transport->send(encodeHello(hello, /*ack=*/false));
    if (!status.ok())
        return status;
    Frame frame;
    const double deadline =
        nowSeconds() + config_.queryDeadlineSeconds;
    while (true) {
        const double remaining = deadline - nowSeconds();
        if (remaining <= 0.0)
            return NetStatus::failure(NetError::Timeout,
                                      "handshake timed out");
        status = transport->recv(frame, remaining);
        if (!status.ok())
            return status;
        if (frame.type != FrameType::HelloAck)
            continue;
        HelloPayload ack;
        status = decodeHello(frame, ack);
        if (!status.ok())
            return status;
        break;
    }
    worker.transport = std::move(transport);
    worker.health = WorkerHealth::Healthy;
    worker.consecutiveMisses = 0;
    return NetStatus::success();
}

NetStatus
RemoteShardCoordinator::bindShardTo(std::size_t w, Shard &shard)
{
    Worker &worker = workers_[w];
    BindShardPayload bind;
    bind.shardId = shard.id;
    bind.generation = shard.generation;
    bind.config = inner_;
    bind.key = key_.rowSlice(shard.offset, shard.rowCount);
    bind.value = value_.rowSlice(shard.offset, shard.rowCount);
    NetStatus status =
        worker.transport->send(encodeBindShard(bind));
    if (!status.ok()) {
        markDead(w);
        return status;
    }
    Frame frame;
    const double deadline =
        nowSeconds() + config_.queryDeadlineSeconds;
    while (true) {
        const double remaining = deadline - nowSeconds();
        if (remaining <= 0.0) {
            markMiss(w);
            ++stats_.timeouts;
            return NetStatus::failure(NetError::Timeout,
                                      "bind ack timed out");
        }
        status = worker.transport->recv(frame, remaining);
        if (!status.ok()) {
            if (status.error == NetError::Timeout) {
                markMiss(w);
                ++stats_.timeouts;
            } else {
                markDead(w);
            }
            return status;
        }
        if (frame.type == FrameType::BindAck) {
            BindAckPayload ack;
            status = decodeBindAck(frame, ack);
            if (!status.ok()) {
                markDead(w);
                return status;
            }
            if (ack.shardId != shard.id ||
                ack.generation != shard.generation)
                continue;  // ack of an earlier bind
            markAnswered(w);
            return NetStatus::success();
        }
        if (frame.type == FrameType::ErrorReply &&
            replyRequestId(frame) == 0) {
            ErrorReplyPayload error;
            if (decodeErrorReply(frame, error).ok())
                return NetStatus::failure(error.code,
                                          error.message);
            markDead(w);
            return NetStatus::failure(NetError::Malformed,
                                      "undecodable error reply");
        }
        if (isReplyFrame(frame)) {
            // A pipelined query reply overtaking the bind ack.
            worker.stash[replyRequestId(frame)] = std::move(frame);
            continue;
        }
        // HeartbeatAck and the like: skip.
    }
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
                                  bool wantFull,
                                  ResultDetail detail,
                                  std::uint64_t &requestId)
{
    QueryPayload payload;
    payload.requestId = nextRequestId_++;
    payload.shardId = shard.id;
    payload.generation = shard.generation;
    payload.wantFull = wantFull;
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
RemoteShardCoordinator::awaitReply(std::size_t w,
                                   std::uint64_t requestId,
                                   double deadlineSeconds,
                                   Frame &out)
{
    Worker &worker = workers_[w];
    const auto stashed = worker.stash.find(requestId);
    if (stashed != worker.stash.end()) {
        out = std::move(stashed->second);
        worker.stash.erase(stashed);
        return NetStatus::success();
    }
    const double deadline = nowSeconds() + deadlineSeconds;
    while (true) {
        const double remaining = deadline - nowSeconds();
        if (remaining <= 0.0) {
            ++stats_.timeouts;
            markMiss(w);
            return NetStatus::failure(NetError::Timeout,
                                      "reply deadline expired");
        }
        NetStatus status = worker.transport->recv(out, remaining);
        if (!status.ok()) {
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
        if (!isReplyFrame(out))
            continue;  // heartbeat acks, late bind acks
        const std::uint64_t id = replyRequestId(out);
        if (id == requestId)
            return NetStatus::success();
        if (out.type == FrameType::ErrorReply && id == 0) {
            // Connection-level report (the worker rejected a
            // corrupted or malformed frame — possibly ours).
            ErrorReplyPayload error;
            if (decodeErrorReply(out, error).ok())
                return NetStatus::failure(error.code,
                                          error.message);
            markDead(w);
            return NetStatus::failure(NetError::Malformed,
                                      "undecodable error reply");
        }
        if (id < operationFirstId_) {
            ++stats_.staleReplies;  // an earlier operation's reply
            continue;
        }
        // Another in-flight request's reply overtook ours
        // (pipelining or recovery interleave): stash it. The next
        // recv() overwrites `out` whole, so the frame can move.
        worker.stash[id] = std::move(out);
    }
}

NetStatus
RemoteShardCoordinator::decodeShardReply(const Frame &frame,
                                         bool wantFull,
                                         std::uint32_t shardId,
                                         PartialResult *partial,
                                         AttentionResult *result)
{
    if (frame.type == FrameType::ErrorReply) {
        ErrorReplyPayload error;
        const NetStatus status = decodeErrorReply(frame, error);
        if (!status.ok())
            return status;
        return NetStatus::failure(error.code, error.message);
    }
    if (wantFull) {
        if (frame.type != FrameType::ResultReply)
            return NetStatus::failure(NetError::Malformed,
                                      "expected a result reply");
        const NetStatus status =
            decodeResultReply(frame, resultScratch_);
        if (!status.ok())
            return status;
        if (resultScratch_.shardId != shardId)
            return NetStatus::failure(NetError::Malformed,
                                      "reply for wrong shard");
        std::swap(*result, resultScratch_.result);
        return NetStatus::success();
    }
    if (frame.type != FrameType::PartialReply)
        return NetStatus::failure(NetError::Malformed,
                                  "expected a partial reply");
    const NetStatus status =
        decodePartialReply(frame, partialScratch_);
    if (!status.ok())
        return status;
    if (partialScratch_.shardId != shardId)
        return NetStatus::failure(NetError::Malformed,
                                  "reply for wrong shard");
    std::swap(*partial, partialScratch_.partial);
    return NetStatus::success();
}

NetStatus
RemoteShardCoordinator::queryOnce(std::size_t w,
                                  const Shard &shard,
                                  const Vector &query,
                                  bool wantFull,
                                  ResultDetail detail,
                                  PartialResult *partial,
                                  AttentionResult *result)
{
    std::uint64_t requestId = 0;
    NetStatus status =
        sendQuery(w, shard, query, wantFull, detail, requestId);
    if (!status.ok())
        return status;
    Frame reply;
    status = awaitReply(w, requestId,
                        effectiveQueryDeadlineLocked(), reply);
    if (!status.ok())
        return status;
    status =
        decodeShardReply(reply, wantFull, shard.id, partial, result);
    if (status.ok())
        markAnswered(w);
    return status;
}

void
RemoteShardCoordinator::runLocal(Shard &shard, const Vector &query,
                                 bool wantFull, ResultDetail detail,
                                 PartialResult *partial,
                                 AttentionResult *result)
{
    if (shard.local == nullptr) {
        ++stats_.rebinds;
        shard.local = makeBackend(
            inner_, key_.rowSlice(shard.offset, shard.rowCount),
            value_.rowSlice(shard.offset, shard.rowCount));
    }
    ++stats_.localFallbacks;
    if (wantFull)
        shard.local->runInto(query, *result, detail);
    else
        shard.local->runPartialInto(query, *partial, detail);
}

void
RemoteShardCoordinator::recoverShard(Shard &shard,
                                     const Vector &query,
                                     bool wantFull,
                                     ResultDetail detail,
                                     PartialResult *partial,
                                     AttentionResult *result)
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
                queryOnce(primary, shard, query, wantFull, detail,
                          partial, result);
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
        if (queryOnce(w, shard, query, wantFull, detail, partial,
                      result)
                .ok()) {
            // Promote the answering replica.
            std::swap(shard.replicas[0], shard.replicas[r]);
            return;
        }
    }
    // 4. Re-replicate onto a survivor under a fresh generation
    //    (late replies from the old binding become stale).
    ++shard.generation;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
        const std::size_t w =
            (shard.id + i) % workers_.size();
        if (!workerAlive(w))
            continue;
        if (!bindShardTo(w, shard).ok())
            continue;
        ++stats_.rebinds;
        shard.replicas.assign(1, w);
        ++stats_.failovers;
        if (queryOnce(w, shard, query, wantFull, detail, partial,
                      result)
                .ok())
            return;
    }
    // 5. Local execution — the ladder never fails the query.
    shard.replicas.clear();
    runLocal(shard, query, wantFull, detail, partial, result);
}

void
RemoteShardCoordinator::beginOperation()
{
    sweepClosedWorkers();
    operationFirstId_ = nextRequestId_;
    for (Worker &worker : workers_)
        worker.stash.clear();
}

void
RemoteShardCoordinator::queryAllShards(const Vector &query,
                                       bool wantFull,
                                       ResultDetail detail,
                                       PartialResult *mergedPartial,
                                       AttentionResult *fullResult)
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
            if (sendQuery(w, shard, query, wantFull, detail, requestId)
                    .ok()) {
                if (r != 0) {
                    // The primary was gone before we even sent:
                    // promote the answering replica.
                    ++stats_.failovers;
                    std::swap(shard.replicas[0],
                              shard.replicas[r]);
                }
                pending_[s] = {true, w, requestId};
                break;
            }
        }
    }

    // Phase 2: collect in shard-index order — the fixed order the
    // deterministic merge requires — escalating per shard on
    // failure.
    partials_.resize(shards_.size());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        Shard &shard = shards_[s];
        PartialResult *partial =
            wantFull ? nullptr : &partials_[s];
        AttentionResult *result = wantFull ? fullResult : nullptr;
        bool done = false;
        if (pending_[s].sent) {
            Frame reply;
            NetStatus status = awaitReply(
                pending_[s].worker, pending_[s].requestId,
                effectiveQueryDeadlineLocked(), reply);
            if (status.ok())
                status = decodeShardReply(reply, wantFull,
                                          shard.id, partial,
                                          result);
            if (status.ok()) {
                markAnswered(pending_[s].worker);
                done = true;
            }
        }
        if (!done)
            recoverShard(shard, query, wantFull, detail, partial,
                         result);
    }

    if (!wantFull)
        mergeShardPartials(partials_, shardOffsets_, key_.rows(), dims_,
                           *mergedPartial);
}

void
RemoteShardCoordinator::runInto(const Vector &query,
                                AttentionResult &out,
                                ResultDetail detail) const
{
    auto *self = const_cast<RemoteShardCoordinator *>(this);
    std::lock_guard<std::mutex> lock(mu_);
    // Single shard: ask for the full normalized result, mirroring
    // ShardedBackend's S = 1 delegation — bit-identical for every
    // kind, including the quantized ones whose partial roundtrip
    // is not bit-tight.
    if (shards_.size() == 1) {
        self->queryAllShards(query, /*wantFull=*/true, detail, nullptr,
                             &out);
        return;
    }
    thread_local PartialResult merged;
    self->queryAllShards(query, /*wantFull=*/false, detail, &merged,
                         nullptr);
    finalizePartialInto(merged, out);
}

void
RemoteShardCoordinator::runPartialInto(const Vector &query,
                                       PartialResult &out,
                                       ResultDetail detail) const
{
    auto *self = const_cast<RemoteShardCoordinator *>(this);
    std::lock_guard<std::mutex> lock(mu_);
    self->queryAllShards(query, /*wantFull=*/false, detail, &out,
                         nullptr);
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
    sweepClosedWorkers();
    for (std::size_t w = 0; w < workers_.size(); ++w) {
        Worker &worker = workers_[w];
        if (!workerAlive(w))
            continue;
        HeartbeatPayload beat;
        beat.sequence = ++worker.heartbeatSeq;
        NetStatus status =
            worker.transport->send(encodeHeartbeat(beat, false));
        if (!status.ok()) {
            markDead(w);
            continue;
        }
        const double deadline =
            nowSeconds() + config_.heartbeatTimeoutSeconds;
        bool acked = false;
        Frame frame;
        while (true) {
            const double remaining = deadline - nowSeconds();
            if (remaining <= 0.0)
                break;
            status = worker.transport->recv(frame, remaining);
            if (!status.ok()) {
                if (status.error != NetError::Timeout)
                    markDead(w);
                break;
            }
            if (frame.type == FrameType::HeartbeatAck) {
                HeartbeatPayload ack;
                if (decodeHeartbeat(frame, ack).ok() &&
                    ack.sequence == beat.sequence) {
                    acked = true;
                    break;
                }
                continue;  // an earlier probe's ack
            }
            if (isReplyFrame(frame)) {
                ++stats_.staleReplies;
                continue;
            }
        }
        if (acked)
            markAnswered(w);
        else if (worker.health != WorkerHealth::Dead) {
            ++stats_.timeouts;
            markMiss(w);
        }
    }
    // Re-replicate the shards the dead workers were holding.
    ensureReplicationAll(/*countRebinds=*/true);
}

}  // namespace a3
