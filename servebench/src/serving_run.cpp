#include "serving_run.hpp"

#include <algorithm>
#include <filesystem>
#include <set>

#include "trace/replay.hpp"
#include "util/logging.hpp"

namespace servebench {

namespace {

/** Requests answered per drain at most. */
constexpr std::size_t kMaxBatch = 8;

/** A backlog this deep sheds instead of growing without bound. */
constexpr std::size_t kMaxQueueDepth = 1024;

/** One request in this many keeps its output for the check. */
constexpr std::uint64_t kSampleEvery = 24;

/** Longest wait for a phase's requests to finish. */
constexpr double kIdleTimeoutSeconds = 60.0;

/** Length of the alternating untraced / traced open-loop slices. */
constexpr double kTraceSliceSeconds = 0.5;

std::uint64_t
mix(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ull + b + 0x632be59bd9b4e019ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

}  // namespace

ServingRun::ServingRun(const WorkloadSpec &spec, const a3::Trace &trace,
                       std::string workDir, std::uint64_t seed,
                       SpanRecorder *spans)
    : spec_(spec), trace_(trace), workDir_(std::move(workDir)),
      seed_(seed), spans_(spans)
{
    sessions_.resize(trace.sessionCount);
    for (std::uint32_t s = 0; s < trace.sessionCount; ++s)
        sessions_[s].id = std::string("s").append(std::to_string(s));
    requests_.resize(trace.countOf(a3::TraceEventKind::Query));
}

ServingRun::~ServingRun()
{
    stopServing();
    scheduler_.reset();
    cache_.reset();
    engine_.reset();
    coordinator_.reset();
    store_.reset();
    workers_.clear();
    std::error_code ignored;
    std::filesystem::remove_all(workDir_, ignored);
}

// ------------------------------------------------------------ set-up

double
ServingRun::setUp()
{
    const double start = now();
    std::filesystem::create_directories(workDir_);

    buildCatalog();
    if (spec_.remoteWorkers == 0) {
        // A fresh, empty spill directory per set-up: a reused one
        // would turn this run's cold binds into restores.
        a3::ShardStoreConfig storeConfig;
        storeConfig.spillDir = workDir_ + "/spill";
        store_ = std::make_unique<a3::ShardStore>(storeConfig);
    }
    engine_ = std::make_unique<a3::AttentionEngine>(spec_.engineLanes);
    if (spec_.remoteWorkers > 0)
        startRemote();

    a3::SessionCacheConfig cacheConfig;
    cacheConfig.byteBudget = spec_.cacheBudgetBytes;
    cacheConfig.engine = spec_.engine;
    if (store_ != nullptr) {
        cacheConfig.shardRows = spec_.shardRows;
        cacheConfig.store = store_.get();
    }
    cache_ = std::make_unique<a3::SessionCache>(cacheConfig);

    a3::AdmissionPolicy policy;
    policy.maxQueueDepth = kMaxQueueDepth;
    scheduler_ = std::make_unique<a3::BatchScheduler>(*engine_, *cache_,
                                                      kMaxBatch, policy);

    prebind();
    warmUp();

    if (store_ != nullptr)
        storeAfterSetup_ = store_->stats();
    netBytesAfterSetup_ = net_.bytes.load();
    netFramesAfterSetup_ = net_.frames.load();
    cache_->resetCounters();
    scheduler_->resetCounters();
    return now() - start;
}

void
ServingRun::buildCatalog()
{
    for (const a3::TraceEvent &event : trace_.events) {
        if (event.kind != a3::TraceEventKind::Bind ||
            event.document == a3::kPrivateDocument ||
            documentIndex_.count(event.document) != 0)
            continue;
        CatalogDocument doc;
        doc.contentSeed = event.payloadSeed;
        doc.key = std::make_shared<const a3::Matrix>(
            a3::traceContentMatrix(doc.contentSeed, event.rows, spec_.dims));
        doc.value = std::make_shared<const a3::Matrix>(
            a3::traceValueMatrix(doc.contentSeed, event.rows, spec_.dims));
        documentIndex_[event.document] = catalog_.size();
        catalog_.push_back(std::move(doc));
    }
}

void
ServingRun::startRemote()
{
    if (catalog_.size() != 1)
        a3::fatal("servebench: a remote workload serves one document, "
                  "found ", catalog_.size());
    std::vector<a3::RemoteWorkerSpec> specs;
    workers_.reserve(spec_.remoteWorkers);
    for (std::size_t w = 0; w < spec_.remoteWorkers; ++w) {
        const std::string name =
            std::string("worker").append(std::to_string(w));
        const std::string path = workDir_ + "/" + name + ".sock";
        workers_.emplace_back();
        const a3::NetStatus status =
            workers_.back().spawn(SERVEBENCH_WORKER_BIN, {path, name});
        if (!status.ok())
            a3::fatal("servebench: cannot spawn ", SERVEBENCH_WORKER_BIN,
                      ": ", status.message);
        specs.push_back(a3::unixWorkerSpec(name, path, 10.0));
    }

    a3::RemoteShardConfig config;
    config.shardRows = spec_.shardRows;
    config.replication = 1;
    config.queryDeadlineSeconds = 5.0;
    config.decorateTransport =
        [this](std::shared_ptr<a3::Transport> inner)
        -> std::shared_ptr<a3::Transport> {
        return std::make_shared<CountingTransport>(std::move(inner), net_,
                                                   spans_);
    };
    const CatalogDocument &doc = catalog_.front();
    coordinator_ = std::make_shared<a3::RemoteShardCoordinator>(
        spec_.engine, *doc.key, *doc.value, std::move(specs), config);
    for (std::size_t w = 0; w < coordinator_->workerCount(); ++w)
        if (coordinator_->workerHealth(w) != a3::WorkerHealth::Healthy)
            a3::fatal("servebench: shard worker ", w,
                      " is not healthy after set-up");
}

void
ServingRun::prebind()
{
    std::set<std::uint32_t> documents;
    std::size_t privateBound = 0;
    for (const a3::TraceEvent &event : trace_.events) {
        if (event.kind != a3::TraceEventKind::Bind)
            continue;
        if (event.document != a3::kPrivateDocument) {
            if (!documents.insert(event.document).second)
                continue;
        } else if (privateBound < spec_.prebindPrivateSessions) {
            ++privateBound;
        } else {
            continue;
        }
        Session &session = sessions_[event.session];
        session.known = true;
        session.contentSeed = event.payloadSeed;
        session.document = event.document;
        session.rows = event.rows;
        openSession(event.session, now(), Phase::Setup, 0);
        session.openDue = -1.0;
    }
}

void
ServingRun::warmUp()
{
    std::vector<a3::SessionHandle> handles;
    for (const Session &session : sessions_)
        if (session.handle.backend() != nullptr && handles.size() < 4)
            handles.push_back(session.handle);
    if (handles.empty())
        return;
    for (std::uint64_t round = 0; round < 4; ++round) {
        for (std::size_t i = 0; i < 2 * spec_.engineLanes; ++i) {
            const std::uint64_t querySeed = mix(seed_, 1000 + round * 64 + i);
            scheduler_->submit(handles[i % handles.size()],
                               a3::traceQueryVector(querySeed, spec_.dims));
        }
        while (scheduler_->pending() > 0)
            scheduler_->drain();
    }
}

a3::Matrix
ServingRun::contentKey(const Session &session) const
{
    if (session.document != a3::kPrivateDocument)
        return *catalog_[documentIndex_.at(session.document)].key;
    return a3::traceContentMatrix(session.contentSeed, session.rows,
                                  spec_.dims);
}

a3::Matrix
ServingRun::contentValue(const Session &session) const
{
    if (session.document != a3::kPrivateDocument)
        return *catalog_[documentIndex_.at(session.document)].value;
    return a3::traceValueMatrix(session.contentSeed, session.rows,
                                spec_.dims);
}

// -------------------------------------------------------- generator

void
ServingRun::startServing()
{
    server_ = std::thread([this] { serveLoop(); });
}

void
ServingRun::stopServing()
{
    if (!server_.joinable())
        return;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    serveCv_.notify_all();
    server_.join();
}

void
ServingRun::pushOp(const Op &op)
{
    // Callers hold mu_.
    inbox_.push_back(op);
    ++sessions_[op.session].queuedOps;
    serveCv_.notify_one();
}

void
ServingRun::release(const a3::TraceEvent &event, double due, Phase phase)
{
    Op op;
    op.kind = event.kind;
    op.session = event.session;
    op.rows = event.rows;
    op.seed = event.payloadSeed;
    op.document = event.document;
    op.due = due;
    op.phase = phase;

    if (event.kind != a3::TraceEventKind::Query) {
        const std::lock_guard<std::mutex> lock(mu_);
        ++released_;
        pushOp(op);
        return;
    }

    const std::size_t index = nextRequest_++;
    RequestRecord &request = requests_[index];
    request.session = event.session;
    request.querySeed = event.payloadSeed;
    request.phase = phase;
    request.due = due;
    request.sampled = mix(seed_, index) % kSampleEvery == 0;
    op.request = index;

    {
        const std::lock_guard<std::mutex> lock(mu_);
        ++released_;
        // Keep the session's order: behind a queued open or append,
        // the query waits its turn in the inbox.
        if (sessions_[event.session].queuedOps > 0) {
            pushOp(op);
            return;
        }
    }
    a3::SessionHandle handle;
    {
        ScopedSpan span(spans_, "lookup");
        handle = cache_->lookupSession(sessions_[event.session].id);
    }
    if (handle.backend() == nullptr) {
        const std::lock_guard<std::mutex> lock(mu_);
        pushOp(op);
        return;
    }
    submitRequest(index, handle);
}

void
ServingRun::submitRequest(std::size_t index,
                          const a3::SessionHandle &handle)
{
    RequestRecord &request = requests_[index];
    a3::Vector query = a3::traceQueryVector(request.querySeed, spec_.dims);
    {
        const std::lock_guard<std::mutex> lock(mu_);
        ScopedSpan span(spans_, "submit");
        request.submit = now();
        const a3::AdmissionOutcome outcome =
            scheduler_->submit(handle, std::move(query));
        if (outcome.admitted()) {
            request.ticket = outcome.ticket;
            ticketToRequest_[outcome.ticket] = index;
            span.setRequest(outcome.ticket);
            serveCv_.notify_one();
            return;
        }
        request.state = RequestState::Refused;
        ++completed_;
    }
    genCv_.notify_all();
}

bool
ServingRun::waitIdle(double timeoutSeconds)
{
    std::unique_lock<std::mutex> lock(mu_);
    return genCv_.wait_for(
        lock, std::chrono::duration<double>(timeoutSeconds),
        [this] { return completed_ == released_; });
}

std::pair<double, double>
ServingRun::runClosed(Phase phase, std::size_t window, double seconds)
{
    const double start = now();
    const double end = start + seconds;
    while (cursor_ < trace_.events.size()) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            genCv_.wait_for(lock,
                            std::chrono::duration<double>(
                                std::max(0.0, end - now())),
                            [&] { return released_ - completed_ < window; });
            if (released_ - completed_ >= window)
                break;
        }
        const double at = now();
        if (at >= end)
            break;
        // One request is a whole turn: a session's open or append is
        // released together with the query that follows it.
        const a3::TraceEvent &first = trace_.events[cursor_];
        while (cursor_ < trace_.events.size() &&
               trace_.events[cursor_].timeSeconds == first.timeSeconds &&
               trace_.events[cursor_].session == first.session)
            release(trace_.events[cursor_++], at, phase);
    }
    const double stop = std::min(now(), end);
    if (!waitIdle(kIdleTimeoutSeconds))
        stalled_ = true;
    return {start, stop};
}

std::pair<double, double>
ServingRun::runOpen(double seconds, bool alternateTracing)
{
    const double start = now();
    if (cursor_ >= trace_.events.size())
        return {start, start};
    const double origin = trace_.events[cursor_].timeSeconds;
    while (cursor_ < trace_.events.size()) {
        const a3::TraceEvent &event = trace_.events[cursor_];
        const double due = start + (event.timeSeconds - origin);
        if (due >= start + seconds)
            break;
        sleepUntil(due);
        lateness_.push_back(now() - due);
        Phase phase = Phase::Open;
        if (alternateTracing) {
            const bool traced =
                static_cast<long>((due - start) / kTraceSliceSeconds) % 2 == 1;
            spans_->setEnabled(traced);
            phase = traced ? Phase::OpenTraced : Phase::Open;
        }
        release(event, due, phase);
        ++cursor_;
    }
    if (!waitIdle(kIdleTimeoutSeconds))
        stalled_ = true;
    return {start, start + seconds};
}

// ---------------------------------------------------- serving thread

void
ServingRun::serveLoop()
{
    std::vector<Op> batch;
    while (true) {
        {
            std::unique_lock<std::mutex> lock(mu_);
            serveCv_.wait(lock, [this] {
                return stop_ || !inbox_.empty() || scheduler_->pending() > 0;
            });
            if (stop_)
                return;
            batch.swap(inbox_);
        }
        for (const Op &op : batch) {
            applyOp(op);
            const std::lock_guard<std::mutex> lock(mu_);
            --sessions_[op.session].queuedOps;
            if (op.kind != a3::TraceEventKind::Query)
                ++completed_;
        }
        if (!batch.empty())
            genCv_.notify_all();
        batch.clear();
        if (scheduler_->pending() > 0)
            drainOnce();
    }
}

void
ServingRun::applyOp(const Op &op)
{
    Session &session = sessions_[op.session];
    switch (op.kind) {
    case a3::TraceEventKind::Bind:
        if (!session.known) {
            session.known = true;
            session.contentSeed = op.seed;
            session.document = op.document;
            session.rows = op.rows;
        }
        ensureBound(op.session, op.due, op.phase);
        break;
    case a3::TraceEventKind::Append:
        applyAppend(op);
        break;
    case a3::TraceEventKind::Query: {
        const RequestRecord &request = requests_[op.request];
        const a3::SessionHandle &handle =
            ensureBound(op.session, request.due, request.phase);
        submitRequest(op.request, handle);
        break;
    }
    }
}

void
ServingRun::applyAppend(const Op &op)
{
    Session &session = sessions_[op.session];
    // Answer the session's queued queries on the context they were
    // asked against; appends must not race queries of the session.
    while (scheduler_->pendingFor(session.id) > 0)
        drainOnce();

    const a3::Matrix keyRows = a3::traceContentRows(
        session.contentSeed, session.rows, op.rows, spec_.dims);
    const a3::Matrix valueRows = a3::traceValueRows(
        session.contentSeed, session.rows, op.rows, spec_.dims);
    bool applied = false;
    if (session.handle.backend() != nullptr) {
        ScopedSpan span(spans_, "append");
        applied = cache_->appendSession(session.handle, keyRows, valueRows)
                      .ok();
    }
    session.rows += op.rows;
    if (!applied) {
        // Evicted: re-binding at the grown size applies the append.
        session.handle = a3::SessionHandle();
        ensureBound(op.session, op.due, op.phase);
    }
    appendLatencies_.push_back({(now() - op.due) * 1e3, op.phase, op.due});
    peakChargedBytes_ = std::max(peakChargedBytes_, cache_->bytesInUse());
}

const a3::SessionHandle &
ServingRun::ensureBound(std::uint32_t s, double due, Phase phase,
                        std::uint64_t request)
{
    Session &session = sessions_[s];
    if (session.handle.backend() != nullptr)
        return session.handle;
    {
        ScopedSpan span(spans_, "lookup", request);
        session.handle = cache_->lookupSession(session.id);
    }
    if (session.handle.backend() == nullptr)
        openSession(s, due, phase, request);
    return session.handle;
}

void
ServingRun::openSession(std::uint32_t s, double due, Phase phase,
                        std::uint64_t request)
{
    Session &session = sessions_[s];
    if (coordinator_ != nullptr) {
        // The document stays loaded on the workers; opening a session
        // binds the coordinator under the session's id.
        {
            ScopedSpan span(spans_, "bind", request);
            span.setStatus(static_cast<int>(a3::BindStatus::BoundShared));
            cache_->insert(session.id, coordinator_);
        }
        session.handle = cache_->lookupSession(session.id);
    } else {
        a3::Matrix key = contentKey(session);
        a3::Matrix value = contentValue(session);
        ScopedSpan span(spans_, "bind", request);
        a3::BindOutcome outcome =
            cache_->bindSession(session.id, std::move(key), std::move(value));
        span.setStatus(static_cast<int>(outcome.status));
        session.handle = outcome.handle;
    }
    if (session.openDue < 0.0) {
        session.openDue = due;
        session.openPhase = phase;
    }
    peakChargedBytes_ = std::max(peakChargedBytes_, cache_->bytesInUse());
}

void
ServingRun::drainOnce()
{
    std::vector<a3::ServingResult> results;
    {
        ScopedSpan span(spans_, "drain");
        results = scheduler_->drain();
        if (span.active())
            for (const a3::ServingResult &done : results)
                span.addTicket(done.ticket);
    }
    const double answeredAt = now();
    std::size_t finished = 0;
    for (a3::ServingResult &done : results) {
        std::size_t index = 0;
        {
            const std::lock_guard<std::mutex> lock(mu_);
            auto it = ticketToRequest_.find(done.ticket);
            if (it == ticketToRequest_.end())
                a3::fatal("servebench: completion for an unknown ticket");
            index = it->second;
            ticketToRequest_.erase(it);
        }
        RequestRecord &request = requests_[index];
        Session &session = sessions_[request.session];
        if (done.error == a3::ServingError::SessionUnbound) {
            // Evicted while queued: re-open and resubmit.
            ++unboundCompletions_;
            session.handle = a3::SessionHandle();
            const a3::SessionHandle &handle = ensureBound(
                request.session, request.due, request.phase, done.ticket);
            submitRequest(index, handle);
            continue;
        }
        ++finished;
        if (!done.ok()) {
            request.state = RequestState::Failed;
            continue;
        }
        request.state = RequestState::Answered;
        request.answer = answeredAt;
        if (session.openDue >= 0.0) {
            firstAnswers_.push_back(
                {(answeredAt - session.openDue) * 1e3, session.openPhase,
                 session.openDue});
            session.openDue = -1.0;
        }
        if (request.sampled) {
            SampledAnswer sample;
            sample.request = index;
            sample.session = request.session;
            sample.contentSeed = session.contentSeed;
            sample.document = session.document;
            sample.rows = session.rows;
            sample.querySeed = request.querySeed;
            sample.output = done.result.output;
            samples_.push_back(std::move(sample));
        }
    }
    completeItems(finished);
}

void
ServingRun::completeItems(std::size_t count)
{
    if (count == 0)
        return;
    {
        const std::lock_guard<std::mutex> lock(mu_);
        completed_ += count;
    }
    genCv_.notify_all();
}

// ------------------------------------------------------------ stats

a3::BatchSchedulerStats
ServingRun::schedulerStats() const
{
    return scheduler_->stats();
}

a3::SessionCacheStats
ServingRun::cacheStats() const
{
    return cache_->stats();
}

a3::ShardStoreStats
ServingRun::storeStats() const
{
    return store_ != nullptr ? store_->stats() : a3::ShardStoreStats{};
}

a3::RemoteCoordinatorStats
ServingRun::remoteStats() const
{
    return coordinator_ != nullptr ? coordinator_->stats()
                                   : a3::RemoteCoordinatorStats{};
}

}  // namespace servebench
