#include "serving/batch_scheduler.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "util/logging.hpp"

namespace a3 {

namespace {

/** One session's share of a drain: its id, the tickets it claimed
 *  (in the order of its group's queries), and the backend pinned for
 *  the pass. */
struct SessionClaim
{
    std::string session;
    std::vector<std::uint64_t> tickets;
    std::shared_ptr<AttentionBackend> backend;
};

}  // namespace

const char *
servingErrorName(ServingError error)
{
    switch (error) {
    case ServingError::None:
        return "none";
    case ServingError::SessionUnbound:
        return "session_unbound";
    case ServingError::DeadlineExpired:
        return "deadline_expired";
    }
    return "unknown";
}

BatchScheduler::BatchScheduler(AttentionEngine &engine,
                               SessionCache &cache,
                               std::size_t maxBatch,
                               AdmissionPolicy policy)
    : engine_(engine), cache_(cache), maxBatch_(maxBatch),
      policy_(policy)
{
}

AdmissionOutcome
BatchScheduler::submit(const SessionHandle &handle, Vector query,
                       const SubmitOptions &options)
{
    a3Assert(handle.valid(),
             "cannot submit against an invalid session handle");
    const std::string &session = handle.id();
    const double submitSeconds = nowSeconds();

    const std::lock_guard<std::mutex> lock(mutex_);
    ++counters_.submitted;
    if (policy_.maxQueueDepth != 0 &&
        pendingCount_ >= policy_.maxQueueDepth) {
        ++counters_.rejectedQueueFull;
        return {AdmissionDecision::RejectedQueueFull, 0};
    }
    // The adaptive bound: a queue deeper than target-latency / p95
    // service time cannot meet the target however it is ordered.
    // adaptiveDepth_ stays 0 (inactive) until drains have landed
    // service samples, so a cold scheduler admits everything.
    if (policy_.targetLatencySeconds > 0.0 && adaptiveDepth_ != 0 &&
        pendingCount_ >= adaptiveDepth_) {
        ++counters_.rejectedAdaptiveDepth;
        return {AdmissionDecision::RejectedAdaptiveDepth, 0};
    }
    // Look up without inserting: a shed submit must not leave a
    // session entry behind (state is only materialized on admission,
    // and drain() reclaims it once the session idles again).
    auto it = sessions_.find(session);
    if (policy_.maxPendingPerSession != 0 && it != sessions_.end() &&
        it->second.pending.size() >= policy_.maxPendingPerSession) {
        ++counters_.rejectedSessionCap;
        return {AdmissionDecision::RejectedSessionCap, 0};
    }
    // A deadline the queue already makes unmeetable is shed now, not
    // after it has waited its budget out: the requests ahead of it
    // alone are expected to take pendingCount_ × p95 service time.
    // Never rejects into an empty queue, and inactive until the
    // service reservoir has samples.
    if (options.deadlineSeconds > 0.0 && serviceP95_ > 0.0 &&
        pendingCount_ > 0 &&
        static_cast<double>(pendingCount_) * serviceP95_ >
            options.deadlineSeconds) {
        ++counters_.rejectedDeadlineUnmeetable;
        return {AdmissionDecision::RejectedDeadlineUnmeetable, 0};
    }

    if (it == sessions_.end())
        it = sessions_.emplace(session, SessionState{}).first;
    SessionState &state = it->second;
    const std::uint64_t ticket = nextTicket_++;
    if (state.pending.empty())
        activeOrder_.push_back(session);
    state.pending.push_back({ticket, std::move(query), submitSeconds,
                             options.deadlineSeconds, options.detail});
    ++pendingCount_;
    return {AdmissionDecision::Admitted, ticket};
}

void
BatchScheduler::setSessionWeight(const std::string &session,
                                 std::size_t weight)
{
    a3Assert(weight > 0, "session weight must be positive");
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    if (it == sessions_.end()) {
        // Only a non-default weight is worth materializing state
        // for; idle default-weight sessions hold no entry at all.
        if (weight != 1)
            sessions_.emplace(session, SessionState{}).first
                ->second.weight = weight;
        return;
    }
    it->second.weight = weight;
    if (weight == 1 && it->second.pending.empty())
        sessions_.erase(it);
}

std::size_t
BatchScheduler::sessionWeight(const std::string &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? 1 : it->second.weight;
}

BatchSchedulerStats
BatchScheduler::stats() const
{
    // Copy the counters and raw reservoir windows under the lock,
    // then sort and interpolate after releasing it: a monitoring
    // thread polling stats() must not stall submit()/drain() claims
    // for the duration of two sorts, inflating the very queue-wait
    // tails it reports.
    static constexpr double kFractions[3] = {0.50, 0.95, 0.99};
    std::unique_lock<std::mutex> lock(mutex_);
    BatchSchedulerStats out = counters_;
    out.adaptiveQueueDepth = adaptiveDepth_;
    out.requestServiceP95 = serviceP95_;
    const LatencyReservoir waitWindow = queueWait_;
    const LatencyReservoir drainWindow = drainService_;
    lock.unlock();
    double wait[3];
    double drain[3];
    waitWindow.percentiles(kFractions, 3, wait);
    drainWindow.percentiles(kFractions, 3, drain);
    out.queueWaitP50 = wait[0];
    out.queueWaitP95 = wait[1];
    out.queueWaitP99 = wait[2];
    out.drainServiceP50 = drain[0];
    out.drainServiceP95 = drain[1];
    out.drainServiceP99 = drain[2];
    return out;
}

void
BatchScheduler::resetCounters()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_ = BatchSchedulerStats{};
    queueWait_.clear();
    drainService_.clear();
    // requestService_ / adaptiveDepth_ / serviceP95_ survive on
    // purpose: they are the admission signal, not a usage counter —
    // clearing them on a bench's post-warm-up reset would blind the
    // adaptive bound exactly when it has just been learned.
}

std::size_t
BatchScheduler::pending() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return pendingCount_;
}

std::size_t
BatchScheduler::pendingFor(const std::string &session) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = sessions_.find(session);
    return it == sessions_.end() ? 0 : it->second.pending.size();
}

std::size_t
BatchScheduler::trackedSessions() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return sessions_.size();
}

std::vector<ServingResult>
BatchScheduler::drain()
{
    const double claimSeconds = nowSeconds();
    constexpr std::size_t kNoGroup =
        std::numeric_limits<std::size_t>::max();

    // Claim this drain's share of the queue by weighted round-robin:
    // each pass over the pending sessions hands every session up to
    // its weight in slots, repeating until the batch is full or the
    // queue empty, so a truncated drain interleaves sessions instead
    // of answering the globally oldest tickets first. Within one
    // session the FIFO preserves ticket order, and tickets are
    // assigned under the same lock, so the per-session claim order is
    // the per-session ticket order. Each claimed request goes straight
    // into its session's group: groups in first-claim order, queries
    // in claim order. A claimed request whose queue wait has already
    // blown its deadline is shed here with a typed DeadlineExpired
    // completion — it consumes no batch slot, so expired backlog
    // cannot crowd live work out of the pass.
    std::vector<ServingResult> completions;
    std::vector<AttentionRequestGroup> groups;
    std::vector<SessionClaim> claims;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (pendingCount_ == 0)
            return {};
        const std::size_t take =
            maxBatch_ == 0 ? pendingCount_
                           : std::min(maxBatch_, pendingCount_);
        std::size_t taken = 0;
        // The group of each activeOrder_ position, once it claims.
        std::vector<std::size_t> groupAt(activeOrder_.size(), kNoGroup);
        // Rotate the round-robin start across drains so the leftover
        // slots of a non-divisible maxBatch do not always land on the
        // earliest-arrived session.
        const std::size_t start = static_cast<std::size_t>(
            drainRounds_ % activeOrder_.size());
        ++drainRounds_;
        // Sheds drop pendingCount_ below the precomputed take, so
        // the loop also stops once the queue is empty.
        while (taken < take && pendingCount_ > 0) {
            bool progress = false;
            for (std::size_t i = 0;
                 i < activeOrder_.size() && taken < take &&
                 pendingCount_ > 0;
                 ++i) {
                const std::size_t at =
                    (start + i) % activeOrder_.size();
                const std::string &name = activeOrder_[at];
                SessionState &state = sessions_[name];
                std::size_t claimed = 0;
                while (claimed < state.weight &&
                       !state.pending.empty() && taken < take) {
                    PendingRequest &request = state.pending.front();
                    // The ordering guarantee across truncation
                    // boundaries: a session's tickets leave the queue
                    // strictly ascending, drain after drain.
                    a3Assert(request.ticket > state.lastClaimedTicket,
                             "session \"", name,
                             "\" would be answered out of ticket "
                             "order");
                    state.lastClaimedTicket = request.ticket;
                    --pendingCount_;
                    progress = true;
                    // Queue wait is submit-to-claim; a submit that
                    // raced in between the clock read and the lock
                    // can look sub-zero by the race window.
                    const double wait =
                        claimSeconds - request.submitSeconds;
                    queueWait_.add(std::max(0.0, wait));
                    if (request.deadlineSeconds > 0.0 &&
                        wait > request.deadlineSeconds) {
                        ++counters_.shedDeadlineExpired;
                        completions.push_back(
                            {request.ticket, name, {},
                             ServingError::DeadlineExpired});
                        state.pending.pop_front();
                        continue;  // no batch slot consumed
                    }
                    if (groupAt[at] == kNoGroup) {
                        groupAt[at] = groups.size();
                        groups.push_back({nullptr, {}, request.detail});
                        claims.push_back({name, {}, nullptr});
                    }
                    AttentionRequestGroup &group = groups[groupAt[at]];
                    if (request.detail == ResultDetail::Full)
                        group.detail = ResultDetail::Full;
                    group.queries.push_back(std::move(request.query));
                    claims[groupAt[at]].tickets.push_back(
                        request.ticket);
                    state.pending.pop_front();
                    ++claimed;
                    ++taken;
                }
            }
            a3Assert(progress,
                     "round-robin made no progress with requests "
                     "still pending");
        }
        // Retire drained sessions: drop them from the round-robin
        // order and — unless a non-default weight must persist —
        // reclaim their state entirely, so a server minting fresh
        // session ids per conversation does not grow sessions_
        // without bound. Tickets are globally monotonic, so a
        // re-materialized entry (lastClaimedTicket back at 0) still
        // satisfies the per-session ordering assert.
        activeOrder_.erase(
            std::remove_if(activeOrder_.begin(), activeOrder_.end(),
                           [this](const std::string &name) {
                               const auto entry =
                                   sessions_.find(name);
                               if (!entry->second.pending.empty())
                                   return false;
                               if (entry->second.weight == 1)
                                   sessions_.erase(entry);
                               return true;
                           }),
            activeOrder_.end());
    }

    // Resolve each group's session once, outside the lock. The
    // shared_ptrs pin every backend for the duration of the pass even
    // if the cache evicts the session concurrently. A session unbound
    // at lookup time (evicted between submit and drain, or its
    // backend mid-rebind) completes its claimed requests with a typed
    // SessionUnbound error instead of aborting the server, and its
    // group leaves the pass; the bound groups keep their order.
    std::size_t bound = 0;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        SessionClaim &claim = claims[g];
        claim.backend = cache_.find(claim.session);
        if (claim.backend == nullptr) {
            for (const std::uint64_t ticket : claim.tickets)
                completions.push_back({ticket, claim.session, {},
                                       ServingError::SessionUnbound});
            continue;
        }
        groups[g].backend = claim.backend.get();
        if (bound != g) {
            groups[bound] = std::move(groups[g]);
            claims[bound] = std::move(claim);
        }
        ++bound;
    }
    groups.resize(bound);
    claims.resize(bound);

    // Local results: each drain owns its buffers, so concurrent
    // drain() calls from different worker threads never share state
    // (the claimed requests are already disjoint).
    std::vector<std::vector<AttentionResult>> results;
    const double passStart = nowSeconds();
    engine_.runGroupsInto(groups, results);
    const double passSeconds = nowSeconds() - passStart;

    // Flattened work units this pass scheduled: each group's queries
    // × its backend's decomposition (one per shard for a sharded
    // session). Also the denominator-side signal for the adaptive
    // depth: per-request service time, one sample per drain.
    std::size_t passUnits = 0;
    std::size_t executed = 0;
    for (std::size_t g = 0; g < claims.size(); ++g) {
        const SessionClaim &claim = claims[g];
        for (std::size_t q = 0; q < claim.tickets.size(); ++q)
            completions.push_back({claim.tickets[q], claim.session,
                                   std::move(results[g][q]),
                                   ServingError::None});
        passUnits +=
            claim.backend->workUnitCount() * claim.tickets.size();
        executed += claim.tickets.size();
    }
    std::sort(completions.begin(), completions.end(),
              [](const ServingResult &a, const ServingResult &b) {
                  return a.ticket < b.ticket;
              });

    {
        const std::lock_guard<std::mutex> lock(mutex_);
        counters_.answered += completions.size();
        counters_.groups += groups.size();
        counters_.workUnits += passUnits;
        // A drain that shed its entire claim ran no engine pass;
        // keep the service reservoirs clean of its ~0s sample.
        if (executed > 0) {
            ++counters_.drains;
            drainService_.add(passSeconds);
            requestService_.add(passSeconds /
                                static_cast<double>(executed));
            serviceP95_ = requestService_.percentile(0.95);
            if (policy_.targetLatencySeconds > 0.0 &&
                serviceP95_ > 0.0) {
                const auto depth = static_cast<std::size_t>(
                    policy_.targetLatencySeconds / serviceP95_);
                adaptiveDepth_ = std::max<std::size_t>(1, depth);
            }
        }
    }
    return completions;
}

}  // namespace a3
