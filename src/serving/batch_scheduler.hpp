/**
 * @file
 * Admission-controlled, weighted-fair request coalescing for the
 * streaming serving layer.
 *
 * Clients submit (session handle, query) requests from any thread;
 * each admitted request gets a monotonically increasing ticket, and
 * each shed request gets a typed AdmissionOutcome naming the limit
 * that rejected it (queue depth, per-session cap, estimated-cost
 * budget, adaptive depth, or an unmeetable deadline — see
 * serving/admission.hpp). Requests may carry a per-request deadline
 * and a request class (SubmitOptions): a claimed request whose queue
 * wait already blew its deadline is shed at drain time with a typed
 * ServingError::DeadlineExpired completion instead of being
 * executed, and when AdmissionPolicy::targetLatencySeconds is set
 * the effective queue depth adapts to target-latency /
 * observed-p95-service-time (the per-request service reservoir is
 * the signal). drain() forms its batch by weighted round-robin over
 * the sessions with pending work — each pass hands every session's
 * class lane up to session-weight × class-weight slots — so one
 * chatty or sharded-huge session (or one low-priority class) cannot
 * starve the rest when maxBatch truncates the drain. The claimed
 * requests are coalesced into one AttentionRequestGroup per session
 * and driven through AttentionEngine::runGroupsInto in one batched,
 * multi-threaded pass that flattens every (query, shard) work unit
 * onto the engine's lanes.
 *
 * Determinism guarantee: drain() returns results sorted by ticket,
 * requests within a session's class lane are always claimed in
 * ticket order across any sequence of truncated drains (asserted; a
 * single-class workload reduces to per-session ticket order) — so
 * drains called from one thread, or sequentially, answer each lane
 * in ticket order; concurrent drain() calls own disjoint claims and
 * may return their batches in either order — and every answer's
 * output is bit-identical to a sequential backend.run(query) — the
 * engine guarantee; at ResultDetail::Full the whole result is —
 * regardless of batch composition, weights, admission
 * policy, deadlines, coalescing, cache hits, appends between
 * drains, or the engine's thread count.
 *
 * Telemetry: per-request queue wait (submit to claim) and per-drain /
 * per-group service times are recorded into fixed-size
 * LatencyReservoir windows and surfaced as p50/p95/p99 through
 * stats(), so overload shows up as measured tail latency rather than
 * anecdotes.
 */

#ifndef A3_SERVING_BATCH_SCHEDULER_HPP
#define A3_SERVING_BATCH_SCHEDULER_HPP

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "attention/types.hpp"
#include "engine/engine.hpp"
#include "serving/admission.hpp"
#include "serving/session_cache.hpp"
#include "util/stats.hpp"

namespace a3 {

/**
 * Why a drained request carries no answer. Remote-reachable
 * conditions (a session evicted between submit and drain, a backend
 * being rebound during failover) surface here as typed errors; only
 * programmer-contract violations still abort.
 */
enum class ServingError
{
    None = 0,

    /** The session was not bound in the cache at drain time. */
    SessionUnbound,

    /** The request's queue wait exceeded its deadline before a
     *  drain claimed it; shed unexecuted. */
    DeadlineExpired,
};

/** Stable lowercase name ("none", "session_unbound",
 *  "deadline_expired"). */
const char *servingErrorName(ServingError error);

/**
 * Per-request submit() knobs beyond the session and query. The
 * defaults mean no deadline and the default request class.
 */
struct SubmitOptions
{
    /**
     * Latency budget in seconds from submit() to execution; 0 = no
     * deadline. A queued request whose wait has already exceeded
     * this when a drain claims it is shed with a
     * ServingError::DeadlineExpired completion, and a submit whose
     * deadline provably cannot be met (queued work ahead × observed
     * p95 per-request service time already over budget) is rejected
     * up front with RejectedDeadlineUnmeetable.
     */
    double deadlineSeconds = 0.0;

    /**
     * Request class for weighted scheduling: within one session,
     * each distinct class gets its own FIFO lane, and a drain pass
     * hands a lane up to session-weight × class-weight slots (see
     * setClassWeight). The empty string is the default class.
     */
    std::string requestClass;

    /**
     * How much of the answer the caller needs. The default Output
     * returns the output vector and iterations only, so the engine
     * and any remote workers skip the dense per-row diagnostics;
     * Full also returns weights, scores, candidates and kept. A
     * drain's session group runs Full if any of its requests asked
     * for Full. `output` is bit-identical either way.
     */
    ResultDetail detail = ResultDetail::Output;
};

/** One completed request: its ticket, session, and answer. */
struct ServingResult
{
    std::uint64_t ticket = 0;
    std::string session;
    AttentionResult result;

    /** ServingError::None iff `result` holds an answer. */
    ServingError error = ServingError::None;

    bool ok() const { return error == ServingError::None; }
};

/**
 * Usage counters and latency percentiles of one BatchScheduler.
 * Counters are monotonic since construction or resetCounters();
 * percentiles are computed over the retained reservoir windows at
 * stats() time and are 0 until the first samples land.
 */
struct BatchSchedulerStats
{
    /** submit() calls, admitted or shed. */
    std::uint64_t submitted = 0;

    /** Completions returned by drain(). */
    std::uint64_t answered = 0;

    /** drain() calls that executed a non-empty batch. */
    std::uint64_t drains = 0;

    /** Coalesced request groups across those drains (one per
     * distinct session per drain); answered / groups is the
     * coalescing factor. */
    std::uint64_t groups = 0;

    /** Submits shed because the queue held maxQueueDepth requests. */
    std::uint64_t rejectedQueueFull = 0;

    /** Submits shed by a session's maxPendingPerSession cap. */
    std::uint64_t rejectedSessionCap = 0;

    /** Submits shed by the maxQueuedCostBytes budget. */
    std::uint64_t rejectedCostBudget = 0;

    /** Submits shed by the adaptive queue-depth bound (derived from
     *  targetLatencySeconds / observed p95 service time). */
    std::uint64_t rejectedAdaptiveDepth = 0;

    /** Submits shed because their own deadline was already
     *  unmeetable given the queued work ahead of them. */
    std::uint64_t rejectedDeadlineUnmeetable = 0;

    /** Queued requests shed at drain time because their wait had
     *  blown their deadline (ServingError::DeadlineExpired
     *  completions). Not part of rejected(): these were admitted. */
    std::uint64_t shedDeadlineExpired = 0;

    /** Flattened (query, shard) work units executed across the
     *  drains; workUnits / answered is the mean decomposition
     *  factor the engine scheduled at. */
    std::uint64_t workUnits = 0;

    /** Request groups that carried a deadline into the engine pass:
     *  before each pass, every group holding >= 1 deadline request
     *  gets its minimum remaining budget published to the backend
     *  via queryDeadlineHint() (remote coordinators tighten their
     *  per-query waits to it instead of the static config). */
    std::uint64_t deadlineHintedGroups = 0;

    /** Total shed submits; submitted - rejected() were admitted. */
    std::uint64_t rejected() const
    {
        return rejectedQueueFull + rejectedSessionCap +
               rejectedCostBudget + rejectedAdaptiveDepth +
               rejectedDeadlineUnmeetable;
    }

    /**
     * Effective queue-depth bound at snapshot time: 0 while the
     * adaptive bound is disabled or still unlearned, else
     * max(minAdaptiveQueueDepth, targetLatencySeconds / p95). A
     * signal, not a counter — resetCounters() leaves it (and the
     * service reservoir feeding it) alone so a bench warm-up reset
     * does not blind admission.
     */
    std::size_t adaptiveQueueDepth = 0;

    /** Observed p95 of per-request service time (seconds), the
     *  adaptive-depth and deadline-unmeetable signal; 0 until
     *  enough drains have landed samples. */
    double requestServiceP95 = 0.0;

    /** Seconds from submit() to the drain that claimed the request. */
    double queueWaitP50 = 0.0;
    double queueWaitP95 = 0.0;
    double queueWaitP99 = 0.0;

    /** Seconds one drain spent in the batched engine pass. */
    double drainServiceP50 = 0.0;
    double drainServiceP95 = 0.0;
    double drainServiceP99 = 0.0;

    /** Seconds from pass start until one session group completed. */
    double groupServiceP50 = 0.0;
    double groupServiceP95 = 0.0;
    double groupServiceP99 = 0.0;
};

/**
 * Admission-controlled, weighted-fair coalescing batch executor over
 * cached per-session backends.
 */
class BatchScheduler
{
  public:
    /**
     * @param engine batched executor driving the passes (borrowed).
     * @param cache session cache requests resolve against (borrowed).
     * @param maxBatch cap on requests answered per drain(); 0 = all
     *        pending. Excess requests stay queued for the next drain.
     * @param policy load-shedding limits evaluated on every submit();
     *        the default admits everything.
     */
    BatchScheduler(AttentionEngine &engine, SessionCache &cache,
                   std::size_t maxBatch = 0,
                   AdmissionPolicy policy = AdmissionPolicy());

    /**
     * Enqueue one request against the session behind `handle` (from
     * SessionCache::bindSession() or lookupSession()), or shed it
     * per the admission policy. Thread-safe; tickets of admitted
     * requests increase in admission order. `options` adds a
     * deadline (shed-on-expiry plus the up-front unmeetable check)
     * and/or a request class (its own FIFO lane, weighted by
     * setClassWeight).
     *
     * An invalid (default-constructed) handle is a contract
     * violation and aborts. The request is queued under the handle's
     * session id, and drain() resolves that id in the cache: a query
     * through a stale handle is answered by the session's current
     * binding, or completes with ServingError::SessionUnbound when
     * the session is not bound at drain time. The cost budget reads
     * the session's charged bytes at submit (0 when unbound).
     */
    AdmissionOutcome submit(const SessionHandle &handle, Vector query,
                            const SubmitOptions &options = {});

    /**
     * Weighted-round-robin share of `session`: up to `weight`
     * requests per scheduling pass while other sessions wait (>= 1;
     * every session defaults to 1). Takes effect at the next drain();
     * the weight persists even while the session has no pending work.
     */
    void setSessionWeight(const std::string &session,
                          std::size_t weight);

    /** Current weight of `session` (1 unless set). */
    std::size_t sessionWeight(const std::string &session) const;

    /**
     * Weighted share of one request class, across every session: a
     * drain pass hands each session's lane for `klass` up to
     * session-weight × class-weight slots (>= 1; every class
     * defaults to 1, including the default empty-string class).
     * Takes effect at the next drain().
     */
    void setClassWeight(const std::string &klass, std::size_t weight);

    /** Current weight of request class `klass` (1 unless set). */
    std::size_t classWeight(const std::string &klass) const;

    /**
     * Effective adaptive queue-depth bound: 0 while disabled
     * (policy.targetLatencySeconds unset) or unlearned (no service
     * samples yet), else max(minAdaptiveQueueDepth,
     * targetLatencySeconds / observed-p95-service-time), re-derived
     * after every drain.
     */
    std::size_t adaptiveQueueDepth() const;

    /** The admission policy evaluated by submit(). */
    const AdmissionPolicy &policy() const { return policy_; }

    /** Requests currently queued. */
    std::size_t pending() const;

    /** Requests currently queued for one session. */
    std::size_t pendingFor(const std::string &session) const;

    /** Summed estimated cost (bytes) of the queued requests. */
    std::size_t queuedCostBytes() const;

    /**
     * Sessions currently holding scheduler state: pending work or a
     * non-default weight. Fully drained default-weight sessions are
     * reclaimed, so a server minting fresh session ids per
     * conversation does not grow the scheduler without bound.
     */
    std::size_t trackedSessions() const;

    /**
     * Claim up to maxBatch queued requests by weighted round-robin
     * over the pending sessions, answer them in one batched engine
     * pass, and return the completions sorted by ticket. Sessions are
     * looked up in the cache once per drain (holding the backend
     * alive across any concurrent eviction); requests of a session
     * not bound at drain time complete with
     * ServingError::SessionUnbound instead of aborting — the caller
     * re-binds and resubmits. Thread-safe: concurrent
     * drain() calls claim disjoint requests and own their result
     * buffers. Within one session, requests are claimed in ticket
     * order — a truncated drain never answers a session's later
     * ticket before an earlier one still queued (asserted).
     */
    std::vector<ServingResult> drain();

    /** Snapshot of counters plus reservoir percentiles. */
    BatchSchedulerStats stats() const;

    /**
     * Zero the usage counters and latency reservoirs — including the
     * deadline/adaptive shed counters; queued requests, session and
     * class weights, the ticket clock, and the adaptive-depth signal
     * (the per-request service reservoir and the derived bound) are
     * untouched — the last so a bench warm-up reset does not blind
     * admission. Benches and the CI regression gate reset after
     * warm-up so the reported numbers are steady-state.
     */
    void resetCounters();

  private:
    struct PendingRequest
    {
        std::uint64_t ticket = 0;
        Vector query;
        /** Steady-clock submit time, for the queue-wait reservoir. */
        double submitSeconds = 0.0;
        /** Estimated cost charged against maxQueuedCostBytes. */
        std::size_t costBytes = 0;
        /** Latency budget; 0 = none. */
        double deadlineSeconds = 0.0;
        ResultDetail detail = ResultDetail::Output;
    };

    /** One request class's FIFO within a session. */
    struct ClassLane
    {
        std::string klass;
        std::deque<PendingRequest> pending;
        /**
         * Last ticket handed to a drain, persisted across drains to
         * assert the per-lane ordering guarantee over truncation
         * boundaries.
         */
        std::uint64_t lastClaimedTicket = 0;
    };

    /** Per-session class lanes plus scheduling state. */
    struct SessionState
    {
        /** Lanes in first-use order; most sessions hold exactly one
         *  (the default class). */
        std::vector<ClassLane> lanes;
        /** Pending requests across the lanes. */
        std::size_t pendingTotal = 0;
        std::size_t weight = 1;
    };

    /** Reservoir windows: large enough for stable p99s, small enough
     *  to stay a fixed-size footprint per scheduler. */
    static constexpr std::size_t kQueueWaitWindow = 4096;
    static constexpr std::size_t kDrainServiceWindow = 1024;
    static constexpr std::size_t kGroupServiceWindow = 4096;
    /** Per-request service samples (one per drain) feeding the
     *  adaptive depth; smaller than the wait window because one
     *  sample summarizes a whole drain. */
    static constexpr std::size_t kRequestServiceWindow = 512;

    /** classWeight() without taking mutex_ (callers hold it). */
    std::size_t classWeightLocked(const std::string &klass) const;

    AttentionEngine &engine_;
    SessionCache &cache_;
    std::size_t maxBatch_ = 0;
    AdmissionPolicy policy_;

    mutable std::mutex mutex_;
    std::uint64_t nextTicket_ = 1;
    std::unordered_map<std::string, SessionState> sessions_;
    /** Per-class scheduling weights (absent = 1). */
    std::unordered_map<std::string, std::size_t> classWeights_;
    /** Sessions with pending work, ordered by first-pending arrival;
     *  the weighted round-robin iterates this. */
    std::vector<std::string> activeOrder_;
    /** Drains executed, rotating the round-robin start so truncation
     *  leftovers do not always favor the earliest-arrived session. */
    std::uint64_t drainRounds_ = 0;
    std::size_t pendingCount_ = 0;
    std::size_t queuedCostBytes_ = 0;
    /** Adaptive depth signal, persisted across resetCounters(). */
    std::size_t adaptiveDepth_ = 0;
    double serviceP95_ = 0.0;
    BatchSchedulerStats counters_;
    LatencyReservoir queueWait_{kQueueWaitWindow};
    LatencyReservoir drainService_{kDrainServiceWindow};
    LatencyReservoir groupService_{kGroupServiceWindow};
    LatencyReservoir requestService_{kRequestServiceWindow};
};

}  // namespace a3

#endif  // A3_SERVING_BATCH_SCHEDULER_HPP
