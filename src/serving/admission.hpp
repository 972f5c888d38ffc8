/**
 * @file
 * Admission control types for the serving tier.
 *
 * An unbounded request queue turns overload into unbounded latency:
 * every queued request eventually completes, but none of them on
 * time. The serving stacks this repo grows toward (Orca-style
 * iteration schedulers, vLLM's bounded admission — see PAPERS.md)
 * instead bound the queue and shed excess load at submit time, so
 * overload degrades into a predictable reject rate while admitted
 * requests keep their latency.
 *
 * AdmissionPolicy is the knob set the BatchScheduler evaluates on
 * every submit(); AdmissionOutcome is the typed verdict it returns —
 * either an admitted ticket or the specific limit that shed the
 * request, so callers can retry, back off, or surface the reason.
 */

#ifndef A3_SERVING_ADMISSION_HPP
#define A3_SERVING_ADMISSION_HPP

#include <cstddef>
#include <cstdint>

namespace a3 {

/**
 * Load-shedding limits evaluated by BatchScheduler::submit() (and,
 * for deadlines, re-checked at drain time). Every limit is
 * 0-disabled, so the default policy admits everything — the
 * pre-admission behavior.
 */
struct AdmissionPolicy
{
    /**
     * Total requests that may be queued at once; a submit() that
     * finds the queue at this depth is rejected. 0 = unbounded.
     */
    std::size_t maxQueueDepth = 0;

    /**
     * Pending requests one session may hold; a session at its cap is
     * rejected without consuming global queue depth, so one chatty
     * client cannot crowd out admission for the rest. 0 = unbounded.
     */
    std::size_t maxPendingPerSession = 0;

    /**
     * Target request latency driving the adaptive queue-depth bound:
     * when set, the scheduler derives its effective depth as
     * target-latency / observed-p95-per-request-service-time
     * (never below 1, so a service-time spike cannot shed a submit
     * into an empty queue) and sheds submits beyond it with
     * RejectedAdaptiveDepth — a queue deeper than that cannot meet
     * the target no matter how it is ordered. The signal is the
     * scheduler's per-request service reservoir; until enough drains
     * have landed samples, the adaptive bound is inactive and only
     * the static maxQueueDepth applies. 0 = disabled.
     */
    double targetLatencySeconds = 0.0;
};

/** Why a submit() was admitted or shed. A queued request whose
 *  deadline expires before a drain claims it is admitted here and
 *  shed later through ServingError::DeadlineExpired. */
enum class AdmissionDecision : std::uint8_t {
    Admitted,
    /** Queue already holds maxQueueDepth requests. */
    RejectedQueueFull,
    /** The session already holds maxPendingPerSession requests. */
    RejectedSessionCap,
    /** Queue already at the adaptive depth derived from
     *  targetLatencySeconds / observed-p95 service time. */
    RejectedAdaptiveDepth,
    /** The request's own deadline cannot be met even if it were
     *  claimed next (queued work ahead of it × p95 service time
     *  already exceeds the budget). */
    RejectedDeadlineUnmeetable,
};

/** Stable lowercase name of a decision, for logs and bench JSON. */
inline const char *
admissionDecisionName(AdmissionDecision decision)
{
    switch (decision) {
    case AdmissionDecision::Admitted:
        return "admitted";
    case AdmissionDecision::RejectedQueueFull:
        return "rejected_queue_full";
    case AdmissionDecision::RejectedSessionCap:
        return "rejected_session_cap";
    case AdmissionDecision::RejectedAdaptiveDepth:
        return "rejected_adaptive_depth";
    case AdmissionDecision::RejectedDeadlineUnmeetable:
        return "rejected_deadline_unmeetable";
    }
    return "unknown";
}

/**
 * Verdict of one submit(): an admitted request carries its ticket
 * (monotonic in admission order); a shed request carries the limit
 * that rejected it and ticket 0.
 */
struct AdmissionOutcome
{
    AdmissionDecision decision = AdmissionDecision::Admitted;

    /** Monotonic completion-order ticket; 0 when rejected. */
    std::uint64_t ticket = 0;

    bool admitted() const
    {
        return decision == AdmissionDecision::Admitted;
    }
};

}  // namespace a3

#endif  // A3_SERVING_ADMISSION_HPP
