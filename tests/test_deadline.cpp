/**
 * @file
 * Tests for deadline-aware scheduling in the serving tier: drain-time
 * shedding of requests whose queue wait blew their deadline (typed
 * DeadlineExpired completions that consume no batch slot), submit-time
 * rejection of deadlines the queue already makes unmeetable, the
 * adaptive queue depth derived from target latency over observed p95
 * service time, and the persistence of the admission signal across
 * resetCounters().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "attention/backend.hpp"
#include "engine/engine.hpp"
#include "serving/admission.hpp"
#include "serving/batch_scheduler.hpp"
#include "serving/session_cache.hpp"
#include "util/random.hpp"

namespace a3 {
namespace {

Matrix
randomMatrix(Rng &rng, std::size_t n, std::size_t d)
{
    Matrix m(n, d);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < d; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

Vector
randomQuery(Rng &rng, std::size_t d)
{
    Vector q(d);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

/**
 * Bind `count` sessions named s0, s1, ... of `rows` rows each;
 * returns their handles in name order.
 */
std::vector<SessionHandle>
bindSessions(SessionCache &cache, Rng &rng, std::size_t count,
             std::size_t rows, std::size_t d)
{
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    std::vector<SessionHandle> handles;
    for (std::size_t s = 0; s < count; ++s) {
        Matrix key = randomMatrix(rng, rows, d);
        Matrix value = randomMatrix(rng, rows, d);
        const BindOutcome bound =
            cache.bindSession("s" + std::to_string(s), cfg,
                              std::move(key), std::move(value));
        handles.push_back(bound.handle);
    }
    return handles;
}

SubmitOptions
withDeadline(double seconds)
{
    SubmitOptions options;
    options.deadlineSeconds = seconds;
    return options;
}

TEST(Deadline, ExpiredRequestShedWithTypedOutcome)
{
    Rng rng(31000);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 12, d);
    BatchScheduler scheduler(engine, cache);

    // An effectively-instant deadline: any real queue wait blows it.
    const AdmissionOutcome expired = scheduler.submit(
        h[0], randomQuery(rng, d), withDeadline(1e-9));
    ASSERT_TRUE(expired.admitted());
    const AdmissionOutcome live =
        scheduler.submit(h[0], randomQuery(rng, d));
    ASSERT_TRUE(live.admitted());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 2u);
    EXPECT_EQ(completions[0].ticket, expired.ticket);
    EXPECT_FALSE(completions[0].ok());
    EXPECT_EQ(completions[0].error, ServingError::DeadlineExpired);
    EXPECT_TRUE(completions[0].result.output.empty());
    EXPECT_EQ(completions[1].ticket, live.ticket);
    EXPECT_TRUE(completions[1].ok());

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.shedDeadlineExpired, 1u);
    EXPECT_EQ(scheduler.pending(), 0u);
    EXPECT_STREQ(servingErrorName(ServingError::DeadlineExpired),
                 "deadline_expired");
}

TEST(Deadline, GenerousDeadlineAnswersBitIdentical)
{
    Rng rng(31100);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    const Matrix key = randomMatrix(rng, 24, d);
    const Matrix value = randomMatrix(rng, 24, d);
    const SessionHandle handle =
        cache.bindSession("s0", cfg, key, value).handle;
    const auto backend = handle.backend();
    BatchScheduler scheduler(engine, cache);

    const Vector query = randomQuery(rng, d);
    SubmitOptions options = withDeadline(3600.0);
    options.detail = ResultDetail::Full;
    ASSERT_TRUE(scheduler.submit(handle, query, options).admitted());
    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 1u);
    ASSERT_TRUE(completions[0].ok());
    const AttentionResult want = backend->run(query);
    EXPECT_EQ(completions[0].result.output, want.output);
    EXPECT_EQ(completions[0].result.weights, want.weights);
    EXPECT_EQ(scheduler.stats().shedDeadlineExpired, 0u);
}

TEST(Deadline, ShedConsumesNoBatchSlot)
{
    // With maxBatch = 2 and an expired request at the head of the
    // session's queue, both live requests are still answered in the
    // same drain: the shed rides along as a typed completion without
    // crowding them out of the pass.
    Rng rng(31200);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 12, d);
    BatchScheduler scheduler(engine, cache, 2);

    const AdmissionOutcome doomed = scheduler.submit(
        h[0], randomQuery(rng, d), withDeadline(1e-9));
    ASSERT_TRUE(doomed.admitted());
    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 3u);
    EXPECT_EQ(completions[0].error, ServingError::DeadlineExpired);
    EXPECT_TRUE(completions[1].ok());
    EXPECT_TRUE(completions[2].ok());
    EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(Deadline, FullyExpiredQueueDrainsCleanly)
{
    // Every claimed request sheds: the drain returns only typed
    // completions, runs no engine pass, and leaves no pending state
    // behind (the progress invariant holds through pure sheds).
    Rng rng(31300);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 2, 12, d);
    BatchScheduler scheduler(engine, cache);
    for (int i = 0; i < 3; ++i) {
        ASSERT_TRUE(scheduler
                        .submit(h[0], randomQuery(rng, d),
                                withDeadline(1e-9))
                        .admitted());
        ASSERT_TRUE(scheduler
                        .submit(h[1], randomQuery(rng, d),
                                withDeadline(1e-9))
                        .admitted());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));

    const std::vector<ServingResult> completions = scheduler.drain();
    ASSERT_EQ(completions.size(), 6u);
    for (const ServingResult &completion : completions)
        EXPECT_EQ(completion.error, ServingError::DeadlineExpired);
    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.shedDeadlineExpired, 6u);
    EXPECT_EQ(stats.drains, 0u);  // no engine pass ran
    EXPECT_EQ(scheduler.pending(), 0u);
    EXPECT_EQ(scheduler.trackedSessions(), 0u);
}

TEST(Deadline, UnmeetableDeadlineRejectedAtSubmit)
{
    Rng rng(31400);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 64, d);
    BatchScheduler scheduler(engine, cache);

    // Cold scheduler: no service signal yet, so even an absurd
    // deadline is admitted behind queued work (shed-at-drain remains
    // the backstop for it).
    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    ASSERT_TRUE(scheduler
                    .submit(h[0], randomQuery(rng, d),
                            withDeadline(1e-12))
                    .admitted());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    const std::vector<ServingResult> warmup = scheduler.drain();
    ASSERT_EQ(warmup.size(), 2u);
    EXPECT_TRUE(warmup[0].ok());
    EXPECT_EQ(warmup[1].error, ServingError::DeadlineExpired);
    ASSERT_GT(scheduler.stats().requestServiceP95, 0.0);

    // Into an EMPTY queue the same deadline is still admitted: the
    // expected wait ahead of it is zero.
    const AdmissionOutcome head = scheduler.submit(
        h[0], randomQuery(rng, d), withDeadline(1e-12));
    EXPECT_TRUE(head.admitted());

    // With work queued ahead, pending × p95 dwarfs the deadline.
    const AdmissionOutcome rejected = scheduler.submit(
        h[0], randomQuery(rng, d), withDeadline(1e-12));
    EXPECT_FALSE(rejected.admitted());
    EXPECT_EQ(rejected.decision,
              AdmissionDecision::RejectedDeadlineUnmeetable);
    EXPECT_EQ(rejected.ticket, 0u);
    // A deadline-free request is untouched by the estimate.
    EXPECT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.rejectedDeadlineUnmeetable, 1u);
    EXPECT_EQ(stats.rejected(), 1u);
    EXPECT_STREQ(admissionDecisionName(
                     AdmissionDecision::RejectedDeadlineUnmeetable),
                 "rejected_deadline_unmeetable");
}

TEST(Deadline, AdaptiveDepthEngagesAfterServiceSignal)
{
    Rng rng(31500);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 64, d);
    AdmissionPolicy policy;
    // A target far below any real service time drives the derived
    // depth to its floor — deterministic regardless of machine speed.
    policy.targetLatencySeconds = 1e-9;
    BatchScheduler scheduler(engine, cache, 0, policy);

    // Cold: the adaptive bound is inactive until a drain lands a
    // service sample, so a burst is admitted in full.
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(
            scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_EQ(scheduler.stats().adaptiveQueueDepth, 0u);
    ASSERT_EQ(scheduler.drain().size(), 4u);
    EXPECT_EQ(scheduler.stats().adaptiveQueueDepth, 1u);

    // Warm: depth 1 admits one queued request and sheds the second.
    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    const AdmissionOutcome rejected =
        scheduler.submit(h[0], randomQuery(rng, d));
    EXPECT_FALSE(rejected.admitted());
    EXPECT_EQ(rejected.decision,
              AdmissionDecision::RejectedAdaptiveDepth);

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.rejectedAdaptiveDepth, 1u);
    EXPECT_EQ(stats.adaptiveQueueDepth, 1u);
    EXPECT_GT(stats.requestServiceP95, 0.0);
    EXPECT_STREQ(admissionDecisionName(
                     AdmissionDecision::RejectedAdaptiveDepth),
                 "rejected_adaptive_depth");
}

TEST(Deadline, ResetCountersPreservesAdmissionSignal)
{
    Rng rng(31700);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 32, d);
    AdmissionPolicy policy;
    policy.targetLatencySeconds = 1e-9;
    BatchScheduler scheduler(engine, cache, 0, policy);

    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    scheduler.drain();
    ASSERT_EQ(scheduler.stats().adaptiveQueueDepth, 1u);

    scheduler.resetCounters();
    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 0u);
    EXPECT_EQ(stats.answered, 0u);
    EXPECT_EQ(stats.drains, 0u);
    EXPECT_EQ(stats.rejectedAdaptiveDepth, 0u);
    EXPECT_EQ(stats.shedDeadlineExpired, 0u);
    EXPECT_EQ(stats.queueWaitP50, 0.0);
    // The admission signal survives: counters are an observation
    // window, the learned service time is load-bearing control state.
    EXPECT_EQ(stats.adaptiveQueueDepth, 1u);
    EXPECT_GT(stats.requestServiceP95, 0.0);
    ASSERT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_EQ(scheduler.submit(h[0], randomQuery(rng, d)).decision,
              AdmissionDecision::RejectedAdaptiveDepth);
}

}  // namespace
}  // namespace a3
