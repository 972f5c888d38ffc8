/**
 * @file
 * Tests for admission control and weighted-fair scheduling in the
 * serving tier: queue-depth / per-session rejection with typed
 * outcomes, shed accounting in BatchSchedulerStats, weighted
 * round-robin interleaving ratios and the starvation bound under a
 * hot session, per-session ticket ordering across truncated drains
 * interleaved with appends, latency percentile plumbing, and
 * bit-identity of every answered result against sequential
 * backend.run() under every policy.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <map>
#include <string>
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

void
expectBitIdentical(const AttentionResult &a, const AttentionResult &b)
{
    EXPECT_EQ(a.output, b.output);
    EXPECT_EQ(a.weights, b.weights);
    EXPECT_EQ(a.scores, b.scores);
    EXPECT_EQ(a.candidates, b.candidates);
    EXPECT_EQ(a.kept, b.kept);
    EXPECT_EQ(a.iterations, b.iterations);
}

/**
 * Bind `count` sessions named s0, s1, ... of `rows` rows each;
 * returns their handles in name order.
 */
std::vector<SessionHandle>
bindSessions(SessionCache &cache, Rng &rng, std::size_t count,
             std::size_t rows, std::size_t d,
             EngineKind kind = EngineKind::ExactFloat)
{
    EngineConfig cfg;
    cfg.kind = kind;
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

TEST(Admission, QueueDepthRejectsWithTypedOutcome)
{
    Rng rng(11000);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 10, d);
    AdmissionPolicy policy;
    policy.maxQueueDepth = 4;
    BatchScheduler scheduler(engine, cache, 0, policy);

    std::uint64_t lastTicket = 0;
    for (int i = 0; i < 4; ++i) {
        const AdmissionOutcome outcome =
            scheduler.submit(h[0], randomQuery(rng, d));
        ASSERT_TRUE(outcome.admitted());
        EXPECT_GT(outcome.ticket, lastTicket);
        lastTicket = outcome.ticket;
    }
    for (int i = 0; i < 2; ++i) {
        const AdmissionOutcome shed =
            scheduler.submit(h[0], randomQuery(rng, d));
        EXPECT_FALSE(shed.admitted());
        EXPECT_EQ(shed.decision, AdmissionDecision::RejectedQueueFull);
        EXPECT_EQ(shed.ticket, 0u);
    }
    EXPECT_EQ(scheduler.pending(), 4u);
    EXPECT_EQ(scheduler.drain().size(), 4u);
    // Draining frees depth: the next submit is admitted again.
    EXPECT_TRUE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_STREQ(
        admissionDecisionName(AdmissionDecision::RejectedQueueFull),
        "rejected_queue_full");
}

TEST(Admission, PerSessionCapLeavesOtherSessionsAdmissible)
{
    Rng rng(11100);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 2, 10, d);
    AdmissionPolicy policy;
    policy.maxPendingPerSession = 2;
    BatchScheduler scheduler(engine, cache, 0, policy);

    EXPECT_TRUE(scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_TRUE(scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    const AdmissionOutcome shed =
        scheduler.submit(h[0], randomQuery(rng, d));
    EXPECT_EQ(shed.decision, AdmissionDecision::RejectedSessionCap);
    // The cap is per session: s1 is unaffected by s0 being full.
    EXPECT_TRUE(scheduler.submit(h[1], randomQuery(rng, d)).admitted());
    EXPECT_TRUE(scheduler.submit(h[1], randomQuery(rng, d)).admitted());
    EXPECT_EQ(scheduler.pending(), 4u);
    EXPECT_EQ(scheduler.pendingFor("s0"), 2u);
    EXPECT_EQ(scheduler.pendingFor("s1"), 2u);
    EXPECT_EQ(scheduler.drain().size(), 4u);
}

TEST(Admission, ShedAccountingInStats)
{
    Rng rng(11300);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 2, 10, d);
    AdmissionPolicy policy;
    policy.maxQueueDepth = 3;
    policy.maxPendingPerSession = 2;
    BatchScheduler scheduler(engine, cache, 0, policy);

    for (int i = 0; i < 2; ++i)
        EXPECT_TRUE(
            scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    // Session cap trips before the global queue has filled.
    EXPECT_FALSE(
        scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_TRUE(scheduler.submit(h[1], randomQuery(rng, d)).admitted());
    // Now the global depth (3) trips for any session.
    EXPECT_FALSE(
        scheduler.submit(h[1], randomQuery(rng, d)).admitted());

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, 5u);
    EXPECT_EQ(stats.rejectedSessionCap, 1u);
    EXPECT_EQ(stats.rejectedQueueFull, 1u);
    EXPECT_EQ(stats.rejected(), 2u);
    EXPECT_EQ(scheduler.pending(), 3u);

    scheduler.resetCounters();
    const BatchSchedulerStats zeroed = scheduler.stats();
    EXPECT_EQ(zeroed.submitted, 0u);
    EXPECT_EQ(zeroed.rejected(), 0u);
    EXPECT_EQ(zeroed.queueWaitP99, 0.0);
    // Queued requests survive the counter reset.
    EXPECT_EQ(scheduler.pending(), 3u);
    EXPECT_EQ(scheduler.drain().size(), 3u);
}

TEST(Fairness, WeightedInterleavingRatioOverManyDrains)
{
    Rng rng(11400);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 2, 12, d);
    BatchScheduler scheduler(engine, cache, 8);
    scheduler.setSessionWeight("s0", 3);
    EXPECT_EQ(scheduler.sessionWeight("s0"), 3u);
    EXPECT_EQ(scheduler.sessionWeight("s1"), 1u);

    // Both sessions stay backlogged for the whole measurement, so
    // every drain of 8 must split 6:2 along the 3:1 weights.
    for (int i = 0; i < 120; ++i)
        ASSERT_TRUE(
            scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    for (int i = 0; i < 40; ++i)
        ASSERT_TRUE(
            scheduler.submit(h[1], randomQuery(rng, d)).admitted());

    std::map<std::string, std::size_t> answered;
    for (int round = 0; round < 10; ++round) {
        const auto completions = scheduler.drain();
        ASSERT_EQ(completions.size(), 8u);
        for (const ServingResult &done : completions)
            ++answered[done.session];
        // The ratio holds at every drain, not only in aggregate.
        EXPECT_EQ(answered["s0"], answered["s1"] * 3);
    }
    EXPECT_EQ(answered["s0"], 60u);
    EXPECT_EQ(answered["s1"], 20u);
}

TEST(Fairness, HotSessionCannotStarveBacklog)
{
    Rng rng(11500);
    const std::size_t d = 8;
    const std::size_t sessions = 4;
    AttentionEngine engine(2);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, sessions, 12, d);
    BatchScheduler scheduler(engine, cache, 8);

    // One hot session floods the queue; three cold sessions hold a
    // modest backlog. Strict ticket order would answer all 200 hot
    // requests first; weighted round-robin (equal weights) must give
    // every backlogged session an equal share of each drain.
    for (int i = 0; i < 200; ++i)
        ASSERT_TRUE(
            scheduler.submit(h[0], randomQuery(rng, d)).admitted());
    for (std::size_t s = 1; s < sessions; ++s)
        for (int i = 0; i < 30; ++i)
            ASSERT_TRUE(
                scheduler.submit(h[s], randomQuery(rng, d)).admitted());

    std::map<std::string, std::size_t> answered;
    std::size_t total = 0;
    for (int round = 0; round < 15; ++round) {
        for (const ServingResult &done : scheduler.drain()) {
            ++answered[done.session];
            ++total;
        }
    }
    ASSERT_EQ(total, 120u);
    // The acceptance bound: no session's completion share below half
    // its fair weight share (1/4 each). Equal-weight round-robin over
    // always-backlogged sessions actually achieves the full share.
    for (std::size_t s = 0; s < sessions; ++s) {
        EXPECT_GE(answered["s" + std::to_string(s)],
                  total / sessions / 2)
            << "session s" << s << " starved";
    }
    EXPECT_EQ(answered["s0"], 30u);
    EXPECT_EQ(answered["s1"], 30u);
}

/**
 * Regression for the truncation-boundary ordering guarantee: partial
 * drains (maxBatch < pending) interleaved with new submits and a
 * mid-stream append must never answer a session's later ticket
 * before an earlier one, and every answer must stay bit-identical to
 * a sequential run against the backend state served in that drain.
 */
TEST(Fairness, PartialDrainAppendInterleavingKeepsTicketOrder)
{
    Rng rng(11600);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    EngineConfig cfg;
    cfg.kind = EngineKind::ApproxFloat;
    std::map<std::string, SessionHandle> handles;
    for (const char *id : {"a", "b"}) {
        const Matrix key = randomMatrix(rng, 16, d);
        const Matrix value = randomMatrix(rng, 16, d);
        handles[id] = cache.bindSession(id, cfg, key, value).handle;
    }
    BatchScheduler scheduler(engine, cache, 3);

    // The checks compare whole results, diagnostics included.
    const SubmitOptions full{.detail = ResultDetail::Full};
    std::map<std::uint64_t, Vector> queryOf;
    const auto submit = [&](const std::string &session) {
        Vector q = randomQuery(rng, d);
        const AdmissionOutcome outcome =
            scheduler.submit(handles.at(session), q, full);
        ASSERT_TRUE(outcome.admitted());
        queryOf.emplace(outcome.ticket, std::move(q));
    };
    std::map<std::string, std::uint64_t> lastAnswered;
    const auto drainAndCheck = [&] {
        for (const ServingResult &done : scheduler.drain()) {
            EXPECT_GT(done.ticket, lastAnswered[done.session])
                << "session " << done.session
                << " answered out of ticket order";
            lastAnswered[done.session] = done.ticket;
            const auto backend =
                cache.lookupSession(done.session).backend();
            ASSERT_NE(backend, nullptr);
            expectBitIdentical(done.result,
                               backend->run(queryOf.at(done.ticket)));
        }
    };

    submit("a");
    submit("b");
    submit("a");
    submit("b");
    drainAndCheck();  // 3 of 4 answered; one straddles the boundary
    EXPECT_EQ(scheduler.pending(), 1u);
    // New requests append behind the leftover; a's context grows in
    // between, so its remaining requests serve the grown task.
    const AppendOutcome grown =
        cache.appendSession(handles.at("a"), randomMatrix(rng, 4, d),
                            randomMatrix(rng, 4, d));
    ASSERT_TRUE(grown.ok());
    submit("a");
    submit("b");
    drainAndCheck();
    drainAndCheck();
    EXPECT_EQ(scheduler.pending(), 0u);
}

TEST(Fairness, BitIdenticalToSequentialUnderEveryPolicy)
{
    const std::size_t d = 8;
    AttentionEngine engine(4);

    AdmissionPolicy bounded;
    bounded.maxQueueDepth = 64;
    bounded.maxPendingPerSession = 32;
    struct Shape
    {
        std::size_t maxBatch;
        AdmissionPolicy policy;
        bool weighted;
    };
    const std::vector<Shape> shapes = {
        {0, AdmissionPolicy{}, false},  // the pre-admission default
        {4, AdmissionPolicy{}, false},  // truncated drains
        {4, bounded, true},             // bounded + weighted
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE("maxBatch " + std::to_string(shape.maxBatch));
        // Same seed per shape: every policy answers the same queries.
        Rng rng(11700);
        SessionCache cache;
        const std::vector<SessionHandle> h = bindSessions(
            cache, rng, 3, 16, d, EngineKind::ApproxQuantized);
        BatchScheduler scheduler(engine, cache, shape.maxBatch,
                                 shape.policy);
        if (shape.weighted)
            scheduler.setSessionWeight("s1", 2);
        const SubmitOptions full{.detail = ResultDetail::Full};

        std::map<std::uint64_t, std::pair<std::string, Vector>> wanted;
        for (int i = 0; i < 18; ++i) {
            const std::string session = "s" + std::to_string(i % 3);
            Vector q = randomQuery(rng, d);
            const AdmissionOutcome outcome =
                scheduler.submit(h[i % 3], q, full);
            ASSERT_TRUE(outcome.admitted());
            wanted.emplace(outcome.ticket,
                           std::make_pair(session, std::move(q)));
        }
        std::size_t answered = 0;
        while (scheduler.pending() > 0) {
            for (const ServingResult &done : scheduler.drain()) {
                ++answered;
                const auto &expected = wanted.at(done.ticket);
                EXPECT_EQ(done.session, expected.first);
                const auto backend =
                    cache.lookupSession(done.session).backend();
                ASSERT_NE(backend, nullptr);
                expectBitIdentical(done.result,
                                   backend->run(expected.second));
            }
        }
        EXPECT_EQ(answered, wanted.size());
    }
}

TEST(Fairness, LatencyPercentilesPopulateAndReset)
{
    Rng rng(11800);
    const std::size_t d = 8;
    AttentionEngine engine(2);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 2, 16, d);
    BatchScheduler scheduler(engine, cache, 4);

    EXPECT_EQ(scheduler.stats().queueWaitP99, 0.0);
    for (int i = 0; i < 12; ++i)
        scheduler.submit(h[i % 2], randomQuery(rng, d));
    while (scheduler.pending() > 0)
        scheduler.drain();

    const BatchSchedulerStats stats = scheduler.stats();
    EXPECT_EQ(stats.answered, 12u);
    EXPECT_GE(stats.queueWaitP50, 0.0);
    EXPECT_GE(stats.queueWaitP95, stats.queueWaitP50);
    EXPECT_GE(stats.queueWaitP99, stats.queueWaitP95);
    EXPECT_GT(stats.drainServiceP50, 0.0);
    EXPECT_GE(stats.drainServiceP99, stats.drainServiceP50);

    scheduler.resetCounters();
    EXPECT_EQ(scheduler.stats().queueWaitP99, 0.0);
    EXPECT_EQ(scheduler.stats().drainServiceP99, 0.0);
}

TEST(Admission, DrainedDefaultWeightSessionsAreReclaimed)
{
    Rng rng(11900);
    const std::size_t d = 8;
    AttentionEngine engine(1);
    SessionCache cache;
    const std::vector<SessionHandle> h =
        bindSessions(cache, rng, 1, 10, d);
    EngineConfig cfg;
    cfg.kind = EngineKind::ExactFloat;
    BatchScheduler scheduler(engine, cache, 0);

    // A churny server mints fresh ids per conversation: once each
    // drains, its scheduler state must be reclaimed (bounded memory
    // is the whole point of admission control). All ids resolve to
    // the one bound backend via SessionCache::insert aliases.
    const auto backend = h[0].backend();
    ASSERT_NE(backend, nullptr);
    SessionHandle conv;
    for (int conversation = 0; conversation < 8; ++conversation) {
        const std::string id =
            "conv-" + std::to_string(conversation);
        cache.insert(id, backend);
        conv = cache.lookupSession(id);
        EXPECT_TRUE(
            scheduler.submit(conv, randomQuery(rng, d)).admitted());
        EXPECT_EQ(scheduler.trackedSessions(), 1u);
        EXPECT_EQ(scheduler.drain().size(), 1u);
        EXPECT_EQ(scheduler.trackedSessions(), 0u);
    }

    // A shed submit materializes no state either.
    AdmissionPolicy capped;
    capped.maxQueueDepth = 1;
    BatchScheduler bounded(engine, cache, 0, capped);
    EXPECT_TRUE(
        bounded.submit(h[0], randomQuery(rng, d)).admitted());
    EXPECT_FALSE(
        bounded.submit(conv, randomQuery(rng, d)).admitted());
    EXPECT_EQ(bounded.trackedSessions(), 1u);

    // Non-default weights persist across idle periods; resetting to
    // the default releases an idle session's entry.
    scheduler.setSessionWeight("vip", 3);
    EXPECT_EQ(scheduler.trackedSessions(), 1u);
    EXPECT_EQ(scheduler.sessionWeight("vip"), 3u);
    scheduler.setSessionWeight("vip", 1);
    EXPECT_EQ(scheduler.trackedSessions(), 0u);
    // Setting the default on an untracked session is a no-op.
    scheduler.setSessionWeight("nobody", 1);
    EXPECT_EQ(scheduler.trackedSessions(), 0u);
}

}  // namespace
}  // namespace a3
