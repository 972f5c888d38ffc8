/**
 * @file
 * Seeded property tests for the BatchScheduler: each seed draws a
 * random sequence of submits (with no deadline or an already-blown
 * 1 ns one), session weights, appends, erases and drains over one to
 * five sessions of mixed engine kinds, replays it against a plain
 * per-session FIFO model, and checks the scheduler's contract after
 * every drain — exactly-once completion, ticket-sorted drains,
 * per-session FIFO claims, weighted round-robin fairness under
 * truncation, deadline sheds only on deadline requests, answers
 * bit-identical to the session backend's own runInto(), and every
 * stats() counter moving by exactly what the drain did.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <set>
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

constexpr std::size_t kDims = 8;
constexpr int kOps = 60;
constexpr std::uint64_t kSeeds = 48;

/** Deadline already blown by the time any drain claims it. */
constexpr double kBlownDeadline = 1e-9;

Matrix
randomMatrix(Rng &rng, std::size_t n)
{
    Matrix m(n, kDims);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < kDims; ++c)
            m(r, c) = static_cast<float>(rng.normal());
    return m;
}

Vector
randomQuery(Rng &rng)
{
    Vector q(kDims);
    for (auto &x : q)
        x = static_cast<float>(rng.normal());
    return q;
}

bool
sameBits(const Vector &a, const Vector &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
               0;
}

struct ModelRequest
{
    std::uint64_t ticket = 0;
    Vector query;
    bool deadline = false;
};

/** What the scheduler should hold for one session. */
struct ModelSession
{
    std::string name;
    EngineConfig config;
    SessionHandle handle;
    bool bound = false;
    std::size_t weight = 1;
    std::deque<ModelRequest> pending;
};

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    void
    bind(ModelSession &session)
    {
        const std::size_t rows =
            static_cast<std::size_t>(rng_.uniformInt(6, 20));
        const BindOutcome outcome = cache_.bindSession(
            session.name, session.config, randomMatrix(rng_, rows),
            randomMatrix(rng_, rows));
        ASSERT_EQ(outcome.status, BindStatus::BoundFresh);
        session.handle = outcome.handle;
        session.bound = true;
    }

    void
    submit(ModelSession &session)
    {
        SubmitOptions options;
        const bool deadline = rng_.bernoulli(0.25);
        if (deadline)
            options.deadlineSeconds = kBlownDeadline;
        Vector query = randomQuery(rng_);
        const AdmissionOutcome outcome =
            scheduler_->submit(session.handle, query, options);
        ++submits_;
        if (!outcome.admitted()) {
            ++rejects_;
            // The default policy sheds nothing else: only a deadline
            // the queued work already makes unmeetable.
            EXPECT_TRUE(deadline);
            EXPECT_EQ(outcome.decision,
                      AdmissionDecision::RejectedDeadlineUnmeetable);
            return;
        }
        EXPECT_TRUE(admitted_.insert(outcome.ticket).second);
        session.pending.push_back(
            {outcome.ticket, std::move(query), deadline});
    }

    void
    append(ModelSession &session)
    {
        if (!session.bound) {
            bind(session);
            return;
        }
        const std::size_t rows =
            static_cast<std::size_t>(rng_.uniformInt(1, 4));
        const AppendOutcome outcome = cache_.appendSession(
            session.handle, randomMatrix(rng_, rows),
            randomMatrix(rng_, rows));
        EXPECT_TRUE(outcome.ok());
    }

    /** One drain, checked against the model. */
    void
    drainAndCheck()
    {
        std::vector<std::size_t> live(sessions_.size(), 0);
        std::size_t totalLive = 0;
        for (std::size_t s = 0; s < sessions_.size(); ++s) {
            for (const ModelRequest &request : sessions_[s].pending)
                live[s] += request.deadline ? 0 : 1;
            totalLive += live[s];
        }

        const std::vector<ServingResult> completions =
            scheduler_->drain();
        EXPECT_TRUE(std::is_sorted(
            completions.begin(), completions.end(),
            [](const ServingResult &a, const ServingResult &b) {
                return a.ticket < b.ticket;
            }));

        // Tickets are global and each session's FIFO is ticket
        // ordered, so a session's completions, in ticket order, must
        // be exactly the head of its model queue.
        std::vector<std::size_t> slots(sessions_.size(), 0);
        for (const ServingResult &completion : completions) {
            EXPECT_TRUE(completed_.insert(completion.ticket).second)
                << "ticket " << completion.ticket << " completed twice";
            std::size_t s = 0;
            while (s < sessions_.size() &&
                   sessions_[s].name != completion.session)
                ++s;
            ASSERT_LT(s, sessions_.size());
            ModelSession &session = sessions_[s];
            ASSERT_FALSE(session.pending.empty());
            const ModelRequest request =
                std::move(session.pending.front());
            session.pending.pop_front();
            ASSERT_EQ(completion.ticket, request.ticket)
                << "session " << session.name
                << " claimed out of ticket order";

            if (request.deadline) {
                EXPECT_EQ(completion.error,
                          ServingError::DeadlineExpired);
                continue;
            }
            EXPECT_NE(completion.error, ServingError::DeadlineExpired);
            ++slots[s];
            if (!session.bound) {
                EXPECT_EQ(completion.error,
                          ServingError::SessionUnbound);
                continue;
            }
            ASSERT_TRUE(completion.ok());
            const std::shared_ptr<AttentionBackend> backend =
                cache_.lookupSession(session.name).backend();
            ASSERT_NE(backend, nullptr);
            AttentionResult want;
            backend->runInto(request.query, want, ResultDetail::Output);
            EXPECT_TRUE(sameBits(completion.result.output, want.output))
                << "ticket " << completion.ticket;
        }

        // A drain executes min(maxBatch, live) requests; sheds take no
        // slot.
        std::size_t executed = 0;
        std::size_t boundExecuted = 0;
        std::size_t boundGroups = 0;
        for (std::size_t s = 0; s < sessions_.size(); ++s) {
            executed += slots[s];
            if (sessions_[s].bound && slots[s] > 0) {
                boundExecuted += slots[s];
                ++boundGroups;
            }
        }
        const std::size_t want = maxBatch_ == 0
                                     ? totalLive
                                     : std::min(maxBatch_, totalLive);
        EXPECT_EQ(executed, want);

        // Counters move by exactly what this drain (and the submits
        // since the last one) did: one group per bound session that
        // executed, and one work unit per executed request, since
        // these sessions are unsharded.
        const std::size_t shed = completions.size() - executed;
        const BatchSchedulerStats now = scheduler_->stats();
        EXPECT_EQ(now.submitted - last_.submitted, submits_);
        EXPECT_EQ(now.rejected() - last_.rejected(), rejects_);
        EXPECT_EQ(now.answered - last_.answered, completions.size());
        EXPECT_EQ(now.shedDeadlineExpired - last_.shedDeadlineExpired,
                  shed);
        EXPECT_EQ(now.drains - last_.drains, boundExecuted > 0 ? 1u : 0u);
        EXPECT_EQ(now.groups - last_.groups, boundGroups);
        EXPECT_EQ(now.workUnits - last_.workUnits, boundExecuted);
        last_ = now;
        submits_ = 0;
        rejects_ = 0;

        // Weighted round-robin: no session gets a second pass's slot
        // before every pending session got its first pass of
        // min(weight, live) slots.
        std::vector<std::size_t> firstPass(sessions_.size(), 0);
        bool anyExtra = false;
        for (std::size_t s = 0; s < sessions_.size(); ++s) {
            firstPass[s] = std::min(sessions_[s].weight, live[s]);
            if (slots[s] > firstPass[s])
                anyExtra = true;
        }
        for (std::size_t s = 0; anyExtra && s < sessions_.size(); ++s)
            EXPECT_GE(slots[s], firstPass[s]) << sessions_[s].name;
    }

    Rng rng_{0};
    std::size_t maxBatch_ = 0;
    SessionCache cache_;
    std::unique_ptr<AttentionEngine> engine_;
    std::unique_ptr<BatchScheduler> scheduler_;
    std::vector<ModelSession> sessions_;
    std::set<std::uint64_t> admitted_;
    std::set<std::uint64_t> completed_;
    /** stats() at the last check, and the submits made since. */
    BatchSchedulerStats last_;
    std::uint64_t submits_ = 0;
    std::uint64_t rejects_ = 0;
};

TEST_P(SchedulerProperty, RandomOperationSequencesKeepInvariants)
{
    rng_ = Rng(0x5c4ed000 + GetParam());
    maxBatch_ = static_cast<std::size_t>(rng_.uniformInt(0, 7));
    engine_ = std::make_unique<AttentionEngine>(2);
    scheduler_ =
        std::make_unique<BatchScheduler>(*engine_, cache_, maxBatch_);

    const std::size_t sessionCount =
        static_cast<std::size_t>(rng_.uniformInt(1, 5));
    for (std::size_t s = 0; s < sessionCount; ++s) {
        ModelSession session;
        session.name = "s" + std::to_string(s);
        session.config.kind =
            static_cast<EngineKind>(rng_.uniformInt(0, 3));
        sessions_.push_back(std::move(session));
        bind(sessions_.back());
    }

    for (int op = 0; op < kOps; ++op) {
        ModelSession &session =
            sessions_[static_cast<std::size_t>(rng_.uniformInt(
                0, static_cast<std::int64_t>(sessionCount) - 1))];
        const double pick = rng_.uniform();
        if (pick < 0.50) {
            submit(session);
        } else if (pick < 0.58) {
            session.weight =
                static_cast<std::size_t>(rng_.uniformInt(1, 3));
            scheduler_->setSessionWeight(session.name, session.weight);
            EXPECT_EQ(scheduler_->sessionWeight(session.name),
                      session.weight);
        } else if (pick < 0.68) {
            append(session);
        } else if (pick < 0.72) {
            cache_.erase(session.name);
            session.bound = false;
        } else {
            drainAndCheck();
        }
        if (HasFatalFailure())
            return;
    }

    // Drain the rest: every admitted ticket completes exactly once.
    while (scheduler_->pending() > 0) {
        drainAndCheck();
        if (HasFatalFailure())
            return;
    }
    EXPECT_TRUE(scheduler_->drain().empty());
    EXPECT_EQ(completed_, admitted_);
    for (const ModelSession &session : sessions_)
        EXPECT_TRUE(session.pending.empty()) << session.name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Range<std::uint64_t>(0, kSeeds));

}  // namespace
}  // namespace a3
